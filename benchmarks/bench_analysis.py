"""Experiment ANALYSIS — one-pass plan facts and the rewrite verifier.

Two claims from the static-analysis unification are measured
(`repro/engine/analysis.py` + `repro/engine/verify.py`):

* **routing-fact-reuse** — the backend-selection hot path reads four
  static facts per call (spine profile, symbolic supportability,
  fusible spans, transportability).  Before the unification each read
  was an independent whole-plan traversal — and the transport gate was
  a full ``pickle.dumps`` probe; now all four are fields of one
  memoized :class:`~repro.engine.analysis.PlanFacts` record.  The
  workload replays a selection loop over a fleet of compiled plans and
  requires the fact record to be **>= 2x** faster than the four
  pre-refactor traversals (kept verbatim below as the baseline).
* **verification-overhead** — rewrite verification
  (:func:`repro.engine.verify.verify_rewrite`: principal-type match +
  differential probes after every rule application) is designed to be
  cheap enough to leave on for every CI test run.  The workload is a
  tier-1-suite-shaped pass — a fresh :class:`~repro.engine.Engine`
  compiles a suite of random programs and executes each on generated
  inputs, exactly the compile+run mix the test suite spends its wall
  time on — with ``REPRO_VERIFY_PASSES`` off vs on, in turn, run by run
  (rewrite memo cleared between repetitions, so verification is cold
  every time), so a host hiccup does not fall on one side only.
  The overhead on that wall time must stay **< 10%**.

Run ``python benchmarks/bench_analysis.py`` (add ``--quick`` for CI
smoke sizes) to print the table and write ``BENCH_analysis.json`` next
to this file; under pytest the same workloads assert both gates.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import pickle
import random
from functools import partial

from harness import best_of, write_results

from repro.core.normalize import Normalize
from repro.engine import columnar
from repro.engine.analysis import ALPHA_OPS, CHEAP_REAL_OPS, TRAVERSAL_OPS, plan_facts
from repro.engine.cost_model import PlanProfile, plan_profile
from repro.engine.passes import fusible_spans
from repro.engine.plan import Plan, compile_plan
from repro.engine.symbolic import plan_supports_symbolic
from repro.engine.verify import clear_verify_cache, verification_enabled
from repro.gen import random_orset_value, random_value
from repro.lang.morphisms import Compose, Id, PairOf, Proj1, Proj2
from repro.lang.orset_ops import Alpha, OrMap, OrMu, SetToOr
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap
from repro.morphgen import random_lossless_morphism

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_analysis.json"


# -- the pre-refactor predicates, verbatim (the baseline) ---------------------
#
# These are the four independent whole-plan traversals the engine ran
# before `analysis.plan_facts` unified them (caching stripped — per-call
# cost is exactly what the selection hot path used to pay).


def legacy_plan_profile(plan: Plan) -> PlanProfile:
    spine_maps = spine_stages = 0
    top = plan.nodes[plan.root]
    steps = top.kids if top.op == "chain" else (plan.root,)
    for idx in steps:
        node = plan.nodes[idx]
        if node.op == "map":
            spine_maps += 1
            spine_stages += 1
        elif node.op == "leaf" and isinstance(node.source, TRAVERSAL_OPS):
            spine_stages += 1
    has_normalize = any(
        node.op == "leaf" and isinstance(node.source, (Normalize,) + ALPHA_OPS)
        for node in plan.nodes
    )
    fused_stages = 0
    if spine_stages:
        fused_stages = max(
            (len(stages) for _start, _stop, stages in legacy_fusible_spans(plan)),
            default=0,
        )
    return PlanProfile(
        spine_maps, spine_stages, has_normalize, len(plan.nodes), fused_stages
    )


def _legacy_body_is_world_preserving(plan: Plan, idx: int) -> bool:
    node = plan.nodes[idx]
    if node.op == "id":
        return True
    if node.op == "leaf" and isinstance(node.source, Normalize):
        return True
    if node.op == "chain":
        return all(_legacy_body_is_world_preserving(plan, kid) for kid in node.kids)
    return False


def legacy_plan_supports_symbolic(plan: Plan) -> bool:
    top = plan.nodes[plan.root]
    steps = list(top.kids) if top.op == "chain" else [plan.root]
    for idx in steps:
        node = plan.nodes[idx]
        if node.op == "id":
            continue
        if node.op == "leaf" and isinstance(
            node.source, CHEAP_REAL_OPS + (Normalize, Alpha)
        ):
            continue
        if (
            node.op == "map"
            and isinstance(node.source, OrMap)
            and _legacy_body_is_world_preserving(plan, node.kids[0])
        ):
            continue
        return False
    return True


def legacy_fusible_spans(plan: Plan) -> list:
    root = plan.nodes[plan.root]
    steps = list(root.kids) if root.op == "chain" else [plan.root]
    spans: list = []
    i = 0
    while i < len(steps):
        stages: list = []
        j = i
        while j < len(steps):
            stage = columnar.stage_of(plan.nodes[steps[j]])
            if stage is None:
                break
            stages.append(stage)
            j += 1
        if len(stages) >= 2:
            spans.append((i, j, stages))
        elif len(stages) == 1 and stages[0][0] == "map":
            if columnar.raw_kernels(stages[0][3]):
                spans.append((i, j, stages))
        i = max(j, i + 1)
    return spans


def legacy_can_transport(plan: Plan) -> bool:
    try:
        pickle.dumps(plan)
    except Exception:
        return False
    return True


def _legacy_selection_reads(plan: Plan) -> tuple:
    profile = legacy_plan_profile(plan)
    return (
        profile.spine_stages,
        profile.has_normalize,
        legacy_plan_supports_symbolic(plan),
        bool(legacy_fusible_spans(plan)),
        legacy_can_transport(plan),
    )


def _facts_selection_reads(plan: Plan) -> tuple:
    profile = plan_profile(plan)
    return (
        profile.spine_stages,
        profile.has_normalize,
        plan_supports_symbolic(plan),
        bool(fusible_spans(plan)),
        plan_facts(plan).transportable,
    )


# -- workload inputs ----------------------------------------------------------


def _fusion_spine(length: int):
    """A map/mu chain whose spine is one long fusible span."""
    double = Compose(plus(), PairOf(Proj1(), Proj2()))
    m = SetMap(Compose(double, PairOf(Id(), Id())))
    for i in range(length - 1):
        m = Compose(SetMap(double), m) if i % 2 else Compose(m, SetMap(double))
    return m


def _program_suite(count: int):
    """Random lossless programs plus hand-built spine shapes."""
    programs = [
        Compose(OrMu(), Compose(OrMap(Normalize()), SetToOr())),
        _fusion_spine(6),
        _fusion_spine(12),
    ]
    rng = random.Random(0)
    while len(programs) < count:
        _v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
        f, _ = random_lossless_morphism(t, rng, depth=4)
        programs.append(f)
    return programs


def _test_suite_workload(count: int, runs_per_program: int):
    """(program, inputs) pairs shaped like what tier-1 tests execute."""
    rng = random.Random(1)
    workload = []
    while len(workload) < count:
        v, t = random_orset_value(rng, max_depth=3, max_width=4, min_width=1)
        f, _ = random_lossless_morphism(t, rng, depth=4)
        inputs = [v] + [
            random_value(t, rng, max_width=4, min_width=1)
            for _ in range(runs_per_program - 1)
        ]
        workload.append((f, inputs))
    return workload


def _tier1_style_pass(workload, verify: bool) -> None:
    """Compile-and-run a suite on a fresh engine, the tier-1 cost mix."""
    from repro.engine import Engine

    os.environ["REPRO_VERIFY_PASSES"] = "1" if verify else "0"
    clear_verify_cache()
    assert verification_enabled() is verify
    engine = Engine()
    for program, inputs in workload:
        for value in inputs:
            engine.run(program, value)


def _verification_overhead(workload, repeat: int) -> tuple[float, float]:
    """The best of *repeat* unverified and of *repeat* verified passes,
    timed in turn, run by run, so both sides see the same host state."""
    saved = os.environ.get("REPRO_VERIFY_PASSES")
    try:
        _tier1_style_pass(workload, verify=False)  # warm imports once
        best = {False: float("inf"), True: float("inf")}
        for _ in range(repeat):
            for verify in best:
                run = partial(_tier1_style_pass, workload, verify=verify)
                best[verify] = min(best[verify], best_of(run, repeat=1))
    finally:
        if saved is None:
            os.environ.pop("REPRO_VERIFY_PASSES", None)
        else:
            os.environ["REPRO_VERIFY_PASSES"] = saved
    return best[False], best[True]


def _workloads(quick: bool = False) -> list[dict]:
    results: list[dict] = []

    # 1. routing-fact-reuse: the selection hot path, fact record vs the
    # four pre-refactor traversals.
    fleet = _program_suite(12 if quick else 30)
    plans = [compile_plan(p) for p in fleet]
    for plan in plans:
        assert _facts_selection_reads(plan) == _legacy_selection_reads(plan), (
            plan.source.describe()
        )
    rounds = 60 if quick else 200

    def read_all(reader):
        for plan in plans:
            for _ in range(rounds):
                reader(plan)

    t_legacy = best_of(lambda: read_all(_legacy_selection_reads))
    t_facts = best_of(lambda: read_all(_facts_selection_reads))
    results.append(
        {
            "workload": "routing-fact-reuse",
            "plans": len(plans),
            "reads_per_plan": rounds,
            "legacy_s": t_legacy,
            "facts_s": t_facts,
            "speedup": t_legacy / t_facts,
        }
    )

    # 2. verification-overhead: a tier-1-suite-shaped compile+run pass,
    # cold-verified vs unverified.
    workload = _test_suite_workload(
        count=12 if quick else 30, runs_per_program=80 if quick else 100
    )
    t_off, t_on = _verification_overhead(workload, repeat=7 if quick else 5)
    results.append(
        {
            "workload": "verification-overhead",
            "programs": len(workload),
            "unverified_s": t_off,
            "verified_s": t_on,
            "overhead_pct": (t_on / t_off - 1.0) * 100.0,
        }
    )
    return results


def main() -> None:
    args = _parse_args()
    results = _workloads(quick=args.quick)
    for row in results:
        if row["workload"] == "routing-fact-reuse":
            print(
                f"routing-fact-reuse      legacy {row['legacy_s'] * 1000:8.2f} ms"
                f"  facts {row['facts_s'] * 1000:8.2f} ms"
                f"  speedup {row['speedup']:5.1f}x"
            )
        else:
            print(
                f"verification-overhead   off    {row['unverified_s'] * 1000:8.2f} ms"
                f"  on    {row['verified_s'] * 1000:8.2f} ms"
                f"  overhead {row['overhead_pct']:+5.1f}%"
            )
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="plan-facts reuse and rewrite-verifier overhead benchmarks"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (seconds, not minutes)"
    )
    return parser.parse_args()


# -- pytest entry points (the acceptance claims) -----------------------------


def test_cached_facts_beat_legacy_traversals():
    """The acceptance bar: >= 2x on the backend-selection read path."""
    plans = [compile_plan(p) for p in _program_suite(12)]
    for plan in plans:
        assert _facts_selection_reads(plan) == _legacy_selection_reads(plan)

    def read_all(reader):
        for plan in plans:
            for _ in range(60):
                reader(plan)

    t_legacy = best_of(lambda: read_all(_legacy_selection_reads))
    t_facts = best_of(lambda: read_all(_facts_selection_reads))
    assert t_facts * 2 <= t_legacy, (t_facts, t_legacy)


def test_verifier_overhead_stays_under_ten_percent():
    """CI gate: always-on verification costs < 10% of suite wall time."""
    workload = _test_suite_workload(count=12, runs_per_program=80)
    t_off, t_on = _verification_overhead(workload, repeat=7)
    assert t_on < t_off * 1.10, (t_off, t_on)


if __name__ == "__main__":
    main()
