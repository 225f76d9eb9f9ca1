"""Experiment COST-MODEL — static estimation, scheduling, adaptive backends.

Five workloads measure the cost-model layer (`repro/engine/cost_model.py`):

* **tight-family-existential** — the acceptance workload: an existential
  query (first witness) over the Theorem 6.5 tight family, where the
  normal form has 3^k worlds.  The fixed ``eager`` baseline executes the
  whole plan (one normalization per element) before yielding; the
  adaptive ``auto`` backend reads the static estimate (~3^k worlds over
  a streamable spine), picks ``streaming`` and yields the first witness
  after touching a single element.  Target: >= 2x.
* **static-estimation** — ``estimate_m_value`` (one structural
  traversal) vs ``m_value`` (materializes every world) on a tight-family
  witness: the Section 6 bounds computed without normalizing.
* **optimizer-scheduling** — the cost-guided pipeline driver
  (census-filtered passes, best-first rule choice) vs the old
  fixed-order fixed-point driver (`Pipeline.run_fixed_order`) on long
  fusion chains that touch few operator families — where skipping
  irrelevant passes pays.
* **estimator-soundness** — not a timing: samples random values and
  records the estimate/actual ratios; `estimate >= actual` regressing
  fails the run (and the CI job, via the pytest entry point below).
* **auto-regret** — ``backend="auto"`` against the fastest fixed
  in-process backend (``eager``, ``streaming``, ``fused``) on the two
  costliest batch shapes of perfbench's batch-mix: ``map(alpha)`` over
  200 or-set families and ``map(normalize)`` over 48 six-wide designs,
  two inputs per ``io.run_json_many`` call.  The regret is auto's time
  over the fastest's; the gate holds it at or under
  :data:`REGRET_BOUND`.

Run ``python benchmarks/bench_cost_model.py`` (add ``--quick`` for CI
smoke sizes) to print the table and write ``BENCH_cost_model.json``
next to this file; under pytest the same workloads assert the >= 2x
adaptive win, estimator soundness and the regret bound.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import random
from functools import partial

from harness import best_of, write_results

from repro import io
from repro.core.costs import estimate_m_value, m_value, tight_family
from repro.core.normalize import Normalize
from repro.engine import Engine
from repro.engine.passes import default_pipeline
from repro.gen import random_orset_value
from repro.io import value_to_json
from repro.lang.morphisms import Compose, Id, PairOf, Proj1, Proj2
from repro.lang.primitives import plus
from repro.lang.orset_ops import OrMap, SetToOr
from repro.lang.set_ops import SetMap
from repro.values.values import vorset, vpair, vset

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_cost_model.json"

#: The existential tight-family query: expose the or-set spine, then
#: normalize each member — eager pays for every member, streaming for one.
EXISTENTIAL_QUERY = Compose(OrMap(Normalize()), SetToOr())


#: The worst ``auto`` time over the fastest fixed backend the gate allows.
REGRET_BOUND = 1.25

#: The fixed in-process backends ``auto`` is measured against.
REGRET_BACKENDS = ("eager", "streaming", "fused")


def _design(width: int, base: int):
    """A Section 4 design: ``({<a_i, b_i> : i <= width}, <c, d>)``."""
    return vpair(
        vset(*(vorset(base + 10 * i, base + 10 * i + 5) for i in range(1, width + 1))),
        vorset(base + 1, base + 2),
    )


def _families(n: int, base: int):
    """A set of *n* or-set families of two or three two-way or-sets."""
    return vset(
        *(
            vset(*(vorset(base + 1000 * j + 2 * i, base + 1000 * j + 2 * i + 1) for i in range(2 + j % 2)))
            for j in range(n)
        )
    )


def _regret_calls() -> dict[str, list]:
    """Batch-mix's two costliest shapes: two JSON inputs per call."""
    bases = (10**7, 2 * 10**7)
    return {
        "map(alpha)": [value_to_json(_families(200, b)) for b in bases],
        "map(normalize)": [
            value_to_json(vset(*(_design(6, b + 1000 * j) for j in range(48)))) for b in bases
        ],
    }


def _regret(program: str, inputs: list, repeat: int = 7) -> dict[str, float]:
    """The best of *repeat* ``io.run_json_many`` calls for ``auto`` and for
    each fixed backend.  Within a repetition the sides run in turn, in an
    order rotated per repetition, so host drift hits every side; garbage
    left by one call is collected before the next is timed."""
    sides = ("auto", *REGRET_BACKENDS)
    expected = io.run_json_many(program, inputs, backend="eager")
    assert io.run_json_many(program, inputs, backend="auto") == expected
    best = dict.fromkeys(sides, float("inf"))
    for r in range(repeat):
        k = r % len(sides)
        for side in sides[k:] + sides[:k]:
            gc.collect()
            call = partial(io.run_json_many, program, inputs, backend=side)
            best[side] = min(best[side], best_of(call, repeat=1))
    return best


def _first_world(engine: Engine, backend: str, x) -> object:
    return next(iter(engine.possibilities(EXISTENTIAL_QUERY, x, backend=backend)))


def _fusion_chain(length: int):
    """A long map chain over few operator families (fusion-heavy)."""
    double = Compose(plus(), PairOf(Proj1(), Proj2()))
    stage = SetMap(Compose(double, PairOf(Id(), Id())))
    m = stage
    for _ in range(length - 1):
        m = Compose(stage, m)
    return m


def _mixed_pipeline(length: int):
    """A long pipeline that is mostly leaf steps with occasional fusable
    map segments — the operator-sparse shape where census-based pass
    skipping pays (most passes' trigger classes never occur)."""
    m = plus()
    for i in range(length - 1):
        step = SetMap(plus()) if i % 10 in (3, 4) else plus()
        m = Compose(step, m)
    return m


def _workloads(quick: bool = False) -> list[dict]:
    results: list[dict] = []

    # 1. tight-family-existential: adaptive backend choice vs fixed eager.
    k = 300 if quick else 1200
    x, _t = tight_family(k)
    engine = Engine()
    assert engine.choose_backend(
        EXISTENTIAL_QUERY, x, existential=True
    ).backend == "streaming"
    assert engine.choose_backend(
        EXISTENTIAL_QUERY, x, existential=True, world_query=True
    ).backend == "symbolic"
    witness_auto = _first_world(engine, "auto", x)
    witness_eager = _first_world(engine, "eager", x)
    assert witness_auto == witness_eager
    t_eager = best_of(lambda: _first_world(engine, "eager", x))
    t_auto = best_of(lambda: _first_world(engine, "auto", x))
    results.append(
        {
            "workload": "tight-family-existential",
            "k": k,
            "estimated_worlds_log3": k,
            "eager_s": t_eager,
            "auto_s": t_auto,
            "speedup": t_eager / t_auto,
        }
    )

    # 2. static-estimation: Section 6 bounds without materializing worlds.
    # (time the raw possibilities traversal — `m_value` itself memoizes
    # via `normalization_measures`, which would hide the blow-up.)
    from repro.core.normalize import possibilities

    k_est = 8 if quick else 10
    y, t_y = tight_family(k_est)
    assert estimate_m_value(y) == m_value(y, t_y) == 3**k_est
    t_measure = best_of(lambda: len(possibilities(y, t_y)), repeat=1)
    t_estimate = best_of(lambda: estimate_m_value(y))
    results.append(
        {
            "workload": "static-estimation",
            "k": k_est,
            "worlds": 3**k_est,
            "materialized_s": t_measure,
            "estimated_s": t_estimate,
            "speedup": t_measure / t_estimate,
        }
    )

    # 3. optimizer-scheduling: cost-guided driver vs fixed-order driver,
    # on (a) an operator-sparse pipeline and (b) a dense fusion chain.
    length = 120 if quick else 400
    for label, program in (
        ("optimizer-scheduling-sparse", _mixed_pipeline(length)),
        ("optimizer-scheduling-dense", _fusion_chain(length // 2)),
    ):
        guided = default_pipeline()
        fixed = default_pipeline()
        assert guided.run(program) == fixed.run_fixed_order(program)
        t_fixed = best_of(lambda p=program: fixed.run_fixed_order(p))
        t_guided = best_of(lambda p=program: guided.run(p))
        results.append(
            {
                "workload": label,
                "chain_length": length,
                "fixed_order_s": t_fixed,
                "cost_guided_s": t_guided,
                "speedup": t_fixed / t_guided,
            }
        )

    # 4. estimator-soundness: the regression gate (not a timing).
    samples = 200 if quick else 600
    rng = random.Random(0)
    worst = 0.0
    unsound = 0
    for _ in range(samples):
        v, t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        actual = m_value(v, t)
        estimate = estimate_m_value(v)
        if estimate < actual:
            unsound += 1
        if actual:
            worst = max(worst, estimate / actual)
    assert unsound == 0, f"{unsound} unsound estimates out of {samples}"
    results.append(
        {
            "workload": "estimator-soundness",
            "samples": samples,
            "unsound": unsound,
            "worst_overestimate_ratio": worst,
        }
    )

    # 5. auto-regret: auto over the fastest fixed in-process backend.
    for program, inputs in _regret_calls().items():
        best = _regret(program, inputs)
        fastest = min(best[name] for name in REGRET_BACKENDS)
        results.append(
            {
                "workload": "auto-regret",
                "program": program,
                "inputs": len(inputs),
                **{f"{side}_s": t for side, t in best.items()},
                "regret": best["auto"] / fastest,
                "bound": REGRET_BOUND,
            }
        )
    return results


def main() -> None:
    args = _parse_args()
    results = _workloads(quick=args.quick)
    print(f"{'workload':<26} {'baseline (ms)':>14} {'cost-model (ms)':>16} {'speedup':>8}")
    for row in results:
        if row["workload"] == "auto-regret":
            print(
                f"{'auto-regret ' + row['program']:<26} {'auto (ms)':>14}"
                f" {row['auto_s'] * 1000:>16.2f} {row['regret']:>7.2f}x"
                f" (bound {row['bound']}x)"
            )
            continue
        if "speedup" not in row:
            print(f"{row['workload']:<26} {'sound':>14} ({row['samples']} samples)")
            continue
        base = row.get("eager_s") or row.get("materialized_s") or row.get("fixed_order_s")
        new = row.get("auto_s") or row.get("estimated_s") or row.get("cost_guided_s")
        print(
            f"{row['workload']:<26} {base * 1000:>14.2f}"
            f" {new * 1000:>16.2f} {row['speedup']:>7.1f}x"
        )
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="cost-model estimation, scheduling and adaptive-backend benchmarks"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (seconds, not minutes)"
    )
    return parser.parse_args()


# -- pytest entry points (the acceptance claims) -----------------------------


def test_adaptive_backend_beats_eager_on_tight_family():
    """The acceptance bar: >= 2x on the tight-family existential workload
    purely from the adaptive backend choice."""
    x, _t = tight_family(300)
    engine = Engine()
    assert _first_world(engine, "auto", x) == _first_world(engine, "eager", x)
    t_eager = best_of(lambda: _first_world(engine, "eager", x))
    t_auto = best_of(lambda: _first_world(engine, "auto", x))
    assert t_auto * 2 <= t_eager, (t_auto, t_eager)


def test_estimator_soundness_does_not_regress():
    """CI gate: the static estimator stays a sound upper bound."""
    rng = random.Random(0)
    for _ in range(150):
        v, t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        assert estimate_m_value(v) >= m_value(v, t), str(v)


def test_auto_regret_stays_within_bound():
    """CI gate: on batch-mix's costliest shapes, ``auto`` is at most
    :data:`REGRET_BOUND` times the fastest fixed in-process backend."""
    for program, inputs in _regret_calls().items():
        best = _regret(program, inputs)
        fastest = min(best[name] for name in REGRET_BACKENDS)
        assert best["auto"] <= REGRET_BOUND * fastest, (program, best)


def test_cost_guided_driver_matches_fixed_order():
    chain = _fusion_chain(30)
    assert default_pipeline().run(chain) == default_pipeline().run_fixed_order(chain)


if __name__ == "__main__":
    main()
