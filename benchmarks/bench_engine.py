"""Experiment ENGINE — direct interpretation vs compiled runs.

Three workloads compare the recursive interpreter (``m.apply``) against
the engine's compile-and-run path (``engine.run``):

* **optimized-query** — the ablation family of ``bench_optimizer``:
  ``ormap(map(f)) o alpha`` on k two-element or-sets.  The engine's pass
  pipeline rewrites the exponential post-processing into a linear
  pre-pass before compiling.
* **repeated-normalization** — the Section 4 design object, normalized
  many times (the shape of possible-worlds workloads).  Both columns run
  the normal-form kernel on every repeat: the engine caches plans, not
  normal forms, so the row measures what the engine adds per call (a
  plan-cache hit and the backend choice), which must stay small.
* **straight-line** — a fused map chain with no normalization, checking
  the compiled plan is not slower than direct recursion even when the
  optimizer finds nothing exponential.

A fourth, **normalize-kernel**, times the normal-form kernel
(``normalize``) against the paper's rewrite loop
(``normalize_with_strategy`` with the innermost strategy) that it
replaced as the engine's ``normalize``, on design(8) and
tight_family(7).  A fifth, **collect-normal-forms**, times building one
set of 16 fresh design(8) normal forms against computing them: every
node carries its sort key, so the set's constructor sorts by keys it
reads rather than re-walking each normal form.

Run ``python benchmarks/bench_engine.py`` to print the table and write
``BENCH_engine.json`` next to this file; under pytest the same workloads
assert the engine-not-slower and kernel-beats-rewrite claims with
generous margins.
"""

from __future__ import annotations

import pathlib
import time

from harness import best_of, write_results

from repro.core.costs import tight_family
from repro.core.normalize import Normalize, normalize, normalize_with_strategy
from repro.engine import Engine
from repro.lang.morphisms import Compose, Id, PairOf
from repro.lang.orset_ops import Alpha, OrMap
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap
from repro.types.rewrite import innermost_strategy
from repro.values.values import SetValue, vorset, vpair, vset

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_engine.json"

DOUBLE = Compose(plus(), PairOf(Id(), Id()))
NAIVE = Compose(OrMap(SetMap(DOUBLE)), Alpha())
FUSED_CHAIN = Compose(SetMap(DOUBLE), Compose(SetMap(DOUBLE), SetMap(DOUBLE)))


def _family(k: int):
    """k two-element or-sets with all elements distinct (2^k choices)."""
    return vset(*(vorset(2 * i, 2 * i + 1) for i in range(k)))


def _design(width: int, base: int = 0):
    """A Section 4-shaped object whose normal form has 2^(width+1) worlds."""
    return vpair(
        vset(*(vorset(base + 10 * i, base + 10 * i + 5) for i in range(1, width + 1))),
        vorset(base + 1, base + 2),
    )


def _collect_normal_forms(count: int = 16, width: int = 8) -> tuple[float, float]:
    """Best-of-3 seconds to compute *count* fresh design(width) normal
    forms, and to collect each round's fresh ones in one SetValue."""
    designs = [_design(width, base=1000 * i) for i in range(count)]
    compute = collect = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        forms = [normalize(d) for d in designs]
        computed = time.perf_counter()
        SetValue(forms)
        compute = min(compute, computed - start)
        collect = min(collect, time.perf_counter() - computed)
    return compute, collect


def _workloads() -> list[dict]:
    results: list[dict] = []

    # 1. optimized-query: the pass pipeline pays off at execution time.
    engine = Engine()
    x = _family(10)
    assert engine.run(NAIVE, x) == NAIVE.apply(x)
    t_direct = best_of(lambda: NAIVE.apply(x))
    t_engine = best_of(lambda: engine.run(NAIVE, x))
    results.append(
        {
            "workload": "optimized-query",
            "k": 10,
            "direct_s": t_direct,
            "engine_s": t_engine,
            "speedup": t_direct / t_engine,
        }
    )

    # 2. repeated-normalization: the engine's per-call cost over the kernel.
    engine = Engine()
    repeats = 25
    value = _design(7)
    program = Normalize()
    assert engine.run(program, value) == program.apply(value)

    def direct_loop():
        for _ in range(repeats):
            program.apply(value)

    def engine_loop():
        for _ in range(repeats):
            engine.run(program, value)

    t_direct = best_of(direct_loop)
    t_engine = best_of(engine_loop)
    results.append(
        {
            "workload": "repeated-normalization",
            "repeats": repeats,
            "direct_s": t_direct,
            "engine_s": t_engine,
            "speedup": t_direct / t_engine,
        }
    )

    # 3. straight-line: compiled fused chain vs direct recursion.
    engine = Engine()
    xs = vset(*range(400))
    assert engine.run(FUSED_CHAIN, xs) == FUSED_CHAIN.apply(xs)
    t_direct = best_of(lambda: FUSED_CHAIN.apply(xs))
    t_engine = best_of(lambda: engine.run(FUSED_CHAIN, xs))
    results.append(
        {
            "workload": "straight-line",
            "elements": 400,
            "direct_s": t_direct,
            "engine_s": t_engine,
            "speedup": t_direct / t_engine,
        }
    )

    # 4. normalize-kernel: the closed-form kernel vs the rewrite loop.
    for name, value in (("design(8)", _design(8)), ("tight_family(7)", tight_family(7)[0])):
        assert normalize(value) == _rewrite(value)
        t_rewrite = best_of(lambda value=value: _rewrite(value))
        t_kernel = best_of(lambda value=value: normalize(value))
        results.append(
            {
                "workload": "normalize-kernel",
                "input": name,
                "rewrite_s": t_rewrite,
                "kernel_s": t_kernel,
                "speedup": t_rewrite / t_kernel,
            }
        )

    # 5. collect-normal-forms: a set of normal forms sorts by stored keys.
    t_compute, t_collect = _collect_normal_forms()
    results.append(
        {
            "workload": "collect-normal-forms",
            "input": "16 x design(8)",
            "compute_s": t_compute,
            "collect_s": t_collect,
            "collect_share": t_collect / t_compute,
        }
    )
    return results


def _rewrite(value):
    """The paper's rewrite loop, the kernel's reference."""
    return normalize_with_strategy(value, None, innermost_strategy)


def main() -> None:
    results = _workloads()
    print(f"{'workload':<34} {'direct (ms)':>12} {'engine (ms)':>12} {'speedup':>8}")
    for row in results:
        if row["workload"] == "normalize-kernel":
            label = f"normalize-kernel {row['input']}"
            slow, fast = row["rewrite_s"], row["kernel_s"]
        elif row["workload"] == "collect-normal-forms":
            label = f"collect-normal-forms {row['input']}"
            slow, fast = row["compute_s"], row["collect_s"]
        else:
            label, slow, fast = row["workload"], row["direct_s"], row["engine_s"]
        print(f"{label:<34} {slow * 1000:>12.2f} {fast * 1000:>12.2f} {slow / fast:>7.1f}x")
    print("(normalize-kernel rows: rewrite loop vs kernel;")
    print(" collect-normal-forms: computing the normal forms vs one set of them)")
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")


# -- pytest entry points (shape claims; timings asserted with margins) -------


def test_engine_not_slower_on_repeated_normalization():
    engine = Engine()
    value = _design(6)
    program = Normalize()
    direct = best_of(lambda: [program.apply(value) for _ in range(10)])
    compiled = best_of(lambda: [engine.run(program, value) for _ in range(10)])
    # Both sides run the kernel ten times; the engine adds a plan-cache
    # hit and a backend choice per call, and 1.2 keeps timing noise out.
    assert compiled <= direct * 1.2


def test_kernel_beats_rewrite_on_design():
    value = _design(6)
    assert normalize(value) == _rewrite(value)
    rewrite = best_of(lambda: _rewrite(value))
    kernel = best_of(lambda: normalize(value))
    # 5.0-5.8x in ten runs on a 2-vCPU host; 3x leaves room for timing noise.
    assert kernel * 3 <= rewrite


def test_collecting_normal_forms_is_cheap():
    # Collecting fresh normal forms reads the keys they carry; it costs a
    # small fraction of computing them, where re-walking every normal form
    # for its key cost more than computing it.
    compute, collect = _collect_normal_forms()
    assert collect * 3 < compute


def test_engine_not_slower_on_optimized_query():
    engine = Engine()
    x = _family(8)
    direct = best_of(lambda: NAIVE.apply(x))
    compiled = best_of(lambda: engine.run(NAIVE, x))
    assert compiled <= direct * 1.2


if __name__ == "__main__":
    main()
