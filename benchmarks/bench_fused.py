"""Experiment FUSED — columnar fused kernels vs eager closures.

Two workloads measure the fusion layer (`engine/columnar.py` +
`engine.passes.fuse_plan`):

* **fused-backend-shard** — the 500-element wide flat spine where the
  former thread-sharded backend measured **0.78x of eager**: a triple
  ``map`` chain of atom arithmetic over a wide set.  The fusion pass collapses the
  chain into one ``fused`` node, the raw scalar compiler turns the body
  into an unboxed ``int -> int`` kernel, and the whole spine runs as
  one tight loop over flat arrays — no per-element ``Value`` objects,
  no per-stage canonicalization.
* **fused-tight-family** — the Theorem 6.5 tight family under
  ``mu o map(ortoset)``: a ``map`` whose body does *not* raw-compile
  (the boxed fallback path) followed by a flatten, fused into one
  kernel with the segment-free mu.  Measures whether skipping the
  intermediate collection pays when every element stays boxed.  It
  does not: the committed ``BENCH_fused.json`` reads ``fused_vs_eager``
  0.85, so fused is slower than eager here.  No gate covers this row,
  and ``auto`` routes this shape to ``streaming``.

Run ``python benchmarks/bench_fused.py`` (add ``--quick`` for the CI
smoke sizes) to print the table and write ``BENCH_fused.json`` next to
this file; under pytest the same workloads assert the fused backend
beats eager on the shard-regression shape.
"""

from __future__ import annotations

import argparse
import pathlib

from harness import best_of, write_results

from repro.core.costs import tight_family
from repro.engine import Engine
from repro.lang.morphisms import Compose, Id, PairOf
from repro.lang.orset_ops import OrToSet
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap, SetMu
from repro.values.values import vset

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_fused.json"

DOUBLE = Compose(plus(), PairOf(Id(), Id()))
FUSED_CHAIN = Compose(SetMap(DOUBLE), Compose(SetMap(DOUBLE), SetMap(DOUBLE)))
FLATTEN = Compose(SetMu(), SetMap(OrToSet()))


def _compare(engine: Engine, query, value, workload: str, extra: dict) -> dict:
    """Time eager / fused on one (query, value) pair."""
    assert engine.run(query, value, backend="fused") == engine.run(
        query, value, backend="eager"
    )
    times = {
        backend: best_of(
            lambda b=backend: engine.run(query, value, backend=b)
        )
        for backend in ("eager", "fused")
    }
    return {
        "workload": workload,
        **extra,
        "eager_s": times["eager"],
        "fused_s": times["fused"],
        "fused_vs_eager": times["eager"] / times["fused"],
    }


def _workloads(quick: bool = False) -> list[dict]:
    engine = Engine()
    results: list[dict] = []

    # 1. fused-backend-shard: the 0.78x thread-sharding regression shape —
    # 500 elements is the pinned acceptance size, so it runs in both modes.
    elements = 500
    xs = vset(*range(elements))
    results.append(
        _compare(engine, FUSED_CHAIN, xs, "fused-backend-shard", {"elements": elements})
    )

    # 2. fused-tight-family: boxed map bodies + mu over the Theorem 6.5
    # witness (a set of 3-ary or-sets — elements are boxed, not raw atoms).
    width = 60 if quick else 300
    results.append(
        _compare(
            engine,
            FLATTEN,
            tight_family(width)[0],
            "fused-tight-family",
            {"width": width},
        )
    )
    return results


def main() -> None:
    args = _parse_args()
    results = _workloads(quick=args.quick)
    print(f"{'workload':<22} {'eager (ms)':>11} {'fused (ms)':>11} {'vs eager':>9}")
    for row in results:
        print(
            f"{row['workload']:<22} {row['eager_s'] * 1000:>11.2f}"
            f" {row['fused_s'] * 1000:>11.2f} {row['fused_vs_eager']:>8.1f}x"
        )
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="fused columnar kernel benchmarks (vs eager)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (seconds, not minutes)"
    )
    return parser.parse_args()


# -- pytest entry points (the fused-beats-eager claim) -----------------------


def test_fused_beats_eager_on_shard_workload():
    engine = Engine()
    xs = vset(*range(500))
    assert engine.run(FUSED_CHAIN, xs, backend="fused") == engine.run(
        FUSED_CHAIN, xs, backend="eager"
    )
    t_eager = best_of(lambda: engine.run(FUSED_CHAIN, xs, backend="eager"))
    t_fused = best_of(lambda: engine.run(FUSED_CHAIN, xs, backend="fused"))
    # Locally this measures ~5x; 1.5 keeps timing noise out of CI while
    # still failing if fusion stops paying for the arena encode/decode.
    assert t_fused * 1.5 <= t_eager, (t_fused, t_eager)


def test_fused_matches_eager_on_tight_family():
    engine = Engine()
    value = tight_family(24)[0]
    assert engine.run(FLATTEN, value, backend="fused") == engine.run(
        FLATTEN, value, backend="eager"
    )


if __name__ == "__main__":
    main()
