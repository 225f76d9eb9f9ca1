"""Experiment SYMBOLIC — world queries without enumerating worlds.

Four workloads measure the symbolic backend
(`repro/engine/symbolic.py`) on whole-world-set queries, where every
enumerating backend hits the Section 6 wall (3^k worlds on the tight
family):

* **tight-family-count** — the acceptance workload: the exact world
  count of ``normalize`` over the Theorem 6.5 tight family.  The eager
  baseline materializes and deduplicates every world; the symbolic
  backend counts by Prop. 6.1's recursion over the input (a sum over
  or-set branches, a product over set members), in time linear in the
  input.  Target: >= 100x at the largest in-reach size.
* **beyond-enumeration** — the same query at ``k = 19`` (3^19 ~ 1.16e9
  worlds, past the 10^9 acceptance bar, unreachable for enumeration):
  records that the exact count comes back in milliseconds and equals
  3^19, and that ``exists``/``certain`` answer at the same scale.
* **colliding-count** — the same count over a *shared family* of 8
  three-way or-sets whose atoms overlap, so distinct choices collide
  into 437 worlds.  The set deduplicates its own worlds by folding its
  members' worlds, as the normal-form kernel does, but builds no world.
  Target: >= 3x over eager.
* **exactness** — not a timing: random or-set values counted by the
  symbolic backend (over the identity plan) and cross-checked against
  the brute-force worlds oracle — the count is *exact* whether each
  node sums or multiplies its children's counts or, where siblings may
  share a world, deduplicates its own; a mismatch fails the run (and
  CI, via the pytest entry points).  ``dedup_rate`` records the share
  of samples in which some node deduplicated.

Run ``python benchmarks/bench_symbolic.py`` (add ``--quick`` for CI
smoke sizes) to print the table and write ``BENCH_symbolic.json`` next
to this file; under pytest the same workloads assert the >= 100x and
>= 3x wins, the auto routing, and exactness.
"""

from __future__ import annotations

import argparse
import pathlib
import random

from harness import best_of_with_result, write_results

from repro.core.costs import tight_family
from repro.core.normalize import Normalize
from repro.core.worlds import worlds
from repro.engine import Engine
from repro.engine.plan import compile_plan
from repro.engine.symbolic import SymbolicBackend, _count, _pairwise_ok
from repro.gen import random_orset_value
from repro.lang.morphisms import Id
from repro.values.values import (
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    Variant,
    vorset,
    vset,
)

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_symbolic.json"

#: Whole-value normalization: the output's or-set of worlds *is* the
#: world set, so any enumerating count pays for all 3^k of them.
COUNT_QUERY = Normalize()

#: The identity plan: the exactness gate counts random values as given.
ID_PLAN = compile_plan(Id())


#: The colliding-count input: 8 members, 437 distinct worlds.
SHARED_MEMBERS, SHARED_WORLDS = 8, 437


def _eager_count(engine: Engine, x) -> int:
    return len(set(engine.possibilities(COUNT_QUERY, x, backend="eager")))


def shared_family(members: int):
    """Three-way or-sets over ``members + 2`` atoms, so choices collide:
    member i holds atoms i, i + 1 and i + 3 (mod the domain)."""
    domain = members + 2
    return vset(
        *(vorset(*((i + d) % domain for d in (0, 1, 3))) for i in range(members))
    )


def _colliding_speedup(engine: Engine) -> tuple[float, float]:
    """Eager and symbolic seconds for counting the shared family."""
    x = shared_family(SHARED_MEMBERS)
    assert engine.choose_backend(COUNT_QUERY, x, world_query=True).backend == "symbolic"
    t_eager, n_eager = best_of_with_result(lambda: _eager_count(engine, x), repeat=5)
    t_symbolic, n_symbolic = best_of_with_result(
        lambda: engine.count_worlds(COUNT_QUERY, x, backend="auto"),
        repeat=5,
    )
    assert n_symbolic == n_eager == SHARED_WORLDS, (n_symbolic, n_eager)
    return t_eager, t_symbolic


def _deduplicates(v) -> bool:
    """Does some node of *v* count by deduplicating its own worlds?"""
    if isinstance(v, Pair):
        return _deduplicates(v.fst) or _deduplicates(v.snd)
    if isinstance(v, Variant):
        return _deduplicates(v.payload)
    if isinstance(v, (SetValue, OrSetValue, BagValue)):
        return not _pairwise_ok([_count(e) for e in v.elems]) or any(
            _deduplicates(e) for e in v.elems
        )
    return False


def _workloads(quick: bool = False) -> list[dict]:
    engine = Engine()
    results: list[dict] = []

    # 1. tight-family-count: symbolic vs eager at the largest in-reach k.
    k = 9 if quick else 11
    x, _t = tight_family(k)
    choice = engine.choose_backend(COUNT_QUERY, x, world_query=True)
    assert choice.backend == "symbolic", choice
    t_eager, n_eager = best_of_with_result(lambda: _eager_count(engine, x), repeat=1)
    t_symbolic, n_symbolic = best_of_with_result(
        lambda: engine.count_worlds(COUNT_QUERY, x, backend="auto")
    )
    assert n_symbolic == n_eager == 3**k, (n_symbolic, n_eager)
    speedup = t_eager / t_symbolic
    assert speedup >= 100, f"only {speedup:.0f}x at k={k}"
    results.append(
        {
            "workload": "tight-family-count",
            "k": k,
            "worlds": 3**k,
            "eager_s": t_eager,
            "symbolic_s": t_symbolic,
            "speedup": speedup,
        }
    )

    # 2. beyond-enumeration: k = 19 puts 3^k past 10^9 worlds.
    k_big = 19
    x, _t = tight_family(k_big)
    t_count, n = best_of_with_result(
        lambda: engine.count_worlds(COUNT_QUERY, x, backend="auto")
    )
    assert n == 3**k_big, n
    t_exists, witness = best_of_with_result(
        lambda: engine.exists(COUNT_QUERY, x, backend="auto")
    )
    assert witness is True
    t_certain, _c = best_of_with_result(
        lambda: engine.certain(COUNT_QUERY, x, backend="auto")
    )
    results.append(
        {
            "workload": "beyond-enumeration",
            "k": k_big,
            "worlds": 3**k_big,
            "count_s": t_count,
            "exists_s": t_exists,
            "certain_s": t_certain,
        }
    )

    # 3. colliding-count: sibling or-sets share atoms.
    t_eager, t_symbolic = _colliding_speedup(engine)
    speedup = t_eager / t_symbolic
    assert speedup >= 3, f"only {speedup:.1f}x on the shared family"
    results.append(
        {
            "workload": "colliding-count",
            "members": SHARED_MEMBERS,
            "worlds": SHARED_WORLDS,
            "eager_s": t_eager,
            "symbolic_s": t_symbolic,
            "speedup": speedup,
        }
    )

    # 4. exactness: the regression gate (not a timing).
    samples = 150 if quick else 400
    rng = random.Random(0)
    symbolic = SymbolicBackend()
    dedup_hits = 0
    for _ in range(samples):
        v, _t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        assert symbolic.count_worlds(ID_PLAN, v) == len(worlds(v)), str(v)
        dedup_hits += _deduplicates(v)
    results.append(
        {
            "workload": "exactness",
            "samples": samples,
            "mismatches": 0,
            "dedup_rate": dedup_hits / samples,
        }
    )
    return results


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="symbolic backend world-query benchmarks"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (seconds, not minutes)"
    )
    return parser.parse_args()


# -- pytest entry points (the acceptance claims) -----------------------------


def test_symbolic_count_beats_eager_100x_on_tight_family():
    """The acceptance bar: >= 100x on tight-family counting at an
    in-reach size, answers equal."""
    engine = Engine()
    x, _t = tight_family(9)
    t_eager, n_eager = best_of_with_result(lambda: _eager_count(engine, x), repeat=1)
    t_symbolic, n_symbolic = best_of_with_result(
        lambda: engine.count_worlds(COUNT_QUERY, x, backend="auto")
    )
    assert n_symbolic == n_eager == 3**9
    assert t_symbolic * 100 <= t_eager, (t_symbolic, t_eager)


def test_colliding_count_beats_eager():
    """Colliding choices cost only a fold over the set's members'
    worlds: >= 3x over eager, answers equal."""
    t_eager, t_symbolic = _colliding_speedup(Engine())
    assert t_symbolic * 3 <= t_eager, (t_symbolic, t_eager)


def test_auto_routes_beyond_enumeration_queries_symbolic():
    """>= 10^9 estimated worlds on a supported spine goes symbolic and
    the exact count comes back."""
    engine = Engine()
    x, _t = tight_family(19)
    assert 3**19 >= 10**9
    assert engine.choose_backend(COUNT_QUERY, x, world_query=True).backend == "symbolic"
    assert engine.count_worlds(COUNT_QUERY, x) == 3**19


def test_counts_are_exact_against_brute_force():
    """CI gate: symbolic counts equal the worlds oracle on random values."""
    rng = random.Random(1)
    symbolic = SymbolicBackend()
    for _ in range(100):
        v, _t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        assert symbolic.count_worlds(ID_PLAN, v) == len(worlds(v)), str(v)


def main() -> None:
    args = _parse_args()
    results = _workloads(quick=args.quick)
    print(f"{'workload':<22} {'eager (ms)':>12} {'symbolic (ms)':>14} {'speedup':>9}")
    for row in results:
        if row["workload"] in ("tight-family-count", "colliding-count"):
            print(
                f"{row['workload']:<22} {row['eager_s'] * 1000:>12.1f}"
                f" {row['symbolic_s'] * 1000:>14.2f} {row['speedup']:>8.0f}x"
            )
        elif row["workload"] == "beyond-enumeration":
            print(
                f"{row['workload']:<22} {'(3^19 worlds)':>12}"
                f" {row['count_s'] * 1000:>14.2f}"
                f"   exists {row['exists_s'] * 1000:.2f} ms,"
                f" certain {row['certain_s'] * 1000:.2f} ms"
            )
        else:
            print(
                f"{row['workload']:<22} exact on {row['samples']} samples"
                f" (some node deduplicates in {row['dedup_rate']:.0%})"
            )
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")


if __name__ == "__main__":
    main()
