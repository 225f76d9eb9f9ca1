"""Equational query optimization on or-set data (Section 7).

Run:  python examples/query_optimization.py

The conclusion of the paper notes that the monad equations plus the
coherence-diagram equations of Theorem 4.2 "can lead to useful
optimizations".  This example builds a deliberately naive conceptual
query over a parts catalogue —

    raise every price by 10, in every candidate configuration:
        ormap(map(price_bump)) o alpha

— and lets the optimizer rewrite it into the equivalent

        alpha o map(ormap(price_bump))

which bumps each price once *before* the exponential choice expansion
instead of once per configuration.  The two plans are timed on growing
catalogues and their outputs compared.
"""

import time

from repro.engine import Engine
from repro.lang.morphisms import Compose, Const, Id, PairOf, Bang
from repro.lang.optimize import cost, equations_applied, optimize
from repro.lang.orset_ops import Alpha, OrMap
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap
from repro.values.values import format_value, vorset, vset

# price_bump : int -> int, adds 10.
PRICE_BUMP = Compose(plus(), PairOf(Id(), Compose(Const(10), Bang())))

# The naive conceptual query: expand the catalogue into all candidate
# configurations first, then bump every price inside every configuration.
NAIVE = Compose(OrMap(SetMap(PRICE_BUMP)), Alpha())
OPTIMIZED = optimize(NAIVE)

# The engine performs the same rewrite internally: engine.run(NAIVE, x)
# optimizes, compiles to a plan, and executes — so callers never need to
# invoke the optimizer by hand.
ENGINE = Engine()


def catalogue(k: int):
    """k parts, each with two candidate prices (2^k configurations)."""
    return vset(*(vorset(10 * i, 10 * i + 5) for i in range(1, k + 1)))


def timed(run, x, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run(x)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    print("naive query    :", NAIVE.describe())
    print("optimized query:", OPTIMIZED.describe())
    print("equations fired:", ", ".join(equations_applied(NAIVE)))
    print(f"static cost    : {cost(NAIVE)} -> {cost(OPTIMIZED)} operators\n")

    small = catalogue(2)
    out_naive = NAIVE.apply(small)
    out_opt = OPTIMIZED.apply(small)
    assert out_naive == out_opt
    print("on", format_value(small))
    print("both plans give", format_value(out_naive), "\n")

    print(f"{'parts':>5} {'configs':>8} {'naive (ms)':>12} {'optimized (ms)':>15} {'speedup':>8}")
    for k in (6, 8, 10, 12):
        x = catalogue(k)
        # Direct interpretation of the naive tree versus the engine's
        # optimized + compiled execution of the very same program.
        t_naive = timed(NAIVE.apply, x)
        t_opt = timed(lambda v: ENGINE.run(NAIVE, v), x)
        assert NAIVE.apply(x) == ENGINE.run(NAIVE, x)
        print(
            f"{k:>5} {2**k:>8} {t_naive * 1000:>12.2f} {t_opt * 1000:>15.2f}"
            f" {t_naive / t_opt:>7.1f}x"
        )

    print("\nThe win grows with the catalogue: the naive plan applies the")
    print("price bump k * 2^k times, the optimized plan only 2k times.")


if __name__ == "__main__":
    main()
