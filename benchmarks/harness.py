"""The benchmark scripts' shared harness: one timer for every ``bench_*.py``.

``python benchmarks/bench_x.py`` imports it as ``harness`` because the
script's own directory heads ``sys.path``; ``pytest benchmarks/`` does
because pytest's default (prepend) import mode puts each test file's
directory there too.
"""

from __future__ import annotations

import time


def best_of(fn, repeat: int = 3) -> float:
    """The fastest of *repeat* timed calls of *fn*, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_of_with_result(fn, repeat: int = 3):
    """:func:`best_of`, plus the result of the last call."""
    result = None

    def call() -> None:
        nonlocal result
        result = fn()

    return best_of(call, repeat), result
