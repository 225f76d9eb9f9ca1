"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one experiment (one per paper result,
or one engine claim).  Timing is taken by pytest-benchmark; the *shape*
claims (who wins, bound satisfaction, exact tightness) are asserted inside
the benchmarks themselves, so ``pytest benchmarks/ --benchmark-only`` is a
self-checking reproduction run.  ``python benchmarks/report.py`` prints
its own paper-vs-measured tables.
"""

import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG so benchmark workloads are reproducible."""
    return random.Random(2024)
