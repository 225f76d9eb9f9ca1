"""The benchmark scripts' shared harness: one timer and one results writer
for every ``bench_*.py``.

``python benchmarks/bench_x.py`` imports it as ``harness`` because the
script's own directory heads ``sys.path``; ``pytest benchmarks/`` does
because pytest's default (prepend) import mode puts each test file's
directory there too.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path


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


def host_facts() -> dict:
    """The facts that make two result files comparable: CPUs, Python, commit.

    ``commit`` is the checkout's short hash, suffixed ``-dirty`` when
    tracked files differ from it, and ``None`` outside a git checkout
    (or without ``git``).
    """
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude", "*"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or None,
    }


def write_results(path: Path, results: list[dict]) -> None:
    """Write ``{"host": host_facts(), "results": results}`` to *path* as JSON."""
    payload = {"host": host_facts(), "results": results}
    path.write_text(json.dumps(payload, indent=2) + "\n")
