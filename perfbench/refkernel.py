"""A fixed pure-Python reference kernel: the benchmark's speed gauge.

On a shared host the speed of one CPU drifts by a quarter within a run,
in plateaus that last seconds.  The in-process workloads run a chunk of
this kernel in the same thread every :data:`SAMPLE_EVERY_S` seconds and
scale each operation's latency by how fast the kernel ran around it, so
a slow plateau slows the kernel and the operation alike and cancels out.

The kernel does what ``normalize`` does — product of or-set choices,
deduplication into frozensets, a canonical sort — but is part of the
benchmark, so no change to the program can change it.  serve-mix's
reference server runs it per request (:func:`request_work`).
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

#: Seven two-way choices: 128 worlds per kernel call.
_GROUPS = tuple((10 * i, 10 * i + 5) for i in range(7))

#: Kernel calls per sample (a few milliseconds on a 2020s CPU).
CHUNK_CALLS = 20

#: Seconds of workload between two samples.
SAMPLE_EVERY_S = 0.1

#: Seconds on each side of an operation whose samples gauge its speed.
WINDOW_S = 1.0

#: Microseconds per kernel call on the reference host (2-vCPU Linux VM,
#: CPython 3.11); normalized times read as if the host ran at this speed.
NOMINAL_US = 220.0


#: Kernel calls per reference-server request (about the CPU time of one
#: serve-mix request), and the answer every such request gets.
REQUEST_CALLS = 8
REQUEST_ANSWER = 128

#: Reference-server requests per second on the reference host, with the
#: serve-mix closed loop (2 connections x 8 in flight).
NOMINAL_RPS = 460.0


def request_work() -> int:
    for _ in range(REQUEST_CALLS):
        answer = kernel()
    return answer


def kernel() -> int:
    partial: list[tuple] = [()]
    for group in _GROUPS:
        partial = [p + (a,) for p in partial for a in group]
    worlds = {frozenset(p) for p in partial}
    return len(sorted(tuple(sorted(w)) for w in worlds))


def _chunk_us() -> float:
    start = time.perf_counter()
    for _ in range(CHUNK_CALLS):
        kernel()
    return (time.perf_counter() - start) * 1e6 / CHUNK_CALLS


class Gauge:
    """Samples of the kernel's speed, and the speed factor at any instant.

    With *both_cpus*, each sample also runs a second chunk while a
    partner process runs one on the other CPU, and records the mean of
    the two: the gauge for work that a process pool spreads over both
    CPUs of a 2-CPU host.  :meth:`factor` weighs the solo and the
    two-CPU speed by how much of an operation ran in this process.
    """

    def __init__(self, both_cpus: bool = False) -> None:
        self.times: list[float] = []  # sample midpoints (perf_counter)
        self.us: list[float] = []  # microseconds per kernel call, this CPU
        self.both_us: list[float] = []  # mean of this CPU and the partner's
        self._next = 0.0
        self._partner = None
        if both_cpus:
            self._partner = subprocess.Popen(
                [sys.executable, __file__, "--partner"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )

    def close(self) -> None:
        if self._partner is not None:
            self._partner.stdin.close()
            try:
                self._partner.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._partner.kill()
                self._partner.wait()
            self._partner.stdout.close()
            self._partner = None

    def sample(self) -> None:
        start = time.perf_counter()
        us = both = _chunk_us()
        if self._partner is not None:
            # A second chunk with the partner running beside it: two CPUs
            # busy at once is its own condition, not the solo one above.
            self._partner.stdin.write("go\n")
            self._partner.stdin.flush()
            both = (_chunk_us() + float(self._partner.stdout.readline())) / 2
        self.times.append((start + time.perf_counter()) / 2)
        self.us.append(us)
        self.both_us.append(both)

    def maybe_sample(self) -> None:
        """Sample if :data:`SAMPLE_EVERY_S` passed since the last sample."""
        now = time.perf_counter()
        if now >= self._next:
            self.sample()
            self._next = time.perf_counter() + SAMPLE_EVERY_S

    def local_us(self, at: float, series: list[float] | None = None) -> float:
        """Median kernel time of the samples within :data:`WINDOW_S` of *at*."""
        series = self.us if series is None else series
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if lo == hi:  # no sample in reach: take the nearest one
            i = min(max(lo, 0), len(self.times) - 1)
            return series[i]
        return statistics.median(series[lo:hi])

    def factor(self, start: float, end: float, local_share: float = 1.0) -> float:
        """Multiply a latency measured over [start, end] by this to normalize it.

        *local_share* is the share of the interval this process spent on
        its CPUs (process CPU time over wall time, at most 1); the rest
        is weighed with the both-CPU speed.
        """
        at = (start + end) / 2
        w = min(1.0, max(0.0, local_share))
        us = w * self.local_us(at) + (1 - w) * self.local_us(at, self.both_us)
        return NOMINAL_US / us

    def median_us(self) -> float:
        return statistics.median(self.us)


if __name__ == "__main__" and sys.argv[1:] == ["--partner"]:
    # The partner of a both-CPU gauge: one chunk per line of input.
    for _line in sys.stdin:
        print(_chunk_us(), flush=True)
