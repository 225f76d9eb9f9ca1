"""Supervised recovery: bounded restarts, jittered backoff, circuit breaking.

The process backend's worker pool can die under it — an OOM-killed
worker, an interpreter abort, an injected fault — and the old answer was
one silent local fallback per incident.  Supervision makes recovery a
policy:

* :class:`Supervisor` retries a remote submission a bounded number of
  times, rebuilding the pool between attempts and sleeping a *seeded*,
  jittered, exponentially growing backoff (deterministic for a fixed
  seed, so the fault-injection suite replays exact schedules);
* :class:`CircuitBreaker` counts consecutive failures; past the
  threshold it *opens* — :meth:`allow` refuses further attempts, so
  the backend evaluates locally — and after ``reset_after`` seconds it
  *half-opens*, letting one probe through: a success closes the breaker
  (the backend heals), a failure re-opens it for another window.

Both classes are policy-only (no pool knowledge); the process backend
wires them to its executor in
:meth:`repro.engine.process.ProcessBackend._supervised`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker", "Supervisor"]


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    *threshold* consecutive failures open the breaker; *reset_after*
    seconds later one probe attempt is allowed through (half-open).
    *clock* is injectable for deterministic tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        reset_after: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = max(1, threshold)
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        with self._lock:
            if self._failures < self.threshold:
                return "closed"
            if self._clock() - (self._opened_at or 0.0) >= self.reset_after:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May an attempt proceed right now?

        True while closed; False while open; True again once the reset
        window has elapsed (the half-open probe — its outcome, reported
        via :meth:`record_success` / :meth:`record_failure`, decides
        whether the breaker closes or re-opens).
        """
        return self.state != "open"

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._failures >= self.threshold:
                self._opened_at = self._clock()


class Supervisor:
    """Bounded-restart retry policy with seeded, jittered backoff.

    *restarts* is how many times a failed attempt may be retried;
    *base_delay* doubles per retry up to *max_delay*, and each sleep is
    multiplied by a jitter factor in ``[0.5, 1.0)`` drawn from a
    :class:`random.Random` seeded with *seed* — deterministic schedules
    for the fault-injection suite, desynchronized retries in a real
    fleet (pass a varying seed).  *sleep* is injectable so tests run in
    microseconds.
    """

    def __init__(
        self,
        restarts: int = 2,
        base_delay: float = 0.05,
        max_delay: float = 1.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.restarts = max(0, restarts)
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()

    def backoff(self, attempt: int) -> float:
        """The jittered delay before retry *attempt* (0-based)."""
        delay = min(self.max_delay, self.base_delay * (2**attempt))
        with self._lock:
            jitter = 0.5 + self._rng.random() / 2.0
        return delay * jitter

    def wait(self, attempt: int) -> None:
        """Sleep the backoff for retry *attempt*."""
        self._sleep(self.backoff(attempt))
