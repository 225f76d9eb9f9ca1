"""Cooperative deadlines for long-running evaluations.

A stuck request must fail with :class:`~repro.errors.DeadlineExceeded`
instead of wedging an executor thread forever — but evaluation happens
deep inside backend loops that know nothing about the serving layer.
The bridge is a :class:`Deadline` carried in a :mod:`contextvars`
context variable:

* the caller (the serving front-end, or :func:`repro.io.run_json` with a
  ``timeout=``) wraps evaluation in :func:`deadline_scope`;
* the evaluation loops call :func:`checkpoint` at their natural stage
  boundaries — per plan node in the sharded walk, per element on the
  streaming spine, per fused columnar stage, per enumerated world in
  the symbolic backend, per input in ``Engine.run_many`` — and the
  first checkpoint past the deadline raises.

Checkpoints are *cooperative*: with no deadline installed the cost is
one context-variable read, so backends pay nothing on the common path
(measured in ``benchmarks/bench_serve.py``'s steady-state gate).
Because the deadline rides a context variable, it does **not**
automatically cross thread or process boundaries — callers that hand
evaluation to a worker thread re-enter :func:`deadline_scope` inside the
worker callable (the serving layer does), and the process backend's
coordinator enforces the deadline on its side of the pool instead
(:meth:`~repro.engine.process.ProcessBackend` waits on worker futures
with the remaining time).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "checkpoint",
    "current_deadline",
    "deadline_scope",
]


class Deadline:
    """A point on the monotonic clock by which a request must finish."""

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline *seconds* from now (``0`` is already expired)."""
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds left, floored at zero once expired.

        The floor matters: callers hand this straight to wait
        primitives (``Future.result(timeout=...)``) that reject
        negative timeouts.
        """
        return max(0.0, self.at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def check(self, site: str = "evaluation") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if time.monotonic() >= self.at:
            raise DeadlineExceeded(f"deadline exceeded during {site}")

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Deadline(remaining={self.remaining():.3f}s)"


_CURRENT: ContextVar[Deadline | None] = ContextVar("repro_deadline", default=None)


def current_deadline() -> Deadline | None:
    """The deadline installed for the current context (``None`` if free)."""
    return _CURRENT.get()


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Install *deadline* for the duration of the block.

    ``None`` explicitly clears any inherited deadline — a nested
    unbounded evaluation (a background warm-up, say) must not be killed
    by an outer request's clock.
    """
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)


def checkpoint(site: str = "evaluation") -> None:
    """The cooperative cancellation point the evaluation loops call.

    Free when no deadline is installed; raises
    :class:`DeadlineExceeded` at the first call past the installed
    deadline.
    """
    deadline = _CURRENT.get()
    if deadline is not None and time.monotonic() >= deadline.at:
        raise DeadlineExceeded(f"deadline exceeded during {site}")
