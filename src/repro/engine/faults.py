"""Deterministic fault injection for the robustness test harness.

The fault-tolerance layer's core invariant — *no admitted request is
ever left unresolved* — is only worth stating if it can be exercised:
worker crashes, slow evaluations and malformed protocol frames must be
reproducible on demand, in-process and in CI.  This module is the
injection harness:

* a :class:`FaultPlan` is a seeded set of :class:`FaultRule`\\ s, each
  naming a **site** (a string the instrumented code passes to
  :func:`fire`), a fault **kind**, and either a deterministic hit count
  (``times`` — fire on the first N hits of that site) or a probability
  (decided by the plan's seeded RNG, so a given seed replays the same
  fault schedule);
* instrumented code calls ``faults.fire("site.name")`` at the named
  sites; with no plan installed the call is two module-global reads, so
  production paths pay nothing;
* plans are installed programmatically (:func:`install` /
  :func:`clear`, or the :func:`active_plan` context manager) or through
  the ``REPRO_FAULTS`` environment variable — the env gate is what lets
  forked/spawned *worker processes* of the process backend pick the
  plan up and crash on cue.

Fault kinds:

``error``
    raise :class:`InjectedFault` at the site (a generic in-process
    failure; the process backend's coordinator treats it like a broken
    pool so supervised recovery can be driven without killing real
    processes);
``crash``
    hard-exit the current process (``os._exit``) — only meaningful
    inside pool worker processes, where it produces a genuine
    ``BrokenProcessPool``;
``slow``
    sleep for the rule's ``delay`` seconds (drives deadline coverage);
``malform``
    corrupt the payload passed to :func:`fire` (drives the serving
    protocol's malformed-frame handling on every transport).

``REPRO_FAULTS`` spec syntax — semicolon-separated entries; an optional
``seed=N`` entry, then ``site:kind[:times[:delay]]`` rules where
``times`` is an integer or ``*`` (every hit)::

    REPRO_FAULTS="seed=42;process.worker_chunk:crash:1;serve.eval:slow:2:0.05"
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "SITES",
    "active",
    "active_plan",
    "clear",
    "fire",
    "install",
]

#: The named injection sites instrumented across the codebase (the
#: documentation the harness tests assert against — adding a site means
#: adding it here).
SITES = (
    "process.pool",  # coordinator-side pool submission (engine/process.py)
    "process.worker_chunk",  # worker entry for plan-subtree shards
    "process.worker_fused",  # worker entry for fused arena slices
    "process.worker_ping",  # worker entry for warm()'s ping task
    "serve.eval",  # AsyncEngine's executor-side evaluation
    "serve.frame",  # every transport's frame decoding (serve/proto.answer)
)

KINDS = ("error", "crash", "slow", "malform")


class InjectedFault(RuntimeError):
    """The error an ``error``-kind rule raises at its site."""


@dataclass
class FaultRule:
    """One injection: fire *kind* at *site* for the first *times* hits.

    ``times=None`` means decide per hit with the plan's seeded RNG at
    probability *prob* (deterministic for a fixed seed and hit order).
    """

    site: str
    kind: str
    times: int | None = 1
    prob: float = 1.0
    delay: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (have: {KINDS})")


@dataclass
class FaultPlan:
    """A seeded, reproducible schedule of injected faults."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    _hits: dict[str, int] = field(default_factory=dict, repr=False)
    _fired: dict[int, int] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` environment spec (see module doc)."""
        seed = 0
        rules: list[FaultRule] = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[len("seed=") :])
                continue
            parts = entry.split(":")
            if len(parts) < 2:
                raise ValueError(f"malformed fault entry {entry!r}")
            site, kind = parts[0], parts[1]
            times: int | None = 1
            prob = 1.0
            if len(parts) > 2:
                if parts[2] == "*":
                    times = None
                    prob = 1.0
                elif "." in parts[2]:
                    times = None
                    prob = float(parts[2])
                else:
                    times = int(parts[2])
            delay = float(parts[3]) if len(parts) > 3 else 0.01
            rules.append(FaultRule(site, kind, times=times, prob=prob, delay=delay))
        return cls(seed=seed, rules=tuple(rules))

    def match(self, site: str) -> FaultRule | None:
        """The rule firing at this hit of *site*, if any (counts the hit)."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            for i, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if rule.times is not None:
                    fired = self._fired.get(i, 0)
                    if fired >= rule.times:
                        continue
                    self._fired[i] = fired + 1
                    return rule
                # Probabilistic rule: a per-(site, hit) hash of the seed
                # keeps the decision deterministic for a fixed seed and
                # independent of rule-matching order elsewhere.
                draw = _seeded_draw(self.seed, site, hit)
                if draw < rule.prob:
                    return rule
            return None

    def stats(self) -> dict[str, int]:
        """Site hit counts (diagnostics for harness tests)."""
        with self._lock:
            return dict(self._hits)


def _seeded_draw(seed: int, site: str, hit: int) -> float:
    """A deterministic pseudo-uniform draw in [0, 1) for one site hit.

    Built on ``crc32`` rather than ``hash()``: string hashing is
    randomized per process (``PYTHONHASHSEED``), and the whole point is
    that one seed replays one schedule — in this process, in forked
    workers, and in CI.
    """
    x = (
        seed * 0x9E3779B9
        + zlib.crc32(site.encode("utf-8")) * 0x85EBCA6B
        + hit * 0xC2B2AE35
    ) & 0xFFFFFFFF
    # splitmix-style scramble: adjacent hits must not cluster.
    x = (x ^ (x >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    x = (x ^ (x >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return ((x ^ (x >> 16)) & 0xFFFFFF) / float(1 << 24)


# -- the installed plan ------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_CHECKED = False


def install(plan: FaultPlan) -> FaultPlan:
    """Install *plan* as the process-wide active fault plan."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = plan
    _ENV_CHECKED = True
    return plan


def clear() -> None:
    """Remove the active plan (and forget any env-derived one)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = True


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install *plan* for the duration of the block (tests' entry point)."""
    global _ACTIVE, _ENV_CHECKED
    previous, previously_checked = _ACTIVE, _ENV_CHECKED
    install(plan)
    try:
        yield plan
    finally:
        _ACTIVE, _ENV_CHECKED = previous, previously_checked


def active() -> FaultPlan | None:
    """The installed plan; lazily adopts ``REPRO_FAULTS`` on first use.

    The lazy env read is what arms *worker processes*: they inherit the
    environment (under any multiprocessing start method) and build their
    own plan copy on their first instrumented call.
    """
    global _ACTIVE, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get("REPRO_FAULTS")
        if spec:
            _ACTIVE = FaultPlan.from_spec(spec)
    return _ACTIVE


def fire(site: str, payload: object = None) -> object:
    """The instrumented sites' hook: maybe inject a fault, else no-op.

    Returns *payload* (possibly corrupted by a ``malform`` rule), so
    frame-handling sites can thread their data through the hook.
    """
    plan = active()
    if plan is None:
        return payload
    rule = plan.match(site)
    if rule is None:
        return payload
    if rule.kind == "slow":
        time.sleep(rule.delay)
        return payload
    if rule.kind == "malform":
        return _corrupt(payload)
    if rule.kind == "crash":
        # A hard exit, bypassing finalizers — the honest simulation of an
        # OOM kill or interpreter abort inside a pool worker.
        os._exit(13)
    raise InjectedFault(f"injected fault at {site}")


def _corrupt(payload: object) -> object:
    """Deterministically mangle a protocol frame (an unparsable prefix)."""
    if isinstance(payload, str):
        return '{"malformed' + payload
    if isinstance(payload, bytes):  # pragma: no cover - symmetry
        return b'{"malformed' + payload
    return payload
