"""The asyncio serving front-end: admit concurrently, share evaluations.

:class:`AsyncEngine` is the admission layer between many concurrent
clients and the engine:

* ``await engine.run_json(program, value)`` admits one request and
  resolves to its result's canonical JSON text (what
  :func:`repro.io.dumps_value` writes); ``await engine.count_json(...)``
  counts the result's worlds;
* the paper's queries are pure functions of their input, so a request
  is keyed on its op, its program and the canonical JSON text of its
  input, and a request whose key is already being evaluated **joins**
  that evaluation instead of starting another: one thousand clients
  asking ``normalize`` of the same world while it is in flight trigger
  *one* evaluation (``stats()["deduped_inputs"]`` counts the joiners);
* an evaluation runs :func:`repro.io.run_json_texts` (or
  :func:`repro.io.count_worlds_json`) on the loop's default executor, so
  the event loop never blocks on evaluation or encoding: each result's
  text is written once there, and the transports splice it into their
  frames as it is (:func:`repro.serve.proto.encode_frame`).

Robustness — the admission layer is also where overload and slowness
are turned into *bounded, typed* failures instead of unbounded queues
and wedged threads:

* **backpressure** — at most ``max_pending`` admitted-but-unresolved
  requests; past that, admission sheds load with
  :class:`~repro.errors.Overloaded` carrying a ``retry_after`` hint
  (``stats()["shed"]``).
* **cost guard** — with a ``cost_budget``, each input's static
  :class:`~repro.engine.cost_model.ShapeEstimate` (via
  :func:`~repro.engine.cost_model.estimate_json`, straight off the JSON
  encoding) is checked *before* any evaluation; a predicted normalized
  size over budget is rejected with
  :class:`~repro.errors.CostBudgetExceeded` — the paper's Section 6
  bounds as an admission policy.
* **deadlines** — per-request ``timeout=`` (or the engine-wide
  ``default_timeout``) becomes a :class:`~repro.engine.deadline.Deadline`.
  An evaluation runs under the deadline of the request that started it,
  behind one cooperative checkpoint, so a pathological input raises
  :class:`~repro.errors.DeadlineExceeded` instead of wedging a worker
  thread.  Each request stops waiting at its own deadline
  (``stats()["timeouts"]``).  A request whose shared evaluation ran out
  of its starter's deadline before the request's own passed starts one
  evaluation of its own, and that outcome is final.
* **degradation** — :meth:`count_json` answers a world-count request
  with the exact engine count, but near-deadline falls back to the
  static Section 6 *upper bound* marked ``"approximate": true``
  (``stats()["degraded"]``); deeper in the stack, under
  ``backend="process"``, the pool's circuit breaker sends shards to
  local evaluation while it is open (``stats()["breaker_open"]``).

Failure isolation holds by construction: each distinct input has its
own evaluation, so one malformed input fails only the requests that
share it, and a finished evaluation is never reused — the next
identical request evaluates afresh.  :meth:`AsyncEngine.close` refuses
new admissions at once and returns when every admitted request has
resolved and every running evaluation has finished.  The concurrency
tests (``tests/serve/test_async_server.py``) assert both, and the
fault-injection suite (``tests/serve/test_faults.py``) drives seeded
crashes, slowdowns and malformed frames through
:mod:`repro.engine.faults` and asserts the core invariant: **no
admitted request is ever left unresolved**.

All AsyncEngine methods must be called from the event loop that first
used it (the standard asyncio single-loop discipline); evaluation — the
expensive part — happens off-loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Sequence

from repro.engine import (
    BACKENDS,
    Deadline,
    ProcessBackend,
    checkpoint,
    deadline_scope,
    estimate_json,
    faults,
)
from repro.errors import CostBudgetExceeded, DeadlineExceeded, Overloaded
from repro.io import count_worlds_json, run_json_texts
from repro.serve.metrics import ServerMetrics

__all__ = ["AsyncEngine", "ServerClosed"]


class ServerClosed(RuntimeError):
    """Raised when a request is admitted after :meth:`AsyncEngine.close`."""


class _Evaluation:
    """One running evaluation: its executor future, and the metrics
    clock's reading when its executor thread began it (``None`` until
    then, or with metrics off)."""

    __slots__ = ("future", "started")

    def __init__(self) -> None:
        self.future: "asyncio.Future | None" = None
        self.started: "float | None" = None


class AsyncEngine:
    """Concurrent admission and shared evaluation of JSON queries.

    *backend* is the engine backend each evaluation runs under
    (``"auto"`` lets the cost model pick per input).

    Robustness knobs: *max_pending* bounds admitted-but-unresolved
    requests (past it admission raises
    :class:`~repro.errors.Overloaded`); *default_timeout* is the
    per-request deadline in seconds when the caller passes none
    (``None`` = unbounded); *cost_budget* rejects inputs whose static
    normalized-size bound exceeds it
    (:class:`~repro.errors.CostBudgetExceeded`) before any evaluation;
    *degrade* lets :meth:`count_json` fall back to the static estimate
    when the exact count runs out of deadline.

    Observability: *metrics* (default on) attaches a
    :class:`~repro.serve.metrics.ServerMetrics` — monotonic ring-buffer
    histograms of per-request admission/queue/execute/total latencies
    plus windowed throughput, surfaced as ``stats()["latency"]`` (p50 /
    p90 / p99 per phase).  ``queue`` runs from admission until the
    request's evaluation starts on its executor thread (0 if it had
    already started), ``execute`` from then until the request resolves.
    Pass ``metrics=False`` to shave the clock reads per request, or a
    ``ServerMetrics`` of your own to share a registry or inject a fake
    clock.

    Use as an async context manager, or call :meth:`close` explicitly::

        async with AsyncEngine() as engine:
            text = await engine.run_json("normalize", {"orset": [...]})
    """

    def __init__(
        self,
        *,
        backend: str = "auto",
        max_pending: int = 1024,
        default_timeout: float | None = None,
        cost_budget: int | None = None,
        degrade: bool = True,
        metrics: "ServerMetrics | bool | None" = True,
    ) -> None:
        self.backend = backend
        self.max_pending = max(1, max_pending)
        self.default_timeout = default_timeout
        self.cost_budget = cost_budget
        self.degrade = degrade
        # *metrics* — the latency observability layer: True (default)
        # builds a ServerMetrics; False/None disables recording; a
        # ServerMetrics instance is used as-is (shared registries, fake
        # clocks in tests).
        if metrics is True:
            self.metrics: "ServerMetrics | None" = ServerMetrics()
        elif not metrics:
            self.metrics = None
        else:
            self.metrics = metrics
        # key -> the evaluation a new request with that key joins.
        self._running: "dict[tuple, _Evaluation]" = {}
        self._evaluating = 0
        # Set while no request is pending and no evaluation runs.
        self._idle = asyncio.Event()
        self._idle.set()
        self._started = False
        self._closed = False
        self._pending = 0
        self._stats = {
            "requests": 0,
            "deduped_inputs": 0,
            "errors": 0,
            "shed": 0,
            "cost_rejected": 0,
            "timeouts": 0,
            "degraded": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "AsyncEngine":
        """Warm the process pool (idempotent; the first admission calls it).

        Only ``backend="process"`` has a pool: its workers fork now,
        from the loop's thread, never lazily from an executor thread
        mid-request (fork-from-thread is deadlock-prone).  ``"auto"``
        never routes to the pool, so it forks nothing.
        """
        if not self._started:
            if self.backend == "process":
                backend = BACKENDS.get("process")
                if isinstance(backend, ProcessBackend):
                    backend.warm()
            self._started = True
        return self

    async def close(self) -> None:
        """Refuse new admissions, then wait until nothing is in flight.

        Requests admitted before ``close`` was called are still served:
        it returns once every one of them has resolved and every running
        evaluation has finished.  Idempotent.
        """
        self._closed = True
        await self._idle.wait()

    async def __aenter__(self) -> "AsyncEngine":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- admission ---------------------------------------------------------

    def _admit(self, value_json, timeout: float | None) -> "Deadline | None":
        """Shared admission policy: closed -> overload -> cost guard.

        Returns the request's deadline, or ``None`` when it is unbounded.
        """
        if self._closed:
            raise ServerClosed("AsyncEngine is closed")
        if self._pending >= self.max_pending:
            self._stats["shed"] += 1
            raise Overloaded("server at capacity", retry_after=0.05)
        if self.cost_budget is not None:
            estimate = estimate_json(value_json)
            if estimate.norm_size > self.cost_budget:
                self._stats["cost_rejected"] += 1
                raise CostBudgetExceeded(
                    "input over the static cost budget",
                    estimated=estimate.norm_size,
                    budget=self.cost_budget,
                )
        seconds = timeout if timeout is not None else self.default_timeout
        return Deadline.after(seconds) if seconds is not None else None

    async def run_json(self, program, value_json, *, timeout: float | None = None) -> str:
        """Admit one request and await its result, as JSON text.

        *program* is surface-syntax text (or a pre-resolved Morphism);
        *value_json* is the :func:`repro.io.value_to_json` encoding.  The
        result is its value's canonical JSON text, exactly what
        :func:`repro.io.dumps_value` writes (``json.loads`` it, or
        :func:`repro.io.loads_value` it, for the dicts or the value).
        Structurally equal requests in flight together share one
        evaluation.  *timeout* (seconds) overrides the engine's
        ``default_timeout`` for this request; past it the request fails
        with :class:`~repro.errors.DeadlineExceeded`.
        """
        return await self._serve("run", program, value_json, timeout)

    async def run_many(
        self, program, values_json: Sequence, *, timeout: float | None = None
    ) -> list[str]:
        """Admit a whole client-side batch concurrently; results (JSON
        texts, as :meth:`run_json` gives them) in order."""
        return list(
            await asyncio.gather(
                *(self.run_json(program, v, timeout=timeout) for v in values_json)
            )
        )

    async def count_json(
        self, program, value_json, *, timeout: float | None = None
    ) -> dict:
        """Count the output's worlds: exact if the deadline allows.

        Returns ``{"count": n, "approximate": False}`` from the engine's
        exact count (symbolic when supported).  When the count runs out
        of deadline and *degrade* is on, answers with the *static*
        Section 6 upper bound instead — ``{"count": bound,
        "approximate": True}`` (``stats()["degraded"]``): a degraded
        answer with an honest label beats a wedged client.
        """
        try:
            count = await self._serve("count", program, value_json, timeout)
        except DeadlineExceeded:
            if not self.degrade:
                raise
            self._stats["degraded"] += 1
            return {"count": estimate_json(value_json).worlds, "approximate": True}
        return {"count": count, "approximate": False}

    # -- shared evaluation -------------------------------------------------

    async def _serve(self, op: str, program, value_json, timeout):
        """Admit a request, join or start its key's evaluation, await it.

        Nothing awaits between the admission checks and the evaluation's
        registration, so a request that passed the closed check is one
        :meth:`close` waits for.
        """
        if not self._started:
            await self.start()
        clock = self.metrics.clock if self.metrics is not None else None
        start = clock() if clock is not None else 0.0
        deadline = self._admit(value_json, timeout)
        key = (op, program, _canonical(value_json))
        # An unhashable program (a list, say, from a malformed frame)
        # fails this caller here, at admission.
        evaluation = self._running.get(key)
        if evaluation is None:
            evaluation = self._evaluate(key, op, program, value_json, deadline)
        else:
            self._stats["deduped_inputs"] += 1
        self._stats["requests"] += 1
        self._pending += 1
        self._idle.clear()
        admitted = clock() if clock is not None else 0.0
        try:
            try:
                return await _wait(evaluation, deadline)
            except DeadlineExceeded:
                # Our own deadline, or the starter's: then, while ours
                # remains, one evaluation of our own.
                if deadline is not None and deadline.expired():
                    raise
            evaluation = self._evaluate(key, op, program, value_json, deadline)
            return await _wait(evaluation, deadline)
        except DeadlineExceeded:
            self._stats["timeouts"] += 1
            raise
        except Exception:
            self._stats["errors"] += 1
            raise
        finally:
            self._pending -= 1
            self._settle()
            if clock is not None:
                self._observe(start, admitted, evaluation.started, clock())

    def _evaluate(self, key, op: str, program, value_json, deadline) -> _Evaluation:
        """Start an evaluation on the default executor; new requests for
        *key* join it until it finishes."""
        evaluation = _Evaluation()
        clock = self.metrics.clock if self.metrics is not None else None

        def evaluate():
            if clock is not None:
                evaluation.started = clock()
            # Context variables do not cross run_in_executor, so the
            # deadline is installed here, on the executor thread.
            with deadline_scope(deadline):
                checkpoint("serve evaluation")
                faults.fire("serve.eval")
                if op == "count":
                    return count_worlds_json(program, value_json)
                return run_json_texts(program, [value_json], self.backend)[0]

        evaluation.future = asyncio.get_running_loop().run_in_executor(None, evaluate)
        self._running[key] = evaluation
        self._evaluating += 1

        def finish(future) -> None:
            if self._running.get(key) is evaluation:
                del self._running[key]
            self._evaluating -= 1
            self._settle()
            # Every waiter may have timed out first: read the outcome so
            # an exception is not reported as never retrieved.
            if not future.cancelled():
                future.exception()

        evaluation.future.add_done_callback(finish)
        return evaluation

    def _settle(self) -> None:
        if not self._pending and not self._evaluating:
            self._idle.set()

    def _observe(self, start, admitted, started, done) -> None:
        """Record one resolved request's phase latencies.

        Resolution includes failures — a timed-out or errored request's
        latency is exactly what its client felt, so it belongs in the
        percentiles.  (Shed/rejected admissions are counted separately.)
        A request that resolved before its evaluation started has no
        ``execute`` phase.
        """
        if started is None:
            queue, execute = done - admitted, None
        else:
            begun = max(started, admitted)
            queue, execute = begun - admitted, done - begun
        self.metrics.observe(
            admission=admitted - start, queue=queue, execute=execute, total=done - start
        )

    # -- diagnostics -------------------------------------------------------

    def stats(self) -> dict:
        """Admission/dedupe/robustness counters (tests and the REPL).

        Alongside the counter snapshot: ``pending`` (admitted requests
        not yet resolved — the backpressure gauge) and ``breaker_open``
        (is the process pool's circuit breaker currently refusing
        traffic, so that ``backend="process"`` evaluates in-process).
        """
        snapshot = dict(self._stats)
        snapshot["pending"] = self._pending
        process = BACKENDS.get("process")
        snapshot["breaker_open"] = (
            isinstance(process, ProcessBackend) and not process.healthy()
        )
        if self.metrics is not None:
            snapshot["latency"] = self.metrics.snapshot()
        return snapshot


async def _wait(evaluation: _Evaluation, deadline: "Deadline | None"):
    """Await a shared evaluation until *deadline*, never cancelling it."""
    shared = asyncio.shield(evaluation.future)
    if deadline is None:
        return await shared
    try:
        return await asyncio.wait_for(shared, deadline.remaining())
    except asyncio.TimeoutError:
        raise DeadlineExceeded("deadline exceeded awaiting evaluation") from None


def _canonical(value_json) -> str:
    """A structural dedupe key: canonical JSON text of the input."""
    return json.dumps(value_json, sort_keys=True, separators=(",", ":"))
