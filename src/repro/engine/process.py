"""The multiprocess backend: sharded spine execution across worker processes.

The PODS'93 semantics makes possible-worlds evaluation embarrassingly
parallel — every or-set branch is an independent world, and the
structural operators (``map``, ``mu``, the coercions) act elementwise on
the top-level collection.  On GIL builds only worker *processes* turn
that independence into CPU parallelism for pure-Python work, so
:class:`ProcessBackend` is the engine's one sharding path.  It walks the
plan's root chain after :func:`~repro.engine.passes.fuse_plan`, which
collapses every run of two or more spine stages into one ``fused`` node:

* a spine ``map`` splits its input collection into *shards*
  (contiguous element chunks), and the body runs on each shard in a
  :class:`~concurrent.futures.ProcessPoolExecutor` worker;
* a map-only ``fused`` node runs its columnar kernel on contiguous
  arena slices in the workers; a fused run with ``mu``, coercion or
  ``unique`` stages runs single-pass in the coordinator, since those
  re-segment or change cardinality across slice boundaries;
* every other node runs its eager closure in the coordinator;
* shard results merge in order, and the collection constructors
  canonicalize (sort, deduplicate) exactly as the eager backend's do,
  so results are structurally identical to
  :class:`~repro.engine.backends.EagerBackend`'s on every program
  (gated for every registered backend by
  ``tests/engine/test_backend_conformance.py``).

Transport and supervision:

* **pickle-safe transport** — the compiled :class:`~repro.engine.plan.Plan`
  is pickled *once* per plan (``Plan.__getstate__`` drops bound closures)
  and shipped to workers as a byte payload; each worker caches the
  unpickled plan and its bound closures keyed on the payload digest, so
  repeated shards of the same plan only pay the transport, not the
  rebind.  Values cross the boundary as ordinary pickles.  The worker
  entry points are module-level functions, not closures: a
  lambda-capturing closure would not survive the trip.
* **plain leaves** — workers bind each leaf to its morphism's
  ``apply``, as every backend does, so a ``normalize`` leaf runs the
  kernel; the coordinator merges shard results in order.
* **graceful degradation** — a plan that does not pickle (a user
  primitive wrapping a lambda, say) falls back to eager execution in the
  coordinating process (counted in ``stats()["pickle_fallbacks"]``), and
  a broken pool is handled by *supervised recovery*
  (:meth:`ProcessBackend._supervised`): the pool is torn down and
  rebuilt up to ``restarts`` times with seeded, jittered backoff
  (:class:`~repro.engine.supervisor.Supervisor`) before the shards
  re-run locally, so ``backend="process"`` is *always* semantically
  safe.  Repeated incidents trip a
  :class:`~repro.engine.supervisor.CircuitBreaker`; while it is open,
  :meth:`ProcessBackend.healthy` answers ``False`` and every shard runs
  locally until the breaker half-opens and a probe succeeds.  Inside a
  *daemonic* process (a
  ``multiprocessing`` worker of some caller's own pool, say) no pool is
  started at all — daemonic processes may not have children — and every
  shard runs inline.

Requests carrying a deadline (:mod:`repro.engine.deadline`) are
enforced coordinator-side: shard futures are awaited with
``result(timeout=remaining)`` and an expired wait cancels the
outstanding futures and raises
:class:`~repro.errors.DeadlineExceeded` — workers cannot observe the
coordinator's context variable across the pickle boundary, so the
coordinator polices the clock for them.  The deterministic
fault-injection harness (:mod:`repro.engine.faults`) hooks the
coordinator submission site (``process.pool``) and the three worker
entry points.

The backend registers itself as ``BACKENDS["process"]``, and its pool
is shut down at interpreter exit.  Only an explicit
``backend="process"`` reaches it: ``backend="auto"`` never does,
because on no measured workload has it beaten the best in-process
backend (pickling each result back costs about as much as computing
it).  :meth:`ProcessBackend.run_values` is the batch hook
``Engine.run_many(..., backend="process")`` uses to fan *whole inputs*
across workers — one task per input chunk, each evaluated
start-to-finish in a worker.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import DeadlineExceeded
from repro.values.values import Value

from repro.engine import faults
from repro.engine.analysis import plan_facts
from repro.engine.backends import _WRAPPER_OF, BACKENDS, Backend
from repro.engine.columnar import Arena, compile_stages, encode_input, run_stages
from repro.engine.deadline import checkpoint, current_deadline
from repro.engine.faults import InjectedFault
from repro.engine.plan import MAP_KINDS, Plan, PlanNode
from repro.engine.supervisor import CircuitBreaker, Supervisor

__all__ = ["ProcessBackend", "default_process_count"]

#: Cap on coordinator-side cached plan payloads (cleared wholesale past it).
_MAX_PAYLOADS = 128

#: Cap on worker-side cached plans / bound closures (cleared wholesale past
#: it).  Long-lived workers serving many distinct query texts must not
#: accumulate every plan they have ever seen.
_MAX_WORKER_PLANS = 128


def default_process_count() -> int:
    """Default worker-process count: the machine's cores, bounded."""
    return max(1, min(16, os.cpu_count() or 1))


# -- chunking ----------------------------------------------------------------


def even_ranges(length: int, n: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` ranges covering ``range(length)``."""
    n = max(1, min(n, length))
    step, extra = divmod(length, n)
    ranges, start = [], 0
    for i in range(n):
        end = start + step + (1 if i < extra else 0)
        ranges.append((start, end))
        start = end
    return ranges


def even_chunks(items: list, n: int) -> list[list]:
    """Split *items* into *n* contiguous chunks of near-equal length."""
    return [items[a:b] for a, b in even_ranges(len(items), n)]


def _bind_subtree(
    plan: Plan,
    idx: int,
    bound: dict[int, Callable[[Value], Value]] | None = None,
) -> Callable[[Value], Value]:
    """Eager closures for the subtree at *idx*, cached in *bound*."""
    cache: dict[int, Callable[[Value], Value]] = {} if bound is None else bound

    def build(i: int) -> Callable[[Value], Value]:
        fn = cache.get(i)
        if fn is None:
            fn = Plan._build_node(plan.nodes[i], build)
            cache[i] = fn
        return fn

    return build(idx)


# -- worker side -------------------------------------------------------------
#
# Everything below the pool boundary is module-level (picklable by
# reference under every multiprocessing start method).  A worker caches
# plans by payload digest and their bound closures beside them; neither
# holds per-process state, so a forked copy of the parent's is harmless.

_WORKER_STATE: dict = {"plans": {}, "bound": {}}


def _worker_plan(payload: bytes) -> tuple[dict, bytes, Plan]:
    state = _WORKER_STATE
    key = hashlib.sha1(payload).digest()
    plan = state["plans"].get(key)
    if plan is None:
        if len(state["plans"]) >= _MAX_WORKER_PLANS:
            state["plans"].clear()
            state["bound"].clear()
        plan = pickle.loads(payload)
        state["plans"][key] = plan
    return state, key, plan


def _run_chunk_remote(
    payload: bytes, body_idx: int | None, chunk: list[Value]
) -> list[Value]:
    """Worker entry point: run one plan subtree over one shard.

    *body_idx* selects the subtree (``None`` means the whole plan — the
    :meth:`ProcessBackend.run_values` batch path).
    """
    faults.fire("process.worker_chunk")
    state, key, plan = _worker_plan(payload)
    idx = plan.root if body_idx is None else body_idx
    fn = state["bound"].get((key, idx))
    if fn is None:
        fn = _bind_subtree(plan, idx)
        state["bound"][(key, idx)] = fn
    return [fn(e) for e in chunk]


def _run_fused_slice_remote(
    payload: bytes, node_idx: int, kind: str, bases: list, raws: list
) -> tuple[str, list, list]:
    """Worker entry point: one fused node's stages over one arena slice.

    The slice crosses the boundary as raw columns — atom payloads and the
    occasional boxed ``Value`` — so no per-element ``Value`` pickling
    happens for the common all-atoms spine.  The compiled stage list is
    cached per (plan, node) like the bound closures.
    """
    faults.fire("process.worker_fused")
    state, key, plan = _worker_plan(payload)
    stages = state["bound"].get((key, node_idx, "fused"))
    if stages is None:
        stages = compile_stages(
            plan.nodes[node_idx], functools.partial(_bind_subtree, plan)
        )
        state["bound"][(key, node_idx, "fused")] = stages
    out = run_stages(stages, Arena(kind, bases, raws))
    return out.kind, out.bases, out.raws


def _worker_ping(_i: int) -> int:
    """No-op worker task used by :meth:`ProcessBackend.warm`."""
    faults.fire("process.worker_ping")
    return os.getpid()


# -- coordinator side --------------------------------------------------------


class ProcessBackend(Backend):
    """Sharded spine execution across a process pool.

    *max_workers* sizes the pool (default :func:`default_process_count`;
    ``1`` starts no pool and evaluates everything in-process);
    *min_shard* is the smallest collection worth shipping to workers —
    anything shorter runs in-process; *mp_context* overrides the
    :mod:`multiprocessing` start-method context.

    ``mp_context=None`` keeps the platform default (``fork`` on Linux):
    the ``spawn``/``forkserver`` methods re-import the *parent's* main
    module in each worker, which breaks plain-script and stdin callers
    (they degrade to the local fallback and never parallelize — measured,
    not hypothetical).  The cost of ``fork`` is that lazily creating
    workers from a non-main thread of a multi-threaded coordinator is
    deadlock-prone; long-lived servers avoid that by calling
    :meth:`warm` once from the main thread before concurrency starts
    (the serving entry points do).
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        min_shard: int = 32,
        mp_context=None,
        supervisor: Supervisor | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.max_workers = max_workers if max_workers is not None else default_process_count()
        self.min_shard = max(1, min_shard)
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._payloads: dict[int, tuple[Plan, bytes | None]] = {}
        self.supervisor = supervisor if supervisor is not None else Supervisor()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.remote_chunks = 0
        self.pickle_fallbacks = 0
        self.pool_fallbacks = 0
        self.pool_restarts = 0

    # -- pool --------------------------------------------------------------

    def _executor(self) -> ProcessPoolExecutor | None:
        """The worker pool, started on first use; ``None`` means inline.

        A daemonic process (a worker of some caller's own
        ``multiprocessing`` pool) may not have children, so it never
        starts a pool and evaluates in-process.
        """
        if self.max_workers <= 1 or multiprocessing.current_process().daemon:
            return None
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=self.max_workers, mp_context=self.mp_context
                    )
                    self._pool = pool
        return pool

    def warm(self) -> None:
        """Start every worker process now, from the calling thread.

        Worker processes are otherwise forked lazily by whichever thread
        first submits a shard — under a fork start method that thread is
        often a pool thread of a multi-threaded coordinator, which is
        deadlock-prone.  Serving entry points call this once from the
        main thread before concurrency begins; with all workers already
        alive, later submits never fork.
        """
        if self._executor() is None:
            return
        # One task per worker forces the pool to spawn its full
        # complement (workers are created one per pending submit).
        def attempt() -> list:
            return self._pool_map(self._executor(), _worker_ping, range(self.max_workers))

        self._supervised(attempt)

    def close(self) -> None:
        """Shut the worker pool down (a later execute reopens it)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def _discard_pool(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None

    def _count(self, counter: str, n: int = 1) -> None:
        # The singleton backend is shared across engines and threads;
        # unguarded += would lose increments under concurrency.
        with self._pool_lock:
            setattr(self, counter, getattr(self, counter) + n)

    # -- supervision -------------------------------------------------------

    def healthy(self) -> bool:
        """False while the circuit breaker is open (shards then run locally)."""
        return self.breaker.allow()

    def _pool_map(
        self,
        pool: ProcessPoolExecutor | None,
        fn: Callable,
        *columns: Iterable,
    ) -> list:
        """``pool.map`` with coordinator-side deadline enforcement.

        Without an ambient deadline this is a plain blocking map.  With
        one, each shard is submitted as a future and awaited with the
        deadline's remaining budget — workers never see the coordinator's
        context variable (it does not survive pickling), so the
        coordinator polices the clock: an expired wait cancels every
        outstanding future and raises
        :class:`~repro.errors.DeadlineExceeded`.  The fault-injection
        site ``process.pool`` fires per attempt, before submission, so an
        injected :class:`~repro.engine.faults.InjectedFault` exercises
        the same supervised-recovery path as a genuinely broken pool.
        """
        faults.fire("process.pool")
        if pool is None:  # pragma: no cover - callers gate on _executor()
            raise BrokenExecutor("worker pool unavailable")
        deadline = current_deadline()
        if deadline is None:
            return list(pool.map(fn, *columns))
        # strict=False: the payload columns are itertools.repeat — the
        # finite chunk column bounds the zip, exactly like pool.map.
        futures: list[Future] = [
            pool.submit(fn, *args) for args in zip(*columns, strict=False)
        ]
        results: list[Any] = []
        try:
            for future in futures:
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    raise FuturesTimeout
                results.append(future.result(timeout=remaining))
        except FuturesTimeout:
            for future in futures:
                future.cancel()
            raise DeadlineExceeded(
                "deadline exceeded waiting on process pool"
            ) from None
        return results

    def _supervised(self, attempt: Callable[[], list]) -> list | None:
        """Run one remote submission under the restart/breaker policy.

        Returns the attempt's result, or ``None`` when the caller should
        degrade to local execution: the breaker is open, or the pool
        failed ``restarts + 1`` times in a row (each failure tears the
        pool down so the next attempt forks fresh workers, and waits a
        seeded jittered backoff).  :class:`~repro.errors.DeadlineExceeded`
        is *not* retried — a request out of budget must fail now, not
        after a backoff sleep.
        """
        restarts = self.supervisor.restarts
        for trial in range(restarts + 1):
            if not self.breaker.allow():
                return None
            try:
                result = attempt()
            except (BrokenExecutor, InjectedFault):
                # A crashed worker (OOM kill, interpreter teardown) or an
                # injected coordinator fault must not take the query down.
                self._discard_pool()
                self.breaker.record_failure()
                if trial < restarts and self.breaker.allow():
                    self._count("pool_restarts")
                    self.supervisor.wait(trial)
                    continue
                self._count("pool_fallbacks")
                return None
            self.breaker.record_success()
            return result
        return None  # pragma: no cover - loop always returns

    # -- plan transport ----------------------------------------------------

    def can_transport(self, plan: Plan) -> bool:
        """Can *plan* reach the workers at all (is its pickle payload ok)?

        The memoized static fact
        (:func:`repro.engine.analysis.plan_facts`) answers the common
        case without touching the payload cache lock; the actual pickle
        payload stays the final word, so a leaf that pickles in
        isolation but whose *assembly* does not is still rejected.
        """
        if not plan_facts(plan).transportable:
            return False
        return self._payload(plan) is not None

    def _payload(self, plan: Plan) -> bytes | None:
        """The plan's pickled transport form (``None`` if unpicklable)."""
        key = id(plan)
        with self._pool_lock:
            entry = self._payloads.get(key)
            if entry is not None and entry[0] is plan:
                return entry[1]
        try:
            blob: bytes | None = pickle.dumps(plan)
        except Exception:
            blob = None
        with self._pool_lock:
            if len(self._payloads) >= _MAX_PAYLOADS:
                self._payloads.clear()
            # The stored plan reference keeps id(plan) from being recycled.
            self._payloads[key] = (plan, blob)
        return blob

    # -- execution ---------------------------------------------------------

    def execute(
        self, plan: Plan, value: Value, shard_hint: int | None = None
    ) -> Value:
        """Run the plan; *shard_hint* (from the cost model's estimate)
        sizes the chunks whenever a spine collection is sharded."""
        from repro.engine.passes import fuse_plan

        # Fuse before the transport check so the payload workers receive
        # is the plan the spine walk executes (fuse_plan is idempotent).
        plan = fuse_plan(plan)
        if not self.can_transport(plan):
            # An unpicklable plan cannot reach the workers; correctness
            # beats parallelism, so run it eagerly in-process.
            self._count("pickle_fallbacks")
            return BACKENDS["eager"].execute(plan, value)
        return self._eval(plan, plan.root, value, {}, shard_hint)

    # -- the sharded spine walk --------------------------------------------

    def _eval(
        self,
        plan: Plan,
        idx: int,
        value: Value,
        bound: dict[int, Callable[[Value], Value]],
        hint: int | None = None,
    ) -> Value:
        """Run the subtree at *idx*: the root chain step by step, spine
        ``map`` and ``fused`` nodes sharded, anything else eagerly.

        :func:`~repro.engine.passes.fuse_plan` collapses every run of two
        or more spine stages into one ``fused`` node, so shards never
        flow from one step into the next: each step receives a concrete
        value and returns one.
        """
        node = plan.nodes[idx]
        checkpoint("sharded stage")
        if node.op == "chain":
            for kid in node.kids:
                value = self._eval(plan, kid, value, bound, hint)
            return value
        if node.op == "map":
            return self._run_map(plan, node, value, bound, hint)
        if node.op == "fused":
            return self._run_fused(plan, node, value, bound, hint)
        return _bind_subtree(plan, idx, bound)(value)

    def _shard_count(self, n: int, hint: int | None) -> int:
        """How many shards an *n*-element collection splits into.

        ``1`` means run inline: the collection is narrower than
        *min_shard*, or there is no pool.  A shard-count *hint* (the cost
        model's estimate-proportional choice) overrides the default of
        two shards per worker.
        """
        if n < max(self.min_shard, 2) or self._executor() is None:
            return 1
        return min(n, hint if hint else self.max_workers * 2)

    def _remote(self, plan: Plan, fn: Callable, *columns: Iterable) -> list | None:
        """Map a worker entry point over the pool, one task per row.

        Each task gets *plan*'s payload followed by one item of every
        column.  Returns ``None`` when the caller should evaluate
        locally: no pool, an unpicklable plan, or a pool that failed
        under :meth:`_supervised`.
        """
        pool = self._executor()
        payload = self._payload(plan) if pool is not None else None
        if payload is None:
            return None

        def attempt() -> list:
            return self._pool_map(self._executor(), fn, repeat(payload), *columns)

        results = self._supervised(attempt)
        if results is not None:
            self._count("remote_chunks", len(results))
        return results

    def _run_map(
        self,
        plan: Plan,
        node: PlanNode,
        value: Value,
        bound: dict[int, Callable[[Value], Value]],
        hint: int | None = None,
    ) -> Value:
        """One spine ``map``: the body runs on each shard in a worker.

        A bound closure cannot cross a process boundary, so workers get
        the plan payload and the body's node index and rebind remotely.
        A narrow input or a failed pool maps the body here.
        """
        _kind, wrapper, _tw, _noun = MAP_KINDS[type(node.source)]
        if not isinstance(value, wrapper):
            # The eager closure raises the map's own type error.
            return _bind_subtree(plan, node.idx, bound)(value)
        n = self._shard_count(len(value.elems), hint)
        if n > 1:
            chunks = even_chunks(list(value.elems), n)
            results = self._remote(plan, _run_chunk_remote, repeat(node.kids[0]), chunks)
            if results is not None:
                return wrapper(e for chunk in results for e in chunk)
        body = _bind_subtree(plan, node.kids[0], bound)

        def mapped() -> Iterator[Value]:
            for e in value.elems:
                # The cooperative cancellation point of the inline path;
                # pool-side, the coordinator polices the deadline.
                checkpoint("sharded map body")
                yield body(e)

        return wrapper(mapped())

    def _run_fused(
        self,
        plan: Plan,
        node: PlanNode,
        value: Value,
        bound: dict[int, Callable[[Value], Value]],
        hint: int | None = None,
    ) -> Value:
        """One fused node: a map-only kernel runs on arena slices in
        workers; anything else, a narrow input or a failed pool runs the
        kernel here."""
        kernel = _bind_subtree(plan, node.idx, bound)
        spec = node.spec or ()
        if (
            # mu re-segments and retag/unique change cardinality across
            # slice boundaries; those run single-pass here.
            not spec
            or any(stage[0] != "map" for stage in spec)
            # A mistyped input raises the kernel's own type error.
            or not isinstance(value, _WRAPPER_OF[spec[0][1]])
        ):
            return kernel(value)
        n = self._shard_count(len(value.elems), hint)
        if n <= 1:
            return kernel(value)
        arena = encode_input(spec, value)
        ranges = even_ranges(len(arena), n)
        results = self._remote(
            plan,
            _run_fused_slice_remote,
            repeat(node.idx),
            repeat(arena.kind),
            [arena.bases[a:b] for a, b in ranges],
            [arena.raws[a:b] for a, b in ranges],
        )
        if results is None:
            return kernel(value)
        bases: list = []
        raws: list = []
        for _kind, slice_bases, slice_raws in results:
            bases.extend(slice_bases)
            raws.extend(slice_raws)
        return Arena(results[0][0], bases, raws).to_value()

    # -- batches -----------------------------------------------------------

    def run_values(self, plan: Plan, values: Sequence[Value]) -> list[Value]:
        """Fan *whole inputs* across the worker pool, one chunk per task.

        The batch hook behind ``Engine.run_many``: each input is
        evaluated start-to-finish inside one worker (no per-stage
        materialization crossing the boundary), and results come back in
        input order.  One input, no pool, an unpicklable plan or a
        failed pool evaluates the inputs one by one in this process.
        """
        shards = None
        if len(values) > 1:
            chunks = even_chunks(list(values), self.max_workers)
            shards = self._remote(plan, _run_chunk_remote, repeat(None), chunks)
        if shards is None:
            return [self.execute(plan, v) for v in values]
        return [r for shard in shards for r in shard]

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict[str, int | str]:
        """Transport, fallback and supervision counters (diagnostics/tests)."""
        breaker_state = self.breaker.state
        with self._pool_lock:
            return {
                "remote_chunks": self.remote_chunks,
                "pickle_fallbacks": self.pickle_fallbacks,
                "pool_fallbacks": self.pool_fallbacks,
                "pool_restarts": self.pool_restarts,
                "breaker": breaker_state,
                "max_workers": self.max_workers,
            }


BACKENDS["process"] = ProcessBackend()
# A pool still alive at interpreter exit is collected after the module
# globals it needs are gone, and its manager thread's callback raises.
atexit.register(BACKENDS["process"].close)
