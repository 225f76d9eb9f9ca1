"""The compile-and-run engine: plan IR, optimizer passes, backends.

This package gives the evaluation stack the classic query-engine shape:

1. **compile** — :func:`repro.engine.plan.compile_plan` turns a
   :class:`~repro.lang.morphisms.Morphism` tree into a flat, typed
   :class:`~repro.engine.plan.Plan`;
2. **optimize** — :mod:`repro.engine.passes` rewrites the morphism with
   a pipeline of composable equational passes before compilation;
3. **run** — :mod:`repro.engine.backends` executes the plan eagerly or
   as a stream (:mod:`repro.engine.columnar` as fused kernels,
   :mod:`repro.engine.process` sharded across worker processes,
   :mod:`repro.engine.symbolic` answering world queries in closed form).

The single entry point is :func:`run` (or :meth:`Engine.run`)::

    from repro import engine
    from repro.lang import ormap, p1

    engine.run(ormap(p1()), vorset(vpair(1, 2)))     # <1>
    engine.run(q, db, backend="streaming")           # lazy spine
    engine.run(q, db, backend="process")             # process-sharded spine
    engine.run(q, db, backend="fused")               # columnar fused kernels
    engine.run(q, db, optimize=False)                # no optimizer passes
    engine.run_many(q, dbs)                          # compile once, dedupe

The default ``backend="auto"`` picks an in-process backend *per call*
from the cost model (:mod:`repro.engine.cost_model`): the plan's spine
profile, and where that leaves a choice the input's estimated world
count, decide between eager execution, lazy streaming, fused columnar
kernels and the symbolic world counter — without building a single
world (Section 6's bounds are computed statically).  The process pool
runs only when a caller names ``backend="process"``.

``engine.run(p, v)`` is structurally equal to the direct interpretation
``p(v)`` for every program; the engine is the canonical execution path
used by the REPL, the I/O helpers, the examples and the benchmarks.

The module-level :data:`DEFAULT_ENGINE` is safe for concurrent use: the
plan cache, its only shared state, is guarded by a lock (and
LRU-bounded) — which is what lets the serving layer's executor threads
hammer one engine at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterator, Sequence

from repro.lang.morphisms import Morphism
from repro.types.kinds import Type
from repro.values.values import SetValue, Value, ensure_value

from repro.engine.analysis import (
    NodeFacts,
    PlanFacts,
    compute_plan_facts,
    format_facts,
    plan_facts,
)
from repro.engine import faults
from repro.engine.backends import BACKENDS, Backend, EagerBackend, StreamingBackend
from repro.engine.columnar import Arena, FusedBackend
from repro.engine.cost_model import (
    OPERATOR_COSTS,
    BackendChoice,
    PlanProfile,
    ShapeEstimate,
    annotate_plan,
    estimate_json,
    estimate_morphism_cost,
    estimate_value,
    operator_features,
    plan_profile,
    select_backend,
)
from repro.engine.deadline import (
    Deadline,
    checkpoint,
    current_deadline,
    deadline_scope,
)
from repro.engine.process import ProcessBackend, default_process_count
from repro.engine.passes import (
    COND_PUSHDOWN,
    DEFAULT_PASSES,
    LATE_NORMALIZE,
    Pass,
    Pipeline,
    default_pipeline,
    fuse_plan,
    optimize_morphism,
)
from repro.engine.plan import Plan, PlanNode, compile_plan
from repro.engine.supervisor import CircuitBreaker, Supervisor
from repro.engine.symbolic import (
    ChoiceSpace,
    SymbolicBackend,
    plan_supports_symbolic,
    trace_worlds,
)
from repro.engine.verify import (
    PassVerificationError,
    PlanVerificationError,
    verification_enabled,
    verify_plan,
    verify_rewrite,
)

__all__ = [
    "Engine",
    "DEFAULT_ENGINE",
    "run",
    "run_many",
    "compile_program",
    "explain",
    "count_worlds",
    "certain",
    "possible",
    "exists",
    "Plan",
    "PlanNode",
    "compile_plan",
    "Pass",
    "Pipeline",
    "DEFAULT_PASSES",
    "COND_PUSHDOWN",
    "LATE_NORMALIZE",
    "default_pipeline",
    "optimize_morphism",
    "Backend",
    "EagerBackend",
    "StreamingBackend",
    "ProcessBackend",
    "FusedBackend",
    "SymbolicBackend",
    "ChoiceSpace",
    "trace_worlds",
    "plan_supports_symbolic",
    "Arena",
    "fuse_plan",
    "BACKENDS",
    "default_process_count",
    "ShapeEstimate",
    "estimate_value",
    "estimate_json",
    "estimate_morphism_cost",
    "OPERATOR_COSTS",
    "operator_features",
    "annotate_plan",
    "PlanProfile",
    "plan_profile",
    "BackendChoice",
    "select_backend",
    "NodeFacts",
    "PlanFacts",
    "plan_facts",
    "compute_plan_facts",
    "format_facts",
    "verify_plan",
    "verify_rewrite",
    "PlanVerificationError",
    "PassVerificationError",
    "verification_enabled",
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "checkpoint",
    "CircuitBreaker",
    "Supervisor",
    "faults",
]


class Engine:
    """Compile-and-run driver tying passes, plans and backends together.

    One engine owns one compiled-plan cache keyed on the program, per
    optimization setting: an LRU bounded by *max_plans*, safe to use from
    multiple threads.  Results are not cached; every call runs its plan.

    The entry points :meth:`run`, :meth:`run_many`, :meth:`possibilities`,
    :meth:`count_worlds`, :meth:`exists`, :meth:`certain` and
    :meth:`possible` accept a keyword ``intern`` and ignore it: it used to
    switch a value arena that no longer exists, and it stays accepted
    until ``perfbench/run.py`` stops passing it.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        max_plans: int = 256,
    ) -> None:
        self.pipeline = pipeline if pipeline is not None else default_pipeline()
        self.backends: dict[str, Backend] = dict(BACKENDS)
        self.max_plans = max_plans
        self._plans: OrderedDict[tuple[Morphism, bool], Plan] = OrderedDict()
        self._lock = threading.Lock()

    # -- compilation -------------------------------------------------------

    def compile(self, program: Morphism, optimize: bool = True) -> Plan:
        """The (cached, LRU-evicted) compiled plan for *program*."""
        key = (program, optimize)
        # The whole miss path runs under the lock: `pipeline.run` records
        # the fired rules on the shared pipeline (the documented
        # diagnostics channel), so concurrent compiles must not
        # interleave their rule lists.
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
            m = self.pipeline.run(program) if optimize else program
            plan = compile_plan(m)
            if verification_enabled():
                verify_plan(plan, context="compile")
            self._plans[key] = plan
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return plan

    def explain(
        self,
        program: Morphism,
        input_type: Type | None = None,
        value: object = None,
        *,
        existential: bool = False,
    ) -> str:
        """The optimized, compiled (and, given a type, annotated) plan.

        The node listing is followed by a ``facts:`` line — the
        :class:`~repro.engine.analysis.PlanFacts` record the routing
        layers read (symbolic supportability, transportability, purity,
        spine shape, fusible spans, output shape, short-circuit
        potential), printed exactly as the selector sees it.

        Describes a *fresh* compilation rather than the cached plan:
        ``infer_types`` writes dom/cod annotations into the plan's nodes,
        and annotating the shared cached plan would leak one call's types
        into later ``explain``/``describe`` output (or a concurrent
        reader's).  Given a *value*, each node is additionally annotated
        with the cost model's predicted world count and normalized size
        (``~worlds<=... size<=...``) — the Section 6 bounds, computed
        without building a single world — followed by the backend the
        adaptive selector would pick for this call.  When the plan's
        spine has fusible runs, a ``fusion:`` line reports how many
        stages collapse into how many single-pass columnar kernels
        (:func:`repro.engine.passes.fuse_plan`).  ``existential=True``
        asks for the world-query route instead of the run route — the
        selector may then report the symbolic backend
        (:mod:`repro.engine.symbolic`).
        """
        with self._lock:
            m = self.pipeline.run(program)
        plan = compile_plan(m)
        if input_type is not None:
            plan.infer_types(input_type)
        facts_line = "\n" + format_facts(plan_facts(plan))
        fused = fuse_plan(plan)
        fusion = ""
        if fused is not plan:
            kernels = sum(1 for node in fused.nodes if node.op == "fused")
            stages = sum(
                len(node.spec) for node in fused.nodes if node.op == "fused"
            )
            fusion = (
                f"\nfusion: {stages} spine stage(s) collapse into "
                f"{kernels} fused kernel(s)"
            )
        if value is None:
            return plan.describe() + facts_line + fusion
        concrete = ensure_value(value)
        plan.annotate_estimates(concrete)
        choice = select_backend(
            plan,
            concrete,
            existential=existential,
            world_query=existential,
            available=self.backends,
        )
        return (
            plan.describe()
            + facts_line
            + fusion
            + f"\nbackend: {choice.backend} ({choice.reason})"
        )

    # -- execution ---------------------------------------------------------

    def run(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Value:
        """Compile *program* and execute it on *value*.

        ``backend`` names a registered backend (:data:`BACKENDS`) — or
        ``"auto"`` (the default), which picks per call from the cost
        model's static world-count estimate and the plan's spine profile
        (:func:`repro.engine.cost_model.select_backend`); ``optimize``
        toggles the pass pipeline.
        """
        plan = self.compile(program, optimize)
        return self._execute(backend, plan, ensure_value(value))

    def _execute(self, backend: str, plan: Plan, concrete: Value) -> Value:
        """Resolve *backend* (adaptively for ``"auto"``) and execute."""
        checkpoint("engine dispatch")
        if backend == "auto":
            backend = select_backend(plan, concrete, available=self.backends).backend
        return self._backend(backend).execute(plan, concrete)

    def run_many(
        self,
        program: Morphism,
        values: Sequence[object],
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> list[Value]:
        """Run *program* on every input in *values*: compile once, dedupe.

        The batched counterpart of :meth:`run`: one plan compilation and
        one backend bind are amortized over the whole batch, and
        structurally equal inputs are computed once.  Distinct inputs run
        one after another in this process, except under an explicit
        ``backend="process"``, whose batch hook
        (:meth:`ProcessBackend.run_values`) fans whole inputs across its
        worker processes.  Results come back in input order and satisfy
        ``run_many(p, vs)[i] == run(p, vs[i])``.  ``backend="auto"``
        (the default) selects an in-process backend per distinct input,
        so a batch can mix small eager inputs with wide fused or
        streamed ones.  Equal inputs share one result object.
        """
        if backend != "auto":
            self._backend(backend)  # validate the name up front
        plan = self.compile(program, optimize)
        concrete = [ensure_value(v) for v in values]
        if not concrete:
            return []

        # Dedupe structurally equal inputs: a multi-world batch often
        # repeats whole inputs, and each distinct one is computed once.
        # Each input is hashed once: its slot is all the answer needs.
        index: dict[Value, int] = {}
        unique: list[Value] = []
        slots: list[int] = []
        for v in concrete:
            slot = index.setdefault(v, len(unique))
            if slot == len(unique):
                unique.append(v)
            slots.append(slot)

        chosen = self.backends.get(backend)
        if isinstance(chosen, ProcessBackend):
            results = chosen.run_values(plan, unique)
        else:
            results = [self._execute(backend, plan, v) for v in unique]
        return [results[slot] for slot in slots]

    def possibilities(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Iterator[Value]:
        """Lazily stream the conceptual values of ``run(program, value)``.

        With ``backend="auto"`` (the default) this is an *existential*
        consumer: when the static estimate predicts a huge world count
        over a streamable spine, the streaming backend is chosen so the
        first witness short-circuits without materializing a normal form.
        """
        plan = self.compile(program, optimize)
        concrete = ensure_value(value)
        if backend == "auto":
            choice = select_backend(
                plan, concrete, existential=True, available=self.backends
            )
            chosen = self.backends[choice.backend]
        else:
            chosen = self._backend(backend)
        return chosen.possibilities(plan, concrete)

    # -- world queries -----------------------------------------------------

    def _world_query(
        self, program: Morphism, value: object, backend: str, optimize: bool
    ) -> tuple[Backend, Plan, Value]:
        """Compile, and resolve the backend for a world query (a
        whole-world-set consumer)."""
        plan = self.compile(program, optimize)
        concrete = ensure_value(value)
        if backend == "auto":
            choice = select_backend(
                plan,
                concrete,
                existential=True,
                world_query=True,
                available=self.backends,
            )
            return self.backends[choice.backend], plan, concrete
        return self._backend(backend), plan, concrete

    def count_worlds(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> int:
        """``|worlds(run(program, value))|`` — the paper's ``m``.

        With ``backend="auto"`` (or ``"symbolic"``), supported plans are
        answered by recursion over the traced input: exact counts in
        time linear in the *input*, even when the count itself is
        astronomical.  Other backends count by deduplicated enumeration.
        """
        chosen, plan, concrete = self._world_query(program, value, backend, optimize)
        return chosen.count_worlds(plan, concrete)

    def exists(
        self,
        program: Morphism,
        value: object,
        predicate=None,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> bool:
        """Does some world of the output satisfy *predicate*?

        With no predicate: is the output consistent (has any world at
        all)?  The symbolic route answers that without producing one.
        With a predicate (any ``Value -> bool`` callable), worlds are
        streamed lazily and the first witness short-circuits.
        """
        chosen, plan, concrete = self._world_query(program, value, backend, optimize)
        return chosen.exists(plan, concrete, predicate)

    def certain(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Value:
        """The set of elements present in *every* world of the output.

        The certain-answer operator of consistent query answering: the
        output's worlds must be collections (sets/bags — e.g. the worlds
        of a normalized or-set database), and the result is the
        intersection of their element sets, as a canonical ``SetValue``.
        Raises :class:`~repro.errors.OrNRAValueError` when the output
        has no worlds at all (inconsistency).  The symbolic route reads
        the answer off the members' own worlds (an element is certain
        iff it is some member's only world) instead of intersecting
        exponentially many worlds.
        """
        chosen, plan, concrete = self._world_query(program, value, backend, optimize)
        return SetValue(chosen.certain(plan, concrete))

    def possible(
        self,
        program: Morphism,
        value: object,
        *,
        backend: str = "auto",
        optimize: bool = True,
        intern: bool = True,
    ) -> Value:
        """The set of elements present in *some* world of the output —
        the dual of :meth:`certain` (possible answers)."""
        chosen, plan, concrete = self._world_query(program, value, backend, optimize)
        return SetValue(chosen.possible(plan, concrete))

    def choose_backend(
        self,
        program: Morphism,
        value: object,
        *,
        optimize: bool = True,
        existential: bool = False,
        world_query: bool = False,
    ) -> BackendChoice:
        """The adaptive selector's decision for this call, with reasoning.

        What ``backend="auto"`` would do — exposed for diagnostics, the
        REPL and tests.  ``existential`` marks a first-witness consumer
        (:meth:`possibilities`); ``world_query`` marks a whole-world-set
        consumer (:meth:`count_worlds` / :meth:`certain` /
        :meth:`possible` / :meth:`exists`).
        """
        plan = self.compile(program, optimize)
        return select_backend(
            plan,
            ensure_value(value),
            existential=existential,
            world_query=world_query,
            available=self.backends,
        )

    def _backend(self, name: str) -> Backend:
        try:
            return self.backends[name]
        except KeyError:
            raise ValueError(
                f"unknown backend {name!r} (have: {', '.join(sorted(self.backends))})"
            ) from None

    def clear_caches(self) -> None:
        """Drop compiled plans."""
        with self._lock:
            self._plans.clear()


#: The module-level engine behind :func:`run` — shared so the REPL, the
#: I/O helpers and library callers benefit from one another's caches.
DEFAULT_ENGINE = Engine()


def run(program: Morphism, value: object, **options) -> Value:
    """Run *program* on *value* through the default engine."""
    return DEFAULT_ENGINE.run(program, value, **options)


def run_many(program: Morphism, values: Sequence[object], **options) -> list[Value]:
    """Batched :func:`run` through the default engine (compile once, dedupe)."""
    return DEFAULT_ENGINE.run_many(program, values, **options)


def compile_program(program: Morphism, optimize: bool = True) -> Plan:
    """Compile (and optionally optimize) through the default engine."""
    return DEFAULT_ENGINE.compile(program, optimize)


def explain(
    program: Morphism,
    input_type: Type | None = None,
    value: object = None,
    *,
    existential: bool = False,
) -> str:
    """Describe the default engine's plan for *program*.

    Given a *value*, nodes carry the cost model's predicted world counts
    and the adaptive backend decision for that input; ``existential=True``
    explains the routing for world queries (:func:`exists`,
    :func:`certain`, :func:`count_worlds`) instead of :func:`run`.
    """
    return DEFAULT_ENGINE.explain(program, input_type, value, existential=existential)


def count_worlds(program: Morphism, value: object, **options) -> int:
    """Exact world count of the output through the default engine."""
    return DEFAULT_ENGINE.count_worlds(program, value, **options)


def exists(program: Morphism, value: object, predicate=None, **options) -> bool:
    """Existential world query through the default engine."""
    return DEFAULT_ENGINE.exists(program, value, predicate, **options)


def certain(program: Morphism, value: object, **options) -> Value:
    """Certain answers (elements in every world) through the default engine."""
    return DEFAULT_ENGINE.certain(program, value, **options)


def possible(program: Morphism, value: object, **options) -> Value:
    """Possible answers (elements in some world) through the default engine."""
    return DEFAULT_ENGINE.possible(program, value, **options)
