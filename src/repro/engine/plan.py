"""The plan IR: a flat, typed compilation target for or-NRA morphisms.

The direct interpreter evaluates a :class:`~repro.lang.morphisms.Morphism`
by recursive ``apply`` calls over the syntax tree.  This module compiles
the same tree into a *plan* — a flat array of :class:`PlanNode`
instructions with explicit child references and hash-consed sharing —
which is the engine's canonical execution representation:

* **flat**: composition chains are linearized into a single ``chain``
  node whose steps execute in a loop (no interpreter recursion per
  composition, no Python stack growth on long pipelines);
* **shared**: structurally equal sub-morphisms compile to the *same*
  node id, so a sub-plan referenced from several places is built (and
  bound to a closure) once;
* **typed**: :meth:`Plan.infer_types` annotates every node with its
  concrete input/output :class:`~repro.types.kinds.Type` for a given
  program input type, which the optimizer passes and the diagnostics
  (``Plan.describe``) use.

Ops
---

==========  ===============================================================
``id``      the identity (chains prune it)
``chain``   a linearized composition; ``kids`` in application order
``pair``    :class:`PairOf` — run both kids on the same input
``cond``    :class:`Cond` — predicate kid selects a branch kid
``case``    :class:`Case` — variant tag selects a branch kid
``map``     :class:`SetMap` / :class:`OrMap` / :class:`DMap`; ``kind``
            records the collection family, ``kids[0]`` is the body
``leaf``    any other combinator; executes via the morphism's own
            ``apply``
``fused``   a run of spine stages collapsed by
            :func:`repro.engine.passes.fuse_plan`; ``spec`` is the stage
            list, ``kids`` are the map-stage bodies, ``source`` the
            composed morphism; executes as one columnar kernel
            (:func:`repro.engine.columnar.build_fused_kernel`)
==========  ===============================================================

Binding (:meth:`Plan.bind`) turns the node array into nested closures
bottom-up; the result is a plain ``Value -> Value`` callable whose hot
path is a tuple loop over pre-built step functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.engine.cost_model import ShapeEstimate

from repro.errors import OrNRATypeError
from repro.lang.bag_ops import DMap
from repro.lang.morphisms import Compose, Cond, Id, Morphism, PairOf
from repro.lang.orset_ops import OrMap
from repro.lang.set_ops import SetMap
from repro.lang.variant_ops import Case
from repro.types.kinds import BagType, OrSetType, SetType, Type, VariantType
from repro.types.parse import format_type
from repro.values.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    Value,
    Variant,
)

__all__ = ["PlanNode", "Plan", "compile_plan", "MAP_KINDS"]

# Collection family per map class: (constructor, type wrapper, error noun).
MAP_KINDS: dict[type, tuple[str, type, type, str]] = {
    SetMap: ("set", SetValue, SetType, "map expects a set"),
    OrMap: ("orset", OrSetValue, OrSetType, "ormap expects an or-set"),
    DMap: ("bag", BagValue, BagType, "dmap expects a bag"),
}


@dataclass
class PlanNode:
    """One instruction of the flat plan IR."""

    idx: int
    op: str
    kids: tuple[int, ...]
    source: Morphism
    kind: str | None = None
    dom: Type | None = None
    cod: Type | None = None
    est_worlds: int | None = None
    est_size: int | None = None
    spec: tuple | None = None

    def pretty(self) -> str:
        parts = [f"n{self.idx:<3} {self.op}"]
        if self.kind:
            parts[0] += f"[{self.kind}]"
        if self.kids:
            parts.append("(" + ", ".join(f"n{k}" for k in self.kids) + ")")
        if self.op == "leaf":
            parts.append(self.source.describe())
        if self.op == "fused" and self.spec:
            parts.append("{" + "+".join(stage[0] for stage in self.spec) + "}")
        if self.dom is not None and self.cod is not None:
            parts.append(f": {format_type(self.dom)} -> {format_type(self.cod)}")
        if self.est_worlds is not None:
            parts.append(f"~worlds<={self.est_worlds} size<={self.est_size}")
        return " ".join(parts)


@dataclass
class Plan:
    """A compiled program: flat node array plus the root instruction id."""

    nodes: list[PlanNode]
    root: int
    source: Morphism
    _bound: Callable[[Value], Value] | None = field(default=None, repr=False)

    # -- execution ---------------------------------------------------------

    def bind(self) -> Callable[[Value], Value]:
        """The plan's executable closure, built on first use and kept.

        Every node becomes a closure over its children's closures, bottom
        up; a shared node is built once.
        """
        fn = self._bound
        if fn is None:
            fns: list[Callable[[Value], Value] | None] = [None] * len(self.nodes)

            def build(i: int) -> Callable[[Value], Value]:
                ready = fns[i]
                if ready is None:
                    ready = fns[i] = self._build_node(self.nodes[i], build)
                return ready

            fn = self._bound = build(self.root)
        return fn

    @staticmethod
    def _build_node(
        node: PlanNode,
        build: Callable[[int], Callable[[Value], Value]],
    ) -> Callable[[Value], Value]:
        op = node.op
        if op == "id":
            return lambda v: v
        if op == "chain":
            steps = tuple(build(k) for k in node.kids)

            def run_chain(v: Value, _steps=steps) -> Value:
                for step in _steps:
                    v = step(v)
                return v

            return run_chain
        if op == "pair":
            left, right = build(node.kids[0]), build(node.kids[1])
            return lambda v: Pair(left(v), right(v))
        if op == "cond":
            pred, then, orelse = (build(k) for k in node.kids)

            def run_cond(v: Value) -> Value:
                verdict = pred(v)
                if not (isinstance(verdict, Atom) and verdict.base == "bool"):
                    raise OrNRATypeError(
                        f"cond predicate returned non-boolean {verdict!r}"
                    )
                return then(v) if verdict.value else orelse(v)

            return run_cond
        if op == "case":
            on_left, on_right = build(node.kids[0]), build(node.kids[1])

            def run_case(v: Value) -> Value:
                if not isinstance(v, Variant):
                    raise OrNRATypeError(f"case expects a variant, got {v!r}")
                return on_left(v.payload) if v.side == 0 else on_right(v.payload)

            return run_case
        if op == "map":
            body = build(node.kids[0])
            _kind, wrapper, _tw, noun = MAP_KINDS[type(node.source)]

            def run_map(v: Value, _wrap=wrapper, _noun=noun) -> Value:
                if not isinstance(v, _wrap):
                    raise OrNRATypeError(f"{_noun}, got {v!r}")
                return _wrap(body(e) for e in v.elems)

            return run_map
        if op == "fused":
            from repro.engine.columnar import build_fused_kernel

            return build_fused_kernel(node, build)
        # leaf
        return node.source.apply

    def execute(self, value: Value) -> Value:
        """Run the plan on *value*."""
        return self.bind()(value)

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle only the IR, not the derived runtime state.

        The bound closure (``_bound``) is unpicklable and rebuilt on demand;
        cached profiles and payloads (set by the cost model and the
        process backend via ``setattr``) are derived and cheap to
        recompute.  This is what lets the process backend ship compiled
        plans to worker processes even after the coordinating process has
        bound them.
        """
        return {"nodes": self.nodes, "root": self.root, "source": self.source}

    def __setstate__(self, state: dict) -> None:
        self.nodes = state["nodes"]
        self.root = state["root"]
        self.source = state["source"]
        self._bound = None

    # -- typing ------------------------------------------------------------

    def infer_types(self, input_type: Type) -> Type | None:
        """Annotate every node with concrete dom/cod for *input_type*.

        Returns the program's output type, or ``None`` where inference
        fails (e.g. a ``normalize`` leaf without a declared input type).
        Nodes shared between contexts keep the last visit's annotation —
        the annotations are diagnostic, not semantic.
        """

        def out_type(node: PlanNode, dom: Type | None) -> Type | None:
            if dom is None:
                return None
            try:
                return node.source.output_type(dom)
            except Exception:
                return None

        def visit(i: int, dom: Type | None) -> Type | None:
            node = self.nodes[i]
            node.dom = dom
            if node.op == "chain":
                t = dom
                for k in node.kids:
                    t = visit(k, t)
                node.cod = t
                return t
            cod = out_type(node, dom)
            node.cod = cod
            if node.op == "pair":
                visit(node.kids[0], dom)
                visit(node.kids[1], dom)
            elif node.op == "cond":
                for k in node.kids:
                    visit(k, dom)
            elif node.op == "case":
                left = dom.left if isinstance(dom, VariantType) else None
                right = dom.right if isinstance(dom, VariantType) else None
                visit(node.kids[0], left)
                visit(node.kids[1], right)
            elif node.op == "map":
                _kind, _w, type_wrapper, _n = MAP_KINDS[type(node.source)]
                elem = dom.elem if isinstance(dom, type_wrapper) else None
                visit(node.kids[0], elem)
            return cod

        return visit(self.root, input_type)

    def annotate_estimates(self, value: Value) -> "ShapeEstimate":
        """Predict per-node world counts/sizes for *value* (Section 6 bounds).

        Delegates to :func:`repro.engine.cost_model.annotate_plan`; the
        annotations appear in :meth:`describe`.  Returns the root's
        :class:`~repro.engine.cost_model.ShapeEstimate`.
        """
        from repro.engine.cost_model import annotate_plan

        return annotate_plan(self, value)

    # -- diagnostics -------------------------------------------------------

    def describe(self) -> str:
        """A readable rendering of the flat instruction array."""
        lines = [f"plan: {len(self.nodes)} nodes, root=n{self.root}"]
        lines += ["  " + node.pretty() for node in self.nodes]
        return "\n".join(lines)

    def to_morphism(self) -> Morphism:
        """Decompile back to a morphism tree (round-trip testing aid)."""

        def rebuild(i: int) -> Morphism:
            node = self.nodes[i]
            if node.op == "chain":
                steps = [rebuild(k) for k in node.kids]
                result = steps[0]
                for step in steps[1:]:
                    result = Compose(step, result)
                return result
            if node.op == "pair":
                return PairOf(rebuild(node.kids[0]), rebuild(node.kids[1]))
            if node.op == "cond":
                return Cond(*(rebuild(k) for k in node.kids))
            if node.op == "case":
                return Case(rebuild(node.kids[0]), rebuild(node.kids[1]))
            if node.op == "map":
                return type(node.source)(rebuild(node.kids[0]))
            return node.source

        return rebuild(self.root)

    def __len__(self) -> int:
        return len(self.nodes)


def _linearize(m: Morphism) -> list[Morphism]:
    """Flatten nested compositions into application order (first first)."""
    if isinstance(m, Compose):
        return _linearize(m.before) + _linearize(m.after)
    return [m]


def compile_plan(m: Morphism) -> Plan:
    """Compile a morphism tree into a flat, shared :class:`Plan`."""
    nodes: list[PlanNode] = []
    memo: dict[Morphism, int] = {}

    def emit(sub: Morphism) -> int:
        known = memo.get(sub)
        if known is not None:
            return known
        if isinstance(sub, Compose):
            steps = [s for s in _linearize(sub) if not isinstance(s, Id)]
            if not steps:
                idx = add(PlanNode(-1, "id", (), Id()))
            elif len(steps) == 1:
                idx = emit(steps[0])
            else:
                kids = tuple(emit(s) for s in steps)
                idx = add(PlanNode(-1, "chain", kids, sub))
        elif isinstance(sub, Id):
            idx = add(PlanNode(-1, "id", (), sub))
        elif isinstance(sub, PairOf):
            kids = (emit(sub.left), emit(sub.right))
            idx = add(PlanNode(-1, "pair", kids, sub))
        elif isinstance(sub, Cond):
            kids = (emit(sub.pred), emit(sub.then), emit(sub.orelse))
            idx = add(PlanNode(-1, "cond", kids, sub))
        elif isinstance(sub, Case):
            kids = (emit(sub.on_left), emit(sub.on_right))
            idx = add(PlanNode(-1, "case", kids, sub))
        elif type(sub) in MAP_KINDS:
            kind = MAP_KINDS[type(sub)][0]
            idx = add(PlanNode(-1, "map", (emit(sub.body),), sub, kind=kind))
        else:
            idx = add(PlanNode(-1, "leaf", (), sub))
        memo[sub] = idx
        return idx

    def add(node: PlanNode) -> int:
        node.idx = len(nodes)
        nodes.append(node)
        return node.idx

    root = emit(m)
    return Plan(nodes=nodes, root=root, source=m)
