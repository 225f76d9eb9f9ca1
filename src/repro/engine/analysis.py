"""Unified static analysis over the plan IR: one pass, one fact record.

Libkin–Wong's calculus is built on facts a compiler can know *without
running anything*: types, Section 6 world/size bounds, and which
operators preserve them.  Before this module the engine re-derived such
facts ad hoc — :func:`repro.engine.symbolic.plan_supports_symbolic`,
:meth:`repro.engine.process.ProcessBackend.can_transport`,
:func:`repro.engine.passes.fusible_spans` and
:func:`repro.engine.cost_model.plan_profile` were four independent
whole-plan traversals with no shared infrastructure.  Here a single
bottom-up abstract interpretation computes every static fact the
backends route on, in one linear scan over the flat node array
(:func:`repro.engine.plan.compile_plan` emits children before parents,
so index order *is* a valid bottom-up order):

* **shape** — the statically known output collection kind per node;
* **purity/determinism** — whether the subtree is built purely from
  calculus combinators and named primitives (no lambdas or closures,
  whose behaviour the engine cannot certify across runs or processes);
* **pickle-transportability** — whether every leaf pickles, the static
  gate for shipping the plan to worker processes;
* **raw-scalar compilability** — whether a map body compiles to an
  unboxed kernel (:func:`repro.engine.columnar.compile_scalar`);
* **symbolic supportability** — whether the top-level spine has a
  world-preserving trace (:mod:`repro.engine.symbolic`);
* **fusible-span structure** — the maximal runs of root-chain stages a
  columnar kernel can collapse (:func:`repro.engine.passes.fuse_plan`);
* **short-circuit potential** — a streamable spine whose output is an
  or-set, so lazy consumers can stop at the first witness.

The result is a :class:`PlanFacts` record cached on the plan object
(plans themselves are cached by the :class:`~repro.engine.Engine`,
so the facts live exactly as long as the plan): repeated
``select_backend`` / ``fuse_plan`` / ``can_transport`` calls read one
memoized record instead of re-walking the plan.  The four historical
predicates are now thin adapters over :func:`plan_facts`, and
:mod:`repro.engine.verify` checks that optimizer rewrites preserve what
the facts report.

This module is also the canonical home of the operator class tables
(expansion / alpha / traversal / cheap-real) that the cost model and the
symbolic trace previously each declared for themselves.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.cost_model import ShapeEstimate
    from repro.values.values import Value

from repro.core.normalize import Normalize
from repro.lang.bag_ops import AlphaD, BagEta, BagMu, BagToSet, BagUnique, SetToBag
from repro.lang.morphisms import Morphism, Primitive
from repro.lang.orset_ops import Alpha, OrEta, OrMap, OrMu, OrToSet, SetToOr
from repro.lang.set_ops import SetEta, SetMu

from repro.engine import columnar
from repro.engine.plan import Plan, PlanNode

__all__ = [
    "NodeFacts",
    "PlanFacts",
    "plan_facts",
    "compute_plan_facts",
    "format_facts",
    "annotate_plan",
    "EXPANSION_OPS",
    "ALPHA_OPS",
    "TRAVERSAL_OPS",
    "CHEAP_REAL_OPS",
    "SYMBOLIC_SPINE_LEAVES",
]

# -- operator class tables (canonical home) ----------------------------------

#: Normalization-class operators: expand a value into its or-set of
#: worlds (Theorem 6.2's ``3^(n/3)`` blow-up risk).
EXPANSION_OPS: tuple[type, ...] = (Normalize,)

#: The per-redex expansion step (set/bag versions).
ALPHA_OPS: tuple[type, ...] = (Alpha, AlphaD)

#: Collection traversals: linear in their input, and exactly the
#: streamable spine stages the backends shard, stream and fuse.
TRAVERSAL_OPS: tuple[type, ...] = (
    SetMu,
    OrMu,
    BagMu,
    OrToSet,
    SetToOr,
    BagToSet,
    SetToBag,
    BagUnique,
)

#: Structural steps the symbolic trace runs *for real* (each is linear
#: and preserves the world-set invariant; see ``symbolic.trace_worlds``).
CHEAP_REAL_OPS: tuple[type, ...] = TRAVERSAL_OPS + (OrEta, SetEta)

#: Every leaf class admissible on a symbolically traceable spine: the
#: cheap structural steps plus the *skippable* expansion steps
#: (Theorem 4.2 coherence makes ``normalize``/``alpha`` world-preserving).
SYMBOLIC_SPINE_LEAVES: tuple[type, ...] = CHEAP_REAL_OPS + (Normalize, Alpha)

#: Statically known output collection kind per leaf class.
_LEAF_OUT_KIND: dict[type, str] = {
    SetEta: "set",
    OrEta: "orset",
    BagEta: "bag",
    SetMu: "set",
    OrMu: "orset",
    BagMu: "bag",
    OrToSet: "set",
    SetToOr: "orset",
    BagToSet: "set",
    SetToBag: "bag",
    BagUnique: "bag",
    Normalize: "orset",
    Alpha: "orset",
    AlphaD: "orset",
}


# -- fact records ------------------------------------------------------------


@dataclass(frozen=True)
class NodeFacts:
    """Static facts for one plan node (an element of the fact lattice).

    ``out_kind`` is the statically known output collection family
    (``None`` when it depends on the input); ``pure`` certifies the
    subtree is deterministic calculus structure (no lambdas/closures);
    ``transportable`` that every leaf pickles; ``world_preserving`` that
    the subtree is a chain of ``id``/``normalize`` steps (the map bodies
    the symbolic trace may skip); ``stage`` is the columnar fused-stage
    descriptor when this node can be a kernel stage; ``raw_scalar``
    whether a map body compiles to an unboxed scalar kernel.
    """

    out_kind: str | None
    pure: bool
    transportable: bool
    world_preserving: bool
    stage: tuple | None
    raw_scalar: bool


@dataclass(frozen=True)
class PlanFacts:
    """Everything the engine's routing layers know statically about a plan.

    One record per plan, computed by :func:`compute_plan_facts` in a
    single bottom-up scan and cached by :func:`plan_facts`.  The four
    historical predicates read it:

    * ``symbolic_ok``          — ``symbolic.plan_supports_symbolic``;
    * ``transportable``        — ``ProcessBackend.can_transport``'s
      static gate (the pickle payload stays the final word);
    * ``fusible``/``fused_stages`` — ``passes.fusible_spans``;
    * ``spine_maps``/``spine_stages``/``has_normalize`` —
      ``cost_model.plan_profile``.
    """

    nodes: int
    spine_maps: int
    spine_stages: int
    has_normalize: bool
    fusible: tuple[tuple[int, int, tuple[tuple, ...]], ...]
    fused_stages: int
    symbolic_ok: bool
    transportable: bool
    pure: bool
    out_kind: str | None
    short_circuit: bool
    node_facts: tuple[NodeFacts, ...]


# -- the one-pass analysis ---------------------------------------------------


def _leaf_transportable(m: Morphism) -> bool:
    """Does this leaf's source pickle?  (Composites derive from kids.)"""
    try:
        pickle.dumps(m)
    except Exception:
        return False
    return True


def _leaf_pure(m: Morphism) -> bool:
    """Is this leaf certifiably deterministic calculus structure?

    Every combinator of the calculus is a pure total function of its
    input.  A :class:`~repro.lang.morphisms.Primitive` is trusted when
    its callable is a *named, closure-free* function (the signature
    ``Sigma`` the paper parameterizes over); a lambda or a closure may
    capture mutable state the engine cannot see, so it is conservatively
    not certified.
    """
    for prim in _primitives_in(m):
        fn = prim.fn
        if getattr(fn, "__name__", "") == "<lambda>":
            return False
        if getattr(fn, "__closure__", None):
            return False
    return True


def _primitives_in(m: Morphism) -> list[Primitive]:
    out: list[Primitive] = []
    stack = [m]
    while stack:
        node = stack.pop()
        if isinstance(node, Primitive):
            out.append(node)
        stack.extend(node.children())
    return out


def _node_out_kind(node: PlanNode, kid_facts: list[NodeFacts]) -> str | None:
    if node.op == "map":
        return node.kind
    if node.op == "leaf":
        return _LEAF_OUT_KIND.get(type(node.source))
    if node.op == "fused" and node.spec:
        return columnar.spec_out_kind(node.spec)
    if node.op == "chain":
        return kid_facts[-1].out_kind
    if node.op in ("cond", "case"):
        branches = kid_facts[1:] if node.op == "cond" else kid_facts
        kinds = {f.out_kind for f in branches}
        if len(kinds) == 1:
            return kinds.pop()
    return None


def compute_plan_facts(plan: Plan) -> PlanFacts:
    """One bottom-up scan of ``plan.nodes`` producing a :class:`PlanFacts`.

    ``compile_plan`` and ``fuse_plan`` both emit children before parents,
    so a single index-order loop visits every kid before its parent —
    this is the abstract interpretation's whole control flow.
    """
    node_facts: list[NodeFacts] = []
    for node in plan.nodes:
        kid_facts = [node_facts[k] for k in node.kids]
        if node.op == "leaf":
            transportable = _leaf_transportable(node.source)
            pure = _leaf_pure(node.source)
        else:
            transportable = all(f.transportable for f in kid_facts)
            pure = all(f.pure for f in kid_facts)
        if node.op == "id":
            world_preserving = True
        elif node.op == "leaf" and isinstance(node.source, Normalize):
            world_preserving = True
        elif node.op == "chain":
            world_preserving = all(f.world_preserving for f in kid_facts)
        else:
            world_preserving = False
        stage = columnar.stage_of(node)
        body = getattr(node.source, "body", None)
        raw_scalar = bool(
            node.op == "map" and body is not None and columnar.raw_kernels(body)
        )
        node_facts.append(
            NodeFacts(
                out_kind=_node_out_kind(node, kid_facts),
                pure=pure,
                transportable=transportable,
                world_preserving=world_preserving,
                stage=stage,
                raw_scalar=raw_scalar,
            )
        )

    top = plan.nodes[plan.root]
    steps = list(top.kids) if top.op == "chain" else [plan.root]

    spine_maps = spine_stages = 0
    symbolic_ok = True
    for idx in steps:
        node = plan.nodes[idx]
        if node.op == "map":
            spine_maps += 1
            spine_stages += 1
        elif node.op == "leaf" and isinstance(node.source, TRAVERSAL_OPS):
            spine_stages += 1
        if node.op == "id":
            continue
        if node.op == "leaf" and isinstance(node.source, SYMBOLIC_SPINE_LEAVES):
            continue
        if (
            node.op == "map"
            and isinstance(node.source, OrMap)
            and node_facts[node.kids[0]].world_preserving
        ):
            continue
        symbolic_ok = False

    fusible: list[tuple[int, int, tuple[tuple, ...]]] = []
    i = 0
    while i < len(steps):
        stages: list[tuple] = []
        j = i
        while j < len(steps):
            stage = node_facts[steps[j]].stage
            if stage is None:
                break
            stages.append(stage)
            j += 1
        if len(stages) >= 2:
            fusible.append((i, j, tuple(stages)))
        elif len(stages) == 1 and node_facts[steps[i]].raw_scalar:
            fusible.append((i, j, tuple(stages)))
        i = max(j, i + 1)

    has_normalize = any(
        node.op == "leaf" and isinstance(node.source, EXPANSION_OPS + ALPHA_OPS)
        for node in plan.nodes
    )
    root_facts = node_facts[plan.root]
    return PlanFacts(
        nodes=len(plan.nodes),
        spine_maps=spine_maps,
        spine_stages=spine_stages,
        has_normalize=has_normalize,
        fusible=tuple(fusible),
        fused_stages=max((len(s) for _a, _b, s in fusible), default=0),
        symbolic_ok=symbolic_ok,
        transportable=root_facts.transportable,
        pure=root_facts.pure,
        out_kind=root_facts.out_kind,
        short_circuit=spine_stages >= 1 and root_facts.out_kind == "orset",
        node_facts=tuple(node_facts),
    )


def plan_facts(plan: Plan) -> PlanFacts:
    """The (memoized) :class:`PlanFacts` for *plan*.

    Cached on the plan object, like the closures ``Plan.bind`` memoizes:
    the record is immutable, a racing double-compute produces equal
    records, and ``Plan.__getstate__`` drops derived state so a plan
    shipped to a worker process re-derives its facts there.
    """
    cached = getattr(plan, "_facts", None)
    if cached is not None:
        return cached
    facts = compute_plan_facts(plan)
    setattr(plan, "_facts", facts)  # noqa: B010 — derived cache, not a field
    return facts


def format_facts(facts: PlanFacts) -> str:
    """The ``facts:`` line ``Engine.explain`` and the REPL print."""

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    spans = (
        ",".join(f"[{a}:{b})x{len(s)}" for a, b, s in facts.fusible) or "none"
    )
    return (
        f"facts: symbolic={yn(facts.symbolic_ok)}"
        f" transportable={yn(facts.transportable)}"
        f" pure={yn(facts.pure)}"
        f" normalize={yn(facts.has_normalize)}"
        f" spine={facts.spine_maps}map/{facts.spine_stages}stage"
        f" fused-spans={spans}"
        f" shape={facts.out_kind or '?'}"
        f" short-circuit={yn(facts.short_circuit)}"
    )


# -- ShapeEstimate plumbing (re-homed from cost_model) ------------------------


def annotate_plan(plan: Plan, value: "Value") -> "ShapeEstimate":
    """Write per-node world/size estimates onto *plan* for input *value*.

    Walks the plan in execution order, threading a
    :class:`~repro.engine.cost_model.ShapeEstimate` through each node's
    transfer function: ``normalize``/``alpha`` turn the estimate into an
    or-set of ``worlds`` elements of total size ``norm_size``; ``eta``
    wraps (width 1); ``settoor`` turns each of up to ``width`` members
    into a disjunct.  These annotations are *predictions* for
    diagnostics, not certified bounds: projections, maps and unknown
    leaves pass the carried estimate through unchanged, which is exact
    for world-preserving bodies but an approximation when a body itself
    multiplies worlds (only ``estimate_value`` on a concrete value
    carries the tested soundness guarantee).  Returns the estimate at
    the root; ``PlanNode.est_worlds`` / ``est_size`` hold the per-node
    output predictions, which :meth:`PlanNode.pretty` renders.
    """
    # Imported lazily: cost_model imports this module at load time (the
    # fact framework is beneath the cost model, not above it).
    from repro.engine.cost_model import ShapeEstimate, estimate_value

    est_in = estimate_value(value)

    def transfer(node: PlanNode, est: ShapeEstimate) -> ShapeEstimate:
        src = node.source
        if node.op == "leaf":
            if isinstance(src, EXPANSION_OPS + ALPHA_OPS):
                return ShapeEstimate(
                    est.worlds, est.norm_size, est.norm_size, est.worlds, 1
                )
            if isinstance(src, (SetEta, OrEta, BagEta)):
                return ShapeEstimate(
                    est.worlds,
                    est.norm_size,
                    est.size,
                    1,
                    est.orsets + (1 if isinstance(src, OrEta) else 0),
                )
            if isinstance(src, SetToOr) and est.width:
                # A set of k members becomes a k-way disjunction: up to
                # width * (worlds + 1) worlds (each member contributes
                # its own worlds independently of the others' choices).
                return ShapeEstimate(
                    est.width * (est.worlds + 1),
                    est.norm_size,
                    est.size,
                    est.width,
                    est.orsets + 1,
                )
        return est

    def visit(idx: int, est: ShapeEstimate) -> ShapeEstimate:
        node = plan.nodes[idx]
        if node.op == "chain":
            out = est
            for kid in node.kids:
                out = visit(kid, out)
        elif node.op == "pair":
            left = visit(node.kids[0], est)
            right = visit(node.kids[1], est)
            out = ShapeEstimate(
                left.worlds * right.worlds,
                right.worlds * left.norm_size + left.worlds * right.norm_size,
                left.size + right.size,
                None,
                left.orsets + right.orsets,
            )
        elif node.op in ("cond", "case"):
            branches = node.kids[1:] if node.op == "cond" else node.kids
            outs = [visit(k, est) for k in branches]
            if node.op == "cond":
                visit(node.kids[0], est)
            out = max(outs, key=lambda e: (e.worlds, e.norm_size))
        elif node.op == "map":
            # The body transforms elements we have no shape for; keep the
            # collection-level bound and leave body nodes unannotated.
            out = est
        else:
            out = transfer(node, est)
        node.est_worlds = out.worlds
        node.est_size = out.norm_size
        return out

    return visit(plan.root, est_in)
