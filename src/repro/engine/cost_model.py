"""The cost model: static Section 6 estimates driving the engine.

`core/costs.py` measures the paper's quantities — ``m(x)`` (the world
count) and ``size(normalize(x))`` — by *materializing* every possible
world, which is exactly the exponential blow-up Section 6 quantifies.
This module predicts the same quantities **without normalizing**: one
structural traversal of the value combines

* the compositional world-count recursion (union for or-sets, product
  for sets, bags and pairs — the argument behind Proposition 6.1),
* Proposition 6.1's ``prod_i (m_i + 1)`` cap over the innermost or-set
  arities (:func:`repro.values.measure.innermost_orset_arities`), and
* the Moon–Moser ``3^(n/3)`` ceiling of Theorem 6.2 for context in
  diagnostics (the recursion is already at least as tight, so only the
  first two enter the returned bound),

into a :class:`ShapeEstimate` that is a *sound upper bound*:
``estimate_value(x).worlds >= m(x)`` and
``estimate_value(x).norm_size >= size(normalize(<x>))`` for every value
(property-tested in ``tests/engine/test_cost_model.py``), and exact on
the tight witness family of Theorem 6.5.

Three consumers sit on top of the estimator:

* :func:`annotate_plan` pushes the input estimate through a compiled
  :class:`~repro.engine.plan.Plan`, writing predicted world counts and
  normalized sizes onto every node along the executed spine — which
  ``Plan.describe`` and ``Engine.explain`` render, so predicted blow-up
  is visible before a single world is built;
* :func:`estimate_morphism_cost` is the weighted static cost the
  optimizer's best-first scheduler minimizes (normalization-class
  operators carry the Section 6 exponential risk and weigh accordingly);
* :func:`select_backend` picks the in-process backend per call —
  symbolic for world queries on a traceable spine, eager for small
  estimated world counts, streaming when the estimate says the normal
  form is huge (existential consumers then short-circuit off the lazy
  spine), fused when a wide top-level spine is cheap per element.  It
  estimates the input only when the compiled plan leaves one of those
  routes open; every other plan goes eager unestimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from repro.core.costs import moon_moser
from repro.lang.morphisms import Morphism
from repro.values.measure import innermost_orset_arities
from repro.values.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    UnitValue,
    Value,
    Variant,
)

from repro.engine.analysis import (
    ALPHA_OPS as _ALPHA_OPS,
)
from repro.engine.analysis import (
    EXPANSION_OPS as _EXPANSION_OPS,
)
from repro.engine.analysis import (
    TRAVERSAL_OPS as _TRAVERSAL_OPS,
)
from repro.engine.analysis import annotate_plan, plan_facts
from repro.engine.plan import Plan

__all__ = [
    "ShapeEstimate",
    "estimate_value",
    "estimate_m_value",
    "estimate_normalized_size",
    "estimate_json",
    "estimate_morphism_cost",
    "OPERATOR_CLASSES",
    "OPERATOR_COSTS",
    "operator_features",
    "annotate_plan",
    "PlanProfile",
    "plan_profile",
    "BackendChoice",
    "select_backend",
    "SMALL_WORLDS",
    "WIDE_SPINE",
    "STREAM_NORM_SIZE",
    "SHARD_BREAK_EVEN_WORK",
    "FUSED_MIN_SPINE",
]

# -- backend-selection thresholds (documented in docs/ARCHITECTURE.md) -------

#: At or below this many estimated worlds, eager execution (with its
#: maximal memo reuse) beats the laziness bookkeeping.
SMALL_WORLDS = 64

#: Top-level collections at least this wide count as a *wide* spine.
WIDE_SPINE = 32

#: Estimated ``size(normalize(x))`` past which a streamable spine should
#: run lazily rather than materialize canonical intermediates.
STREAM_NORM_SIZE = 4096

#: Estimated per-element work below which a wide spine is *flat*:
#: per-element boxing and dispatch dominate, so it runs as a fused
#: columnar kernel when it fuses, eagerly when it does not.
SHARD_BREAK_EVEN_WORK = 4

#: Minimum top-level width for the fused columnar path: narrower
#: collections never amortize the arena encode/decode.
FUSED_MIN_SPINE = 32


@dataclass(frozen=True)
class ShapeEstimate:
    """Static Section 6 bounds for one value, from one traversal.

    ``worlds``    — upper bound on ``m(x) = |normalize(<x>)|``;
    ``norm_size`` — upper bound on ``size(normalize(<x>))`` (the sum of
    the sizes of all conceptual possibilities);
    ``size``      — the paper's ``size(x)`` (atomic leaf count);
    ``width``     — top-level element count when *x* is a collection;
    ``orsets``    — number of or-set nodes in ``T(x)``.
    """

    worlds: int
    norm_size: int
    size: int
    width: int | None = None
    orsets: int = 0

    @property
    def moon_moser_cap(self) -> int:
        """Theorem 6.2's ``3^(n/3)`` ceiling for this value's size."""
        return moon_moser(self.size)


def _estimate(v: Value) -> tuple[int, int, int, int]:
    """(worlds, norm_size, size, orsets) for *v*, compositionally.

    The recursion mirrors how possibilities are generated: an or-set's
    worlds are the union of its elements' worlds (``<=`` the sum), a
    set/bag/pair takes one world per component (``<=`` the product);
    deduplication only ever shrinks, so every case is an upper bound.
    """
    if isinstance(v, (Atom, UnitValue)):
        return 1, 1, 1, 0
    if isinstance(v, Pair):
        wa, na, sa, oa = _estimate(v.fst)
        wb, nb, sb, ob = _estimate(v.snd)
        # Each world of the pair is a pair of component worlds, so its
        # size is the sum of the component-world sizes: summed over all
        # wa*wb combinations that is wb*na + wa*nb.
        return wa * wb, wb * na + wa * nb, sa + sb, oa + ob
    if isinstance(v, Variant):
        w, n, s, o = _estimate(v.payload)
        return w, n, s, o
    if isinstance(v, OrSetValue):
        worlds = norm = size = orsets = 0
        for e in v.elems:
            w, n, s, o = _estimate(e)
            worlds += w
            norm += n
            size += s
            orsets += o
        return worlds, norm, size, 1 + orsets
    if isinstance(v, (SetValue, BagValue)):
        worlds, size, orsets = 1, 0, 0
        parts: list[tuple[int, int]] = []
        for e in v.elems:
            w, n, s, o = _estimate(e)
            parts.append((w, n))
            worlds *= w
            size += s
            orsets += o
        if worlds == 0:
            return 0, 0, size, orsets
        # One world per element: summed over all combinations, element i
        # contributes its world sizes once per choice of the others.
        norm = sum(n * (worlds // w) for w, n in parts)
        return worlds, norm, size, orsets
    raise TypeError(f"not a value: {v!r}")


def estimate_value(v: Value) -> ShapeEstimate:
    """Statically bound ``m(v)`` and ``size(normalize(v))`` — no worlds built.

    The compositional recursion is capped with Proposition 6.1's
    ``prod_i (m_i + 1)`` over the innermost or-set arities (both are
    sound, so their minimum is).
    """
    worlds, norm, size, orsets = _estimate(v)
    if orsets:
        cap = 1
        for m_i in innermost_orset_arities(v):
            cap *= m_i + 1
        if cap < worlds:
            worlds = cap
    width = len(v.elems) if isinstance(v, (SetValue, OrSetValue, BagValue)) else None
    return ShapeEstimate(worlds, norm, size, width, orsets)


def estimate_m_value(v: Value) -> int:
    """Static upper bound on the paper's ``m(v)`` (never normalizes)."""
    return estimate_value(v).worlds


def estimate_normalized_size(v: Value) -> int:
    """Static upper bound on ``size(normalize(<v>))`` (never normalizes)."""
    return estimate_value(v).norm_size


def estimate_json(data: object) -> ShapeEstimate:
    """:func:`estimate_value` straight off the JSON value encoding.

    The admission layer's cost guard (:class:`repro.serve.AsyncEngine`)
    must price a request *before* committing any evaluation resources to
    it, so this walks the :func:`repro.io.value_to_json` structure
    directly — same recursion as :func:`_estimate`, no
    :class:`~repro.values.values.Value` construction.  Deliberately
    lenient: an unrecognizable fragment is priced as an atom instead of
    raising, so a malformed request still reaches the decoder and fails
    with its canonical error rather than a guard artifact.  The
    Proposition 6.1 innermost-arity cap is skipped (it needs the typed
    value), so the bound here can be looser than ``estimate_value``'s —
    still sound, which is all a guard needs.
    """
    worlds, norm, size, orsets, width = _estimate_json(data, top=True)
    return ShapeEstimate(worlds, norm, size, width, orsets)


def _estimate_json(
    data: object, top: bool = False
) -> tuple[int, int, int, int, int | None]:
    """(worlds, norm_size, size, orsets, top_width) for a JSON fragment."""
    width: int | None = None
    if not isinstance(data, dict):
        return 1, 1, 1, 0, width
    if "pair" in data and isinstance(data["pair"], list) and len(data["pair"]) == 2:
        wa, na, sa, oa, _ = _estimate_json(data["pair"][0])
        wb, nb, sb, ob, _ = _estimate_json(data["pair"][1])
        return wa * wb, wb * na + wa * nb, sa + sb, oa + ob, width
    for key in ("inl", "inr"):
        if key in data:
            w, n, s, o, _ = _estimate_json(data[key])
            return w, n, s, o, width
    if "orset" in data and isinstance(data["orset"], list):
        worlds = norm = size = orsets = 0
        for e in data["orset"]:
            w, n, s, o, _ = _estimate_json(e)
            worlds += w
            norm += n
            size += s
            orsets += o
        if top:
            width = len(data["orset"])
        return worlds, norm, size, 1 + orsets, width
    for key in ("set", "bag"):
        if key in data and isinstance(data[key], list):
            worlds, size, orsets = 1, 0, 0
            parts: list[tuple[int, int]] = []
            for e in data[key]:
                w, n, s, o, _ = _estimate_json(e)
                parts.append((w, n))
                worlds *= w
                size += s
                orsets += o
            if top:
                width = len(data[key])
            if worlds == 0:
                return 0, 0, size, orsets, width
            norm = sum(n * (worlds // w) for w, n in parts)
            return worlds, norm, size, orsets, width
    return 1, 1, 1, 0, width


# -- morphism cost -----------------------------------------------------------

# Weight classes for the optimizer's cost objective live in
# repro.engine.analysis (the canonical operator-class tables), imported
# above: normalization-class operators expand worlds (Theorem 6.2's
# 3^(n/3) risk); alpha is the per-redex expansion step; collection
# traversals touch every element.

#: The operator classes the cost objective distinguishes — the feature
#: axes of :func:`operator_features` and the keys of :data:`OPERATOR_COSTS`.
OPERATOR_CLASSES = ("expansion", "alpha", "traversal", "other")

#: The hand-tuned per-class weights — the cost table.  Relative
#: magnitudes encode the Section 6 story (expansion operators carry the
#: exponential risk).
OPERATOR_COSTS = {"expansion": 64, "alpha": 16, "traversal": 2, "other": 1}


def operator_features(m: Morphism, shape: ShapeEstimate | None = None) -> dict:
    """Per-class operator counts for *m* — the cost model's feature vector.

    With a *shape* for the program's input, the expansion-class counts
    (``expansion`` and ``alpha``) are scaled by the estimated world
    count's bit length, mirroring how those operators' real latency grows
    with the input's possibility space.  By construction
    ``estimate_morphism_cost(m, shape)`` is the dot product of this
    vector with :data:`OPERATOR_COSTS`.
    """
    scale = 1
    if shape is not None and shape.worlds > 1:
        scale = max(1, shape.worlds.bit_length())
    features = dict.fromkeys(OPERATOR_CLASSES, 0)

    def walk(node: Morphism) -> None:
        if isinstance(node, _EXPANSION_OPS):
            features["expansion"] += scale
        elif isinstance(node, _ALPHA_OPS):
            features["alpha"] += scale
        elif isinstance(node, _TRAVERSAL_OPS):
            features["traversal"] += 1
        else:
            features["other"] += 1
        for child in node.children():
            walk(child)

    walk(m)
    return features


def estimate_morphism_cost(m: Morphism, shape: ShapeEstimate | None = None) -> int:
    """Weighted static cost of *m* — the scheduler's objective function.

    Plain operator count (like :func:`repro.engine.passes.morphism_cost`)
    treats ``normalize`` and ``pi_1`` alike; here each operator carries a
    weight reflecting the Section 6 blow-up class it belongs to.  With a
    *shape* for the program's input, the expansion weights scale with the
    estimated world count, so rewrites that drop or delay normalization
    of large pre-images score better the larger the input.
    """
    features = operator_features(m, shape)
    return max(1, sum(features[key] * OPERATOR_COSTS[key] for key in OPERATOR_CLASSES))


# -- plan annotation ---------------------------------------------------------
#
# The ShapeEstimate plan-walk lives in repro.engine.analysis (one home
# for all plan-IR static analysis); ``annotate_plan`` is re-exported
# above so cost-model callers keep their import path.


# -- plan profile and backend selection --------------------------------------


@dataclass(frozen=True)
class PlanProfile:
    """What the backend selector needs to know about a compiled plan."""

    spine_maps: int  # map stages on the top-level streamable spine
    spine_stages: int  # all streamable stages (maps, mus, coercions)
    has_normalize: bool  # any Normalize/Alpha leaf anywhere in the plan
    nodes: int
    fused_stages: int = 0  # longest fusible spine run (columnar kernel length)


def plan_profile(plan: Plan) -> PlanProfile:
    """Classify the plan's top-level spine.

    An adapter over :func:`repro.engine.analysis.plan_facts`: the spine
    counts come straight off the memoized fact record, so repeated
    ``select_backend`` calls on one plan never re-walk it.
    """
    facts = plan_facts(plan)
    return PlanProfile(
        facts.spine_maps,
        facts.spine_stages,
        facts.has_normalize,
        facts.nodes,
        facts.fused_stages,
    )


@dataclass(frozen=True)
class BackendChoice:
    """An adaptive backend decision, with its reasoning."""

    backend: str
    reason: str


def select_backend(
    plan: Plan,
    value: Value,
    *,
    existential: bool = False,
    world_query: bool = False,
    available: "Collection[str] | None" = None,
) -> BackendChoice:
    """Pick the in-process backend — eager/streaming/fused/symbolic —
    for this (plan, value) call.

    * **world queries** (count/certain/possible/exists — consumers that
      quantify over the *whole* world set, flagged ``world_query=True``)
      over a plan whose spine the symbolic trace supports → ``symbolic``,
      before the input is estimated at all: the closed-form recursion is
      linear in the input and measured no slower than eager even on
      one-world inputs.  A first-witness consumer is better served by
      streaming, so ``existential`` alone does not trigger this;
    * a plan for which no estimate can change the answer → ``eager``,
      without walking the input.  The estimate is read only when an
      existential consumer meets a streamable spine, when the spine has
      two or more streamable stages, or when it maps over a fusible run;
      each needs its backend (``streaming`` or ``fused``) available;
    * **small** estimated world count → ``eager`` (closure execution and
      maximal memo reuse win outright);
    * **existential** consumers over a huge estimated world count →
      ``streaming`` (the first witness comes off the lazy spine before
      any normal form is materialized);
    * **wide** top-level collection whose estimated per-element work is
      below :data:`SHARD_BREAK_EVEN_WORK` → ``fused`` when the spine
      has a fusible run at least :data:`FUSED_MIN_SPINE` wide (one
      columnar kernel instead of per-element dispatch), ``eager``
      otherwise;
    * a spine of two or more streamable stages whose estimated normal
      form is large → ``streaming`` (skip canonicalizing big
      intermediates);
    * anything else → ``eager``.

    *available* restricts the choice to the caller's registered backend
    names (``Engine`` passes its registry); ``None`` means all four.
    The process backend is never chosen: it has beaten the best
    in-process backend on no measured workload, so it runs only when a
    caller names it.
    """
    names = (
        ("eager", "streaming", "fused", "symbolic")
        if available is None
        else available
    )
    if world_query and "symbolic" in names:
        # Imported lazily: the symbolic module imports the backends
        # registry, which this module must not import at load time.
        from repro.engine.symbolic import plan_supports_symbolic

        if plan_supports_symbolic(plan):
            return BackendChoice(
                "symbolic",
                "world query on a traceable spine; answered in closed form "
                "over the input, without enumerating worlds",
            )
    profile = plan_profile(plan)
    streams = "streaming" in names and (
        profile.spine_stages >= 2 or (existential and profile.spine_stages >= 1)
    )
    fuses = profile.spine_maps >= 1 and profile.fused_stages >= 1 and "fused" in names
    if not (streams or fuses):
        return BackendChoice("eager", "no other route for this plan; input not estimated")
    est = estimate_value(value)
    if (
        existential
        and est.worlds > SMALL_WORLDS
        and profile.spine_stages >= 1
        and "streaming" in names
    ):
        return BackendChoice(
            "streaming",
            f"existential over ~{est.worlds} estimated worlds short-circuits",
        )
    if est.worlds <= SMALL_WORLDS and (est.width or 0) < WIDE_SPINE:
        return BackendChoice("eager", f"small (~{est.worlds} estimated worlds)")
    if profile.spine_maps >= 1 and est.width is not None and est.width >= WIDE_SPINE:
        elem_work = est.norm_size // max(1, est.width)
        if elem_work < SHARD_BREAK_EVEN_WORK:
            # Below the break-even per-element dispatch dominates; a
            # fused columnar kernel wins by skipping per-element boxing
            # and dispatch entirely.
            if (
                profile.fused_stages >= 1
                and est.width >= FUSED_MIN_SPINE
                and "fused" in names
            ):
                return BackendChoice(
                    "fused",
                    f"wide flat spine ({est.width} elements, ~{elem_work} "
                    "estimated work/element) runs as a fused columnar kernel",
                )
            return BackendChoice(
                "eager",
                f"wide spine below the sharding break-even (~{elem_work} "
                f"estimated work/element < {SHARD_BREAK_EVEN_WORK})",
            )
    if (
        profile.spine_stages >= 2
        and est.norm_size > STREAM_NORM_SIZE
        and "streaming" in names
    ):
        return BackendChoice(
            "streaming",
            f"streamable spine with ~{est.norm_size} estimated normal-form size",
        )
    return BackendChoice("eager", "default")
