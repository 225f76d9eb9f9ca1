"""Normalization of complex objects (Section 4) and the ``normalize``
primitive of or-NRA+.

:func:`normalize` computes the normal form in closed form.  Proposition
4.1 gives ``nf(t) = t`` when ``t`` has no or-sets and ``nf(t) = <t'>``
(``t`` with every angle bracket removed) otherwise, and Theorem 4.2
(Coherence) makes the normal form independent of the rewrite strategy.
So ``normalize(x : t)`` is ``x`` in set form when ``t`` has no or-sets,
and otherwise the or-set of ``x``'s distinct worlds, which the kernel
builds bottom-up with duplicates removed at every level:

* an atom is its own world;
* a pair's worlds are the product of its components' worlds;
* an or-set's worlds are the union of its members' worlds;
* a set's or bag's worlds are the products of its members' worlds,
  collapsed as sets;
* a variant's worlds are its payload's worlds, injected.

A value sitting under a type variable of the declared type has no
rewrite redex inside it, so it is its own single world, in set form.

The paper's rewrite loop stays as the reference
(:func:`normalize_with_trace`, :func:`normalize_with_strategy`,
:func:`coherence_witness`), and tests check the kernel against it:

1. translate the object ``x : t`` into the multiset world
   (``x^d : t^d``) so duplicate or-sets are not collapsed prematurely;
2. repeatedly pick a redex of the *type* ``t^d`` (any strategy) and apply
   the associated value transformation at the same position via ``dapp`` —
   ``or_rho_2`` / ``or_rho_1`` / ``or_mu`` / ``alpha_d``;
3. when the type is in normal form, translate back (``(.)^s``), removing
   duplicates.

Both paths start with the same check: a value that does not inhabit its
declared type raises :class:`~repro.errors.OrNRATypeError`.
"""

from __future__ import annotations

import random
from itertools import compress, islice, pairwise, product
from operator import attrgetter, eq
from typing import Callable, Sequence

from repro.errors import NormalizationError, OrNRATypeError
from repro.types.kinds import (
    BagType,
    OrSetType,
    ProdType,
    SetType,
    Type,
    VariantType,
    contains_orset,
    sets_to_bags,
)
from repro.types.rewrite import (
    OR_FLATTEN,
    PAIR_LEFT,
    PAIR_RIGHT,
    Position,
    Redex,
    SET_ALPHA,
    VARIANT_LEFT,
    VARIANT_RIGHT,
    apply_rewrite,
    innermost_strategy,
    nf_type,
    outermost_strategy,
    random_strategy,
    redexes,
)
from repro.types.unify import FreshVars
from repro.values.convert import to_bags, to_sets
from repro.values.values import (
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    Value,
    Variant,
    check_type,
    format_value,
    infer_type,
    ordered_collection,
    sort_key,
)

from repro.lang.bag_ops import AlphaD
from repro.lang.morphisms import Morphism
from repro.lang.orset_ops import Alpha, OrMu, OrRho2, or_rho1
from repro.lang.variant_ops import OrKappa1, OrKappa2

__all__ = [
    "rule_transformer",
    "apply_at",
    "normalize",
    "checked_type",
    "normalize_with_strategy",
    "normalize_with_trace",
    "possibilities",
    "conceptual_eq",
    "coherence_witness",
    "Normalize",
    "normalize_morphism",
]

_OR_RHO1 = or_rho1()
_OR_RHO2 = OrRho2()
_OR_MU = OrMu()
_ALPHA_D = AlphaD()
_ALPHA = Alpha()
_OR_KAPPA1 = OrKappa1()
_OR_KAPPA2 = OrKappa2()

Transformer = Callable[[Value], Value]


def rule_transformer(rule: str, redex_type: Type) -> Transformer:
    """The value transformation associated with a type-rewrite rule.

    ``pair_right -> or_rho_2``, ``pair_left -> or_rho_1``,
    ``or_flatten -> or_mu``, ``variant_left/right -> or_kappa_1/2``
    (the Section 7 variant extension) and ``set_alpha -> alpha_d``
    (or ``alpha`` when the redex is a genuine set rather than an
    internal bag).
    """
    if rule == PAIR_RIGHT:
        return _OR_RHO2.apply
    if rule == PAIR_LEFT:
        return _OR_RHO1.apply
    if rule == OR_FLATTEN:
        return _OR_MU.apply
    if rule == VARIANT_LEFT:
        return _OR_KAPPA1.apply
    if rule == VARIANT_RIGHT:
        return _OR_KAPPA2.apply
    if rule == SET_ALPHA:
        if isinstance(redex_type, BagType):
            return _ALPHA_D.apply
        if isinstance(redex_type, SetType):
            return _ALPHA.apply
        raise NormalizationError(f"set_alpha redex at non-collection {redex_type!r}")
    raise NormalizationError(f"unknown rule {rule!r}")


def apply_at(value: Value, at_type: Type, pos: Position, fn: Transformer) -> Value:
    """The paper's ``dapp``: apply *fn* at position *pos* of ``value : at_type``.

    Pairs descend into the named component; bags use ``dmap``; or-sets use
    ``ormap`` (ordinary sets use ``map``, though during normalization all
    sets have been turned into bags).
    """
    if not pos:
        return fn(value)
    head, rest = pos[0], pos[1:]
    if isinstance(at_type, ProdType):
        if not isinstance(value, Pair):
            raise OrNRATypeError(f"expected pair at {at_type!r}, got {value!r}")
        if head == 0:
            return Pair(apply_at(value.fst, at_type.left, rest, fn), value.snd)
        return Pair(value.fst, apply_at(value.snd, at_type.right, rest, fn))
    if isinstance(at_type, VariantType):
        if not isinstance(value, Variant):
            raise OrNRATypeError(f"expected variant at {at_type!r}, got {value!r}")
        if head != value.side:
            # The position lies in the side this injection does not carry;
            # the value has no subobject there, so nothing to transform.
            return value
        side_type = at_type.left if head == 0 else at_type.right
        return Variant(value.side, apply_at(value.payload, side_type, rest, fn))
    if isinstance(at_type, BagType):
        if not isinstance(value, BagValue):
            raise OrNRATypeError(f"expected bag at {at_type!r}, got {value!r}")
        return BagValue(apply_at(e, at_type.elem, rest, fn) for e in value)
    if isinstance(at_type, SetType):
        if not isinstance(value, SetValue):
            raise OrNRATypeError(f"expected set at {at_type!r}, got {value!r}")
        return SetValue(apply_at(e, at_type.elem, rest, fn) for e in value)
    if isinstance(at_type, OrSetType):
        if not isinstance(value, OrSetValue):
            raise OrNRATypeError(f"expected or-set at {at_type!r}, got {value!r}")
        return OrSetValue(apply_at(e, at_type.elem, rest, fn) for e in value)
    raise OrNRATypeError(f"cannot descend position {pos} into {at_type!r}")


Strategy = Callable[[Sequence[Redex]], Redex]


def checked_type(value: Value, value_type: Type | None) -> Type:
    """The type to normalize *value* at: inferred, or declared and checked.

    Without the check the rewrite loop would return values outside
    ``nf(t)`` for ill-typed input (``normalize(<1>, int)`` gave ``<1>``).
    """
    if value_type is None:
        return infer_type(value)
    if not check_type(value, value_type):
        raise OrNRATypeError(
            f"normalize: {format_value(value)} does not inhabit {value_type!r}"
        )
    return value_type


def normalize_with_trace(
    value: Value, value_type: Type | None = None, strategy: Strategy = innermost_strategy
) -> tuple[Value, list[Redex]]:
    """Normalize by the paper's rewrite loop, also returning its
    (position, rule) trace — the reference the kernel is checked against."""
    value_type = checked_type(value, value_type)
    current_type = sets_to_bags(value_type)
    current = to_bags(value)
    trace: list[Redex] = []
    while True:
        options = redexes(current_type)
        if not options:
            return to_sets(current), trace
        pos, rule = strategy(options)
        trace.append((pos, rule))
        redex_type = _subtype(current_type, pos)
        current = apply_at(current, current_type, pos, rule_transformer(rule, redex_type))
        current_type = apply_rewrite(current_type, pos, rule)


def _subtype(t: Type, pos: Position) -> Type:
    from repro.types.rewrite import subtype_at

    return subtype_at(t, pos)


def normalize(value: Value, value_type: Type | None = None) -> Value:
    """``normalize_t : t -> nf(t)``, by the closed form of Proposition 4.1.

    The normal form's nodes are fresh and share only their leaves.  The
    kernel reads the sort key every node carries: worlds come out in
    canonical order and are deduplicated by comparing keys, never by
    hashing them.
    """
    # repro.engine imports this module, so the checkpoint is bound late.
    from repro.engine.deadline import checkpoint

    value_type = checked_type(value, value_type)
    return _normal_form(value, value_type, checkpoint)


_KEY = attrgetter("_key")


def _ranked(ws: list[Value]) -> tuple[list[Value], dict[int, int]]:
    """*ws* sorted by key with equal keys merged: the distinct worlds in
    canonical order, and the rank among them of every object in *ws*.

    Keys are compared, never hashed: equal ones are adjacent once sorted.
    """
    ws = sorted(ws, key=_KEY)
    keys = list(map(_KEY, ws))
    if not any(map(eq, keys, islice(keys, 1, None))):
        return ws, {id(w): r for r, w in enumerate(ws)}
    distinct: list[Value] = []
    rank: dict[int, int] = {}
    for w, k in zip(ws, keys, strict=True):
        if not distinct or k != distinct[-1]._key:
            distinct.append(w)
        rank[id(w)] = len(distinct) - 1
    return distinct, rank


def _normal_form(
    value: Value, value_type: Type, checkpoint: Callable[[str], None]
) -> Value:
    """The kernel: ``x`` in set form, or the or-set of its distinct worlds."""
    # Leaves are shared: the first atom of each key stands for all of them,
    # so equal worlds are equal node by node, whichever copy survives.
    leaves: dict[tuple, Value] = {}

    def collect(cls: type, elems: Sequence[Value]) -> Value:
        # A set or or-set of distinct elements in canonical order: the
        # kernel's worlds come out that way, so nothing is sorted.
        return ordered_collection(cls, tuple(elems))

    def worlds(v: Value, t: Type) -> list[Value]:
        # The distinct worlds of `v : t`, in canonical order.  A type
        # variable `t` makes `v` opaque: it is passed down, so or-sets below
        # it stay or-sets.
        cls = type(v)
        if cls is Pair:
            # Keys order pairs by first, then second component: the product
            # of two ordered lists, taken row by row, is ordered.
            pair_type = type(t) is ProdType
            firsts = worlds(v.fst, t.left if pair_type else t)
            seconds = worlds(v.snd, t.right if pair_type else t)
            out = []
            for f in firsts:
                checkpoint("normalize")
                out.extend([Pair(f, s) for s in seconds])
            return out
        if cls is OrSetValue:
            if type(t) is not OrSetType:
                opaque = _ranked([worlds(m, t)[0] for m in v.elems])[0]
                return [collect(OrSetValue, opaque)]
            members = [worlds(m, t.elem) for m in v.elems]
            if len(members) == 1:
                return members[0]
            return _ranked([w for member in members for w in member])[0]
        if cls is SetValue or cls is BagValue:
            elem_type = t.elem if type(t) in (SetType, BagType) else t
            members = []
            for m in v.elems:
                member = worlds(m, elem_type)
                if not member:
                    return []
                members.append(member)
            # Every element of every world, ranked once in canonical order.
            candidates, rank = _ranked([w for member in members for w in member])
            if all(len(member) == 1 for member in members):
                return [collect(SetValue, candidates)]
            # Members in the order of their lowest-ranked world.  Where each
            # member's worlds rank wholly below the next member's, no two
            # members share an element, and the product of their worlds,
            # row by row, lists every world once, sorted, in canonical order.
            # (A member's worlds are in canonical order, so its first world
            # ranks lowest and its last highest.)
            members.sort(key=lambda member: rank[id(member[0])])
            if all(rank[id(a[-1])] < rank[id(b[0])] for a, b in pairwise(members)):
                out = []
                for elems in product(*members):
                    checkpoint("normalize")
                    out.append(collect(SetValue, elems))
                return out
            # Otherwise a choice is the int mask of its elements' ranks.
            # Folding a member in ORs in each pick's bit, so choices that
            # collide merge early; a world's elements are its set bits, in
            # order.
            top = len(candidates) - 1
            bits = [1 << (top - r) for r in range(len(candidates))]
            fixed = 0
            branching = []
            for member in members:
                if len(member) == 1:
                    fixed |= bits[rank[id(member[0])]]
                else:
                    branching.append([bits[rank[id(w)]] for w in member])
            choices = {fixed}
            for picks in branching:
                checkpoint("normalize")
                choices = {c | p for c in choices for p in picks}
            # Worlds in canonical order: fewer elements first, then lower
            # ranks first.  Rank r is bit top - r, so among equal-sized
            # worlds the higher mask holds the lower rank where they differ.
            out = []
            for mask in sorted(sorted(choices, reverse=True), key=int.bit_count):
                checkpoint("normalize")
                elems = tuple(compress(candidates, map(mask.__and__, bits)))
                out.append(collect(SetValue, elems))
            return out
        if cls is Variant:
            if type(t) is VariantType:
                t = t.left if v.side == 0 else t.right
            side = v.side
            return [Variant(side, w) for w in worlds(v.payload, t)]
        return [leaves.setdefault(sort_key(v), v)]

    try:
        found = worlds(value, value_type)
        if contains_orset(value_type):
            return collect(OrSetValue, found)
        return found[0]
    finally:
        # `worlds` reaches itself through its closure cell; unbinding it
        # frees this call's nodes now, not at the next gc pass.
        del worlds


def normalize_with_strategy(
    value: Value, value_type: Type | None, strategy: Strategy
) -> Value:
    """Normalize under an explicit rewrite strategy (for coherence checks)."""
    result, _ = normalize_with_trace(value, value_type, strategy)
    return result


def possibilities(value: Value, value_type: Type | None = None) -> tuple[Value, ...]:
    """The conceptual values of *value*: elements of ``normalize(<value>)``.

    Wrapping in a singleton or-set first (the paper's ``or_eta`` trick from
    Section 5) guarantees the normal form is an or-set even when *value*
    contains no or-sets.  An object containing ``< >`` has no possibilities.
    """
    if value_type is None:
        value_type = infer_type(value)
    wrapped = OrSetValue((value,))
    result = normalize(wrapped, OrSetType(value_type))
    if not isinstance(result, OrSetValue):
        raise NormalizationError(f"normal form is not an or-set: {result!r}")
    return result.elems


def conceptual_eq(
    x: Value, y: Value, x_type: Type | None = None, y_type: Type | None = None
) -> bool:
    """Are *x* and *y* conceptually equivalent (same normal form)?

    Section 4 defines conceptual meaning *as* the normal form, so this is
    normal-form equality after the ``or_eta`` embedding.
    """
    return possibilities(x, x_type) == possibilities(y, y_type)


def coherence_witness(
    value: Value,
    value_type: Type | None = None,
    samples: int = 10,
    seed: int = 0,
) -> set[Value]:
    """Normalize under several strategies; Theorem 4.2 says the returned
    set has exactly one element.

    Includes the deterministic innermost and outermost strategies plus
    *samples* random ones.
    """
    if value_type is None:
        value_type = infer_type(value)
    results = {
        normalize_with_strategy(value, value_type, innermost_strategy),
        normalize_with_strategy(value, value_type, outermost_strategy),
    }
    for i in range(samples):
        rng = random.Random(seed + i)
        results.add(
            normalize_with_strategy(value, value_type, random_strategy(rng))
        )
    return results


class Normalize(Morphism):
    """The or-NRA+ primitive ``normalize_t : t -> nf(t)``.

    Not polymorphic: its output type depends on the full shape of the input
    type (Corollary 4.3 notes it "cannot be defined in a polymorphic way"),
    so its ``signature`` requires a declared input type; without one it can
    still be *applied* (the input's type is inferred dynamically).
    """

    def __init__(self, input_type: Type | None = None) -> None:
        self.input_type = input_type

    def apply(self, value: Value) -> Value:
        declared = self.input_type
        return normalize(value, declared)

    def signature(self, fresh: FreshVars):
        from repro.types.kinds import FuncType

        if self.input_type is None:
            raise OrNRATypeError(
                "normalize has no polymorphic type; construct it as "
                "Normalize(input_type) to typecheck"
            )
        return FuncType(self.input_type, nf_type(self.input_type))

    def describe(self) -> str:
        return "normalize"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Normalize) and self.input_type == other.input_type

    def __hash__(self) -> int:
        return hash(("Normalize", self.input_type))


def normalize_morphism(input_type: Type | None = None) -> Normalize:
    """The ``normalize`` primitive, optionally with a declared input type."""
    return Normalize(input_type)
