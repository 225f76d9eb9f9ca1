"""Hypothesis strategies for or-NRA types and values, and fixed inputs.

Strategies are deliberately small-biased: the interesting invariants
(coherence, duplicate collapse, bounds) already show up at width <= 3 and
depth <= 3, and normal forms grow exponentially.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.types.kinds import (
    BOOL,
    INT,
    BagType,
    OrSetType,
    ProdType,
    SetType,
    Type,
    VariantType,
)
from repro.values.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    Value,
    Variant,
    boolean,
    vorset,
    vpair,
    vset,
)

__all__ = [
    "base_types",
    "object_types",
    "orset_types",
    "value_of",
    "typed_values",
    "typed_orset_values",
    "design",
]

base_types = st.sampled_from([INT, BOOL])


def object_types(
    max_depth: int = 3,
    allow_orset: bool = True,
    variants: bool = False,
    bags: bool = False,
) -> st.SearchStrategy[Type]:
    """Random object types up to *max_depth*.

    *variants* and *bags* opt in to the variant and bag constructors;
    without them the distribution is the original one.
    """
    extend_choices = [
        lambda c: st.tuples(c, c).map(lambda p: ProdType(*p)),
        lambda c: c.map(SetType),
    ]
    if allow_orset:
        extend_choices.append(lambda c: c.map(OrSetType))
    if variants:
        extend_choices.append(lambda c: st.tuples(c, c).map(lambda p: VariantType(*p)))
    if bags:
        extend_choices.append(lambda c: c.map(BagType))

    def extend(children: st.SearchStrategy[Type]) -> st.SearchStrategy[Type]:
        return st.one_of(*[make(children) for make in extend_choices])

    strategy: st.SearchStrategy[Type] = base_types
    for _ in range(max_depth - 1):
        strategy = st.one_of(base_types, extend(strategy))
    return strategy


def orset_types(
    max_depth: int = 3, variants: bool = False, bags: bool = False
) -> st.SearchStrategy[Type]:
    """Types guaranteed to mention the or-set constructor."""
    from repro.types.kinds import contains_orset

    return object_types(max_depth, variants=variants, bags=bags).filter(
        contains_orset
    )


def _atoms(t: Type) -> st.SearchStrategy[Value]:
    if t == BOOL:
        return st.booleans().map(boolean)
    return st.integers(min_value=0, max_value=5).map(lambda i: Atom("int", i))


def value_of(
    t: Type, max_width: int = 3, min_width: int = 0
) -> st.SearchStrategy[Value]:
    """Random values of a fixed type *t*."""
    if isinstance(t, ProdType):
        return st.tuples(
            value_of(t.left, max_width, min_width),
            value_of(t.right, max_width, min_width),
        ).map(lambda p: Pair(*p))
    if isinstance(t, SetType):
        return st.lists(
            value_of(t.elem, max_width, min_width),
            min_size=min_width,
            max_size=max_width,
        ).map(SetValue)
    if isinstance(t, OrSetType):
        return st.lists(
            value_of(t.elem, max_width, min_width),
            min_size=min_width,
            max_size=max_width,
        ).map(OrSetValue)
    if isinstance(t, BagType):
        return st.lists(
            value_of(t.elem, max_width, min_width),
            min_size=min_width,
            max_size=max_width,
        ).map(BagValue)
    if isinstance(t, VariantType):
        return st.one_of(
            value_of(t.left, max_width, min_width).map(lambda v: Variant(0, v)),
            value_of(t.right, max_width, min_width).map(lambda v: Variant(1, v)),
        )
    return _atoms(t)


def typed_values(
    max_depth: int = 3,
    max_width: int = 3,
    min_width: int = 0,
    variants: bool = False,
    bags: bool = False,
) -> st.SearchStrategy[tuple[Value, Type]]:
    """Random ``(value, type)`` pairs (variants and bags are opt-in)."""
    return object_types(max_depth, variants=variants, bags=bags).flatmap(
        lambda t: st.tuples(value_of(t, max_width, min_width), st.just(t))
    )


def typed_orset_values(
    max_depth: int = 3,
    max_width: int = 3,
    min_width: int = 0,
    variants: bool = False,
    bags: bool = False,
) -> st.SearchStrategy[tuple[Value, Type]]:
    """Random ``(value, type)`` pairs whose type mentions or-sets
    (variants and bags are opt-in)."""
    return orset_types(max_depth, variants, bags).flatmap(
        lambda t: st.tuples(value_of(t, max_width, min_width), st.just(t))
    )


def design(width: int, base: int = 0) -> Value:
    """A Section 4 design: ``({<a_i, b_i> : i <= width}, <c, d>)``, whose
    normal form has ``2^(width+1)`` worlds."""
    return vpair(
        vset(*(vorset(base + 10 * i, base + 10 * i + 5) for i in range(1, width + 1))),
        vorset(base + 1, base + 2),
    )
