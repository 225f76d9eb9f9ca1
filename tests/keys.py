"""A reference for sort keys, computed by their definition.

Every node carries its sort key from construction, so a test that compares
a stored key with ``sort_key(node)`` would compare the store with itself.
:func:`reference_sort_key` computes the key by its definition, a recursion
over the whole value that reads no stored key, and the tests compare
against it instead.
"""

from __future__ import annotations

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

_ATOM_RANK = {"bool": 0, "int": 1, "string": 2}
_COLLECTION_TAGS = {SetValue: 3, OrSetValue: 4, BagValue: 5}


def reference_sort_key(v: Value) -> tuple:
    """The sort key of *v*, recomputed from every node below it."""
    if isinstance(v, UnitValue):
        return (0,)
    if isinstance(v, Atom):
        value = int(v.value) if isinstance(v.value, bool) else v.value
        return (1, _ATOM_RANK.get(v.base, 3), v.base, value)
    if isinstance(v, Pair):
        return (2, reference_sort_key(v.fst), reference_sort_key(v.snd))
    if isinstance(v, (SetValue, OrSetValue, BagValue)):
        keys = tuple(reference_sort_key(e) for e in v.elems)
        return (_COLLECTION_TAGS[type(v)], len(v.elems), keys)
    if isinstance(v, Variant):
        return (6, v.side, reference_sort_key(v.payload))
    raise TypeError(f"not a value: {v!r}")


def nodes(v: Value):
    """Every node of *v*, root first."""
    yield v
    if isinstance(v, (SetValue, OrSetValue, BagValue)):
        for e in v.elems:
            yield from nodes(e)
    elif isinstance(v, Pair):
        yield from nodes(v.fst)
        yield from nodes(v.snd)
    elif isinstance(v, Variant):
        yield from nodes(v.payload)
