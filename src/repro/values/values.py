"""Complex-object values: atoms, pairs, sets, or-sets and internal bags.

Values are immutable and hashable, so sets of sets "just work".  Every
collection stores its elements as a tuple sorted by a canonical total order
(:func:`sort_key`); sets and or-sets additionally deduplicate.  This makes
structural equality, hashing and printing deterministic — the property the
normalization engine and the possible-worlds oracle rely on.

The paper writes ``< >`` for or-sets, ``{ }`` for sets and ``[| |]`` for the
internal multisets of Section 4.  Pairs are written ``( , )``.

Construction helpers accept raw Python scalars and wrap them in
:class:`Atom` automatically::

    vorset(1, 2, 3)                       # <1, 2, 3>
    vset(vpair(1, True), vpair(2, False)) # {(1, true), (2, false)}
"""

from __future__ import annotations

import threading as _threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator

from repro.errors import OrNRAValueError
from repro.types.kinds import (
    BOOL,
    INT,
    STRING,
    BagType,
    BaseType,
    OrSetType,
    ProdType,
    SetType,
    Type,
    TypeVar,
    UnitType,
    VariantType,
)

__all__ = [
    "Value",
    "Atom",
    "UnitValue",
    "Pair",
    "SetValue",
    "OrSetValue",
    "BagValue",
    "Variant",
    "UNIT_VALUE",
    "TRUE",
    "FALSE",
    "atom",
    "boolean",
    "ensure_value",
    "vpair",
    "vset",
    "vorset",
    "vbag",
    "vinl",
    "vinr",
    "sort_key",
    "use_sort_key_cache",
    "atom_key",
    "pair_key",
    "variant_key",
    "keyed_collection",
    "format_value",
    "infer_type",
    "check_type",
    "from_python",
    "to_python",
    "Or",
    "Inl",
    "Inr",
]


class Value:
    """Abstract base class of all complex-object values."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_value(self)


@dataclass(frozen=True, slots=True)
class Atom(Value):
    """An atomic value of a base type.

    ``base`` names the base type (``"int"``, ``"bool"``, ``"string"``, or a
    user-defined name such as ``"module"``); ``value`` is the underlying
    Python scalar, which must be orderable within its base type.
    """

    base: str
    value: object

    def __repr__(self) -> str:
        return f"Atom({self.base}:{self.value!r})"


@dataclass(frozen=True, slots=True)
class UnitValue(Value):
    """The unique element of type ``unit``."""

    def __repr__(self) -> str:
        return "unit"


@dataclass(frozen=True, slots=True)
class Pair(Value):
    """A pair ``(fst, snd)`` of type ``s * t``."""

    fst: Value
    snd: Value

    def __repr__(self) -> str:
        return f"Pair({self.fst!r}, {self.snd!r})"


def _canonical_distinct(elems: Iterable[Value]) -> tuple[Value, ...]:
    distinct = {sort_key(e): e for e in elems}
    return tuple(distinct[k] for k in sorted(distinct))


def _canonical_multi(elems: Iterable[Value]) -> tuple[Value, ...]:
    return tuple(sorted(elems, key=sort_key))


@dataclass(frozen=True, slots=True)
class SetValue(Value):
    """A finite set ``{x1, ..., xn}``; elements are deduplicated and sorted."""

    elems: tuple[Value, ...]

    def __init__(self, elems: Iterable[Value]) -> None:
        object.__setattr__(self, "elems", _canonical_distinct(elems))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __contains__(self, item: Value) -> bool:
        return item in self.elems

    def __repr__(self) -> str:
        return f"SetValue({list(self.elems)!r})"


@dataclass(frozen=True, slots=True)
class OrSetValue(Value):
    """An or-set ``<x1, ..., xn>``; elements are deduplicated and sorted.

    Conceptually it denotes *one* of its elements; the empty or-set ``< >``
    denotes inconsistency (it stands for no object at all).
    """

    elems: tuple[Value, ...]

    def __init__(self, elems: Iterable[Value]) -> None:
        object.__setattr__(self, "elems", _canonical_distinct(elems))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __contains__(self, item: Value) -> bool:
        return item in self.elems

    def __repr__(self) -> str:
        return f"OrSetValue({list(self.elems)!r})"


@dataclass(frozen=True, slots=True)
class Variant(Value):
    """An injection into a variant type ``s + t`` (Section 7 extension).

    ``side`` is 0 for the left injection (``inl``) and 1 for the right
    (``inr``); ``payload`` is the injected value.  Use :func:`vinl` /
    :func:`vinr` to construct.
    """

    side: int
    payload: Value

    def __post_init__(self) -> None:
        if self.side not in (0, 1):
            raise OrNRAValueError(f"variant side must be 0 or 1, got {self.side!r}")

    def __repr__(self) -> str:
        tag = "inl" if self.side == 0 else "inr"
        return f"Variant({tag} {self.payload!r})"


@dataclass(frozen=True, slots=True)
class BagValue(Value):
    """A multiset ``[|x1, ..., xn|]``; duplicates kept, order canonical."""

    elems: tuple[Value, ...]

    def __init__(self, elems: Iterable[Value]) -> None:
        object.__setattr__(self, "elems", _canonical_multi(elems))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __repr__(self) -> str:
        return f"BagValue({list(self.elems)!r})"


UNIT_VALUE = UnitValue()
TRUE = Atom("bool", True)
FALSE = Atom("bool", False)


def atom(value: object, base: str | None = None) -> Value:
    """Wrap a Python scalar into an :class:`Atom` (or pass a Value through).

    Without *base*, the base type is inferred: ``bool`` before ``int``
    (Python's bool is an int subclass), then ``int``, ``string``.
    """
    if isinstance(value, Value):
        return value
    if base is not None:
        return Atom(base, value)
    if isinstance(value, bool):
        return Atom("bool", value)
    if isinstance(value, int):
        return Atom("int", value)
    if isinstance(value, str):
        return Atom("string", value)
    if value is None:
        return UNIT_VALUE
    raise OrNRAValueError(f"cannot make an atom from {value!r}")


def boolean(flag: bool) -> Atom:
    """The boolean atom for *flag*."""
    return TRUE if flag else FALSE


def ensure_value(x: object) -> Value:
    """Coerce *x* to a :class:`Value` (scalars become atoms)."""
    return x if isinstance(x, Value) else atom(x)


def vpair(fst: object, snd: object) -> Pair:
    """Build a pair, wrapping scalars."""
    return Pair(ensure_value(fst), ensure_value(snd))


def vset(*elems: object) -> SetValue:
    """Build a set value, wrapping scalars."""
    return SetValue(ensure_value(e) for e in elems)


def vorset(*elems: object) -> OrSetValue:
    """Build an or-set value, wrapping scalars."""
    return OrSetValue(ensure_value(e) for e in elems)


def vbag(*elems: object) -> BagValue:
    """Build a bag value, wrapping scalars."""
    return BagValue(ensure_value(e) for e in elems)


def vinl(payload: object) -> Variant:
    """Build the left injection ``inl payload``, wrapping scalars."""
    return Variant(0, ensure_value(payload))


def vinr(payload: object) -> Variant:
    """Build the right injection ``inr payload``, wrapping scalars."""
    return Variant(1, ensure_value(payload))


_ATOM_RANK = {"bool": 0, "int": 1, "string": 2}


def _atom_key(a: Atom) -> tuple:
    value = a.value
    if isinstance(value, bool):
        value = int(value)
    rank = _ATOM_RANK.get(a.base, 3)
    return (rank, a.base, value)


# An optional identity-keyed cache of computed sort keys, installed by the
# engine's interning arena (repro.engine.interning).  Entries are keyed by
# id(); the installer must keep the keyed objects alive for the cache's
# lifetime, which the arena guarantees by holding strong references.
# The installation is *per thread* (threading.local), so concurrent
# engine runs on different threads never observe each other's cache
# swaps.
_SORT_KEY_TLS = _threading.local()


@contextmanager
def use_sort_key_cache(cache: dict[int, tuple]) -> Iterator[None]:
    """Consult *cache* for precomputed sort keys within the block.

    :func:`sort_key` only *reads* the cache (the installer decides which
    object ids are safe to register); nesting restores the previous cache
    on exit, and the installation is visible only to the calling thread.
    """
    previous = getattr(_SORT_KEY_TLS, "cache", None)
    _SORT_KEY_TLS.cache = cache
    try:
        yield
    finally:
        _SORT_KEY_TLS.cache = previous


def sort_key(v: Value) -> tuple:
    """A canonical total-order key; values of one type compare sensibly.

    Mixed kinds get disjoint key prefixes, so the order is total on all
    values (needed only for canonical storage, never for semantics).
    """
    cache = getattr(_SORT_KEY_TLS, "cache", None)
    if cache is not None:
        hit = cache.get(id(v))
        if hit is not None:
            return hit
    if isinstance(v, UnitValue):
        return (0,)
    if isinstance(v, Atom):
        return (1,) + _atom_key(v)
    if isinstance(v, Pair):
        return (2, sort_key(v.fst), sort_key(v.snd))
    if isinstance(v, SetValue):
        return (3, len(v.elems), tuple(sort_key(e) for e in v.elems))
    if isinstance(v, OrSetValue):
        return (4, len(v.elems), tuple(sort_key(e) for e in v.elems))
    if isinstance(v, BagValue):
        return (5, len(v.elems), tuple(sort_key(e) for e in v.elems))
    if isinstance(v, Variant):
        return (6, v.side, sort_key(v.payload))
    raise OrNRAValueError(f"not a value: {v!r}")


# Builders that already hold their children's sort keys (the normal-form
# kernel, the JSON decoder) build a node's key from them with the helpers
# below instead of re-walking the children through sort_key.  They lay
# keys out exactly as sort_key does.


def atom_key(a: Atom) -> tuple:
    """``sort_key(a)`` of the atom *a*."""
    return (1,) + _atom_key(a)


def pair_key(fst_key: tuple, snd_key: tuple) -> tuple:
    """The sort key of a pair, from its components' keys."""
    return (2, fst_key, snd_key)


def variant_key(side: int, payload_key: tuple) -> tuple:
    """The sort key of an injection on *side*, from its payload's key."""
    return (6, side, payload_key)


_COLLECTION_TAGS = {SetValue: 3, OrSetValue: 4, BagValue: 5}


def keyed_collection(
    cls: type, keyed: dict[tuple, Value] | list[tuple[tuple, Value]]
) -> tuple[tuple, Value]:
    """A collection built from elements whose sort keys are at hand.

    For a set or an or-set *keyed* maps each element's key to the
    element; for a bag it lists ``(key, element)`` pairs.  Returns
    ``(key, node)``: *node* is what ``cls(elements)`` builds (the same
    elements in the same order, and the same survivor among equal keys
    when *keyed* was filled in element order), and *key* equals
    ``sort_key(node)``.  No element's key is recomputed.  Raises
    ``TypeError`` when two keys do not compare, as the constructors do.
    """
    if cls is BagValue:
        pairs = sorted(keyed, key=itemgetter(0))
        order = tuple(map(itemgetter(0), pairs))
        elems = tuple(map(itemgetter(1), pairs))
    else:
        order = tuple(sorted(keyed))
        elems = tuple(map(keyed.__getitem__, order))
    node = object.__new__(cls)
    object.__setattr__(node, "elems", elems)
    return (_COLLECTION_TAGS[cls], len(elems), order), node


def format_value(v: Value) -> str:
    """Render *v* in the paper's notation (``<..>``, ``{..}``, ``(..)``)."""
    if isinstance(v, UnitValue):
        return "()"
    if isinstance(v, Atom):
        if v.base == "bool":
            return "true" if v.value else "false"
        if v.base == "string":
            return f'"{v.value}"'
        if v.base == "int":
            return str(v.value)
        return f"{v.base}:{v.value}"
    if isinstance(v, Pair):
        return f"({format_value(v.fst)}, {format_value(v.snd)})"
    if isinstance(v, SetValue):
        return "{" + ", ".join(format_value(e) for e in v.elems) + "}"
    if isinstance(v, OrSetValue):
        return "<" + ", ".join(format_value(e) for e in v.elems) + ">"
    if isinstance(v, BagValue):
        return "[|" + ", ".join(format_value(e) for e in v.elems) + "|]"
    if isinstance(v, Variant):
        tag = "inl" if v.side == 0 else "inr"
        return f"{tag} {format_value(v.payload)}"
    raise OrNRAValueError(f"not a value: {v!r}")


_BUILTIN_BASES = {"bool": BOOL, "int": INT, "string": STRING}
_EMPTY_VAR = TypeVar("elem")
_COLLECTION_TYPES = {SetValue: SetType, OrSetValue: OrSetType, BagValue: BagType}


def infer_type(v: Value) -> Type:
    """Infer the type of *v*.

    Empty collections get the element type ``'elem`` (a type variable);
    heterogeneous collections raise :class:`OrNRAValueError`.
    """
    cls = type(v)
    if cls is Atom:
        base = _BUILTIN_BASES.get(v.base)
        return base if base is not None else BaseType(v.base)
    wrapper = _COLLECTION_TYPES.get(cls)
    if wrapper is not None:
        elems = v.elems
        if not elems:
            return wrapper(_EMPTY_VAR)
        merged = infer_type(elems[0])
        for e in elems[1:]:
            t = infer_type(e)
            if t is not merged:
                merged = _merge_types(merged, t)
        return wrapper(merged)
    if cls is UnitValue:
        return UnitType()
    if cls is Pair:
        return ProdType(infer_type(v.fst), infer_type(v.snd))
    if cls is Variant:
        payload = infer_type(v.payload)
        if v.side == 0:
            return VariantType(payload, _EMPTY_VAR)
        return VariantType(_EMPTY_VAR, payload)
    raise OrNRAValueError(f"not a value: {v!r}")


def _merge_types(a: Type, b: Type) -> Type:
    """Combine two partial element types, filling ``'elem`` holes.

    Holes arise from empty collections and from the uninhabited side of a
    variant injection; two element types merge when they agree everywhere
    both are concrete.  Raises :class:`OrNRAValueError` on a clash (a
    heterogeneous collection).
    """
    if a == b:
        return a
    if isinstance(a, TypeVar):
        return b
    if isinstance(b, TypeVar):
        return a
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return ProdType(_merge_types(a.left, b.left), _merge_types(a.right, b.right))
    if isinstance(a, VariantType) and isinstance(b, VariantType):
        return VariantType(
            _merge_types(a.left, b.left), _merge_types(a.right, b.right)
        )
    for kind in (SetType, OrSetType, BagType):
        if isinstance(a, kind) and isinstance(b, kind):
            return kind(_merge_types(a.elem, b.elem))
    raise OrNRAValueError(f"heterogeneous collection: {a!r} vs {b!r}")


def check_type(v: Value, t: Type) -> bool:
    """Does value *v* inhabit type *t*?  (Empty collections inhabit any.)"""
    if isinstance(t, TypeVar):
        return True
    if isinstance(t, UnitType):
        return isinstance(v, UnitValue)
    if isinstance(t, BaseType):
        return isinstance(v, Atom) and v.base == t.name
    if isinstance(t, ProdType):
        return (
            isinstance(v, Pair)
            and check_type(v.fst, t.left)
            and check_type(v.snd, t.right)
        )
    if isinstance(t, VariantType):
        if not isinstance(v, Variant):
            return False
        side_type = t.left if v.side == 0 else t.right
        return check_type(v.payload, side_type)
    if isinstance(t, SetType):
        return isinstance(v, SetValue) and all(check_type(e, t.elem) for e in v)
    if isinstance(t, OrSetType):
        return isinstance(v, OrSetValue) and all(check_type(e, t.elem) for e in v)
    if isinstance(t, BagType):
        return isinstance(v, BagValue) and all(check_type(e, t.elem) for e in v)
    return False


@dataclass(frozen=True, slots=True)
class Or:
    """A plain-Python marker for or-sets, used by :func:`from_python`.

    ``Or(1, 2, 3)`` converts to the or-set ``<1, 2, 3>``; plain frozensets /
    sets convert to ordinary sets.
    """

    items: tuple = field(default=())

    def __init__(self, *items: object) -> None:
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True, slots=True)
class Inl:
    """A plain-Python marker for the left injection, for :func:`from_python`."""

    item: object


@dataclass(frozen=True, slots=True)
class Inr:
    """A plain-Python marker for the right injection, for :func:`from_python`."""

    item: object


def from_python(obj: object) -> Value:
    """Convert nested plain-Python data to a :class:`Value`.

    Conventions: scalars become atoms; 2-tuples become pairs; ``set`` /
    ``frozenset`` become sets; :class:`Or` becomes an or-set; ``list``
    becomes a bag.  (Lists-as-bags only matter internally.)
    """
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, Or):
        return OrSetValue(from_python(i) for i in obj.items)
    if isinstance(obj, Inl):
        return Variant(0, from_python(obj.item))
    if isinstance(obj, Inr):
        return Variant(1, from_python(obj.item))
    if isinstance(obj, (set, frozenset)):
        return SetValue(from_python(i) for i in obj)
    if isinstance(obj, tuple):
        if len(obj) != 2:
            raise OrNRAValueError(
                f"tuples must be pairs (got arity {len(obj)}): {obj!r}"
            )
        return Pair(from_python(obj[0]), from_python(obj[1]))
    if isinstance(obj, list):
        return BagValue(from_python(i) for i in obj)
    return atom(obj)


def to_python(v: Value) -> object:
    """Convert *v* back to plain Python (inverse of :func:`from_python`)."""
    if isinstance(v, UnitValue):
        return None
    if isinstance(v, Atom):
        return v.value
    if isinstance(v, Pair):
        return (to_python(v.fst), to_python(v.snd))
    if isinstance(v, SetValue):
        return frozenset(to_python(e) for e in v)
    if isinstance(v, OrSetValue):
        return Or(*(to_python(e) for e in v))
    if isinstance(v, BagValue):
        return [to_python(e) for e in v]
    if isinstance(v, Variant):
        marker = Inl if v.side == 0 else Inr
        return marker(to_python(v.payload))
    raise OrNRAValueError(f"not a value: {v!r}")
