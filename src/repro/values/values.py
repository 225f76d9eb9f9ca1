"""Complex-object values: atoms, pairs, sets, or-sets and internal bags.

Values are immutable and hashable, so sets of sets "just work".  Every
collection stores its elements as a tuple sorted by a canonical total order
(:func:`sort_key`); sets and or-sets additionally deduplicate.  This makes
structural equality, hashing and printing deterministic — the property the
normalization engine and the possible-worlds oracle rely on.

Every node keeps its own sort key in a ``_key`` slot, set when the node is
built from its children's keys, so sorting a collection never re-walks its
elements.  The slot is not a dataclass field: equality, hashing, ``repr``
and the pickled state leave it out (a key roughly doubles a value's
payload), and an unpickled node computes its key on first use.

The paper writes ``< >`` for or-sets, ``{ }`` for sets and ``[| |]`` for the
internal multisets of Section 4.  Pairs are written ``( , )``.

Construction helpers accept raw Python scalars and wrap them in
:class:`Atom` automatically::

    vorset(1, 2, 3)                       # <1, 2, 3>
    vset(vpair(1, True), vpair(2, False)) # {(1, true), (2, false)}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, eq, le, lt
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
    "ordered_collection",
    "collection_from_list",
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
    """Abstract base class of all complex-object values.

    ``_key`` holds the node's sort key (see :func:`sort_key`).  It is a
    slot of this base class, not a dataclass field of the node classes,
    so their ``__eq__``, ``__hash__``, ``repr`` and pickled state never
    see it.
    """

    __slots__ = ("_key",)

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

    def __init__(self, base: str, value: object) -> None:
        _ATOM_BASE(self, base)
        _ATOM_VALUE(self, value)
        _set_key(self, _atom_key(base, value))

    def __repr__(self) -> str:
        return f"Atom({self.base}:{self.value!r})"


@dataclass(frozen=True, slots=True)
class UnitValue(Value):
    """The unique element of type ``unit``."""

    def __init__(self) -> None:
        _set_key(self, _UNIT_KEY)

    def __repr__(self) -> str:
        return "unit"


@dataclass(frozen=True, slots=True)
class Pair(Value):
    """A pair ``(fst, snd)`` of type ``s * t``."""

    fst: Value
    snd: Value

    def __init__(self, fst: Value, snd: Value) -> None:
        _PAIR_FST(self, fst)
        _PAIR_SND(self, snd)
        try:
            key = (2, fst._key, snd._key)
        except AttributeError:  # an unpickled component
            key = (2, sort_key(fst), sort_key(snd))
        _set_key(self, key)

    def __repr__(self) -> str:
        return f"Pair({self.fst!r}, {self.snd!r})"


def _fill(node: Value, elems: list[Value]) -> None:
    """Store the list *elems* in the collection *node*, sorted by key, and
    its key; the list is taken over and may be reordered in place.

    The elements' stored keys are read once up front.  Elements whose keys
    already strictly increase (for a bag: never decrease) are stored as
    they come, with no sort and no duplicate scan.  Otherwise they are
    sorted, and a set or
    an or-set keeps, of each run of equal keys, the element that came
    last, as a dict keyed by sort key would.  Nothing is hashed: equal
    keys are adjacent once sorted (the sort is stable).
    """
    cls = type(node)
    try:
        keys = tuple(map(_KEY, elems))
    except AttributeError:  # an unpickled element: compute and store its key
        keys = tuple(map(sort_key, elems))
    follows = le if cls is BagValue else lt
    if not all(map(follows, keys, keys[1:])):
        elems.sort(key=_KEY)
        keys = tuple(map(_KEY, elems))
        if cls is not BagValue and any(map(eq, keys, keys[1:])):
            kept = [0]
            for i in range(1, len(keys)):
                if keys[i] == keys[kept[-1]]:
                    kept[-1] = i
                else:
                    kept.append(i)
            elems = [elems[i] for i in kept]
            keys = tuple(keys[i] for i in kept)
    _SET_ELEMS[cls](node, tuple(elems))
    _set_key(node, (_COLLECTION_TAGS[cls], len(keys), keys))


@dataclass(frozen=True, slots=True)
class SetValue(Value):
    """A finite set ``{x1, ..., xn}``; elements are deduplicated and sorted."""

    elems: tuple[Value, ...]

    def __init__(self, elems: Iterable[Value]) -> None:
        _fill(self, list(elems))

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
        _fill(self, list(elems))

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

    def __init__(self, side: int, payload: Value) -> None:
        if side not in (0, 1):
            raise OrNRAValueError(f"variant side must be 0 or 1, got {side!r}")
        _VARIANT_SIDE(self, side)
        _VARIANT_PAYLOAD(self, payload)
        _set_key(self, (6, side, sort_key(payload)))

    def __repr__(self) -> str:
        tag = "inl" if self.side == 0 else "inr"
        return f"Variant({tag} {self.payload!r})"


@dataclass(frozen=True, slots=True)
class BagValue(Value):
    """A multiset ``[|x1, ..., xn|]``; duplicates kept, order canonical."""

    elems: tuple[Value, ...]

    def __init__(self, elems: Iterable[Value]) -> None:
        _fill(self, list(elems))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __repr__(self) -> str:
        return f"BagValue({list(self.elems)!r})"


# Slot writers.  The node classes are frozen, so their constructors and
# the builders below fill each slot through its descriptor, the quickest
# way past the frozen ``__setattr__``.  (``tools/lint_rules.py`` LR007
# keeps every other module from writing these slots.)
_set_key = Value._key.__set__  # type: ignore[attr-defined]
_ATOM_BASE = Atom.base.__set__  # type: ignore[attr-defined]
_ATOM_VALUE = Atom.value.__set__  # type: ignore[attr-defined]
_PAIR_FST = Pair.fst.__set__  # type: ignore[attr-defined]
_PAIR_SND = Pair.snd.__set__  # type: ignore[attr-defined]
_VARIANT_SIDE = Variant.side.__set__  # type: ignore[attr-defined]
_VARIANT_PAYLOAD = Variant.payload.__set__  # type: ignore[attr-defined]
_SET_ELEMS = {
    cls: cls.elems.__set__  # type: ignore[attr-defined]
    for cls in (SetValue, OrSetValue, BagValue)
}
_COLLECTION_TAGS = {SetValue: 3, OrSetValue: 4, BagValue: 5}
_KEY = attrgetter("_key")
_UNIT_KEY = (0,)
_ATOM_RANK = {"bool": 0, "int": 1, "string": 2}


def _atom_key(base: str, value: object) -> tuple:
    if value.__class__ is bool:
        value = int(value)  # type: ignore[call-overload]
    return (1, _ATOM_RANK.get(base, 3), base, value)


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


def sort_key(v: Value) -> tuple:
    """A canonical total-order key; values of one type compare sensibly.

    Mixed kinds get disjoint key prefixes, so the order is total on all
    values (needed only for canonical storage, never for semantics).
    Every constructor stores its node's key, built from its children's, so
    this is a slot read.  A node without one (an unpickled node: pickles
    leave keys out) gets its key computed from its children's and stored.
    Two threads may store one node's key at once; both store equal
    tuples, so the race is harmless.
    """
    try:
        return v._key
    except AttributeError:
        pass
    cls = type(v)
    if cls is Atom:
        key = _atom_key(v.base, v.value)
    elif cls is Pair:
        key = (2, sort_key(v.fst), sort_key(v.snd))
    elif cls in _COLLECTION_TAGS:
        key = (_COLLECTION_TAGS[cls], len(v.elems), tuple(map(sort_key, v.elems)))
    elif cls is Variant:
        key = (6, v.side, sort_key(v.payload))
    elif cls is UnitValue:
        key = _UNIT_KEY
    else:
        raise OrNRAValueError(f"not a value: {v!r}")
    _set_key(v, key)
    return key


def ordered_collection(cls: type, elems: tuple[Value, ...]) -> Value:
    """``cls(elems)`` for *elems* already in canonical order.

    The caller vouches that *elems* are sorted by :func:`sort_key` and,
    for a set or an or-set, distinct; nothing is sorted or compared.  The
    node's key is read off its elements' keys.  The normal-form kernel,
    which derives its worlds' order from keys it has sorted once, builds
    its collections this way; everything else calls the constructors or
    :func:`collection_from_list`, which check the order.
    """
    try:
        keys = tuple(map(_KEY, elems))
    except AttributeError:  # an unpickled element
        keys = tuple(map(sort_key, elems))
    node = object.__new__(cls)
    _SET_ELEMS[cls](node, elems)
    _set_key(node, (_COLLECTION_TAGS[cls], len(elems), keys))
    return node


def collection_from_list(cls: type, elems: list[Value]) -> Value:
    """``cls(elems)``, taking the list *elems* over instead of copying it.

    The list may be reordered in place, so the caller must not use it
    again.  Elements already in canonical order are stored as they come,
    unsorted and unscanned; any others are sorted and deduplicated exactly
    as the constructors do.  The JSON decoder builds its collections this
    way.
    """
    node = object.__new__(cls)
    _fill(node, elems)
    return node


def format_value(v: Value) -> str:
    """Render *v* in the paper's notation (``<..>``, ``{..}``, ``(..)``)."""
    if isinstance(v, UnitValue):
        return "()"
    if isinstance(v, Atom):
        if v.base == "bool":
            return "true" if v.value else "false"
        if v.base == "string":
            text = str(v.value).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{text}"'
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
