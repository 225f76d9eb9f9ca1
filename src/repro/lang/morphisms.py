"""Morphisms (expressions) of or-NRA — the common core (Figure 1).

A morphism is a typed function between object types, built from the
combinators of the paper.  This module holds the base class and the
category/product fragment shared by the set and or-set halves:

====================  ===========================  =======================
paper                 here                         type
====================  ===========================  =======================
``id``                :class:`Id`                  ``s -> s``
``f o g``             :class:`Compose`             compose (``f`` after ``g``)
``(f, g)``            :class:`PairOf`              ``r -> s * t``
``pi_1``, ``pi_2``    :class:`Proj1`/:class:`Proj2`  projections
``!``                 :class:`Bang`                ``s -> unit``
``K c``               :class:`Const`               ``unit -> b``
``=``                 :class:`Eq`                  ``s * s -> bool``
``cond(p, t, f)``     :class:`Cond`                ``s -> t``
``p``                 :class:`Primitive`           ``Type(p)``
====================  ===========================  =======================

Every morphism supports:

* ``m(value)`` — evaluation (dynamic, with structural type checks);
* ``m.signature(fresh)`` — its most general type as a :class:`FuncType`
  possibly containing type variables (unification-based inference, the
  reason the paper can omit type superscripts);
* ``m.output_type(t)`` — the concrete output type on input type *t*;
* ``f @ g`` — composition (``f`` after ``g``), mirroring ``f o g``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import OrNRATypeError
from repro.types.kinds import BOOL, FuncType, ProdType, Type, UnitType
from repro.types.unify import FreshVars, apply_subst, rename_apart, unify
from repro.values.values import (
    UNIT_VALUE,
    Atom,
    Pair,
    Value,
    boolean,
    ensure_value,
)

__all__ = [
    "Morphism",
    "Id",
    "Compose",
    "PairOf",
    "Proj1",
    "Proj2",
    "Bang",
    "Const",
    "Eq",
    "Cond",
    "Primitive",
    "infer_signature",
    "compose",
    "identity",
    "pair_of",
    "p1",
    "p2",
    "bang",
    "const",
    "always",
    "eq",
    "cond",
]


class Morphism:
    """Abstract base class of or-NRA morphisms."""

    def apply(self, value: Value) -> Value:
        """Evaluate the morphism on *value*."""
        raise NotImplementedError

    def signature(self, fresh: FreshVars) -> FuncType:
        """The most general ``dom -> cod`` type, with fresh type variables."""
        raise NotImplementedError

    def describe(self) -> str:
        """A compact, paper-style rendering of the expression."""
        raise NotImplementedError

    # -- conveniences -----------------------------------------------------

    def __call__(self, value: object) -> Value:
        return self.apply(ensure_value(value))

    def __matmul__(self, other: "Morphism") -> "Compose":
        """``f @ g`` is ``f o g`` (apply *g* first)."""
        if not isinstance(other, Morphism):
            return NotImplemented
        return Compose(self, other)

    def __repr__(self) -> str:
        return self.describe()

    def output_type(self, input_type: Type) -> Type:
        """The concrete output type on input type *input_type*.

        Raises :class:`OrNRATypeError` when the morphism cannot accept the
        input type.
        """
        sig = self.signature(FreshVars("i"))
        subst = unify(sig.dom, input_type)
        result = apply_subst(subst, sig.cod)
        return result

    def children(self) -> tuple["Morphism", ...]:
        """Immediate sub-morphisms (for structural traversals)."""
        return ()


def infer_signature(m: Morphism) -> FuncType:
    """The most general type of *m* (Section 2's type inference)."""
    return m.signature(FreshVars())


class Id(Morphism):
    """The identity ``id : s -> s``."""

    def apply(self, value: Value) -> Value:
        return value

    def signature(self, fresh: FreshVars) -> FuncType:
        var = fresh.fresh()
        return FuncType(var, var)

    def describe(self) -> str:
        return "id"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Id)

    def __hash__(self) -> int:
        return hash("Id")


class Compose(Morphism):
    """Composition ``after o before`` (apply *before* first)."""

    def __init__(self, after: Morphism, before: Morphism) -> None:
        self.after = after
        self.before = before

    def apply(self, value: Value) -> Value:
        return self.after.apply(self.before.apply(value))

    def signature(self, fresh: FreshVars) -> FuncType:
        sig_before = self.before.signature(fresh)
        sig_after = self.after.signature(fresh)
        subst = unify(sig_after.dom, sig_before.cod)
        return FuncType(
            apply_subst(subst, sig_before.dom), apply_subst(subst, sig_after.cod)
        )

    def describe(self) -> str:
        return f"{self.after.describe()} o {self.before.describe()}"

    def children(self) -> tuple[Morphism, ...]:
        return (self.after, self.before)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Compose)
            and self.after == other.after
            and self.before == other.before
        )

    def __hash__(self) -> int:
        # The engine's plan cache hashes a program on every run, and a long
        # pipeline is a long spine of compositions: each hashes once.
        try:
            return self._hash
        except AttributeError:
            self._hash: int = hash(("Compose", self.after, self.before))
            return self._hash

    def __getstate__(self) -> dict:
        # `str` hashes are salted per interpreter: pickles leave the
        # cached hash out, and the receiving process computes its own.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


class PairOf(Morphism):
    """Pair formation ``(f, g) : r -> s * t``."""

    def __init__(self, left: Morphism, right: Morphism) -> None:
        self.left = left
        self.right = right

    def apply(self, value: Value) -> Value:
        return Pair(self.left.apply(value), self.right.apply(value))

    def signature(self, fresh: FreshVars) -> FuncType:
        sig_left = self.left.signature(fresh)
        sig_right = self.right.signature(fresh)
        subst = unify(sig_left.dom, sig_right.dom)
        dom = apply_subst(subst, sig_left.dom)
        cod = ProdType(
            apply_subst(subst, sig_left.cod), apply_subst(subst, sig_right.cod)
        )
        return FuncType(dom, cod)

    def describe(self) -> str:
        return f"({self.left.describe()}, {self.right.describe()})"

    def children(self) -> tuple[Morphism, ...]:
        return (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PairOf)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("PairOf", self.left, self.right))


class Proj1(Morphism):
    """First projection ``pi_1 : s * t -> s``."""

    def apply(self, value: Value) -> Value:
        if not isinstance(value, Pair):
            raise OrNRATypeError(f"pi_1 expects a pair, got {value!r}")
        return value.fst

    def signature(self, fresh: FreshVars) -> FuncType:
        a, b = fresh.fresh(), fresh.fresh()
        return FuncType(ProdType(a, b), a)

    def describe(self) -> str:
        return "pi_1"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Proj1)

    def __hash__(self) -> int:
        return hash("Proj1")


class Proj2(Morphism):
    """Second projection ``pi_2 : s * t -> t``."""

    def apply(self, value: Value) -> Value:
        if not isinstance(value, Pair):
            raise OrNRATypeError(f"pi_2 expects a pair, got {value!r}")
        return value.snd

    def signature(self, fresh: FreshVars) -> FuncType:
        a, b = fresh.fresh(), fresh.fresh()
        return FuncType(ProdType(a, b), b)

    def describe(self) -> str:
        return "pi_2"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Proj2)

    def __hash__(self) -> int:
        return hash("Proj2")


class Bang(Morphism):
    """``! : s -> unit`` — maps everything to the unique unit element."""

    def apply(self, value: Value) -> Value:
        return UNIT_VALUE

    def signature(self, fresh: FreshVars) -> FuncType:
        return FuncType(fresh.fresh(), UnitType())

    def describe(self) -> str:
        return "!"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bang)

    def __hash__(self) -> int:
        return hash("Bang")


class Const(Morphism):
    """A constant ``K c : unit -> b`` for an atom *c* of base type *b*.

    Use :func:`always` for the any-domain version ``K c o !``.
    """

    def __init__(self, value: object, base: str | None = None) -> None:
        wrapped = ensure_value(value) if base is None else Atom(base, value)
        if not isinstance(wrapped, Atom):
            raise OrNRATypeError(f"Const expects an atom, got {wrapped!r}")
        self.value: Atom = wrapped

    def apply(self, value: Value) -> Value:
        return self.value

    def signature(self, fresh: FreshVars) -> FuncType:
        from repro.values.values import infer_type

        return FuncType(UnitType(), infer_type(self.value))

    def describe(self) -> str:
        return f"K{self.value}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


class Eq(Morphism):
    """Structural equality ``=_s : s * s -> bool``.

    The paper stresses that equality at or-set types is *structural*
    (conceptually equivalent but differently represented objects compare
    unequal); this is why ``Eq`` at or-set types is excluded from the
    losslessness theorem.
    """

    def apply(self, value: Value) -> Value:
        if not isinstance(value, Pair):
            raise OrNRATypeError(f"= expects a pair, got {value!r}")
        return boolean(value.fst == value.snd)

    def signature(self, fresh: FreshVars) -> FuncType:
        a = fresh.fresh()
        return FuncType(ProdType(a, a), BOOL)

    def describe(self) -> str:
        return "="

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Eq)

    def __hash__(self) -> int:
        return hash("Eq")


class Cond(Morphism):
    """``cond(p, t, f)(x) = t(x)`` if ``p(x)`` is true, else ``f(x)``."""

    def __init__(self, pred: Morphism, then: Morphism, orelse: Morphism) -> None:
        self.pred = pred
        self.then = then
        self.orelse = orelse

    def apply(self, value: Value) -> Value:
        verdict = self.pred.apply(value)
        if not (isinstance(verdict, Atom) and verdict.base == "bool"):
            raise OrNRATypeError(
                f"cond predicate returned non-boolean {verdict!r}"
            )
        branch = self.then if verdict.value else self.orelse
        return branch.apply(value)

    def signature(self, fresh: FreshVars) -> FuncType:
        sig_p = self.pred.signature(fresh)
        sig_t = self.then.signature(fresh)
        sig_f = self.orelse.signature(fresh)
        subst = unify(sig_p.cod, BOOL)
        subst = unify(sig_p.dom, sig_t.dom, subst)
        subst = unify(
            apply_subst(subst, sig_t.dom), apply_subst(subst, sig_f.dom), subst
        )
        subst = unify(
            apply_subst(subst, sig_t.cod), apply_subst(subst, sig_f.cod), subst
        )
        return FuncType(apply_subst(subst, sig_t.dom), apply_subst(subst, sig_t.cod))

    def describe(self) -> str:
        return (
            f"cond({self.pred.describe()}, {self.then.describe()}, "
            f"{self.orelse.describe()})"
        )

    def children(self) -> tuple[Morphism, ...]:
        return (self.pred, self.then, self.orelse)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cond)
            and self.pred == other.pred
            and self.then == other.then
            and self.orelse == other.orelse
        )

    def __hash__(self) -> int:
        return hash(("Cond", self.pred, self.then, self.orelse))


class Primitive(Morphism):
    """An uninterpreted primitive ``p`` with a declared type ``Type(p)``.

    The language is parameterized by a signature ``Sigma`` of such
    primitives (arithmetic, application-specific predicates like the intro's
    ``ischeap``).  The declared type may contain type variables.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[Value], Value],
        dom: Type,
        cod: Type,
    ) -> None:
        self.name = name
        self.fn = fn
        self.dom = dom
        self.cod = cod

    def apply(self, value: Value) -> Value:
        return ensure_value(self.fn(value))

    def signature(self, fresh: FreshVars) -> FuncType:
        return rename_apart(FuncType(self.dom, self.cod), fresh)  # type: ignore[return-value]

    def describe(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Primitive)
            and self.name == other.name
            and self.dom == other.dom
            and self.cod == other.cod
        )

    def __hash__(self) -> int:
        return hash(("Primitive", self.name, self.dom, self.cod))


def rename_apart(t: FuncType, fresh: FreshVars) -> Type:
    """Rename type variables in a declared primitive type apart."""
    from repro.types.unify import rename_apart as _rename

    return _rename(t, fresh)


# ---------------------------------------------------------------------------
# Factory helpers (lowercase, paper-flavoured names)
# ---------------------------------------------------------------------------


def compose(*morphisms: Morphism) -> Morphism:
    """``compose(f, g, h)`` is ``f o g o h`` (rightmost applied first)."""
    if not morphisms:
        return Id()
    result = morphisms[-1]
    for m in reversed(morphisms[:-1]):
        result = Compose(m, result)
    return result


def identity() -> Id:
    """The identity morphism."""
    return Id()


def pair_of(left: Morphism, right: Morphism) -> PairOf:
    """Pair formation ``(left, right)``."""
    return PairOf(left, right)


def p1() -> Proj1:
    """First projection."""
    return Proj1()


def p2() -> Proj2:
    """Second projection."""
    return Proj2()


def bang() -> Bang:
    """The terminal morphism ``!``."""
    return Bang()


def const(value: object, base: str | None = None) -> Const:
    """``K c : unit -> b``."""
    return Const(value, base)


def always(value: object, base: str | None = None) -> Morphism:
    """``K c o ! : s -> b`` — the constant function from any type."""
    return Compose(Const(value, base), Bang())


def eq() -> Eq:
    """Structural equality test."""
    return Eq()


def cond(pred: Morphism, then: Morphism, orelse: Morphism) -> Cond:
    """The conditional ``cond(p, t, f)``."""
    return Cond(pred, then, orelse)
