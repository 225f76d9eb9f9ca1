"""Surface syntax for values and morphism expressions.

The OR-SML implementation (Section 7) provides "creation and destruction
of objects, ... input and output facilities"; this module is that front
end.  Values use the paper's notation; morphisms use the algebraic syntax
with ``o`` for composition::

    parse_value("({<1, 2>, <3>}, <1, 2>)")
    parse_morphism("or_mu o ormap(cond(ischeap, or_eta, K<> o !))",
                   env={"ischeap": some_primitive})

Grammar (values)::

    v ::= int | true | false | "string" | () | base:ident
        | (v, v) | {v, ...} | <v, ...> | [|v, ...|] | inl v | inr v

Inside a string, ``\\"`` stands for ``"`` and ``\\\\`` for ``\\``; a backslash
before any other character is itself.

Grammar (morphisms)::

    m ::= m o m                      composition (right associative)
        | (m, m)                     pair formation
        | (m)                        grouping
        | name(m, ...)               map/ormap/dmap/cond/select/...
        | K(v) | K{} | K<>           constants
        | id | pi_1 | pi_2 | ! | = | eta | mu | union | rho_1 | rho_2
        | or_eta | or_mu | or_union | or_rho_1 | or_rho_2 | alpha
        | ortoset | settoor | powerset | normalize | name-from-env
        | inl | inr | case(m, m) | or_kappa_1 | or_kappa_2
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import OrNRAParseError
from repro.values.values import (
    UNIT_VALUE,
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    Value,
    Variant,
    boolean,
)

from repro.lang.morphisms import (
    Bang,
    Compose,
    Cond,
    Const,
    Eq,
    Id,
    Morphism,
    PairOf,
    Proj1,
    Proj2,
)
from repro.lang.orset_ops import (
    Alpha,
    KEmptyOrSet,
    OrEta,
    OrMap,
    OrMu,
    OrRho2,
    OrToSet,
    OrUnion,
    SetToOr,
    or_rho1,
)
from repro.lang.set_ops import (
    KEmptySet,
    SetEta,
    SetMap,
    SetMu,
    SetRho2,
    SetUnion,
    set_rho1,
)
from repro.lang.bag_ops import (
    AlphaD,
    BagCount,
    BagEta,
    BagMaxUnion,
    BagMinIntersect,
    BagMonus,
    BagMu,
    BagMultiplicity,
    BagRho2,
    BagToSet,
    BagUnion,
    BagUnique,
    DMap,
    KEmptyBag,
    SetToBag,
)
from repro.lang.variant_ops import Case, InjectLeft, InjectRight, OrKappa1, OrKappa2

__all__ = ["parse_value", "parse_morphism"]


class _Cursor:
    """Shared lexing helpers for both parsers."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def consume(self, token: str) -> bool:
        if self.startswith(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.consume(token):
            raise OrNRAParseError(
                f"expected {token!r} at {self.text[self.pos:self.pos + 20]!r}",
                self.pos,
            )

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise OrNRAParseError(
                f"expected identifier at {self.text[self.pos:self.pos + 20]!r}",
                self.pos,
            )
        return self.text[start : self.pos]

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def _parse_value(cur: _Cursor) -> Value:
    ch = cur.peek()
    if ch == "(":
        cur.expect("(")
        if cur.consume(")"):
            return UNIT_VALUE
        first = _parse_value(cur)
        if cur.consume(","):
            second = _parse_value(cur)
            cur.expect(")")
            return Pair(first, second)
        cur.expect(")")
        return first
    if ch == "{":
        cur.expect("{")
        return SetValue(_parse_elements(cur, "}"))
    if cur.startswith("[|"):
        cur.expect("[|")
        return BagValue(_parse_elements(cur, "|]"))
    if ch == "<":
        cur.expect("<")
        return OrSetValue(_parse_elements(cur, ">"))
    if ch == '"':
        cur.expect('"')
        start = cur.pos
        text = cur.text
        chars: list[str] = []
        while cur.pos < len(text) and text[cur.pos] != '"':
            # \" and \\ stand for " and \; any other backslash is literal.
            if text[cur.pos] == "\\" and text[cur.pos + 1 : cur.pos + 2] in ('"', "\\"):
                cur.pos += 1
            chars.append(text[cur.pos])
            cur.pos += 1
        if cur.pos >= len(text):
            raise OrNRAParseError("unterminated string literal", start)
        cur.pos += 1
        return Atom("string", "".join(chars))
    if ch == "-" or ch.isdigit():
        cur.skip_ws()
        start = cur.pos
        if cur.text[cur.pos] == "-":
            cur.pos += 1
        while cur.pos < len(cur.text) and cur.text[cur.pos].isdigit():
            cur.pos += 1
        if cur.pos == start or cur.text[start:cur.pos] == "-":
            raise OrNRAParseError("malformed number", start)
        return Atom("int", int(cur.text[start : cur.pos]))
    name = cur.identifier()
    if name == "true":
        return boolean(True)
    if name == "false":
        return boolean(False)
    if name == "inl":
        return Variant(0, _parse_value(cur))
    if name == "inr":
        return Variant(1, _parse_value(cur))
    if cur.consume(":"):
        # A user-base atom: base:label or base:123.
        if cur.peek().isdigit() or cur.peek() == "-":
            literal = _parse_value(cur)
            assert isinstance(literal, Atom)
            return Atom(name, literal.value)
        label = cur.identifier()
        return Atom(name, label)
    raise OrNRAParseError(f"unexpected token {name!r} in value", cur.pos)


def _parse_elements(cur: _Cursor, closer: str) -> list[Value]:
    elems: list[Value] = []
    if cur.consume(closer):
        return elems
    while True:
        elems.append(_parse_value(cur))
        if cur.consume(closer):
            return elems
        cur.expect(",")


def parse_value(text: str) -> Value:
    """Parse a value literal in the paper's notation."""
    cur = _Cursor(text)
    value = _parse_value(cur)
    if not cur.at_end():
        raise OrNRAParseError(
            f"trailing input after value: {cur.text[cur.pos:]!r}", cur.pos
        )
    return value


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

_NULLARY: Mapping[str, Callable[[], Morphism]] = {
    "id": Id,
    "pi_1": Proj1,
    "pi_2": Proj2,
    "eq": Eq,
    "eta": SetEta,
    "mu": SetMu,
    "union": SetUnion,
    "rho_1": set_rho1,
    "rho_2": SetRho2,
    "or_eta": OrEta,
    "or_mu": OrMu,
    "or_union": OrUnion,
    "or_rho_1": or_rho1,
    "or_rho_2": OrRho2,
    "alpha": Alpha,
    "ortoset": OrToSet,
    "settoor": SetToOr,
    "inl": InjectLeft,
    "inr": InjectRight,
    "or_kappa_1": OrKappa1,
    "or_kappa_2": OrKappa2,
    "b_eta": BagEta,
    "b_mu": BagMu,
    "b_union": BagUnion,
    "b_rho_2": BagRho2,
    "monus": BagMonus,
    "b_max": BagMaxUnion,
    "b_min": BagMinIntersect,
    "unique": BagUnique,
    "count": BagCount,
    "mult": BagMultiplicity,
    "alpha_d": AlphaD,
    "bagtoset": BagToSet,
    "settobag": SetToBag,
}

_UNARY: Mapping[str, Callable[[Morphism], Morphism]] = {
    "map": SetMap,
    "ormap": OrMap,
    "dmap": DMap,
}


def _parse_morphism(cur: _Cursor, env: Mapping[str, Morphism]) -> Morphism:
    left = _parse_term(cur, env)
    # Composition: `f o g` — parse iteratively (associative).
    while True:
        save = cur.pos
        cur.skip_ws()
        if cur.text.startswith("o", cur.pos) and not (
            cur.pos + 1 < len(cur.text)
            and (cur.text[cur.pos + 1].isalnum() or cur.text[cur.pos + 1] == "_")
        ):
            cur.pos += 1
            right = _parse_term(cur, env)
            left = Compose(left, right)
        else:
            cur.pos = save
            return left


def _parse_term(cur: _Cursor, env: Mapping[str, Morphism]) -> Morphism:
    ch = cur.peek()
    if ch == "(":
        cur.expect("(")
        first = _parse_morphism(cur, env)
        if cur.consume(","):
            second = _parse_morphism(cur, env)
            cur.expect(")")
            return PairOf(first, second)
        cur.expect(")")
        return first
    if ch == "!":
        cur.expect("!")
        return Bang()
    if ch == "=":
        cur.expect("=")
        return Eq()
    name = cur.identifier()
    if name == "K":
        if cur.consume("{"):
            cur.expect("}")
            return KEmptySet()
        if cur.consume("<"):
            cur.expect(">")
            return KEmptyOrSet()
        if cur.consume("[|"):
            cur.expect("|]")
            return KEmptyBag()
        cur.expect("(")
        value = _parse_value(cur)
        cur.expect(")")
        return Const(value)
    if name == "cond":
        cur.expect("(")
        pred = _parse_morphism(cur, env)
        cur.expect(",")
        then = _parse_morphism(cur, env)
        cur.expect(",")
        orelse = _parse_morphism(cur, env)
        cur.expect(")")
        return Cond(pred, then, orelse)
    if name == "case":
        cur.expect("(")
        on_left = _parse_morphism(cur, env)
        cur.expect(",")
        on_right = _parse_morphism(cur, env)
        cur.expect(")")
        return Case(on_left, on_right)
    if name in _UNARY:
        cur.expect("(")
        body = _parse_morphism(cur, env)
        cur.expect(")")
        return _UNARY[name](body)
    if name in _NULLARY:
        return _NULLARY[name]()
    if name == "normalize":
        from repro.core.normalize import Normalize

        return Normalize()
    if name == "powerset":
        from repro.core.powerset import Powerset

        return Powerset()
    if name in env:
        return env[name]
    raise OrNRAParseError(f"unknown morphism {name!r}", cur.pos)


def parse_morphism(
    text: str, env: Mapping[str, Morphism] | None = None
) -> Morphism:
    """Parse a morphism expression; *env* supplies named primitives."""
    cur = _Cursor(text)
    morphism = _parse_morphism(cur, env or {})
    if not cur.at_end():
        raise OrNRAParseError(
            f"trailing input after morphism: {cur.text[cur.pos:]!r}", cur.pos
        )
    return morphism
