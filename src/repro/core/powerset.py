"""Proposition 2.1: ``alpha`` and ``powerset`` are interdefinable.

``NRA(ortoset, settoor, alpha) == NRA(ortoset, settoor, powerset)``.

Direction 1 (powerset from alpha) is the paper's one-liner, with one
correction: composing ``ortoset o alpha o map(or_U o (or_eta o K{} o !,
or_eta o eta))`` produces a set of *sets of singletons-or-empties*; a final
``map(mu)`` is needed to flatten each choice into the subset it denotes.
:func:`powerset_from_alpha` builds exactly that corrected composition out
of genuine or-NRA morphisms.

Direction 2 (alpha from powerset) is given in the paper as a proof sketch
whose stated membership criterion — "cardinality at most ``|X|`` and
non-empty intersection with every member" — admits false positives: for
``X = {<1,2>, <3>, <3,4>}`` the set ``{1,2,3}`` meets both conditions but
is not a choice image (no choice function can produce both 1 and 2).
:func:`alpha_via_powerset` therefore implements the *choice-relation*
construction instead: enumerate (via ``powerset``) all subsets of the
membership relation ``{(O, e) | O ∈ X, e ∈ O}``, keep those that are
graphs of total choice functions on ``X``, and take their element images.
Every step (flatten/pairing/selection/equality/totality test) is
NRA(``powerset``)-definable by the results of Buneman–Naqvi–Tannen–Wong
cited in the proof, so definability is preserved.  The counterexample is
a regression test (``tests/core/test_powerset.py``) and a benchmark row
(``benchmarks/bench_powerset_equivalence.py``).
"""

from __future__ import annotations

from itertools import chain, combinations

from repro.errors import OrNRATypeError
from repro.types.kinds import FuncType, SetType
from repro.types.unify import FreshVars
from repro.values.values import OrSetValue, Pair, SetValue, Value

from repro.lang.morphisms import Bang, Compose, Morphism, PairOf
from repro.lang.orset_ops import OrEta, OrToSet, OrUnion, Alpha
from repro.lang.set_ops import KEmptySet, SetEta, SetMap, SetMu

__all__ = ["Powerset", "powerset", "powerset_from_alpha", "alpha_via_powerset"]


class Powerset(Morphism):
    """The Abiteboul–Beeri primitive ``powerset : {t} -> {{t}}``."""

    def apply(self, value: Value) -> Value:
        if not isinstance(value, SetValue):
            raise OrNRATypeError(f"powerset expects a set, got {value!r}")
        elems = value.elems
        subsets = chain.from_iterable(
            combinations(elems, k) for k in range(len(elems) + 1)
        )
        return SetValue(SetValue(s) for s in subsets)

    def signature(self, fresh: FreshVars) -> FuncType:
        a = fresh.fresh()
        return FuncType(SetType(a), SetType(SetType(a)))

    def describe(self) -> str:
        return "powerset"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Powerset)

    def __hash__(self) -> int:
        return hash("Powerset")


def powerset() -> Powerset:
    """The ``powerset`` primitive."""
    return Powerset()


def powerset_from_alpha() -> Morphism:
    """``powerset`` defined from ``alpha`` (Proposition 2.1, direction 1).

    ``map(mu) o ortoset o alpha o map(or_U o (or_eta o K{} o !, or_eta o eta))``

    Each element ``x`` is replaced by the two-way choice ``<{}, {x}>``;
    ``alpha`` enumerates all combinations; each combination is a set of
    singletons/empties whose union (``mu``) is one subset.
    """
    two_way = Compose(
        OrUnion(),
        PairOf(
            Compose(OrEta(), Compose(KEmptySet(), Bang())),
            Compose(OrEta(), SetEta()),
        ),
    )
    return Compose(
        SetMap(SetMu()),
        Compose(OrToSet(), Compose(Alpha(), SetMap(two_way))),
    )


def alpha_via_powerset(value: Value) -> Value:
    """``alpha`` computed using only NRA(``powerset``)-definable steps
    (Proposition 2.1, direction 2, corrected — see module docstring).

    Input: a set of or-sets.  Output: the or-set of all choice images.
    """
    if not isinstance(value, SetValue):
        raise OrNRATypeError(f"alpha expects a set of or-sets, got {value!r}")
    members = []
    for member in value.elems:
        if not isinstance(member, OrSetValue):
            raise OrNRATypeError(f"alpha expects or-set members, got {member!r}")
        members.append(member)
    if any(not m.elems for m in members):
        return OrSetValue(())

    # Membership relation {(O, e)} — definable as mu o map(rho_2 o (id, ortoset)).
    membership = SetValue(
        Pair(member, e) for member in members for e in member.elems
    )

    # powerset of the membership relation.
    relations = Powerset().apply(membership)

    images: list[Value] = []
    for relation in relations:
        assert isinstance(relation, SetValue)
        pairs = list(relation.elems)
        # Total: every member or-set appears exactly once (functional+total).
        firsts = [p.fst for p in pairs if isinstance(p, Pair)]
        if len(firsts) != len(members):
            continue
        if SetValue(firsts) != SetValue(members):
            continue
        if len(set(firsts)) != len(firsts):
            continue
        images.append(SetValue(p.snd for p in pairs if isinstance(p, Pair)))

    return OrSetValue(images)
