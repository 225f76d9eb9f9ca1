"""The symbolic backend: answer world queries without enumerating worlds.

Every other backend materializes or iterates possible worlds, so the
Section 6 lower bound (``3^(n/3)`` worlds on the tight family) is a wall
for all of them — streaming short-circuits the *first* witness but
counting, certainty and emptiness still touch every world.  This backend
goes around the wall in two steps:

1. **trace** — :func:`trace_worlds` walks the plan's spine carrying a
   *surrogate* value whose world set provably equals the world set of
   the program's output.  Cheap structural steps (coercions, flattens,
   etas) run for real; expansion steps are *skipped*, because they are
   world-set-preserving: Theorem 4.2 (coherence) gives
   ``worlds(normalize(x)) = worlds(x)``, the same argument covers
   ``alpha`` and ``ormap(normalize)``, and skipping them is exactly what
   makes the surrogate linear-sized where the output is exponential.
   A skipped ``normalize`` still makes eager's type check.
2. **recurse** — :class:`ChoiceSpace` answers the queries by structural
   recursion over the surrogate.  Or-NRA values are trees, so the worlds
   of a pair, set or bag are the product of its components' worlds and
   the worlds of an or-set the union of its branches' worlds (the
   possible-worlds reading behind Theorem 4.2):

   * ``exists`` — every component has a world, and every or-set on the
     way has a branch that does;
   * ``count_worlds`` — Prop. 6.1's recursion, a sum over or-set
     branches and a product over components wherever the siblings'
     world sets are provably disjoint; a node whose siblings may share
     a world deduplicates its own worlds, so the count is always exact;
   * ``possible`` — the union of a collection's members' worlds;
   * ``certain`` — the members' worlds that are their member's only
     world, decided by structure (members choose independently, so
     nothing else is in every world).

   Where worlds are enumerated at all — a member's, a colliding node's,
   or the value's own for ``possibilities`` — they come from the one
   world stream, :mod:`repro.core.lazy`, one deadline checkpoint each.

Unsupported plans fall back to the eager enumeration path, so every
query stays conformant with every other backend on every program, while
supported queries at ``>=10^9`` estimated worlds finish in milliseconds.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Iterable, Iterator

from repro.core.lazy import has_world, iter_possibilities
from repro.core.normalize import Normalize, checked_type
from repro.errors import OrNRAValueError
from repro.lang.orset_ops import Alpha, OrMap
from repro.types.kinds import Type, contains_bag
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

from repro.engine.analysis import CHEAP_REAL_OPS, plan_facts
from repro.engine.backends import BACKENDS, Backend, EagerBackend, _not_a_collection
from repro.engine.deadline import checkpoint
from repro.engine.plan import Plan

__all__ = [
    "SymbolicBackend",
    "SymbolicUnsupported",
    "ChoiceSpace",
    "trace_worlds",
    "plan_supports_symbolic",
]


class SymbolicUnsupported(Exception):
    """This (plan, value) has no world-preserving symbolic trace."""


# -- the spine trace ---------------------------------------------------------

def _spine_steps(plan: Plan) -> list[int]:
    top = plan.nodes[plan.root]
    return list(top.kids) if top.op == "chain" else [plan.root]


def plan_supports_symbolic(plan: Plan) -> bool:
    """Can :func:`trace_worlds` possibly handle *plan*?  (Kind mismatches
    are only discovered against a concrete value, and fall back then.)
    An adapter over :func:`repro.engine.analysis.plan_facts` — the
    backend selector asks per call, and reads the memoized record."""
    return plan_facts(plan).symbolic_ok


def trace_worlds(plan: Plan, value: Value) -> Value:
    """A surrogate value with ``worlds(surrogate) == worlds(run(plan, value))``.

    Walks the top-level spine.  While the carried value is the true
    intermediate, cheap structural ops run for real.  The first skipped
    expansion step (``normalize`` / ``alpha`` / ``ormap(normalize)``)
    makes the carried value *virtual*: still world-equivalent, no longer
    structurally the intermediate — from there only further
    world-preserving steps are allowed.  Anything else raises
    :exc:`SymbolicUnsupported` and the caller falls back to eager.

    A skipped ``normalize`` checks what eager's would: the carried value,
    or each branch under ``ormap(normalize)``, against the declared or
    the inferred type, raising the same error.  Later skipped steps see
    no intermediate to check, so they are allowed only where it is a
    normal form (after a spine ``normalize``), which passes every check
    but a declared type's.

    ``normalize`` also collapses bags into sets, so its output's worlds
    are the *set-collapsed* worlds of its input; a skipped ``normalize``
    or ``ormap(normalize)`` over a value holding a bag is refused too.
    (Collapsing the surrogate would merge equal bag members, which are
    independent choices.)
    """
    current = value
    virtual = False
    normal = False  # the first skipped step was a spine ``normalize``
    for idx in _spine_steps(plan):
        node = plan.nodes[idx]
        if node.op == "id":
            continue
        src = node.source
        if node.op == "leaf" and isinstance(src, CHEAP_REAL_OPS):
            # Linear structural steps run for real while the carried
            # value is the intermediate, raising what eager would raise.
            if virtual:
                raise SymbolicUnsupported(
                    "structural op after a skipped expansion step"
                )
            current = src.apply(current)
            continue
        if node.op == "leaf" and isinstance(src, Alpha):
            # alpha : {<s>} -> <{s}> enumerates component-wise choices —
            # precisely worlds() restricted one level, so the world set
            # of the output equals the world set of the input set.
            if virtual or not (
                isinstance(current, SetValue)
                and all(isinstance(e, OrSetValue) for e in current.elems)
            ):
                raise SymbolicUnsupported("alpha over a non-{<s>} value")
            virtual = True
            continue
        if node.op == "leaf" and isinstance(src, Normalize):
            # Theorem 4.2: worlds(normalize(x)) == worlds(x).  Skip.
            leaves: list[Normalize] = [src]
            inputs: tuple[Value, ...] = (current,)
        elif (
            node.op == "map"
            and isinstance(src, OrMap)
            and plan_facts(plan).node_facts[node.kids[0]].world_preserving
        ):
            # <x_1,...> -> <normalize(x_1),...>: the union of the
            # members' world sets is unchanged member by member.
            if not isinstance(current, OrSetValue):
                raise SymbolicUnsupported("ormap over a non-or-set")
            leaves, inputs = _normalizes(plan, node.kids[0]), current.elems
            if not leaves:
                continue  # ormap(id) over an or-set is the identity
        else:
            raise SymbolicUnsupported(f"unsupported spine step {node.op}")
        if not virtual:
            for x in inputs:
                _check_skipped(x, leaves[0].input_type)
            virtual, normal = True, node.op == "leaf"
            leaves = leaves[1:]  # these run on normal forms
        elif not normal:
            raise SymbolicUnsupported("a skipped step over a skipped ormap or alpha")
        if any(leaf.input_type is not None for leaf in leaves):
            raise SymbolicUnsupported("a declared type over a skipped normal form")
    return current


def _normalizes(plan: Plan, idx: int) -> list[Normalize]:
    """The ``normalize`` leaves of a world-preserving map body, in order."""
    node = plan.nodes[idx]
    if node.op == "chain":
        return [leaf for kid in node.kids for leaf in _normalizes(plan, kid)]
    return [node.source] if isinstance(node.source, Normalize) else []


def _check_skipped(value: Value, declared: Type | None) -> None:
    """Raise what eager ``normalize`` raises on an ill-typed *value*, and
    refuse to skip it over a bag."""
    inhabited = checked_type(value, declared)
    # An inferred type shows every bag; a declared one may hide a bag
    # under a type variable.
    bag = contains_bag(inhabited) if declared is None else _has_bag(value)
    if bag:
        raise SymbolicUnsupported("normalize collapses bags")


def _has_bag(v: Value) -> bool:
    if isinstance(v, BagValue):
        return True
    if isinstance(v, (SetValue, OrSetValue)):
        return any(_has_bag(e) for e in v.elems)
    if isinstance(v, Pair):
        return _has_bag(v.fst) or _has_bag(v.snd)
    if isinstance(v, Variant):
        return _has_bag(v.payload)
    return False


# -- the choice space --------------------------------------------------------


class ChoiceSpace:
    """The world structure of one traced value, queried by recursion.

    Or-NRA values are trees, so choices in different components are
    independent: an atom or unit is its own world, the worlds of a pair,
    set or bag pick one world per component, a variant's are its
    payload's, and an or-set's are the union of its branches' worlds
    (``< >`` has none).  Every query recurses over that structure.  Only
    ``iter_worlds`` enumerates the value's worlds, through the one world
    stream of :mod:`repro.core.lazy`; ``certain_members`` and
    ``possible_members`` read single members' worlds, and
    ``satisfiable`` enumerates none.

    ``count_worlds`` sums or multiplies its children's counts wherever
    the siblings' world sets are provably disjoint, so no two choices
    meet in one world; a node whose siblings may share a world (branches
    sharing atoms, say) deduplicates its own worlds, and only its own.
    """

    def __init__(self, value: Value) -> None:
        self.value = value

    def satisfiable(self) -> bool:
        return has_world(self.value)

    def iter_worlds(self) -> Iterator[Value]:
        """Distinct worlds, lazily, with a deadline checkpoint per world."""
        return iter_possibilities(self.value)

    def count_worlds(self) -> int:
        """Exact ``|worlds(value)|`` — Prop. 6.1's recursion, sums over
        or-set branches and products over components, with a
        deduplicating count at each node whose siblings may collide."""
        return _count(self.value)[0]

    def certain_members(self) -> frozenset[Value]:
        """Elements present in *every* world."""
        if not self.satisfiable():
            raise OrNRAValueError("certain() of an inconsistent value (no worlds)")
        return frozenset(_certain(self.value))

    def possible_members(self) -> frozenset[Value]:
        """Elements present in *some* world."""
        if not self.satisfiable():
            raise OrNRAValueError("possible() of an inconsistent value (no worlds)")
        return frozenset(_possible(self.value))


#: What :func:`_count` returns: ``(worlds, grounded, fixed, support)``.
_Facts = tuple[int, bool, bool, frozenset[Value]]


def _count(v: Value) -> _Facts:
    """The number of distinct worlds of *v*, and the facts that tell
    whether siblings collide: *grounded* — every world contains an atom;
    *fixed* — *v* is choice-free (its own only world, or none for
    ``< >``); *support* — the atoms occurring anywhere below.

    Where :func:`_pairwise_ok` proves the children's world sets
    disjoint, an or-set sums and a set or bag multiplies their counts,
    as each world then tells which child's world it holds.  Elsewhere
    that one node deduplicates.
    """
    if isinstance(v, Atom):
        return 1, True, True, frozenset((v,))
    if isinstance(v, UnitValue):
        return 1, False, True, frozenset()
    if isinstance(v, Pair):
        na, ga, fa, sa = _count(v.fst)
        nb, gb, fb, sb = _count(v.snd)
        return na * nb, ga or gb, fa and fb, sa | sb
    if isinstance(v, Variant):
        return _count(v.payload)
    if not isinstance(v, (OrSetValue, SetValue, BagValue)):
        raise OrNRAValueError(f"not a value: {v!r}")
    parts = [_count(e) for e in v.elems]
    support: frozenset[Value] = frozenset().union(*(p[3] for p in parts))
    if isinstance(v, OrSetValue):
        grounded, fixed = all(p[1] for p in parts), not parts
    else:
        grounded, fixed = any(p[1] for p in parts), all(p[2] for p in parts)
    if _pairwise_ok(parts):
        counts = [p[0] for p in parts]
        n = sum(counts) if isinstance(v, OrSetValue) else prod(counts)
    elif isinstance(v, SetValue):
        n = len(_set_worlds(v, {}))
    elif isinstance(v, OrSetValue) and all(isinstance(b, SetValue) for b in v.elems):
        # Folding each set branch spares the odometer's choice vectors.
        index: dict[Value, int] = {}
        n = len(set().union(*(_set_worlds(b, index) for b in v.elems)))
    else:
        n = sum(1 for _ in iter_possibilities(v))
    return n, grounded, fixed, support


def _pairwise_ok(parts: list[_Facts]) -> bool:
    """Can no two siblings share a world?  Two fixed siblings cannot: a
    fixed value is its own only world (or has none), and a set's or
    or-set's members are distinct (a bag's equal fixed members have one
    world between them).  Otherwise disjoint supports, with at most one
    sibling that can have an atom-free world, rule a shared world out.
    Conservative: ``False`` only costs a deduplicating count.

    Linear in the supports: each atom, and ``None`` for an atom-free
    world, maps to whether every sibling seen holding it is fixed."""
    held: dict[Value | None, bool] = {}
    for _, grounded, fixed, support in parts:
        for key in support if grounded else (*support, None):
            if key in held and not (held[key] and fixed):
                return False
            held[key] = fixed
    return True


def _set_worlds(v: SetValue, index: dict[Value, int]) -> set[frozenset[int]]:
    """The distinct worlds of a set, each as the frozenset of its
    elements' numbers in *index*, folded as the normal-form kernel folds
    them: one-world members are in every world, and the others' worlds
    fold into choice sets, which merge as soon as they collide."""
    ones: set[int] = set()
    choices: set[frozenset[int]] = {frozenset()}
    for member in v.elems:
        checkpoint("symbolic world count")
        picks = [index.setdefault(w, len(index)) for w in iter_possibilities(member)]
        if not picks:
            return set()
        if len(picks) == 1:
            ones.add(picks[0])
        else:
            singles = [frozenset((p,)) for p in picks]
            choices = {c | p for c in choices for p in singles}
    return {c | ones for c in choices}


def _member_worlds(v: Value) -> Iterable[Value]:
    """The distinct worlds of *v*: a colliding set's from the fold that
    counts them, anything else's from the world stream."""
    if isinstance(v, SetValue) and not _pairwise_ok([_count(e) for e in v.elems]):
        index: dict[Value, int] = {}
        choices = _set_worlds(v, index)
        elems = list(index)
        return [SetValue(elems[i] for i in choice) for choice in choices]
    return iter_possibilities(v)


def _only_world(v: Value) -> Value | None:
    """The world of *v*, which has at least one, if it has no other.

    Decided by structure, without counting: a set has exactly one world
    iff every world of each member with two or more is the only world of
    some one-world member; an or-set iff its live branches share one
    world; a pair, variant or bag iff each of its components has one.
    """
    if isinstance(v, OrSetValue):
        worlds = {_only_world(branch) for branch in v.elems if has_world(branch)}
        return worlds.pop() if len(worlds) == 1 else None
    if isinstance(v, SetValue):
        only = [_only_world(member) for member in v.elems]
        ones = {w for w in only if w is not None}
        several = (m for m, w in zip(v.elems, only) if w is None)
        if all(w in ones for m in several for w in iter_possibilities(m)):
            return SetValue(ones)
        return None
    if isinstance(v, Pair):
        fst, snd = _only_world(v.fst), _only_world(v.snd)
        return None if fst is None or snd is None else Pair(fst, snd)
    if isinstance(v, Variant):
        payload = _only_world(v.payload)
        return None if payload is None else Variant(v.side, payload)
    if isinstance(v, BagValue):
        worlds = [_only_world(member) for member in v.elems]
        return None if any(w is None for w in worlds) else BagValue(worlds)
    return v  # atoms and unit


def _certain(v: Value) -> set[Value]:
    """Elements of every world of *v*, which has at least one world."""
    if isinstance(v, OrSetValue):
        live = (branch for branch in v.elems if has_world(branch))
        result = _certain(next(live))
        for branch in live:
            if not result:
                break
            result &= _certain(branch)
        return result
    if isinstance(v, (SetValue, BagValue)):
        # Members choose independently, so an element is in every world
        # iff it is some member's only world: otherwise every member can
        # pick a world other than it.
        certain: set[Value] = set()
        for member in v.elems:
            checkpoint("symbolic certain")
            world = _only_world(member)
            if world is not None:
                certain.add(world)
        return certain
    # Atoms, units, pairs and variants have no collection worlds.
    raise _not_a_collection(next(iter_possibilities(v)))


def _possible(v: Value) -> set[Value]:
    """Elements of some world of *v*, which has at least one world."""
    if isinstance(v, OrSetValue):
        return set().union(*(_possible(b) for b in v.elems if has_world(b)))
    if isinstance(v, (SetValue, BagValue)):
        return {w for member in v.elems for w in _member_worlds(member)}
    raise _not_a_collection(next(iter_possibilities(v)))


# -- the backend -------------------------------------------------------------


class SymbolicBackend(Backend):
    """Closed-form world queries over the traced value.

    ``execute`` delegates to eager — a symbolic representation has
    nothing to add when the caller wants the materialized output value,
    and delegation keeps the backend conformant on arbitrary programs.
    The wins are the world-query methods: ``possibilities`` (lazy
    distinct worlds of the traced value), :meth:`count_worlds`,
    :meth:`exists`, :meth:`certain` and :meth:`possible`, all answered
    by the :class:`ChoiceSpace` recursion when the trace supports the
    plan and by eager's enumeration when it does not.
    """

    name = "symbolic"

    def __init__(self) -> None:
        self._eager = EagerBackend()

    def execute(self, plan: Plan, value: Value) -> Value:
        return self._eager.execute(plan, value)

    def space(self, plan: Plan, value: Value) -> ChoiceSpace | None:
        """The traced value's choice space, or ``None`` when unsupported."""
        try:
            return ChoiceSpace(trace_worlds(plan, value))
        except SymbolicUnsupported:
            return None

    def possibilities(self, plan: Plan, value: Value) -> Iterator[Value]:
        space = self.space(plan, value)
        if space is None:
            return self._eager.possibilities(plan, value)
        return space.iter_worlds()

    # -- world queries -------------------------------------------------------

    def count_worlds(self, plan: Plan, value: Value) -> int:
        space = self.space(plan, value)
        if space is None:
            return self._eager.count_worlds(plan, value)
        return space.count_worlds()

    def exists(
        self,
        plan: Plan,
        value: Value,
        predicate: Callable[[Value], bool] | None = None,
    ) -> bool:
        if predicate is not None:
            # A predicate reads worlds: stream this backend's own.
            return super().exists(plan, value, predicate)
        space = self.space(plan, value)
        if space is None:
            return self._eager.exists(plan, value)
        return space.satisfiable()

    def certain(self, plan: Plan, value: Value) -> frozenset[Value]:
        space = self.space(plan, value)
        if space is None:
            return self._eager.certain(plan, value)
        return space.certain_members()

    def possible(self, plan: Plan, value: Value) -> frozenset[Value]:
        space = self.space(plan, value)
        if space is None:
            return self._eager.possible(plan, value)
        return space.possible_members()


BACKENDS["symbolic"] = SymbolicBackend()
