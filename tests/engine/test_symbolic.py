"""Tests for the symbolic backend (:mod:`repro.engine.symbolic`).

Three layers of differential evidence:

* :class:`ChoiceSpace` against the possible-worlds oracle
  (:func:`repro.core.worlds.worlds`) on random values with bags,
  variants and empty or-sets — world sets, exact counts, emptiness and
  the certain/possible membership queries, error types included;
* the backend against eager enumeration on random programs and values —
  the same answers to every world query *and* the same error types,
  whether the trace supports the plan or falls back;
* the engine entry points (``count_worlds``/``certain``/``possible``/
  ``exists``) against brute force, including the ``backend="auto"``
  routing that sends supported world queries symbolic.
"""

import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import io
from repro.core.costs import tight_family
from repro.core.normalize import Normalize
from repro.core.worlds import worlds
from repro.engine import BACKENDS, Deadline, Engine, deadline_scope
from repro.engine.plan import compile_plan
from repro.engine.symbolic import (
    ChoiceSpace,
    SymbolicBackend,
    SymbolicUnsupported,
    _pairwise_ok,
    plan_supports_symbolic,
    trace_worlds,
)
from repro.errors import OrNRAError, OrNRATypeError, OrNRAValueError
from repro.gen import random_orset_value
from repro.lang.morphisms import Compose, Id
from repro.lang.orset_ops import Alpha, OrMap, SetToOr
from repro.morphgen import random_lossless_morphism
from repro.types.parse import parse_type
from repro.values.values import (
    BagValue,
    OrSetValue,
    SetValue,
    atom,
    infer_type,
    vorset,
    vpair,
    vset,
)

from tests.strategies import typed_orset_values, typed_values

ENGINE = Engine()

#: Whole-value normalization over the tight family: eager must build
#: all 3^k worlds, the choice space never builds one.
TIGHT_QUERY = Normalize()

#: The identity plan: the traced value is the input itself.
ID_PLAN = compile_plan(Id())

#: Values with bags, variants and empty collections whose type mentions
#: an or-set, so every draw has choices for the backends to disagree on.
WORLD_VALUES = typed_orset_values(
    max_depth=3, max_width=3, min_width=0, variants=True, bags=True
)


def shared_family(members, base=0):
    """Three-way or-sets over ``members + 2`` atoms, so choices collide:
    member i holds atoms i, i + 1 and i + 3 (mod the domain)."""
    domain = members + 2
    return vset(
        *(vorset(*(base + (i + d) % domain for d in (0, 1, 3))) for i in range(members))
    )


def subset_orsets(n):
    """The or-sets over the non-empty subsets of {1..n}: every choice
    lands in the one world {1..n}, though there are many choices."""
    atoms = range(1, n + 1)
    return vset(*(vorset(*c) for r in atoms for c in combinations(atoms, r)))


def certain_of(world_set):
    out = None
    for w in world_set:
        elems = frozenset(w.elems)
        out = elems if out is None else out & elems
    return out


def possible_of(world_set):
    out = set()
    for w in world_set:
        out |= set(w.elems)
    return frozenset(out)


def members_oracle(world_set, combine):
    """certain/possible over an explicit world set, with the typed errors."""
    if not world_set:
        raise OrNRAValueError("no worlds")
    if not all(isinstance(w, (SetValue, BagValue)) for w in world_set):
        raise OrNRATypeError("worlds are not collections")
    return combine(world_set)


def outcome(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the type of the OrNRAError it raised."""
    try:
        return fn(*args, **kwargs)
    except OrNRAError as exc:
        return type(exc)


class TestChoiceSpaceOracle:
    @settings(max_examples=60, deadline=None)
    @given(typed_orset_values(max_depth=3, max_width=3, min_width=0))
    def test_world_set_matches_oracle(self, pair):
        value, _t = pair
        truth = frozenset(worlds(value))
        assert frozenset(ChoiceSpace(value).iter_worlds()) == truth

    @settings(max_examples=150, deadline=None)
    @given(typed_values(max_depth=4, max_width=3, min_width=0, variants=True, bags=True))
    # A one-world member's world is also a choice of a colliding member.
    @example((vset(vorset(1), vorset(1, 2), vorset(2, 3)), parse_type("{<int>}")))
    # Atom-free worlds: both sets can be {{}}, so the branches collide.
    @example(
        (vorset(vset(vset()), vset(vorset(vset(), vset(1)))), parse_type("<{{int}}>"))
    )
    # Members whose choices all collapse into one world.
    @example((vset(subset_orsets(3)), parse_type("{{<int>}}")))
    def test_every_query_matches_oracle(self, pair):
        value, _t = pair
        world_set = worlds(value)
        space = ChoiceSpace(value)
        listed = list(space.iter_worlds())
        assert len(listed) == len(world_set)
        assert frozenset(listed) == world_set
        assert space.satisfiable() == bool(world_set)
        assert space.count_worlds() == len(world_set)
        assert outcome(space.certain_members) == outcome(
            members_oracle, world_set, certain_of
        )
        assert outcome(space.possible_members) == outcome(
            members_oracle, world_set, possible_of
        )

    @settings(max_examples=60, deadline=None)
    @given(typed_orset_values(max_depth=3, max_width=3, min_width=0))
    def test_count_matches_oracle(self, pair):
        value, _t = pair
        assert SymbolicBackend().count_worlds(ID_PLAN, value) == len(worlds(value))

    def test_exact_count_without_enumeration(self):
        x, _t = tight_family(19)
        assert ChoiceSpace(x).count_worlds() == 3**19  # > 10^9, milliseconds

    def test_wide_orsite_stays_linear(self):
        # One 500-branch or-site counts by one sum over its branches.
        assert ChoiceSpace(vorset(*range(500))).count_worlds() == 500

    def test_nested_sites_under_canonical_branch_do_not_overcount(self):
        # A choice nested beneath an unchosen branch is irrelevant and
        # must not multiply the count (this value has 5 worlds, not 6).
        v = vorset(vorset(vorset(1, 2), vorset(3, 4)), 5)
        assert ChoiceSpace(v).count_worlds() == len(worlds(v)) == 5

    def test_collision_value_counts_exactly(self):
        # <1,2>,<2,3>,<1,3> collapse 8 choice vectors into 4 worlds; the
        # set deduplicates its own worlds instead of multiplying.
        v = vset(vorset(1, 2), vorset(2, 3), vorset(1, 3))
        assert ChoiceSpace(v).count_worlds() == len(worlds(v)) == 4
        assert SymbolicBackend().count_worlds(ID_PLAN, v) == len(worlds(v))

    def test_collision_stays_local(self):
        # Only the colliding set deduplicates: the pair multiplies its
        # 67 worlds by the tight family's 3^12 in closed form.
        v = vpair(tight_family(12)[0], shared_family(5))
        with deadline_scope(Deadline.after(2.0)):
            count = Engine().count_worlds(Normalize(), v)
        assert count == 3**12 * 67

    def test_colliding_orset_of_sets_counts_exactly(self):
        # Equal worlds of different set branches count once.
        v = vorset(shared_family(4), shared_family(4, base=1), vset(vorset(1, 2)))
        assert ChoiceSpace(v).count_worlds() == len(worlds(v))

    def test_empty_orset_means_no_worlds(self):
        space = ChoiceSpace(vset(vorset()))
        assert not space.satisfiable()
        assert space.count_worlds() == 0

    @settings(max_examples=40, deadline=None)
    @given(typed_orset_values(max_depth=2, max_width=3, min_width=1))
    def test_membership_queries_match_oracle(self, pair):
        value, _t = pair
        if not isinstance(value, SetValue):
            return
        space = ChoiceSpace(value)
        world_set = list(worlds(value))
        assert space.certain_members() == certain_of(world_set)
        assert space.possible_members() == possible_of(world_set)

    def test_certain_of_inconsistent_value_raises(self):
        with pytest.raises(OrNRAValueError):
            ChoiceSpace(vset(vorset(), vorset(1))).certain_members()


class TestCollapsingMembers:
    """certain and possible over a member with many choices but few worlds."""

    def test_one_world_member_answers_at_once(self):
        # subset_orsets(5) has ~3*10^11 choice vectors and one world.
        with deadline_scope(Deadline.after(1.0)):
            for query in (ENGINE.certain, ENGINE.possible):
                answer = query(Normalize(), vset(subset_orsets(5)))
                assert answer == vset(vset(1, 2, 3, 4, 5))

    def test_certain_does_not_count_a_colliding_member(self):
        # The member's first world settles that it has two; counting its
        # worlds would fold 3^20 choice vectors.
        with deadline_scope(Deadline.after(1.0)):
            assert ENGINE.certain(Normalize(), vset(shared_family(20))) == vset()

    def test_possible_folds_a_colliding_member(self):
        with deadline_scope(Deadline.after(2.0)):
            possible = ENGINE.possible(Normalize(), vset(shared_family(12)))
        assert len(possible.elems) == 4817
        assert ENGINE.count_worlds(Normalize(), shared_family(12)) == 4817


def pairwise_reference(parts):
    """The sibling test's definition, pair by pair: no two siblings that
    are not both fixed share an atom or both lack a grounded world."""
    for i, (_, gi, fi, si) in enumerate(parts):
        for _, gj, fj, sj in parts[i + 1 :]:
            if not (fi and fj) and (si & sj or not (gi or gj)):
                return False
    return True


class TestSiblingTest:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.booleans(),
                st.frozensets(st.integers(0, 5)).map(lambda s: frozenset(map(atom, s))),
            ),
            max_size=6,
        )
    )
    def test_matches_the_pairwise_definition(self, siblings):
        parts = [(1, grounded, fixed, support) for grounded, fixed, support in siblings]
        assert _pairwise_ok(parts) == pairwise_reference(parts)

    def test_wide_node_is_linear(self):
        # 20,000 siblings: pair by pair that is 2*10^8 comparisons.
        started = time.monotonic()
        assert ChoiceSpace(vorset(*range(20_000))).count_worlds() == 20_000
        assert time.monotonic() - started < 2.0


@st.composite
def ill_typed_values(draw):
    """A heterogeneous set, or-set or bag, possibly nested in a
    well-typed context."""
    a, _ = draw(typed_values(max_depth=2, max_width=2, min_width=1))
    b, _ = draw(typed_values(max_depth=2, max_width=2, min_width=1))
    bad = draw(st.sampled_from([SetValue, OrSetValue, BagValue]))((a, b))
    try:
        infer_type(bad)
    except OrNRAValueError:
        pass
    else:
        bad = SetValue((vorset(1, 2), vorset(vset(3))))
    context = draw(
        st.sampled_from(
            [
                lambda v: v,
                lambda v: vset(v),
                lambda v: vorset(v),
                lambda v: vpair(vorset(1, 2), v),
                lambda v: BagValue([v]),
            ]
        )
    )
    return context(bad)


class TestIllTypedInput:
    """A skipped ``normalize`` makes eager's type check, with its error."""

    @settings(max_examples=60, deadline=None)
    @given(ill_typed_values(), st.integers(0, 3))
    @example(vset(vorset(1, 2), vorset(vset(3))), 0)
    def test_errors_match_eager(self, value, which):
        q = TestBackendConformance.QUERIES[which]
        for query in (ENGINE.count_worlds, ENGINE.certain, ENGINE.possible, ENGINE.exists):
            assert outcome(query, q, value, backend="symbolic") == outcome(
                query, q, value, backend="eager"
            ), query

    @pytest.mark.parametrize(
        "program",
        [
            Compose(Normalize(), Compose(OrMap(Normalize()), SetToOr())),
            Compose(Normalize(), Alpha()),
            Compose(Alpha(), Normalize()),
            Compose(OrMap(Normalize(parse_type("{int}"))), Normalize()),
        ],
        ids=["normalize-after-ormap", "normalize-after-alpha", "alpha-after", "declared"],
    )
    def test_later_skips_match_eager(self, program):
        # Past the first skipped step the intermediate is not at hand;
        # the trace refuses where eager's check could fail on it.
        values = [vset(1, vset(2)), vset(vorset(1), vorset(vset(2))), vset(vorset(1, 2))]
        for value in values:
            for query in (ENGINE.count_worlds, ENGINE.certain, ENGINE.possible, ENGINE.exists):
                assert outcome(query, program, value, backend="symbolic") == outcome(
                    query, program, value, backend="eager"
                ), (query, value)


def possibility_set(program, value, **options):
    return frozenset(ENGINE.possibilities(program, value, **options))


#: Every world query the symbolic backend answers, as engine calls.
WORLD_QUERIES = (
    possibility_set,
    ENGINE.count_worlds,
    ENGINE.certain,
    ENGINE.possible,
    ENGINE.exists,
)


class TestBackendConformance:
    QUERIES = [
        Normalize(),
        Compose(OrMap(Normalize()), SetToOr()),
        Compose(Normalize(), SetToOr()),
        Id(),
    ]

    @settings(max_examples=80, deadline=None)
    @given(WORLD_VALUES, st.integers(0, 3))
    def test_world_sets_and_errors_match_eager(self, pair, which):
        value, _t = pair
        q = self.QUERIES[which]
        for query in WORLD_QUERIES:
            assert outcome(query, q, value, backend="symbolic") == outcome(
                query, q, value, backend="eager"
            ), query

    @pytest.mark.parametrize(
        "program",
        [
            Compose(Normalize(), Compose(OrMap(Normalize()), SetToOr())),
            Compose(Normalize(), Alpha()),
            Compose(Alpha(), Normalize()),
            Compose(OrMap(Normalize(parse_type("{int}"))), Normalize()),
        ],
        ids=["normalize-after-ormap", "normalize-after-alpha", "alpha-after", "declared"],
    )
    def test_later_skips_match_eager(self, program):
        # Past the first skipped step the intermediate is not at hand;
        # the trace refuses where eager's check could fail on it.
        values = [vset(1, vset(2)), vset(vorset(1), vorset(vset(2))), vset(vorset(1, 2))]
        for value in values:
            for query in (ENGINE.count_worlds, ENGINE.certain, ENGINE.possible, ENGINE.exists):
                assert outcome(query, program, value, backend="symbolic") == outcome(
                    query, program, value, backend="eager"
                ), (query, value)
        assert isinstance(BACKENDS["symbolic"], SymbolicBackend)

    @settings(max_examples=25, deadline=None)
    @given(
        typed_orset_values(max_depth=3, max_width=2, min_width=1),
        st.integers(0, 100_000),
    )
    def test_random_programs_agree_with_eager(self, pair, seed):
        # Arbitrary programs: the trace usually refuses and the backend
        # must fall back to an eager-conformant answer.
        value, t = pair
        f, _ = random_lossless_morphism(t, random.Random(seed), depth=4)
        expected = frozenset(ENGINE.possibilities(f, value, backend="eager"))
        got = frozenset(ENGINE.possibilities(f, value, backend="symbolic"))
        assert got == expected

    def test_execute_is_eager_conformant(self):
        x, _t = tight_family(5)
        assert ENGINE.run(TIGHT_QUERY, x, backend="symbolic") == ENGINE.run(
            TIGHT_QUERY, x, backend="eager"
        )


class TestEngineWorldQueries:
    @settings(max_examples=40, deadline=None)
    @given(WORLD_VALUES)
    def test_count_matches_brute_force_on_all_routes(self, pair):
        value, _t = pair
        brute = len(set(ENGINE.possibilities(TIGHT_QUERY, value, backend="eager")))
        for backend in ("auto", "symbolic", "eager"):
            assert ENGINE.count_worlds(TIGHT_QUERY, value, backend=backend) == brute

    @settings(max_examples=40, deadline=None)
    @given(WORLD_VALUES)
    def test_certain_and_possible_match_brute_force(self, pair):
        value, _t = pair
        world_set = list(ENGINE.possibilities(TIGHT_QUERY, value, backend="eager"))
        expected_certain = outcome(
            lambda: SetValue(members_oracle(world_set, certain_of))
        )
        expected_possible = outcome(
            lambda: SetValue(members_oracle(world_set, possible_of))
        )
        for backend in ("auto", "symbolic", "eager"):
            assert outcome(
                ENGINE.certain, TIGHT_QUERY, value, backend=backend
            ) == expected_certain
            assert outcome(
                ENGINE.possible, TIGHT_QUERY, value, backend=backend
            ) == expected_possible

    def test_exists_with_and_without_predicate(self):
        v = vset(vorset(1, 2), vorset(2, 3))
        two = ENGINE.run(Normalize(), vorset(2)).elems[0]
        assert ENGINE.exists(TIGHT_QUERY, v)
        assert ENGINE.exists(TIGHT_QUERY, v, lambda w: two in w.elems)
        assert not ENGINE.exists(TIGHT_QUERY, vset(vorset()))

    def test_auto_routes_huge_world_queries_symbolic(self):
        # The acceptance workload: >= 10^9 estimated worlds on a
        # supported spine goes symbolic and answers exactly.
        x, _t = tight_family(19)
        assert 3**19 >= 10**9
        choice = ENGINE.choose_backend(TIGHT_QUERY, x, world_query=True)
        assert choice.backend == "symbolic"
        assert ENGINE.count_worlds(TIGHT_QUERY, x) == 3**19
        assert ENGINE.exists(TIGHT_QUERY, x)
        assert ENGINE.certain(TIGHT_QUERY, x) == SetValue([])

    def test_small_inputs_answers_match_across_routing(self):
        # In-reach sizes: the auto route (symbolic) and the explicit
        # eager route agree on every query.
        for k in (2, 3, 5):
            x, _t = tight_family(k)
            assert ENGINE.choose_backend(
                TIGHT_QUERY, x, world_query=True
            ).backend == "symbolic"
            assert ENGINE.count_worlds(TIGHT_QUERY, x) == len(
                set(ENGINE.possibilities(TIGHT_QUERY, x, backend="eager"))
            )

    def test_first_witness_routing_still_prefers_streaming(self):
        # possibilities() is a first-witness consumer: symbolic only
        # wins when the whole world set is quantified, so the
        # existential route keeps streaming.
        x, _t = tight_family(300)
        q = Compose(OrMap(Normalize()), SetToOr())
        assert ENGINE.choose_backend(q, x, existential=True).backend == "streaming"
        assert ENGINE.choose_backend(
            q, x, existential=True, world_query=True
        ).backend == "symbolic"

    def test_explain_reports_the_symbolic_route(self):
        x, _t = tight_family(19)
        text = ENGINE.explain(TIGHT_QUERY, value=x, existential=True)
        assert "symbolic" in text


#: Nine copies of <1, 2> in one bag.
NINE_CHOICES = "[|" + ", ".join(["<1, 2>"] * 9) + "|]"


class TestTrace:
    def test_supported_plans(self):
        for q in TestBackendConformance.QUERIES:
            assert plan_supports_symbolic(ENGINE.compile(q, True))

    def test_unsupported_plan_refuses(self):
        from repro.lang.set_ops import SetMap

        # optimize=False: the pipeline would rewrite map(id) to id,
        # which *is* supported.
        assert not plan_supports_symbolic(ENGINE.compile(SetMap(Id()), False))

    def test_trace_preserves_world_sets(self):
        rng = random.Random(11)
        q = Compose(OrMap(Normalize()), SetToOr())
        plan = ENGINE.compile(q, True)
        for _ in range(25):
            v, t = random_orset_value(rng, max_depth=2, max_width=3, min_width=1)
            try:
                surrogate = trace_worlds(plan, v)
            except (SymbolicUnsupported, OrNRAError):
                continue
            assert frozenset(worlds(surrogate)) == frozenset(
                ENGINE.possibilities(q, v, backend="eager")
            )

    def test_normalize_over_a_bag_refuses(self):
        # normalize collapses bags into sets, so the input's bag worlds
        # are not the output's worlds.
        plan = ENGINE.compile(Normalize(), True)
        with pytest.raises(SymbolicUnsupported):
            trace_worlds(plan, BagValue([vorset(1, 2)]))
        ormap = ENGINE.compile(Compose(OrMap(Normalize()), SetToOr()), True)
        with pytest.raises(SymbolicUnsupported):
            trace_worlds(ormap, vset(BagValue([vorset(1, 2)])))

    def test_bag_count_matches_run(self):
        # The bag's 10 distinct bag worlds collapse to 3 set worlds.
        normal_form = io.run_text("normalize", NINE_CHOICES)
        assert normal_form == "<{1}, {2}, {1, 2}>"
        assert io.count_worlds_text("normalize", NINE_CHOICES) == 3

    def test_bag_certain_matches_eager(self):
        empty_in_bag = BagValue([BagValue([])])
        eager = ENGINE.certain(Normalize(), empty_in_bag, backend="eager")
        assert eager == vset(vset())
        assert ENGINE.certain(Normalize(), empty_in_bag, backend="symbolic") == eager
