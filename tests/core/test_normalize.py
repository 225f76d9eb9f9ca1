"""Tests for normalization — Theorem 4.2 (Coherence) and the Section 4
worked example."""

import random

import pytest
from hypothesis import given, settings

from repro.errors import OrNRATypeError
from repro.types.kinds import contains_orset
from repro.types.parse import parse_type
from repro.types.rewrite import (
    innermost_strategy,
    nf_type,
    outermost_strategy,
    random_strategy,
)
from repro.values.values import check_type, vorset, vpair, vset

from repro.core.normalize import (
    Normalize,
    coherence_witness,
    conceptual_eq,
    normalize,
    normalize_with_strategy,
    normalize_with_trace,
    possibilities,
)
from repro.lang.parser import parse_value

from tests.strategies import typed_orset_values, typed_values


class TestSection4Example:
    """x = ({<1,2>, <3>}, <1,2>) : {<int>} * <int> — the worked example."""

    X = parse_value("({<1, 2>, <3>}, <1, 2>)")
    T = parse_type("{<int>} * <int>")
    EXPECTED = parse_value(
        "<({1, 3}, 1), ({1, 3}, 2), ({2, 3}, 1), ({2, 3}, 2)>"
    )

    def test_normal_form(self):
        assert normalize(self.X, self.T) == self.EXPECTED

    def test_both_paper_strategies(self):
        # The paper normalizes this object along two different strategies
        # and gets the same result; so do we (innermost vs outermost).
        inner = normalize_with_strategy(self.X, self.T, innermost_strategy)
        outer = normalize_with_strategy(self.X, self.T, outermost_strategy)
        assert inner == outer == self.EXPECTED

    def test_result_type(self):
        assert check_type(normalize(self.X, self.T), nf_type(self.T))


class TestDuplicateSubtlety:
    """Section 4's reason for multisets: objects whose rewriting creates
    equal or-sets inside a set must not collapse them."""

    def test_equal_orsets_created_mid_rewrite(self):
        # {(1, <a, b>), (2, <a, b>)} : {int * <int>}.  Rewriting the inner
        # pairs gives {<(1,a),(1,b)>, <(2,a),(2,b)>} — fine; but
        # {(<a,b>, <a,b>)}-style objects can produce *equal* or-sets.
        # Build {<a,b> via two routes}: {(1,<5,6>), (2,<5,6>)} then drop the
        # tag with map... directly test the canonical example instead:
        # [| <a,b>, <a,b> |] arises from {(<5,6>, <5,6>)}.
        x = vset(vpair(vorset(5, 6), vorset(5, 6)))
        t = parse_type("{<int> * <int>}")
        out = normalize(x, t)
        # Conceptually: a one-element set of pairs, each component 5 or 6.
        expected_elems = {
            vset(vpair(a, b)) for a in (5, 6) for b in (5, 6)
        }
        assert set(out.elems) == expected_elems

    def test_mixed_choice_preserved(self):
        # The set {<1,2>} (duplicates collapsed at source) has worlds {1},{2};
        # but the *pair* (<1,2>, <1,2>) keeps both choices independent.
        x = vpair(vorset(1, 2), vorset(1, 2))
        out = normalize(x, parse_type("<int> * <int>"))
        assert len(out) == 4


class TestEmptyOrSets:
    def test_empty_orset_normalizes_to_inconsistency(self):
        x = vset(vorset(1), vorset())
        assert normalize(x, parse_type("{<int>}")) == vorset()

    def test_empty_set_is_consistent(self):
        assert normalize(vset(), parse_type("{<int>}")) == vorset(vset())

    def test_pair_with_inconsistency(self):
        x = vpair(1, vorset())
        assert normalize(x, parse_type("int * <int>")) == vorset()


class TestCoherence:
    @given(typed_orset_values(max_depth=3, max_width=2))
    @settings(max_examples=60, deadline=None)
    def test_random_strategies_agree(self, pair):
        value, t = pair
        results = coherence_witness(value, t, samples=6)
        assert len(results) == 1

    @given(typed_orset_values(max_depth=3, max_width=2))
    @settings(max_examples=40, deadline=None)
    def test_trace_replay_matches(self, pair):
        value, t = pair
        result, trace = normalize_with_trace(value, t)
        again, _ = normalize_with_trace(value, t)
        assert result == again

    def test_seeded_strategies_on_paper_object(self):
        x = TestSection4Example.X
        t = TestSection4Example.T
        results = {
            normalize_with_strategy(x, t, random_strategy(random.Random(seed)))
            for seed in range(25)
        }
        assert results == {TestSection4Example.EXPECTED}


class TestTypeConformance:
    @given(typed_values(max_depth=3, max_width=2))
    @settings(max_examples=60, deadline=None)
    def test_normal_form_inhabits_nf_type(self, pair):
        value, t = pair
        assert check_type(normalize(value, t), nf_type(t))

    @given(typed_values(max_depth=3, max_width=2))
    @settings(max_examples=60, deadline=None)
    def test_orset_free_objects_are_fixed_points(self, pair):
        value, t = pair
        if not contains_orset(t):
            assert normalize(value, t) == value


class TestIllTypedInput:
    """A value outside its declared type raises on both paths, instead of
    normalizing to a value outside ``nf(t)``."""

    @pytest.mark.parametrize(
        "text, declared",
        [("<1>", "int"), ('{<"a">}', "{<int>}"), ("(<1, 2>, 3)", "<int> * string")],
    )
    def test_declared_type_is_checked(self, text, declared):
        x, t = parse_value(text), parse_type(declared)
        with pytest.raises(OrNRATypeError):
            normalize(x, t)
        with pytest.raises(OrNRATypeError):
            normalize_with_strategy(x, t, innermost_strategy)
        with pytest.raises(OrNRATypeError):
            Normalize(t).apply(x)


class TestPossibilities:
    def test_possibilities_wrap(self):
        assert possibilities(vset(1, 2)) == (vset(1, 2),)

    def test_possibilities_of_orset(self):
        assert set(possibilities(vorset(1, 2))) == {
            parse_value("1"),
            parse_value("2"),
        }

    def test_inconsistent_has_none(self):
        assert possibilities(vpair(1, vorset())) == ()

    def test_conceptual_eq(self):
        # <<1>> and <1> are conceptually the same number.
        assert conceptual_eq(vorset(vorset(1)), vorset(1))
        assert not conceptual_eq(vorset(1), vorset(2))


class TestNormalizeMorphism:
    def test_apply_infers_type(self):
        n = Normalize()
        assert n(vset(vorset(1), vorset(2))) == vorset(vset(1, 2))

    def test_output_type(self):
        n = Normalize(parse_type("{<int>}"))
        assert n.output_type(parse_type("{<int>}")) == parse_type("<{int}>")

    def test_composition_with_queries(self):
        from repro.lang.stdlib import or_select
        from repro.lang.primitives import predicate
        from repro.types.kinds import SetType, INT

        small = predicate(
            "small", lambda v: all(e.value < 3 for e in v.elems), SetType(INT)
        )
        q = or_select(small) @ Normalize()
        out = q(vset(vorset(1, 5), vorset(2)))
        assert out == vorset(vset(1, 2))

    def test_untyped_signature_raises(self):
        from repro.types.unify import FreshVars

        with pytest.raises(OrNRATypeError):
            Normalize().signature(FreshVars())
