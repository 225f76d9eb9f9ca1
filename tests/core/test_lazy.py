"""Tests for lazy (stream) normalization — the Section 7 optimization."""

import time

import pytest
from hypothesis import given, settings

from repro.engine import Deadline, deadline_scope
from repro.errors import DeadlineExceeded
from repro.values.values import atom, vorset, vpair, vset

from repro.core.costs import tight_family
from repro.core.lazy import (
    exists_lazy,
    find_first,
    forall_lazy,
    iter_possibilities,
    stream_worlds,
    take_possibilities,
)
from repro.core.normalize import possibilities
from repro.core.worlds import iter_worlds

from tests.strategies import typed_orset_values


class TestStreamEquivalence:
    @given(typed_orset_values(max_depth=3, max_width=2))
    @settings(max_examples=60, deadline=None)
    def test_stream_matches_eager(self, pair):
        value, t = pair
        assert set(iter_possibilities(value)) == set(possibilities(value, t))

    @given(typed_orset_values(max_depth=3, max_width=2))
    @settings(max_examples=40, deadline=None)
    def test_stream_has_no_duplicates(self, pair):
        value, _ = pair
        seen = list(iter_possibilities(value))
        assert len(seen) == len(set(seen))


    @given(
        typed_orset_values(max_depth=3, max_width=3, min_width=0, variants=True, bags=True)
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_is_the_oracle_in_order(self, pair):
        # Same worlds, same order, same repeats as the oracle's products.
        value, _ = pair
        assert list(stream_worlds(value)) == list(iter_worlds(value))
        assert list(iter_possibilities(value)) == list(dict.fromkeys(iter_worlds(value)))


class TestLazyBelowSets:
    """A set's member with 3^12 worlds is walked one world at a time."""

    def test_take_returns_at_once(self):
        x, _t = tight_family(12)
        started = time.monotonic()
        with deadline_scope(Deadline.after(1.0)):
            assert len(take_possibilities(vset(x), 1)) == 1
        assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize(
        "walk",
        [
            lambda v: exists_lazy(lambda w: False, v),
            lambda v: forall_lazy(lambda w: True, v),
            lambda v: find_first(lambda w: False, v),
            lambda v: sum(1 for _ in iter_possibilities(v)),
        ],
        ids=["exists_lazy", "forall_lazy", "find_first", "iter_possibilities"],
    )
    def test_helpers_stop_at_the_deadline(self, walk):
        x, _t = tight_family(12)
        started = time.monotonic()
        with deadline_scope(Deadline.after(0.2)):
            with pytest.raises(DeadlineExceeded):
                walk(vset(x))
        assert time.monotonic() - started < 2.0


class TestShortCircuit:
    def test_exists_stops_early(self):
        calls = []

        def pred(v):
            calls.append(v)
            return True

        big = vset(vorset(*range(3)), vorset(*range(3)), vorset(*range(3)))
        assert exists_lazy(pred, big)
        assert len(calls) == 1  # found on the very first world

    def test_exists_false_on_inconsistent(self):
        assert not exists_lazy(lambda v: True, vpair(1, vorset()))

    def test_forall_vacuous_on_inconsistent(self):
        assert forall_lazy(lambda v: False, vpair(1, vorset()))

    def test_find_first(self):
        found = find_first(lambda v: v.value > 1, vorset(1, 2, 3))
        assert found is not None and found.value > 1

    def test_find_first_none(self):
        assert find_first(lambda v: False, vorset(1, 2)) is None


class TestTake:
    def test_take_limits(self):
        x = vset(vorset(*range(4)), vorset(*range(4)))
        got = take_possibilities(x, 3)
        assert len(got) == 3
        assert len(set(got)) == 3

    def test_take_exhausts_small(self):
        assert take_possibilities(atom(5), 10) == [atom(5)]
