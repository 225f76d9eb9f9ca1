"""Tests for the hash-consing arena and its derived-result caches."""

import sys
import threading

import pytest

from repro.core.normalize import normalize, normalize_with_strategy
from repro.engine.interning import DEFAULT_MAX_ARENA_SIZE, Interner
from repro.types.rewrite import innermost_strategy
from repro.values.values import (
    BagValue,
    OrSetValue,
    SetValue,
    sort_key,
    vbag,
    vinl,
    vinr,
    vorset,
    vpair,
    vset,
)

from tests.keys import nodes, reference_sort_key


def big_value():
    return vpair(vset(vorset(1, 2), vorset(3)), vorset(1, 2))


class TestHashConsing:
    def test_equal_values_intern_to_same_object(self):
        interner = Interner()
        a = interner.intern(big_value())
        b = interner.intern(big_value())
        assert a is b
        assert a == big_value()

    def test_shared_substructure_is_physically_shared(self):
        interner = Interner()
        a = interner.intern(vpair(vorset(1, 2), 9))
        b = interner.intern(vpair(vorset(1, 2), 10))
        assert a.fst is b.fst

    def test_all_value_kinds_round_trip(self):
        from repro.values.values import UNIT_VALUE, vinl, vinr

        interner = Interner()
        for v in (
            UNIT_VALUE,
            vpair(1, "x"),
            vset(1, 2),
            vorset(True),
            vbag(1, 1, 2),
            vinl(1),
            vinr(vset(2)),
        ):
            assert interner.intern(v) == v

    def test_is_interned(self):
        interner = Interner()
        raw = big_value()
        canon = interner.intern(raw)
        assert interner.is_interned(canon)
        assert not interner.is_interned(big_value())


class TestDerivedCaches:
    def test_sort_key_matches_uncached(self):
        interner = Interner()
        v = big_value()
        assert interner.sort_key(v) == sort_key(v) == reference_sort_key(v)

    def test_normalize_memoizes_on_identity(self):
        interner = Interner()
        v = big_value()
        first = interner.normalize(v)
        again = interner.normalize(big_value())
        assert first is again
        assert interner.normalize_hits == 1
        assert interner.normalize_misses == 1

    def test_memoized_normalize_matches_direct(self):
        interner = Interner()
        v = big_value()
        assert interner.normalize(v) == normalize(v)

    def test_normalize_key_includes_declared_type(self):
        from repro.types.parse import parse_type

        interner = Interner()
        v = vorset(1, 2)
        untyped = interner.normalize(v)
        typed = interner.normalize(v, parse_type("<int>"))
        assert untyped == typed
        assert interner.normalize_misses == 2

    def test_clear_resets_arena(self):
        interner = Interner()
        interner.normalize(big_value())
        assert len(interner) > 0
        interner.clear()
        assert len(interner) == 0
        stats = interner.stats()
        assert stats["arena_size"] == 0

    def test_stats_counters(self):
        interner = Interner()
        interner.intern(vset(1))
        interner.intern(vset(1))
        stats = interner.stats()
        assert stats["intern_hits"] >= 1
        assert stats["intern_misses"] >= 1


class TestBoundedArena:
    """Regression: the arena must not grow without bound in a
    long-running process (the REPL and DEFAULT_ENGINE previously pinned
    every value ever interned)."""

    def test_eviction_fires_at_capacity(self):
        interner = Interner(max_size=8)
        for i in range(100):
            interner.intern(vorset(i, i + 1))
        stats = interner.stats()
        assert stats["evictions"] >= 1
        # Bounded: at capacity the arena clears, then refills; a single
        # intern can overshoot by at most its own node count.
        assert stats["arena_size"] < 8 + 8

    def test_eviction_clears_derived_caches_together(self):
        interner = Interner(max_size=4)
        v = big_value()
        first = interner.normalize(v)
        for i in range(50):
            interner.intern(vorset(1000 + i))
        # The memo went with the arena, but the recomputed result is
        # still structurally equal.
        assert interner.normalize(v) == first

    def test_evicted_objects_stay_valid_values(self):
        interner = Interner(max_size=4)
        canon = interner.intern(big_value())
        for i in range(50):
            interner.intern(vorset(2000 + i))
        assert canon == big_value()
        assert normalize(canon) == normalize(big_value())

    def test_unbounded_when_max_size_none(self):
        interner = Interner(max_size=None)
        for i in range(200):
            interner.intern(vorset(i))
        assert interner.stats()["evictions"] == 0
        assert len(interner) >= 200

    def test_stats_surface_policy(self):
        stats = Interner(max_size=128).stats()
        assert stats["max_size"] == 128
        assert stats["evictions"] == 0

    def test_default_is_bounded(self):
        from repro.engine.interning import DEFAULT_MAX_ARENA_SIZE

        assert Interner().max_size == DEFAULT_MAX_ARENA_SIZE


def design(width, base=0):
    """A Section 4 design: ``({<a_i, b_i> : i <= width}, <c, d>)``."""
    return vpair(
        vset(*(vorset(base + 10 * i, base + 10 * i + 5) for i in range(1, width + 1))),
        vorset(base + 1, base + 2),
    )


def assert_canonical(v):
    """Every collection in *v* equals its rebuild by the public constructor."""
    for node in nodes(v):
        if isinstance(node, (SetValue, OrSetValue, BagValue)):
            assert type(node)(node.elems).elems == node.elems


class TestArenaBuiltNormalForms:
    """The kernel builds normal forms straight into the arena."""

    def test_normal_form_is_interned_node_by_node(self):
        interner = Interner()
        result = interner.normalize(design(4))
        assert interner.is_interned(result)
        assert all(interner.is_interned(w) for w in result.elems)
        assert interner.intern(result) is result

    def test_kernel_keys_match_sort_key(self):
        # The kernel builds each key from its children's; the stored key
        # must equal the one recomputed by its definition.
        from repro.types.kinds import SetType, TypeVar

        interner = Interner()
        mixed = vpair(vset(vinl(vorset(1, 2)), vinr(vorset(3))), design(3))
        opaque = (vset(vorset(1, 2), vorset()), SetType(TypeVar("a")))
        for x, t in ((mixed, None), opaque):
            for result in (normalize(x, t), interner.normalize(x, t)):
                assert_canonical(result)
                for node in nodes(result):
                    assert sort_key(node) == reference_sort_key(node)
                    assert interner.sort_key(node) == reference_sort_key(node)

    def test_reintern_of_a_canon_keeps_it_recent(self):
        # Re-interning the canon itself takes the identity path, which
        # must still touch the entry, as a structural hit does.
        interner = Interner(max_size=8)
        canon = interner.intern(vorset(777))
        for i in range(50):
            interner.intern(vorset(i, i + 1))
            assert interner.intern(canon) is canon
        assert interner.is_interned(canon)
        assert interner.stats()["evictions"] > 0

    def test_eviction_under_live_canons(self):
        # max_size=16 is far below one normal form's node count, so every
        # trim evicts children of canons the caller still holds.
        interner = Interner(max_size=16)
        for i in range(12):
            x = design(6, base=1000 * (i % 4))
            result = interner.normalize(x)
            assert result == normalize_with_strategy(x, None, innermost_strategy)
            assert_canonical(result)
            for j in range(12):
                interner.intern(vset(vorset(50_000 + 100 * i + j), j))
        assert interner.stats()["evictions"] > 0

    @pytest.mark.parametrize("max_size", [DEFAULT_MAX_ARENA_SIZE, 64])
    def test_threads_share_one_arena(self, max_size):
        # 8 threads, more than the cores, with a short switch interval;
        # at max_size=64 other threads' trims land between the kernels.
        interner = Interner(max_size=max_size)
        designs = [design(3 + i % 4, base=1000 * i) for i in range(8)]
        expected = [normalize(x) for x in designs]
        results: list = [None] * len(designs)
        errors: list = []

        def work(i):
            try:
                for r in range(6):
                    interner.intern(vorset(100_000 * (i + 1) + r))
                    results[i] = interner.normalize(design(3 + i % 4, base=1000 * i))
                    assert_canonical(results[i])
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert results == expected
        if max_size == DEFAULT_MAX_ARENA_SIZE:
            assert all(interner.is_interned(got) for got in results)
