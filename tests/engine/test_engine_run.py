"""Tests for engine.run(): backends, equivalence with direct
interpretation, the plan cache and the possibilities stream."""

import random
from collections import Counter

import pytest

from repro import engine
from repro.core.normalize import Normalize, possibilities
from repro.engine import Engine
from repro.errors import OrNRATypeError
from repro.gen import random_orset_value
from repro.lang.bag_ops import bag_unique, settobag
from repro.lang.morphisms import Compose, Id, PairOf, Proj1
from repro.lang.orset_ops import Alpha, OrMap, OrToSet, SetToOr
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap, SetMu
from repro.lang.stdlib import select
from repro.lang.primitives import predicate
from repro.morphgen import random_lossless_morphism
from repro.types.kinds import INT
from repro.values.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    UnitValue,
    Variant,
    vbag,
    vorset,
    vpair,
    vset,
)

from tests.strategies import design

DOUBLE = Compose(plus(), PairOf(Id(), Id()))


@pytest.fixture(params=["eager", "streaming"])
def backend(request):
    return request.param


class TestEquivalenceWithDirectInterpretation:
    def test_structural_query(self, backend):
        q = Compose(OrMap(SetMap(DOUBLE)), Alpha())
        v = vset(vorset(1, 2), vorset(3, 4))
        assert engine.run(q, v, backend=backend) == q(v)

    def test_random_programs(self, backend):
        rng = random.Random(23)
        eng = Engine()
        for _ in range(50):
            v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
            f, _ = random_lossless_morphism(t, rng, depth=4)
            assert eng.run(f, v, backend=backend) == f(v), f.describe()

    def test_unoptimized_and_uninterned(self, backend):
        q = Compose(SetMu(), SetMap(SetMap(DOUBLE)))
        v = vset(vset(1, 2), vset(3))
        expected = q(v)
        assert engine.run(q, v, backend=backend, optimize=False) == expected
        assert engine.run(q, v, backend=backend) == expected

    def test_normalize_program(self, backend):
        v = vpair(vset(vorset(1, 2), vorset(3)), vorset(1, 2))
        assert engine.run(Normalize(), v, backend=backend) == Normalize()(v)

    def test_python_scalars_are_coerced(self, backend):
        assert engine.run(DOUBLE, 2, backend=backend) == DOUBLE(2)

    def test_type_errors_propagate(self, backend):
        with pytest.raises(OrNRATypeError):
            engine.run(Alpha(), vorset(1), backend=backend)


class TestStreamingSpine:
    def test_filter_pipeline(self, backend):
        keep = predicate("big", lambda v: v.value >= 2, INT)
        q = Compose(SetMap(DOUBLE), select(keep))
        v = vset(1, 2, 3)
        assert engine.run(q, v, backend=backend) == q(v)

    def test_coercion_chain(self, backend):
        q = Compose(OrToSet(), SetToOr())
        v = vset(1, 2, 2, 3)
        assert engine.run(q, v, backend=backend, optimize=False) == q(v)

    def test_bag_unique_stream(self):
        q = Compose(bag_unique(), settobag())
        v = vset(1, 2)
        assert engine.run(q, v, backend="streaming") == q(v)

    def test_settobag_dedups_transient_stream_duplicates(self):
        # map over a set may stream colliding outputs; converting the
        # (conceptually deduplicated) set to a bag must not expose them
        # as multiplicities.
        from repro.lang.bag_ops import SetToBag
        from repro.lang.morphisms import Bang

        q = Compose(SetToBag(), SetMap(Bang()))
        v = vset(1, 2, 3)
        assert q(v) == vbag(None)
        assert engine.run(q, v, backend="streaming", optimize=False) == q(v)

    def test_mismatched_stream_kind_raises(self):
        with pytest.raises(OrNRATypeError):
            engine.run(Compose(SetMu(), SetToOr()), vset(vset(1)), backend="streaming")


class TestEngineObject:
    def test_plan_cache_reused(self):
        eng = Engine()
        q = OrMap(DOUBLE)
        assert eng.compile(q) is eng.compile(q)
        assert eng.compile(q, optimize=False) is not eng.compile(q)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Engine().run(Id(), vset(1), backend="warp")

    def test_clear_caches(self):
        eng = Engine()
        eng.run(OrMap(DOUBLE), vorset(1, 2))
        assert len(eng._plans) == 1
        eng.clear_caches()
        assert len(eng._plans) == 0

    def test_possibilities_stream(self):
        eng = Engine()
        v = vset(vorset(1, 2), vorset(3))
        streamed = set(eng.possibilities(Id(), v))
        assert streamed == set(possibilities(v))

    def test_possibilities_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Engine().possibilities(Id(), vset(1), backend="streming")

    def test_explain_produces_typed_plan(self):
        from repro.types.parse import parse_type

        eng = Engine()
        text = eng.explain(Compose(OrMap(Proj1()), Alpha()), parse_type("{<int * bool>}"))
        assert "chain" in text and "->" in text

    def test_explain_does_not_annotate_cached_plan(self):
        # Regression: a typed explain must not leak annotations into the
        # shared cached plan (or into a later untyped explain).
        from repro.types.parse import parse_type

        eng = Engine()
        q = Compose(OrMap(Proj1()), Alpha())
        assert "->" in eng.explain(q, parse_type("{<int * bool>}"))
        assert "->" not in eng.explain(q)
        plan = eng.compile(q)
        assert all(n.dom is None and n.cod is None for n in plan.nodes)

    def test_plan_cache_is_lru_bounded(self):
        from repro.lang.primitives import int_binop

        eng = Engine(max_plans=3)
        programs = [OrMap(int_binop(f"op{i}", lambda a, b: a)) for i in range(6)]
        for q in programs:
            eng.compile(q)
        assert len(eng._plans) == 3
        # The most recent programs survive; the oldest were evicted.
        assert (programs[5], True) in eng._plans
        assert (programs[0], True) not in eng._plans

    def test_default_run_hashes_no_value(self, monkeypatch):
        # A run computes its result and nothing else: neither the input
        # nor any node of the normal form is hashed.
        x = design(6)
        hashed = Counter()
        for cls in (Atom, UnitValue, Pair, SetValue, OrSetValue, BagValue, Variant):
            unpatched = cls.__hash__

            def counting_hash(v, _unpatched=unpatched):
                hashed[type(v).__name__] += 1
                return _unpatched(v)

            monkeypatch.setattr(cls, "__hash__", counting_hash)
        result = Engine().run(Normalize(), x)
        monkeypatch.undo()
        assert result == Normalize()(x)
        assert sum(hashed.values()) == 0, dict(hashed)

    def test_intern_keyword_is_accepted_and_ignored(self):
        # perfbench/run.py still passes `intern=False` to engine.possible.
        from repro.io import parsed_morphism

        program = parsed_morphism("normalize")
        v = vset(vorset(1, 2), vorset(3))
        assert engine.possible(program, v) == engine.possible(program, v)
        eng = Engine()
        for flag in (True, False):
            assert eng.run(program, v, intern=flag) == eng.run(program, v)
            assert eng.run_many(program, [v], intern=flag) == eng.run_many(program, [v])
            assert set(eng.possibilities(program, v, intern=flag)) == set(
                eng.possibilities(program, v)
            )
            assert eng.count_worlds(program, v, intern=flag) == eng.count_worlds(program, v)
            assert eng.exists(program, v, intern=flag) == eng.exists(program, v)
            assert eng.certain(program, v, intern=flag) == eng.certain(program, v)
            assert eng.possible(program, v, intern=flag) == eng.possible(program, v)


class TestRunMany:
    def test_matches_run_elementwise(self, backend):
        q = Compose(OrMap(SetMap(DOUBLE)), Alpha())
        batch = [vset(vorset(1, 2), vorset(3 + i)) for i in range(6)]
        eng = Engine()
        assert eng.run_many(q, batch, backend=backend) == [
            eng.run(q, v, backend=backend) for v in batch
        ]

    def test_preserves_input_order_with_duplicates(self):
        eng = Engine()
        batch = [vorset(1, 2), vorset(3), vorset(1, 2), vorset(3), vorset(1, 2)]
        results = eng.run_many(OrMap(DOUBLE), batch)
        assert results == [eng.run(OrMap(DOUBLE), v) for v in batch]
        # Duplicates come back as one result object.
        assert results[0] is results[2] is results[4]

    def test_empty_batch(self):
        assert Engine().run_many(Id(), []) == []

    def test_module_level_run_many(self):
        batch = [vorset(1, 2), vorset(3)]
        assert engine.run_many(OrMap(DOUBLE), batch) == [
            engine.run(OrMap(DOUBLE), v) for v in batch
        ]

    def test_python_scalars_are_coerced(self):
        assert engine.run_many(DOUBLE, [1, 2]) == [DOUBLE(1), DOUBLE(2)]

    def test_hashes_each_input_once(self, monkeypatch):
        # The dedupe hashes a whole input; it needs the hash only once.
        batch = [vset(1, 2, 3 + i) for i in range(3)]
        hashed = Counter()
        unpatched = SetValue.__hash__

        def counting_hash(v):
            hashed[id(v)] += 1
            return unpatched(v)

        monkeypatch.setattr(SetValue, "__hash__", counting_hash)
        results = Engine().run_many(SetMap(DOUBLE), batch)
        monkeypatch.undo()
        assert results == [SetMap(DOUBLE)(v) for v in batch]
        assert [hashed[id(v)] for v in batch] == [1, 1, 1]

    def test_auto_selects_once_per_distinct_input(self, monkeypatch):
        # The batch-hook test and each input's execution share one
        # backend selection.
        selected = []
        unpatched = engine.select_backend

        def counting_select(*args, **kwargs):
            choice = unpatched(*args, **kwargs)
            selected.append(choice.backend)
            return choice

        monkeypatch.setattr(engine, "select_backend", counting_select)
        batch = [vset(1, 2, 3 + i) for i in range(3)]
        results = Engine().run_many(SetMap(DOUBLE), batch + batch[:1])
        assert results == [SetMap(DOUBLE)(v) for v in batch + batch[:1]]
        assert selected == ["eager"] * 3


class TestStreamingPossibilitiesLaziness:
    """Regression: `possibilities` on the streaming backend must yield
    its first value without materializing the full normal form."""

    def _tracking_query(self):
        from repro.lang.primitives import unary_primitive
        from repro.values.values import Atom

        calls = []

        def body(v):
            calls.append(v)
            return Atom("int", v.value + 1)

        return OrMap(unary_primitive("track", body, INT, INT)), calls

    def test_first_value_short_circuits(self):
        q, calls = self._tracking_query()
        eng = Engine()
        it = eng.possibilities(q, vorset(*range(100)), backend="streaming")
        first = next(it)
        assert first is not None
        assert len(calls) < 100

    def test_eager_backend_materializes(self):
        # The contrast case: the base implementation executes first.
        q, calls = self._tracking_query()
        eng = Engine()
        next(eng.possibilities(q, vorset(*range(100)), backend="eager"))
        assert len(calls) == 100

    def test_streamed_set_equals_eager_set(self):
        q = Compose(OrMap(DOUBLE), SetToOr())
        v = vset(*range(10))
        eng = Engine()
        assert set(eng.possibilities(q, v, backend="streaming")) == set(
            eng.possibilities(q, v, backend="eager")
        )

    def test_exhausting_the_stream_matches_normal_form(self):
        from repro.core.normalize import possibilities as eager_possibilities

        eng = Engine()
        v = vset(vorset(1, 2), vorset(3))
        q = Compose(SetToOr(), Id())
        streamed = list(eng.possibilities(q, v, backend="streaming"))
        assert set(streamed) == set(eager_possibilities(q(v)))
        assert len(streamed) == len(set(streamed))
