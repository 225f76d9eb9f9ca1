"""Tests for the multiprocess backend: the sharded walk, transport, selection.

Conformance with the other backends is covered by
``test_backend_conformance.py``; here we pin the process-specific
machinery — the sharded spine walk stage by stage, pickle-safe plan
transport with worker-side caching, the ``run_values`` batch hook
behind ``Engine.run_many``, graceful degradation on unpicklable plans
and inside daemonic processes, and that ``backend="auto"`` never routes
to it.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.core.costs import tight_family
from repro.core.normalize import Normalize
from repro.engine import BACKENDS, Engine, ProcessBackend
from repro.engine.cost_model import WIDE_SPINE, select_backend
from repro.engine.plan import compile_plan
from repro.engine.process import even_chunks
from repro.errors import OrNRATypeError
from repro.gen import random_orset_value
from repro.lang.bag_ops import SetToBag, bag_unique, settobag
from repro.lang.morphisms import Bang, Compose, Id, PairOf
from repro.lang.orset_ops import Alpha, OrMap, OrToSet, SetToOr
from repro.lang.primitives import plus, predicate
from repro.lang.set_ops import SetMap, SetMu
from repro.morphgen import random_lossless_morphism
from repro.types.kinds import INT
from repro.values.values import vbag, vorset, vset

from tests.strategies import typed_orset_values

DOUBLE = Compose(plus(), PairOf(Id(), Id()))


@pytest.fixture(scope="module")
def pooled() -> Engine:
    """An engine whose process backend genuinely crosses the pool."""
    eng = Engine()
    eng.backends["process"] = ProcessBackend(max_workers=2, min_shard=4)
    return eng


@pytest.fixture(scope="module")
def sharded():
    """An engine whose process backend shards every collection."""
    eng = Engine()
    eng.backends["process"] = ProcessBackend(max_workers=2, min_shard=1)
    yield eng
    eng.backends["process"].close()


class TestRegistration:
    def test_registered_in_backends(self):
        assert isinstance(BACKENDS["process"], ProcessBackend)

    def test_engine_accepts_process(self):
        assert engine.run(Id(), vset(1, 2), backend="process") == vset(1, 2)

    def test_repl_accepts_process(self):
        from repro.repl import Repl

        repl = Repl()
        assert repl.eval_line("backend process") == "backend = process"
        repl.eval_line("let xs = {1, 2, 3}")
        assert repl.eval_line("apply map(id) xs").startswith("{1, 2, 3}")


def _run_in_daemon(conn) -> None:
    """Evaluate through a fresh two-worker backend; report to *conn*."""
    backend = ProcessBackend(max_workers=2, min_shard=1)
    try:
        backend.warm()
        out = backend.execute(compile_plan(SetMap(DOUBLE)), vset(*range(40)))
        conn.send(("ok", out, backend._pool is None))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("error", repr(exc), None))
    finally:
        conn.close()


class TestSpineStages:
    """Each spine shape through the sharded walk, every collection split."""

    def test_sharded_map(self, sharded):
        backend = sharded.backends["process"]
        before = backend.remote_chunks
        q = SetMap(DOUBLE)
        v = vset(*range(50))
        assert sharded.run(q, v, backend="process") == q(v)
        assert backend.remote_chunks - before > 1

    def test_mu_flattening(self, sharded):
        q = Compose(SetMu(), SetMap(SetMap(DOUBLE)))
        v = vset(*(vset(3 * i, 3 * i + 1, 3 * i + 2) for i in range(10)))
        assert sharded.run(q, v, backend="process") == q(v)

    def test_coercion_chain(self, sharded):
        q = Compose(OrToSet(), SetToOr())
        v = vset(1, 2, 2, 3)
        assert sharded.run(q, v, backend="process", optimize=False) == q(v)

    def test_settobag_dedups_transient_shard_duplicates(self, sharded):
        # map over a set may emit colliding outputs across shards; the
        # set->bag coercion must not expose them as multiplicities.
        q = Compose(SetToBag(), SetMap(Bang()))
        v = vset(*range(20))
        assert q(v) == vbag(None)
        assert sharded.run(q, v, backend="process", optimize=False) == q(v)

    def test_bag_unique_dedups_across_shards(self, sharded):
        q = Compose(bag_unique(), settobag())
        v = vset(*range(20))
        assert sharded.run(q, v, backend="process") == q(v)

    def test_eager_fallback_for_alpha(self, sharded):
        q = Compose(OrMap(SetMap(DOUBLE)), Alpha())
        v = vset(vorset(1, 2), vorset(3, 4))
        assert sharded.run(q, v, backend="process") == q(v)

    def test_mismatched_shard_kind_raises(self, sharded):
        with pytest.raises(OrNRATypeError):
            sharded.run(Compose(SetMu(), SetToOr()), vset(vset(1)), backend="process")

    def test_map_body_errors_propagate_from_workers(self, sharded):
        # A type error raised inside a worker reaches the caller, and the
        # pool that raised it keeps serving later requests.
        backend = sharded.backends["process"]
        with pytest.raises(OrNRATypeError):
            sharded.run(SetMap(plus()), vset(*range(20)), backend="process")
        before = backend.remote_chunks
        v = vset(*range(20))
        assert sharded.run(SetMap(DOUBLE), v, backend="process") == SetMap(DOUBLE)(v)
        assert backend.remote_chunks > before

    def test_tiny_chunks_agree(self, sharded):
        q = SetMap(SetMap(DOUBLE))
        v = vset(vset(1, 2), vset(3, 4), vset(5))
        backend = sharded.backends["process"]
        before = backend.remote_chunks
        assert backend.execute(compile_plan(q), v, shard_hint=64) == q(v)
        assert backend.remote_chunks - before == 3

    def test_possibilities_matches_eager(self, sharded):
        v = vset(vorset(1, 2), vorset(3))
        q = SetToOr()
        assert set(sharded.possibilities(q, v, backend="process")) == set(
            sharded.possibilities(q, v, backend="eager")
        )

    def test_sharding_covers_all_elements(self, sharded):
        backend = sharded.backends["process"]
        n = backend._shard_count(11, None)
        chunks = even_chunks(list(range(11)), n)
        assert n > 1 and len(chunks) == n
        assert [e for chunk in chunks for e in chunk] == list(range(11))

    def test_single_worker_backend_agrees(self):
        # max_workers=1 starts no pool: the walk runs every stage inline.
        eng = Engine()
        eng.backends["process"] = ProcessBackend(max_workers=1, min_shard=1)
        rng = random.Random(11)
        for _ in range(25):
            v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
            f, _ = random_lossless_morphism(t, rng, depth=4)
            assert eng.run(f, v, backend="process") == f(v), f.describe()


class TestStructuralEqualityWithEager:
    """Random programs through the maximally sharded walk match eager."""

    @settings(max_examples=60, deadline=None)
    @given(typed_orset_values(max_depth=3, max_width=3, min_width=1), st.integers(0, 10_000))
    def test_random_programs_from_strategies(self, sharded, pair, seed):
        value, t = pair
        f, _ = random_lossless_morphism(t, random.Random(seed), depth=4)
        assert sharded.run(f, value, backend="process") == sharded.run(
            f, value, backend="eager"
        ), f.describe()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_programs_from_morphgen(self, sharded, seed):
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
        f, _ = random_lossless_morphism(t, rng, depth=4)
        assert sharded.run(f, v, backend="process") == f(v), f.describe()


class TestPool:
    def test_close_and_reopen(self):
        backend = ProcessBackend(max_workers=2, min_shard=1)
        plan = compile_plan(SetMap(DOUBLE))
        v = vset(*range(16))
        try:
            assert backend.execute(plan, v) == SetMap(DOUBLE)(v)
            backend.close()
            assert backend._pool is None
            before = backend.remote_chunks
            assert backend.execute(plan, v) == SetMap(DOUBLE)(v)
            assert backend._pool is not None
            assert backend.remote_chunks > before
        finally:
            backend.close()


class TestRemoteExecution:
    def test_map_stage_crosses_the_pool(self, pooled):
        backend = pooled.backends["process"]
        before = backend.remote_chunks
        xs = vset(*range(100))
        assert pooled.run(SetMap(DOUBLE), xs, backend="process") == pooled.run(
            SetMap(DOUBLE), xs, backend="eager"
        )
        assert backend.remote_chunks > before

    def test_worker_errors_propagate(self, pooled):
        with pytest.raises(OrNRATypeError):
            pooled.run(SetMap(plus()), vset(*range(50)), backend="process")

    def test_worker_plan_cache_reuses_payload(self, pooled):
        backend = pooled.backends["process"]
        xs = vset(*range(64))
        first = pooled.run(SetMap(DOUBLE), xs, backend="process")
        again = pooled.run(SetMap(DOUBLE), xs, backend="process")
        assert first == again
        # The coordinator caches one payload per plan object.
        plan = pooled.compile(SetMap(DOUBLE), True)
        assert backend._payload(plan) is backend._payload(plan)

    def test_normalize_through_workers(self, pooled):
        x, _t = tight_family(6)
        assert pooled.run(Normalize(), x, backend="process") == pooled.run(
            Normalize(), x, backend="eager"
        )


class TestRunValuesBatchHook:
    def test_run_many_fans_whole_inputs(self, pooled):
        backend = pooled.backends["process"]
        before = backend.remote_chunks
        batch = [vset(*range(i, i + 30)) for i in range(8)]
        out = pooled.run_many(SetMap(DOUBLE), batch, backend="process")
        assert out == [pooled.run(SetMap(DOUBLE), v, backend="eager") for v in batch]
        assert backend.remote_chunks > before

    def test_order_and_dedupe_preserved(self, pooled):
        batch = [vset(1, 2), vset(3, 4), vset(1, 2), vset(5, 6), vset(3, 4)]
        out = pooled.run_many(SetMap(DOUBLE), batch, backend="process")
        assert out == [pooled.run(SetMap(DOUBLE), v, backend="eager") for v in batch]
        assert out[0] == out[2] and out[1] == out[4]

    def test_single_input_stays_local(self, pooled):
        out = pooled.run_many(SetMap(DOUBLE), [vset(1, 2, 3)], backend="process")
        assert out == [pooled.run(SetMap(DOUBLE), vset(1, 2, 3), backend="eager")]


class TestGracefulDegradation:
    def test_unpicklable_plan_falls_back_to_eager(self, pooled):
        backend = pooled.backends["process"]
        before = backend.pickle_fallbacks
        evil = SetMap(predicate("evil", lambda v: True, INT))
        out = pooled.run(evil, vset(*range(50)), backend="process")
        assert out == pooled.run(evil, vset(*range(50)), backend="eager")
        assert backend.pickle_fallbacks > before

    def test_single_worker_backend_is_inline(self):
        eng = Engine()
        eng.backends["process"] = ProcessBackend(max_workers=1)
        xs = vset(*range(40))
        assert eng.run(SetMap(DOUBLE), xs, backend="process") == eng.run(
            SetMap(DOUBLE), xs, backend="eager"
        )

    def test_warm_starts_workers_up_front(self):
        backend = ProcessBackend(max_workers=2, min_shard=4)
        backend.warm()
        try:
            pool = backend._executor()
            assert pool is not None and len(pool._processes) == 2
        finally:
            backend.close()

    def test_daemonic_process_evaluates_inline(self):
        # Daemonic processes (workers of a caller's own multiprocessing
        # pool) may not have children: the backend must evaluate
        # in-process, not crash.
        ctx = multiprocessing.get_context()
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_run_in_daemon, args=(sender,), daemon=True)
        proc.start()
        sender.close()
        try:
            assert receiver.poll(60), "daemonic child did not report"
            status, out, no_pool = receiver.recv()
        finally:
            proc.join(10)
        assert not proc.is_alive()
        assert status == "ok", out
        assert out == SetMap(DOUBLE)(vset(*range(40)))
        assert no_pool

    def test_warm_on_inline_backend_is_a_noop(self):
        backend = ProcessBackend(max_workers=1)
        backend.warm()  # no pool to start
        backend.close()

    def test_async_engine_process_backend_warms_on_start(self):
        import asyncio

        from repro.io import dumps_value, value_to_json
        from repro.serve import AsyncEngine
        from repro.values.values import vorset

        async def main():
            async with AsyncEngine(backend="process") as engine:
                return await engine.run_json(
                    "normalize", value_to_json(vorset(1, 2))
                )

        assert asyncio.run(main()) == dumps_value(vorset(1, 2))

    def test_close_then_reuse_reopens_pool(self, pooled):
        backend = pooled.backends["process"]
        backend.close()
        assert backend._pool is None
        xs = vset(*range(80))
        assert pooled.run(SetMap(DOUBLE), xs, backend="process") == pooled.run(
            SetMap(DOUBLE), xs, backend="eager"
        )

    def test_stats_shape(self, pooled):
        stats = pooled.backends["process"].stats()
        for key in ("remote_chunks", "pickle_fallbacks", "pool_fallbacks", "max_workers"):
            assert key in stats


class TestSelection:
    # The CPU-bound wide spine that once went to the pool streams,
    # whether or not a healthy process backend is registered.
    WIDE_PROGRAM = Compose(SetMu(), SetMap(OrToSet()))

    @staticmethod
    def _engine_with_healthy_pool() -> Engine:
        eng = Engine()
        eng.backends["process"] = ProcessBackend(max_workers=2)
        assert eng.backends["process"].healthy()
        return eng

    def test_cpu_bound_wide_spine_streams_with_process_registered(self):
        eng = self._engine_with_healthy_pool()
        x, _t = tight_family(WIDE_SPINE + 8)
        plan = compile_plan(self.WIDE_PROGRAM)
        choice = select_backend(plan, x, available=eng.backends)
        assert choice.backend == "streaming"

    def test_engine_auto_never_reaches_process(self):
        eng = self._engine_with_healthy_pool()
        x, _t = tight_family(WIDE_SPINE + 8)
        assert eng.choose_backend(self.WIDE_PROGRAM, x).backend == "streaming"

    def test_direct_callers_never_get_process_by_default(self):
        # select_backend without `available` keeps to the in-process
        # backends: the wide spine runs lazily instead.
        x, _t = tight_family(WIDE_SPINE + 8)
        plan = compile_plan(Compose(SetMu(), SetMap(OrToSet())))
        choice = select_backend(plan, x)
        assert choice.backend == "streaming"

    def test_small_inputs_still_eager(self):
        eng = Engine()
        choice = eng.choose_backend(SetMap(DOUBLE), vset(1, 2, 3))
        assert choice.backend == "eager"

    def test_restricted_registry_never_names_missing_backends(self):
        # Regression: `available` must gate every non-eager choice, not
        # just process — a registry without streaming falls back to
        # eager instead of a KeyError in Engine._execute.
        x, _t = tight_family(WIDE_SPINE + 8)
        plan = compile_plan(Compose(SetMu(), SetMap(OrToSet())))
        for names in ({"eager"}, {"eager", "process"}):
            choice = select_backend(plan, x, available=names)
            assert choice.backend in names
        choice = select_backend(plan, x, existential=True, available={"eager"})
        assert choice.backend == "eager"
