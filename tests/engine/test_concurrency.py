"""Concurrent use of a shared engine: no corruption under thread hammering.

``DEFAULT_ENGINE`` is shared by the REPL, the I/O helpers and library
callers; the serving layer's executor threads hammer it concurrently.
These tests drive ``run``/``run_many``/``compile`` from many
threads at once and assert the plan cache converges to one plan per
program and every result equals the single-threaded answer.
"""

import threading

from repro.engine import Engine
from repro.lang.morphisms import Compose, Id, PairOf
from repro.lang.orset_ops import Alpha, OrMap
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap
from repro.values.values import vorset, vset

DOUBLE = Compose(plus(), PairOf(Id(), Id()))
QUERY = Compose(OrMap(SetMap(DOUBLE)), Alpha())

THREADS = 8
ROUNDS = 40


def _hammer(fn, threads: int = THREADS):
    """Run *fn(thread_index)* on every thread, re-raising the first error."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def wrapped(i: int) -> None:
        try:
            barrier.wait()
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    workers = [threading.Thread(target=wrapped, args=(i,)) for i in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if errors:
        raise errors[0]


class TestConcurrentRun:
    def test_shared_engine_run_is_consistent(self):
        eng = Engine()
        inputs = [vset(vorset(1, 2), vorset(3 + i)) for i in range(THREADS)]
        expected = [QUERY(v) for v in inputs]

        def work(i: int) -> None:
            for _ in range(ROUNDS):
                assert eng.run(QUERY, inputs[i]) == expected[i]

        _hammer(work)

    def test_shared_engine_mixed_backends(self):
        eng = Engine()
        inputs = [vset(vorset(1, 2), vorset(3 + i)) for i in range(6)]
        backends = ["eager", "streaming"]

        def work(i: int) -> None:
            for r in range(ROUNDS):
                v = inputs[(i + r) % len(inputs)]
                backend = backends[(i + r) % len(backends)]
                assert eng.run(QUERY, v, backend=backend) == QUERY(v)

        _hammer(work)

    def test_plan_cache_converges_to_one_plan(self):
        eng = Engine()
        plans: list = []

        def work(_i: int) -> None:
            plans.append(eng.compile(QUERY))

        _hammer(work)
        assert len({id(p) for p in plans}) == 1

    def test_plan_cache_lru_eviction_under_threads(self):
        eng = Engine(max_plans=4)

        def work(i: int) -> None:
            for r in range(ROUNDS):
                body = DOUBLE
                for _ in range((i + r) % 6):
                    body = Compose(DOUBLE, body)
                q = OrMap(body)
                assert eng.run(q, vorset(1, 2)) == q(vorset(1, 2))

        _hammer(work)
        assert len(eng._plans) <= 4


class TestConcurrentRunMany:
    def test_run_many_from_many_threads(self):
        eng = Engine()
        batch = [vset(vorset(1, 2), vorset(3 + i % 4)) for i in range(12)]
        expected = [QUERY(v) for v in batch]

        def work(_i: int) -> None:
            for _ in range(10):
                assert eng.run_many(QUERY, batch) == expected

        _hammer(work, threads=4)

    def test_run_many_matches_run_per_backend(self):
        eng = Engine()
        batch = [vset(vorset(i, i + 1)) for i in range(8)]
        for backend in ("eager", "streaming"):
            many = eng.run_many(QUERY, batch, backend=backend)
            assert many == [eng.run(QUERY, v, backend=backend) for v in batch]
