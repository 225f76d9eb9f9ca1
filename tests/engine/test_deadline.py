"""Deadlines, cooperative checkpoints, and the supervision policies.

The robustness layer's timing contract: a request carrying a
:class:`~repro.engine.deadline.Deadline` fails with
:class:`~repro.errors.DeadlineExceeded` at the engine's next cooperative
checkpoint — in every backend's evaluation loop — instead of wedging a
worker thread.  Alongside it, the policy objects the process backend's
supervised recovery is built from: the seeded-backoff
:class:`~repro.engine.supervisor.Supervisor` and the
:class:`~repro.engine.supervisor.CircuitBreaker`.
"""

from __future__ import annotations

import importlib
import time
from types import SimpleNamespace

import pytest

from repro import engine as E
from repro.engine import (
    BACKENDS,
    CircuitBreaker,
    Deadline,
    Supervisor,
    checkpoint,
    current_deadline,
    deadline_scope,
)
from repro.engine.plan import compile_plan
from repro.errors import DeadlineExceeded
from repro.io import run_json, run_json_many, run_text, value_to_json
from repro.lang.morphisms import Compose, Id, PairOf
from repro.lang.orset_ops import OrToSet
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap, SetMu
from repro.values.values import vorset, vpair, vset

DOUBLE = Compose(plus(), PairOf(Id(), Id()))


class TestDeadlineObject:
    def test_after_and_remaining(self):
        d = Deadline.after(60.0)
        assert 0.0 < d.remaining() <= 60.0
        assert not d.expired()

    def test_expired_deadline(self):
        d = Deadline.after(0.0)
        assert d.expired()
        assert d.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            d.check("unit test")

    def test_scope_sets_and_restores(self):
        assert current_deadline() is None
        outer = Deadline.after(60.0)
        inner = Deadline.after(30.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_scope_none_clears_inherited_deadline(self):
        with deadline_scope(Deadline.after(0.0)):
            with deadline_scope(None):
                assert current_deadline() is None
                checkpoint("cleared scope")  # must not raise

    def test_checkpoint_is_noop_without_deadline(self):
        checkpoint("no ambient deadline")

    def test_checkpoint_names_the_site(self):
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceeded, match="during symbolic probe"):
                checkpoint("symbolic probe")


class TestBackendCheckpoints:
    """An already-expired deadline fails in every backend's loop."""

    @pytest.mark.parametrize("name", ["eager", "streaming", "process", "fused"])
    def test_execute_raises_under_expired_deadline(self, name):
        plan = compile_plan(Compose(SetMu(), SetMap(OrToSet())))
        value = vset(vorset(1, 2), vorset(3, 4))
        backend = BACKENDS[name]
        assert backend.execute(plan, value)  # sanity: runs fine unbounded
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceeded):
                backend.execute(plan, value)

    def test_engine_dispatch_checkpoint(self):
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceeded):
                E.run(SetMap(DOUBLE), vset(1, 2, 3))

    def test_symbolic_world_query_raises(self):
        from repro.core.costs import tight_family

        x, _t = tight_family(6)
        eng = E.Engine()
        assert eng.count_worlds(Id(), x, backend="symbolic") > 1  # sanity
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceeded):
                eng.certain(Id(), x, backend="symbolic")

    def test_symbolic_possible_raises(self):
        from repro.core.costs import tight_family

        x, _t = tight_family(6)
        eng = E.Engine()
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceeded):
                eng.possible(Id(), x, backend="symbolic")

    def test_symbolic_world_stream_stops_at_deadline(self):
        # No world satisfies the predicate, so exists() walks all 3^19
        # worlds unless the per-world checkpoint stops it.
        from repro.core.costs import tight_family
        from repro.core.normalize import Normalize

        x, _t = tight_family(19)
        eng = E.Engine()
        with deadline_scope(Deadline.after(0.2)):
            with pytest.raises(DeadlineExceeded):
                eng.exists(Normalize(), x, lambda w: False, backend="symbolic")

    def test_symbolic_colliding_count_raises(self):
        # Member i of the set holds atoms i, i + 1 and i + 3 of 22, so the
        # set folds its members' worlds, checking the deadline per member.
        from repro.core.normalize import Normalize

        shared = vset(*(vorset(i, (i + 1) % 22, (i + 3) % 22) for i in range(20)))
        eng = E.Engine()
        started = time.monotonic()
        with deadline_scope(Deadline.after(0.2)):
            with pytest.raises(DeadlineExceeded):
                eng.count_worlds(Normalize(), shared, backend="symbolic")
        assert time.monotonic() - started < 2.0

    def test_symbolic_world_stream_is_lazy_below_a_set(self):
        # The set's one member has 3^19 worlds; they are enumerated one
        # at a time, so the first checkpoint comes before the last world.
        from repro.core.costs import tight_family
        from repro.core.normalize import Normalize

        x, _t = tight_family(19)
        eng = E.Engine()
        with deadline_scope(Deadline.after(0.2)):
            with pytest.raises(DeadlineExceeded):
                eng.exists(Normalize(), vset(x), lambda w: False, backend="symbolic")

    def test_symbolic_certain_stops_after_two_worlds_per_member(self):
        # The inner set has 3^19 worlds; its first, which holds no
        # one-world member's world, settles that it gives no certain
        # element.
        from repro.core.costs import tight_family

        x, _t = tight_family(19)
        eng = E.Engine()
        with deadline_scope(Deadline.after(5.0)):
            assert eng.certain(Id(), vset(vset(x)), backend="symbolic") == vset()

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_world_stream_stops_at_deadline_on_every_backend(self, name):
        # The set's one member has 3^12 worlds, and no world satisfies
        # the predicate: every backend streams them through core.lazy,
        # one checkpoint per world, so the deadline stops the walk.
        from repro.core.costs import tight_family

        x, _t = tight_family(12)
        started = time.monotonic()
        with deadline_scope(Deadline.after(0.2)):
            with pytest.raises(DeadlineExceeded):
                E.Engine().exists(
                    Id(), vset(x), lambda w: False, backend=name
                )
        assert time.monotonic() - started < 2.0

    def test_auto_possibilities_yields_the_first_world_at_once(self):
        from repro.core.costs import tight_family

        x, _t = tight_family(12)
        started = time.monotonic()
        with deadline_scope(Deadline.after(1.0)):
            assert next(iter(E.Engine().possibilities(Id(), vset(x)))) is not None
        assert time.monotonic() - started < 1.0

    def test_result_identical_when_deadline_is_generous(self):
        plan_input = vset(vorset(1, 2), vorset(3, 4))
        program = Compose(SetMu(), SetMap(OrToSet()))
        unbounded = E.run(program, plan_input)
        with deadline_scope(Deadline.after(60.0)):
            assert E.run(program, plan_input) == unbounded


class TestIoTimeouts:
    def test_run_text_timeout(self):
        with pytest.raises(DeadlineExceeded):
            run_text("map(id)", "{1, 2, 3}", timeout=0.0)

    def test_run_json_timeout(self):
        payload = value_to_json(vset(1, 2, 3))
        with pytest.raises(DeadlineExceeded):
            run_json("map(id)", payload, timeout=0.0)

    def test_run_json_many_timeout(self):
        payload = value_to_json(vset(1, 2, 3))
        with pytest.raises(DeadlineExceeded):
            run_json_many("map(id)", [payload, payload], timeout=0.0)

    def test_no_timeout_still_works(self):
        payload = value_to_json(vset(1, 2))
        assert run_json("map(id)", payload) == payload

    def test_generous_timeout_returns_result(self):
        payload = value_to_json(vset(1, 2))
        assert run_json("map(id)", payload, timeout=60.0) == payload


class TestNormalizeLeafDeadline:
    """The ``normalize`` leaf checks the deadline inside its own loops.

    The deadline module's clock is frozen until the leaf starts and then
    jumps past the deadline, so every check before the leaf passes and
    only a checkpoint inside the leaf can raise.
    """

    @pytest.fixture
    def expires_in_leaf(self, monkeypatch):
        import repro.engine.deadline as deadline_module

        # The module, not the function `repro.core` re-exports by its name.
        core_normalize = importlib.import_module("repro.core.normalize")
        now = [0.0]
        monkeypatch.setattr(
            deadline_module, "time", SimpleNamespace(monotonic=lambda: now[0])
        )
        kernel = core_normalize.normalize

        def expire_then_normalize(*args, **kwargs):
            now[0] = 1e9
            return kernel(*args, **kwargs)

        monkeypatch.setattr(core_normalize, "normalize", expire_then_normalize)

    DESIGN = value_to_json(
        vpair(vset(*(vorset(10 * i, 10 * i + 5) for i in range(1, 7))), vorset(1, 2))
    )

    def test_direct_leaf_raises(self, expires_in_leaf):
        with pytest.raises(DeadlineExceeded):
            run_json("normalize", self.DESIGN, timeout=60.0)

    def test_interned_leaf_raises(self, expires_in_leaf):
        with pytest.raises(DeadlineExceeded):
            run_json_many("normalize", [self.DESIGN], timeout=60.0)

    def test_leaf_answers_without_deadline(self, expires_in_leaf):
        assert run_json("normalize", self.DESIGN) == run_json_many(
            "normalize", [self.DESIGN]
        )[0]


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, reset_after=10.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_heals_or_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "half-open" and breaker.allow()
        # A failed probe re-opens for a fresh window...
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        # ...and a successful probe closes the breaker for good.
        breaker.record_success()
        assert breaker.state == "closed"


class TestSupervisor:
    def test_backoff_grows_and_caps(self):
        sup = Supervisor(restarts=5, base_delay=0.1, max_delay=0.4, seed=7)
        delays = [sup.backoff(i) for i in range(5)]
        # Jitter is in [0.5, 1.0): each delay is bounded by the raw curve.
        raw = [0.1, 0.2, 0.4, 0.4, 0.4]
        for got, bound in zip(delays, raw, strict=True):
            assert bound * 0.5 <= got < bound

    def test_seeded_schedule_is_deterministic(self):
        a = Supervisor(seed=42)
        b = Supervisor(seed=42)
        assert [a.backoff(i) for i in range(4)] == [b.backoff(i) for i in range(4)]

    def test_wait_uses_injected_sleep(self):
        slept: list[float] = []
        sup = Supervisor(restarts=1, base_delay=0.25, sleep=slept.append)
        sup.wait(0)
        assert slept and slept[0] == pytest.approx(sup_backoff_bound(sup, 0), abs=0.25)


def sup_backoff_bound(sup: Supervisor, attempt: int) -> float:
    return min(sup.max_delay, sup.base_delay * (2**attempt))


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now
