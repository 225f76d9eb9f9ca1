"""Fault injection against the serving layer: the resolution invariant.

The contract every scenario here exercises: **no admitted request is
ever left unresolved**.  Whatever the injected fault — a failing
evaluation, a slow worker, a malformed protocol frame, an overloaded
engine — every ``run_json`` call finishes with either a result or a
*typed* error (:class:`~repro.errors.Overloaded`,
:class:`~repro.errors.DeadlineExceeded`,
:class:`~repro.errors.CostBudgetExceeded`, ...), and the serving
transports answer every line with a structured frame.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import pytest

from repro.engine import faults
from repro.engine.faults import FaultPlan, FaultRule, InjectedFault
from repro.errors import CostBudgetExceeded, DeadlineExceeded, Overloaded
from repro.io import value_to_json
from repro.serve import AsyncEngine
from repro.serve.__main__ import amain
from repro.values.values import vorset, vset
from tests.serve.transports import eager_text, run_stdio, run_tcp

PAYLOAD = value_to_json(vset(1, 2, 3))


class TestResolutionInvariant:
    def test_every_admitted_future_resolves_under_faults(self):
        # A seeded storm: some evaluations fail, some crawl.  Every
        # admitted request must still resolve — result or typed error —
        # and the pending gauge must return to zero.
        plan = FaultPlan(
            seed=42,
            rules=(
                FaultRule("serve.eval", "error", times=3),
                FaultRule("serve.eval", "slow", times=2, delay=0.01),
            ),
        )
        payloads = [value_to_json(vset(i, i + 1)) for i in range(12)]

        async def main():
            async with AsyncEngine(backend="eager") as engine:
                tasks = [
                    asyncio.ensure_future(engine.run_json("map(id)", p))
                    for p in payloads
                ]
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return outcomes, engine.stats()

        with faults.active_plan(plan):
            outcomes, stats = asyncio.run(main())
        assert len(outcomes) == len(payloads)
        for expected, got in zip(payloads, outcomes, strict=True):
            assert got == eager_text("map(id)", expected) or isinstance(got, Exception)
        assert stats["pending"] == 0

    def test_failed_evaluation_fails_only_its_sharers(self):
        # Two evaluations in flight together, four requests sharing one
        # and a fifth on its own; one injected error fails exactly the
        # requests of the evaluation it hits.  The failed evaluation is
        # not reused: the next identical request evaluates afresh.
        plan = FaultPlan(rules=(FaultRule("serve.eval", "error", times=1),))
        shared, alone = value_to_json(vset(1)), value_to_json(vset(2))
        payloads = [shared] * 4 + [alone]

        async def main():
            async with AsyncEngine(backend="eager") as engine:
                outcomes = await asyncio.gather(
                    *(engine.run_json("map(id)", p) for p in payloads),
                    return_exceptions=True,
                )
                failed = [
                    i for i, o in enumerate(outcomes) if isinstance(o, InjectedFault)
                ]
                again = await engine.run_json("map(id)", payloads[failed[0]])
                return outcomes, failed, again, engine.stats()

        with faults.active_plan(plan):
            outcomes, failed, again, stats = asyncio.run(main())
        assert failed in ([0, 1, 2, 3], [4])
        for i, outcome in enumerate(outcomes):
            if i not in failed:
                assert outcome == eager_text("map(id)", payloads[i])
        assert again == eager_text("map(id)", payloads[failed[0]])
        assert plan.stats()["serve.eval"] == 3
        assert stats["errors"] == len(failed)
        assert stats["pending"] == 0

    def test_persistent_fault_fails_with_the_injected_error(self):
        plan = FaultPlan(rules=(FaultRule("serve.eval", "error", times=None),))

        async def main():
            async with AsyncEngine(backend="eager") as engine:
                return await asyncio.gather(
                    engine.run_json("map(id)", PAYLOAD), return_exceptions=True
                )

        with faults.active_plan(plan):
            (outcome,) = asyncio.run(main())
        assert isinstance(outcome, InjectedFault)


class TestBackpressure:
    def test_overload_sheds_with_retry_after(self):
        # Both requests are admitted in one tick: the second finds the
        # first still pending and is shed.
        async def main():
            async with AsyncEngine(backend="eager", max_pending=1) as engine:
                result, exc = await asyncio.gather(
                    engine.run_json("map(id)", PAYLOAD),
                    engine.run_json("map(id)", PAYLOAD),
                    return_exceptions=True,
                )
                return result, exc, engine.stats()

        result, exc, stats = asyncio.run(main())
        # The admitted request was still served.
        assert result == eager_text("map(id)", PAYLOAD)
        assert isinstance(exc, Overloaded)
        assert exc.retry_after > 0
        assert stats["shed"] == 1
        assert stats["pending"] == 0

    def test_cost_guard_rejects_before_evaluation(self):
        wide = value_to_json(vset(*range(64)))

        async def main():
            async with AsyncEngine(backend="eager", cost_budget=10) as engine:
                with pytest.raises(CostBudgetExceeded) as excinfo:
                    await engine.run_json("map(id)", wide)
                small = await engine.run_json("map(id)", value_to_json(vset(1)))
                return small, excinfo.value, engine.stats()

        with faults.active_plan(FaultPlan()) as plan:
            small, exc, stats = asyncio.run(main())
        assert small == eager_text("map(id)", value_to_json(vset(1)))
        assert exc.estimated > exc.budget == 10
        assert stats["cost_rejected"] == 1
        # The rejected input was never admitted, nor evaluated.
        assert stats["requests"] == 1
        assert plan.stats()["serve.eval"] == 1


class TestDeadlines:
    def test_expired_deadline_fails_before_dispatch(self):
        async def main():
            async with AsyncEngine(backend="eager") as engine:
                with pytest.raises(DeadlineExceeded):
                    await engine.run_json("map(id)", PAYLOAD, timeout=0.0)
                return engine.stats()

        stats = asyncio.run(main())
        assert stats["timeouts"] == 1

    def test_default_timeout_applies_when_caller_passes_none(self):
        async def main():
            async with AsyncEngine(backend="eager", default_timeout=0.0) as engine:
                with pytest.raises(DeadlineExceeded):
                    await engine.run_json("map(id)", PAYLOAD)

        asyncio.run(main())

    def test_slow_fault_plus_deadline_times_out(self):
        plan = FaultPlan(rules=(FaultRule("serve.eval", "slow", times=None, delay=0.05),))

        async def main():
            async with AsyncEngine(backend="eager") as engine:
                with pytest.raises(DeadlineExceeded):
                    await engine.run_json("map(id)", PAYLOAD, timeout=0.02)
                return engine.stats()

        with faults.active_plan(plan):
            stats = asyncio.run(main())
        assert stats["timeouts"] >= 1

    def test_mixed_deadlines_do_not_cross_requests(self):
        # A nearly-expired request is in flight with an unbounded one on
        # another input; only the former may time out.
        async def main():
            async with AsyncEngine(backend="eager") as engine:
                doomed = asyncio.ensure_future(
                    engine.run_json("map(id)", PAYLOAD, timeout=0.0)
                )
                fine = asyncio.ensure_future(
                    engine.run_json("map(id)", value_to_json(vset(9)))
                )
                return await asyncio.gather(doomed, fine, return_exceptions=True)

        doomed, fine = asyncio.run(main())
        assert isinstance(doomed, DeadlineExceeded)
        assert fine == eager_text("map(id)", value_to_json(vset(9)))

    def test_expired_starter_leaves_an_unbounded_sharer_its_result(self):
        # One input sent twice in one tick, once with timeout=0 and once
        # unbounded, in both orders.  When the expired request starts the
        # evaluation, it fails at its checkpoint; the unbounded request,
        # its own deadline not passed, then starts one of its own.
        async def main():
            async with AsyncEngine(backend="eager") as engine:
                for rep in range(50):
                    doomed = engine.run_json("map(id)", PAYLOAD, timeout=0.0)
                    fine = engine.run_json("map(id)", PAYLOAD)
                    pair = (doomed, fine) if rep % 2 == 0 else (fine, doomed)
                    outcomes = await asyncio.gather(*pair, return_exceptions=True)
                    if rep % 2:
                        outcomes.reverse()
                    assert isinstance(outcomes[0], DeadlineExceeded), rep
                    assert outcomes[1] == eager_text("map(id)", PAYLOAD), rep
                return engine.stats()

        with faults.active_plan(FaultPlan()) as plan:
            stats = asyncio.run(main())
        assert stats["timeouts"] == 50
        assert stats["errors"] == 0
        assert stats["pending"] == 0
        # Each rep's second request joined the first's evaluation, so the
        # unbounded sharer of an expired one got its result from a second
        # evaluation.  An expired evaluation stops at its checkpoint,
        # before the fault site: one hit per rep.
        assert stats["deduped_inputs"] == 50
        assert plan.stats()["serve.eval"] == 50

    def test_tight_deadline_starter_stops_its_evaluation(self):
        # The evaluation runs under its starter's deadline: slowed past
        # it, the evaluation itself fails, and an unbounded sharer then
        # evaluates once more and gets the result.  (The evaluation must
        # reach the fault site before the deadline: 0.1 s of slack.)
        plan = FaultPlan(rules=(FaultRule("serve.eval", "slow", times=1, delay=0.3),))

        async def main():
            async with AsyncEngine(backend="eager") as engine:
                return await asyncio.gather(
                    engine.run_json("map(id)", PAYLOAD, timeout=0.1),
                    engine.run_json("map(id)", PAYLOAD),
                    return_exceptions=True,
                )

        with faults.active_plan(plan):
            starter, sharer = asyncio.run(main())
        assert isinstance(starter, DeadlineExceeded)
        assert sharer == eager_text("map(id)", PAYLOAD)
        assert plan.stats()["serve.eval"] == 2

    def test_tight_deadline_sharer_alone_times_out(self):
        # A slow evaluation started by an unbounded request; a sharer
        # with a tight deadline stops waiting at its own deadline, and
        # the starter still gets the result.
        plan = FaultPlan(rules=(FaultRule("serve.eval", "slow", times=1, delay=0.3),))

        async def main():
            async with AsyncEngine(backend="eager") as engine:
                starter = asyncio.ensure_future(engine.run_json("map(id)", PAYLOAD))
                sharer = asyncio.ensure_future(
                    engine.run_json("map(id)", PAYLOAD, timeout=0.05)
                )
                done, _ = await asyncio.wait(
                    {starter, sharer}, return_when=asyncio.FIRST_COMPLETED
                )
                assert done == {sharer}
                with pytest.raises(DeadlineExceeded):
                    await sharer
                return await starter, engine.stats()

        with faults.active_plan(plan):
            result, stats = asyncio.run(main())
        assert result == eager_text("map(id)", PAYLOAD)
        assert stats["deduped_inputs"] == 1
        assert stats["timeouts"] == 1
        assert plan.stats()["serve.eval"] == 1


class TestCountDegradation:
    def test_exact_count_when_unbounded(self):
        async def main():
            async with AsyncEngine(backend="eager") as engine:
                out = await engine.count_json("normalize", value_to_json(vorset(1, 2)))
                return out, engine.stats()

        out, stats = asyncio.run(main())
        assert out == {"count": 2, "approximate": False}
        assert stats["degraded"] == 0

    def test_degrades_to_static_bound_past_deadline(self):
        async def main():
            async with AsyncEngine(backend="eager", degrade=True) as engine:
                out = await engine.count_json(
                    "normalize", value_to_json(vorset(1, 2)), timeout=0.0
                )
                return out, engine.stats()

        out, stats = asyncio.run(main())
        assert out["approximate"] is True
        assert out["count"] >= 2  # the static estimate is an upper bound
        assert stats["degraded"] == 1
        assert stats["timeouts"] == 1

    def test_shared_count_degrades_per_request(self):
        # An expired and an unbounded count of one input in one tick:
        # only the expired one degrades to the static bound.
        async def main():
            async with AsyncEngine(backend="eager") as engine:
                value = value_to_json(vorset(1, 2))
                return await asyncio.gather(
                    engine.count_json("normalize", value, timeout=0.0),
                    engine.count_json("normalize", value),
                )

        approx, exact = asyncio.run(main())
        assert approx["approximate"] is True
        assert exact == {"count": 2, "approximate": False}

    def test_degradation_can_be_disabled(self):
        async def main():
            async with AsyncEngine(backend="eager", degrade=False) as engine:
                with pytest.raises(DeadlineExceeded):
                    await engine.count_json(
                        "normalize", value_to_json(vorset(1, 2)), timeout=0.0
                    )

        asyncio.run(main())


class TestStdioHardening:
    def test_round_trip(self):
        frames = run_stdio(
            [json.dumps({"id": 1, "program": "map(id)", "value": PAYLOAD}) + "\n"]
        )
        assert frames == [{"id": 1, "result": PAYLOAD}]

    def test_malformed_json_answers_a_structured_frame(self):
        frames = run_stdio(['{"id": 1, "program": nope\n'])
        assert len(frames) == 1
        assert frames[0]["code"] == "malformed"

    def test_missing_program_key_is_malformed(self):
        frames = run_stdio([json.dumps({"id": 7, "value": PAYLOAD}) + "\n"])
        assert frames[0]["code"] == "malformed"
        assert frames[0]["id"] == 7

    def test_oversized_line_is_rejected_and_skipped(self):
        good = json.dumps({"id": 2, "program": "map(id)", "value": PAYLOAD}) + "\n"
        frames = run_stdio(
            ["x" * 600 + "\n", good],
            argv=["--quiet", "--max-line", "256"],
        )
        assert frames[0]["code"] == "oversized"
        assert frames[1] == {"id": 2, "result": PAYLOAD}

    def test_injected_frame_corruption_is_contained(self):
        # The fault site sits in the shared dispatcher, so a corrupted
        # frame is contained the same way on every transport.
        good = json.dumps({"id": 3, "program": "map(id)", "value": PAYLOAD}) + "\n"
        for run in (run_stdio, run_tcp):
            plan = FaultPlan(rules=(FaultRule("serve.frame", "malform", times=1),))
            with faults.active_plan(plan):
                frames = run([good, good])
            codes = [f.get("code") for f in frames]
            assert codes.count("malformed") == 1, run.__name__
            assert {"id": 3, "result": PAYLOAD} in frames, run.__name__

    def test_timeout_flag_reports_deadline_frames(self):
        good = json.dumps({"id": 4, "program": "map(id)", "value": PAYLOAD}) + "\n"
        frames = run_stdio([good], argv=["--quiet", "--timeout", "0.0"])
        assert frames[0]["code"] == "deadline"
        assert frames[0]["id"] == 4

    def test_idle_timeout_closes_a_silent_peer(self):
        release = threading.Event()

        class SilentPeer:
            def readline(self, _size=-1):
                release.wait(5.0)
                return ""

        stdout = io.StringIO()
        started = time.monotonic()
        try:
            asyncio.run(
                amain(
                    ["--quiet", "--idle-timeout", "0.05"],
                    SilentPeer(),
                    stdout,
                    io.StringIO(),
                )
            )
        finally:
            release.set()  # unblock the reader thread promptly
        assert time.monotonic() - started < 2.0
