"""Concurrency and stress tests for the asyncio serving front-end.

N concurrent clients with mixed duplicate/distinct queries; the suite
asserts the front-end's three contracts: structurally equal concurrent
inputs are deduplicated into one evaluation (observable via
``AsyncEngine.stats()``), every client gets exactly its own result (no
cross-request bleed), and shutdown is clean — in-flight requests are
served, late admissions are refused.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.io import dumps_value, run_json, value_to_json
from repro.serve import AsyncEngine, ServerClosed
from repro.values.values import vorset, vpair, vset
from tests.serve.transports import eager_text


def orset_json(*xs):
    return value_to_json(vorset(*xs))


def design_json(i: int):
    return value_to_json(
        vpair(vset(vorset(i, i + 1), vorset(i + 2, i + 3)), vorset(1, 2))
    )


class TestBatchingAndDedupe:
    def test_concurrent_duplicates_collapse(self):
        async def main():
            async with AsyncEngine() as engine:
                dup = orset_json(1, 2)
                results = await asyncio.gather(
                    *(engine.run_json("normalize", dup) for _ in range(32))
                )
                return results, engine.stats()

        results, stats = asyncio.run(main())
        expected = eager_text("normalize", orset_json(1, 2))
        assert all(r == expected for r in results)
        assert stats["requests"] == 32
        # All 32 admitted concurrently: at most a couple of windows, and
        # nearly every input deduplicated away.
        assert stats["unique_inputs"] < 32
        assert stats["deduped_inputs"] >= 32 - stats["batches"]

    def test_mixed_duplicate_distinct_clients(self):
        async def main():
            async with AsyncEngine() as engine:
                payloads = [design_json(i % 4) for i in range(40)]
                results = await asyncio.gather(
                    *(engine.run_json("normalize", p) for p in payloads)
                )
                return payloads, results, engine.stats()

        payloads, results, stats = asyncio.run(main())
        # No cross-request bleed: each response equals the sequential
        # evaluation of exactly that request's payload.
        expected = {json.dumps(p, sort_keys=True): eager_text("normalize", p) for p in payloads[:4]}
        for payload, result in zip(payloads, results, strict=True):
            assert result == expected[json.dumps(payload, sort_keys=True)]
        assert stats["requests"] == 40
        assert stats["deduped_inputs"] > 0

    def test_max_batch_splits_bursts(self):
        async def main():
            async with AsyncEngine(max_batch=4) as engine:
                results = await asyncio.gather(
                    *(engine.run_json("normalize", orset_json(i)) for i in range(12))
                )
                return results, engine.stats()

        results, stats = asyncio.run(main())
        assert len(results) == 12
        assert stats["batches"] >= 3  # 12 distinct admissions, <=4 per batch

    def test_zero_window_still_serves(self):
        async def main():
            async with AsyncEngine(batch_window=0.0) as engine:
                return await engine.run_many(
                    "normalize", [orset_json(1, 2), orset_json(1, 2), orset_json(3)]
                )

        out = asyncio.run(main())
        assert out[0] == out[1] == eager_text("normalize", orset_json(1, 2))
        assert out[2] == eager_text("normalize", orset_json(3))

    def test_multiple_programs_group_independently(self):
        async def main():
            async with AsyncEngine() as engine:
                norm = engine.run_json("normalize", orset_json(4, 5))
                ident = engine.run_json("id", orset_json(4, 5))
                return await asyncio.gather(norm, ident), engine.stats()

        (norm, ident), stats = asyncio.run(main())
        assert norm == eager_text("normalize", orset_json(4, 5))
        assert ident == dumps_value(vorset(4, 5))
        assert stats["groups"] >= 2


class TestErrorIsolation:
    def test_bad_request_does_not_poison_the_batch(self):
        async def main():
            async with AsyncEngine() as engine:
                good = [engine.run_json("normalize", orset_json(i)) for i in range(5)]
                bad = engine.run_json("mu", orset_json(9))  # kind mismatch
                outcomes = await asyncio.gather(*good, bad, return_exceptions=True)
                return outcomes, engine.stats()

        outcomes, stats = asyncio.run(main())
        for i, outcome in enumerate(outcomes[:5]):
            assert outcome == eager_text("normalize", orset_json(i))
        assert isinstance(outcomes[5], Exception)
        assert stats["errors"] == 1

    def test_unhashable_program_fails_only_its_caller(self):
        # Regression: an unhashable program (a list from a malformed
        # stdio line) used to kill the batcher task and wedge every
        # later request; it must fail at admission and leave the server
        # serving.
        async def main():
            async with AsyncEngine() as engine:
                with pytest.raises(TypeError):
                    await engine.run_json(["normalize"], orset_json(1))
                return await engine.run_json("normalize", orset_json(1))

        assert asyncio.run(main()) == eager_text("normalize", orset_json(1))

    def test_batcher_survives_dispatch_errors(self):
        # Even if a batch blows up past the per-group guards, the error
        # lands on that batch's futures and the batcher keeps running.
        async def main():
            async with AsyncEngine() as engine:
                await engine.start()
                original = engine._dispatch
                calls = {"n": 0}

                async def flaky(batch):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise RuntimeError("dispatch exploded")
                    await original(batch)

                engine._dispatch = flaky
                with pytest.raises(RuntimeError):
                    await engine.run_json("normalize", orset_json(1))
                return await engine.run_json("normalize", orset_json(2))

        assert asyncio.run(main()) == eager_text("normalize", orset_json(2))

    def test_unparsable_program_is_per_request(self):
        async def main():
            async with AsyncEngine() as engine:
                ok = engine.run_json("normalize", orset_json(7))
                broken = engine.run_json("not a ) program", orset_json(7))
                return await asyncio.gather(ok, broken, return_exceptions=True)

        ok, broken = asyncio.run(main())
        assert ok == eager_text("normalize", orset_json(7))
        assert isinstance(broken, Exception)


class TestShutdown:
    def test_close_drains_in_flight_requests(self):
        async def main():
            engine = await AsyncEngine(batch_window=0.05).start()
            pending = [
                asyncio.ensure_future(engine.run_json("normalize", design_json(i % 3)))
                for i in range(12)
            ]
            # Admit, then close immediately — well inside the window.
            await asyncio.sleep(0)
            await engine.close()
            results = await asyncio.gather(*pending)
            return results, engine.stats()

        results, stats = asyncio.run(main())
        assert len(results) == 12
        for i, r in enumerate(results):
            assert r == eager_text("normalize", design_json(i % 3))
        assert stats["requests"] == 12

    def test_admission_after_close_is_refused(self):
        async def main():
            engine = AsyncEngine()
            async with engine:
                await engine.run_json("normalize", orset_json(1))
            with pytest.raises(ServerClosed):
                await engine.run_json("normalize", orset_json(2))

        asyncio.run(main())

    def test_close_is_idempotent(self):
        async def main():
            engine = AsyncEngine()
            await engine.start()
            await engine.close()
            await engine.close()

        asyncio.run(main())

    def test_close_without_start_is_a_noop(self):
        asyncio.run(AsyncEngine().close())

    def test_straggler_past_the_closed_check_fails_fast(self):
        # Regression for the close/admission race: a request that passed
        # the closed check while close() was draining used to enqueue
        # onto a dead batcher and hang forever.  Stragglers must fail
        # with ServerClosed promptly.
        async def main():
            engine = AsyncEngine(batch_window=0.01)
            async with engine:
                await engine.run_json("normalize", orset_json(1))
            # Simulate the interleaving: the admission check saw the
            # server open, then close() won the race.
            engine._closed = False
            with pytest.raises(ServerClosed):
                await asyncio.wait_for(
                    engine.run_json("normalize", orset_json(2)), timeout=2.0
                )

        asyncio.run(main())


class TestCollectNowait:
    def test_limit_zero_collects_nothing(self):
        # Regression: limit=0 used to be a magic sentinel for "up to
        # max_batch", so a computed 0 silently drained a full batch.
        from repro.serve.server import _Request

        async def main():
            engine = AsyncEngine()
            loop = asyncio.get_running_loop()
            for i in range(3):
                engine._queue.put_nowait(
                    _Request("normalize", orset_json(i), ("normalize", str(i)),
                             loop.create_future())
                )
            batch = []
            assert engine._collect_nowait(batch, limit=0) is False
            assert batch == []
            # The default still collects up to max_batch...
            assert engine._collect_nowait(batch) is False
            assert len(batch) == 3
            # ...and an explicit integer cap is honored literally.
            engine._queue.put_nowait(
                _Request("normalize", orset_json(9), ("normalize", "9"),
                         loop.create_future())
            )
            small = []
            assert engine._collect_nowait(small, limit=1) is False
            assert len(small) == 1

        asyncio.run(main())


class TestRobustnessStats:
    def test_stats_expose_the_robustness_counters(self):
        async def main():
            engine = AsyncEngine()
            async with engine:
                await engine.run_json("normalize", orset_json(1))
            return engine.stats()

        stats = asyncio.run(main())
        for key in (
            "shed",
            "cost_rejected",
            "timeouts",
            "retries",
            "degraded",
            "pending",
            "breaker_open",
        ):
            assert key in stats
        assert stats["pending"] == 0
        assert stats["breaker_open"] is False

    def test_per_request_timeout_counts(self):
        from repro.errors import DeadlineExceeded

        async def main():
            engine = AsyncEngine()
            async with engine:
                with pytest.raises(DeadlineExceeded):
                    await engine.run_json("normalize", orset_json(1), timeout=0.0)
            return engine.stats()

        stats = asyncio.run(main())
        assert stats["timeouts"] == 1


class TestStdioServer:
    def test_json_lines_roundtrip(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        requests = [
            {"id": 1, "program": "normalize", "value": orset_json(1, 2)},
            {"id": 2, "program": "normalize", "values": [orset_json(3), orset_json(3)]},
            {"id": 3, "program": "mu", "value": orset_json(4)},
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve"],
            input="\n".join(json.dumps(r) for r in requests) + "\n",
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        responses = {
            r["id"]: r for r in (json.loads(line) for line in proc.stdout.splitlines())
        }
        assert responses[1]["result"] == run_json("normalize", orset_json(1, 2))
        assert responses[2]["results"] == [
            run_json("normalize", orset_json(3)),
            run_json("normalize", orset_json(3)),
        ]
        assert "error" in responses[3]
        assert "serve stats" in proc.stderr

    def test_pool_warms_before_the_stdin_reader_starts(self, monkeypatch):
        # A pool worker forked while the stdin reader thread holds the
        # stream's buffer lock blocks in its bootstrap, and the server
        # then hangs at exit joining it: the pool must warm first.  Only
        # `--backend process` has a pool to warm.
        from repro.engine import ProcessBackend
        from repro.serve.__main__ import amain

        class GatedStdin:
            """Blocks the reader (keeping its thread alive) until warm."""

            def __init__(self) -> None:
                self.gate = threading.Event()

            def readline(self, _size=-1):
                self.gate.wait(30)
                return ""

        stdin = GatedStdin()
        live_at_warm: list[set[str]] = []

        def warm(_backend) -> None:
            live_at_warm.append({t.name for t in threading.enumerate()})
            stdin.gate.set()

        monkeypatch.setattr(ProcessBackend, "warm", warm)
        asyncio.run(
            amain(
                ["--quiet", "--backend", "process"],
                stdin=stdin,
                stdout=io.StringIO(),
                stderr=io.StringIO(),
            )
        )
        assert live_at_warm, "the server never warmed the process pool"
        assert all("serve-stdin" not in names for names in live_at_warm)

    def test_default_server_never_warms_the_pool(self, monkeypatch):
        from repro.engine import ProcessBackend
        from repro.serve.__main__ import amain

        warmed: list[object] = []
        monkeypatch.setattr(ProcessBackend, "warm", warmed.append)
        asyncio.run(
            amain(
                ["--quiet"],
                stdin=io.StringIO(""),
                stdout=io.StringIO(),
                stderr=io.StringIO(),
            )
        )
        assert warmed == []


class TestReplServeCommand:
    def test_serve_reports_dedupe(self):
        from repro.repl import Repl

        repl = Repl()
        repl.eval_line("let x = <1, 2>")
        repl.eval_line("let y = <1, 2>")
        repl.eval_line("let z = <3>")
        out = repl.eval_line("serve normalize x y z")
        lines = out.splitlines()
        assert lines[0] == "x: <1, 2> : <int>"
        assert lines[1] == "y: <1, 2> : <int>"
        assert lines[2] == "z: <3> : <int>"
        assert "2 unique, 1 deduplicated" in lines[3]

    def test_serve_usage_error(self):
        from repro.repl import Repl

        repl = Repl()
        assert "expected" in repl.eval_line("serve normalize")
