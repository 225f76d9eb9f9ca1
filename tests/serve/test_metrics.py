"""The latency observability layer: percentile math, snapshot isolation,
ring eviction, token-bucket refill — all under fake clocks, no sleeping."""

from __future__ import annotations

import asyncio

import pytest

from repro.io import value_to_json
from repro.serve import AsyncEngine
from repro.serve.metrics import (
    PHASES,
    RingHistogram,
    ServerMetrics,
    TokenBucket,
    percentile,
)
from repro.values.values import vorset
from tests.serve.transports import eager_text


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPercentile:
    def test_nearest_rank_on_a_known_distribution(self):
        xs = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(xs, 50) == 50.0
        assert percentile(xs, 90) == 90.0
        assert percentile(xs, 99) == 99.0
        assert percentile(xs, 100) == 100.0

    def test_order_independence(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(xs, 50) == 3.0
        assert percentile(xs, 99) == 5.0

    def test_single_sample_answers_itself_for_every_q(self):
        for q in (1, 50, 90, 99, 100):
            assert percentile([7.25], q) == 7.25

    def test_empty_window_has_no_answer(self):
        assert percentile([], 50) is None
        assert percentile([], 99) is None

    def test_small_windows_round_up_to_a_real_sample(self):
        # Nearest-rank never interpolates: every answer is a sample.
        xs = [1.0, 2.0]
        assert percentile(xs, 50) == 1.0
        assert percentile(xs, 51) == 2.0
        assert percentile(xs, 99) == 2.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRingHistogram:
    def test_snapshot_summarizes_the_window(self):
        hist = RingHistogram(capacity=256)
        for i in range(1, 101):
            hist.record(float(i))
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["window"] == 100
        assert snap["p50"] == 50.0
        assert snap["p90"] == 90.0
        assert snap["p99"] == 99.0
        assert snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(50.5)

    def test_empty_histogram_snapshot(self):
        snap = RingHistogram().snapshot()
        assert snap["count"] == 0 and snap["window"] == 0
        assert snap["p50"] is None and snap["p99"] is None
        assert snap["mean"] is None and snap["max"] is None

    def test_ring_evicts_oldest_but_count_is_lifetime(self):
        hist = RingHistogram(capacity=4)
        for i in range(1, 11):  # 1..10; window keeps the last 4
            hist.record(float(i))
        assert hist.count == 10
        assert sorted(hist.window()) == [7.0, 8.0, 9.0, 10.0]
        # Percentiles describe the *current* window, not ancient history.
        assert hist.percentile(50) == 8.0

    def test_snapshot_isolation(self):
        hist = RingHistogram()
        hist.record(1.0)
        snap = hist.snapshot()
        snap["p50"] = 999.0
        snap["count"] = -1
        fresh = hist.snapshot()
        assert fresh["p50"] == 1.0
        assert fresh["count"] == 1


class TestServerMetrics:
    def test_observe_feeds_every_phase(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        metrics.observe(admission=0.001, queue=0.002, execute=0.003, total=0.006)
        snap = metrics.snapshot()
        for phase in PHASES:
            assert snap[phase]["count"] == 1
        assert snap["total"]["p99"] == 0.006
        assert snap["completed"] == 1

    def test_throughput_over_the_completion_window(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        for _ in range(11):
            metrics.observe(total=0.001)
            clock.advance(0.1)
        # 11 completions spanning 1.0s -> 10 intervals / 1.0s.
        assert metrics.throughput() == pytest.approx(10.0, rel=1e-6)

    def test_snapshot_isolation_from_live_counters(self):
        metrics = ServerMetrics(clock=FakeClock())
        metrics.observe(total=0.5)
        snap = metrics.snapshot()
        snap["total"]["p50"] = 42.0
        snap["throughput_rps"] = -1.0
        del snap["admission"]
        fresh = metrics.snapshot()
        assert fresh["total"]["p50"] == 0.5
        assert "admission" in fresh
        metrics.observe(total=0.5)
        assert metrics.snapshot()["total"]["count"] == 2

    def test_negative_durations_clamp_to_zero(self):
        metrics = ServerMetrics(clock=FakeClock())
        metrics.observe(total=-0.001)
        assert metrics.snapshot()["total"]["p50"] == 0.0


class TestTokenBucket:
    def test_burst_admits_then_denies_with_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert bucket.admit() == 0.0
        assert bucket.admit() == 0.0
        assert bucket.admit() == 0.0
        retry = bucket.admit()
        # Empty: the next token is 1/rate = 0.5s away.
        assert retry == pytest.approx(0.5)

    def test_refill_after_advancing_the_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.admit() == 0.0
        assert bucket.admit() == 0.0
        assert bucket.admit() > 0.0
        clock.advance(0.5)  # one token refilled
        assert bucket.admit() == 0.0
        assert bucket.admit() > 0.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_sustained_rate_is_respected(self):
        clock = FakeClock()
        # Binary-exact arithmetic: 16 attempts/s against an 8/s bucket
        # refills exactly half a token per attempt — every other attempt
        # admits, deterministically.
        bucket = TokenBucket(rate=8.0, burst=1, clock=clock)
        admitted = 0
        for _ in range(100):
            if bucket.admit() == 0.0:
                admitted += 1
            clock.advance(0.0625)
        assert admitted == 50

    def test_denied_admission_consumes_nothing(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.admit() == 0.0
        before = bucket.tokens
        bucket.admit()
        assert bucket.tokens == pytest.approx(before)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestAsyncEngineLatencyStats:
    def test_stats_expose_phase_percentiles_and_throughput(self):
        async def main():
            async with AsyncEngine() as engine:
                payload = value_to_json(vorset(1, 2))
                await asyncio.gather(
                    *(engine.run_json("normalize", payload) for _ in range(8))
                )
                return engine.stats()

        stats = asyncio.run(main())
        latency = stats["latency"]
        assert latency["completed"] == 8
        for phase in PHASES:
            assert latency[phase]["count"] == 8
            assert latency[phase]["p99"] is not None
        assert latency["total"]["p50"] <= latency["total"]["p99"]
        assert latency["total"]["p99"] > 0.0
        assert latency["throughput_rps"] > 0.0

    def test_metrics_can_be_disabled(self):
        async def main():
            async with AsyncEngine(metrics=False) as engine:
                await engine.run_json("normalize", value_to_json(vorset(1)))
                return engine.stats()

        stats = asyncio.run(main())
        assert "latency" not in stats

    def test_results_unchanged_by_metrics(self):
        payload = value_to_json(vorset(1, 2, 3))
        expected = eager_text("normalize", payload)

        async def run(metrics):
            async with AsyncEngine(metrics=metrics) as engine:
                return await engine.run_json("normalize", payload)

        assert asyncio.run(run(True)) == expected
        assert asyncio.run(run(False)) == expected

    def test_count_json_records_latency(self):
        async def main():
            async with AsyncEngine() as engine:
                await engine.count_json("normalize", value_to_json(vorset(1, 2)))
                return engine.stats()

        stats = asyncio.run(main())
        assert stats["latency"]["total"]["count"] == 1
        assert stats["latency"]["execute"]["count"] == 1
