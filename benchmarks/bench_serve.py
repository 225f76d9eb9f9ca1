"""Experiment SERVE — async micro-batched serving and process sharding.

Three workloads measure the serving layer added on top of the batched
engine:

* **async-batched-serving** — the front-end's reason to exist: N
  concurrent clients submit JSON queries drawn from K distinct worlds
  (heavy duplication, as in any cache-worthy serving mix).  The baseline
  is the sequential loop a client without the front-end writes —
  ``[run_json(q, v) for v in batch]`` — which normalizes every request
  from scratch.  Submitting the same requests concurrently through
  :class:`~repro.serve.AsyncEngine` admits them into one micro-batch,
  deduplicates structurally equal inputs and fans the batch into
  ``run_json_many``, so each distinct world is evaluated once.
* **process-vs-eager-sharding** — a CPU-bound tight-family-style
  workload (``map(normalize)`` over a wide set of multi-world designs):
  eager evaluation runs every element in one process, the process
  backend shards the set across worker processes.  On a single-core
  runner this degenerates to a transport-overhead check (speedup ≤ 1,
  recorded honestly); on multicore CI the processes genuinely overlap.
  Each timing repetition uses freshly salted inputs so no backend
  benefits from memoized normal forms across repeats.
* **robust-serving-under-faults** — the fault-tolerance scenario: an
  overload burst (more concurrent clients than ``max_pending``) with a
  seeded :class:`~repro.engine.faults.FaultPlan` injecting evaluation
  errors and slowdowns.  The row records how the storm resolved — served
  / shed / timed-out counts, retries, p99 latency — plus the
  steady-state cost of the robustness layer itself: the throughput ratio
  of a fully-armed engine (deadline, cost budget, admission control) to
  a plain one on the duplicate-heavy mix, which must stay near 1.

Run ``python benchmarks/bench_serve.py`` (add ``--quick`` for CI smoke
sizes) to print the table and write ``BENCH_serve.json`` next to this
file; under pytest the same workloads assert that async batched serving
beats the sequential loop on the duplicate-heavy mix and that the
process backend is structurally exact.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import random
import time

from harness import best_of, write_results

from repro.engine import Engine, ProcessBackend, default_process_count, faults, run
from repro.engine.faults import FaultPlan, FaultRule
from repro.errors import DeadlineExceeded, Overloaded
from repro.io import dumps_value, parsed_morphism, run_json, value_from_json, value_to_json
from repro.lang.parser import parse_morphism
from repro.serve import AsyncEngine
from repro.values.values import vorset, vpair, vset

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_serve.json"

MAP_NORMALIZE = parse_morphism("map(normalize)")


def _design(width: int, salt: int = 0):
    """A Section 4-shaped object whose normal form has 2^width worlds."""
    return vpair(
        vset(*(vorset(10 * i + salt, 10 * i + salt + 5) for i in range(1, width + 1))),
        vorset(1, 2),
    )


def _multi_world_batch(total: int, distinct: int, width: int) -> list:
    """*total* JSON inputs drawn (shuffled, with repeats) from *distinct* worlds."""
    pool = [value_to_json(_design(width, salt=100 * s)) for s in range(distinct)]
    rng = random.Random(0)
    return [pool[rng.randrange(distinct)] for _ in range(total)]


def _cpu_bound_input(elements: int, width: int, salt: int = 0):
    """A wide set of independent designs: ``map(normalize)`` shards it."""
    return vset(*(_design(width, salt=salt * 10_000 + 17 * i) for i in range(elements)))


def _eager_texts(query: str, batch: list) -> list[str]:
    """What the server answers each input with: the eager result's JSON text."""
    program = parsed_morphism(query)
    return [dumps_value(run(program, value_from_json(v), backend="eager")) for v in batch]


async def _serve_concurrently(query: str, batch: list) -> tuple[list, dict]:
    async with AsyncEngine(batch_window=0.02, max_batch=1024) as engine:
        results = await engine.run_many(query, batch)
        return results, engine.stats()


#: The benchmark's seeded fault storm: a couple of failed batch
#: evaluations (forcing the individual-retry pass) and a couple of slow
#: ones (driving the deadline machinery).
STORM = FaultPlan(
    seed=7,
    rules=(
        FaultRule("serve.eval", "error", times=2),
        FaultRule("serve.eval", "slow", times=2, delay=0.02),
    ),
)


async def _serve_under_storm(
    query: str, batch: list, *, max_pending: int, timeout: float
) -> tuple[dict, dict, float]:
    """The overload burst: every client fires at once into a small queue.

    Returns (outcome counts, engine stats, p99 latency in seconds).  The
    invariant the pytest gate asserts: every admitted *or* shed request
    resolves — the counts add up to the burst size.
    """
    outcomes = {"served": 0, "shed": 0, "deadline": 0, "failed": 0}
    latencies: list[float] = []

    async with AsyncEngine(
        batch_window=0.005,
        max_batch=1024,
        max_pending=max_pending,
        default_timeout=timeout,
    ) as engine:

        async def one_client(value) -> None:
            start = time.perf_counter()
            try:
                await engine.run_json(query, value)
                outcomes["served"] += 1
            except Overloaded:
                outcomes["shed"] += 1
            except DeadlineExceeded:
                outcomes["deadline"] += 1
            except Exception:  # noqa: BLE001 — injected faults land here
                outcomes["failed"] += 1
            latencies.append(time.perf_counter() - start)

        await asyncio.gather(*(one_client(v) for v in batch))
        stats = engine.stats()

    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return outcomes, stats, p99


async def _serve_armed(query: str, batch: list) -> tuple[list, dict]:
    """The duplicate-heavy mix with every robustness guard switched on.

    The limits are generous (nothing sheds, nothing expires), so the
    timing isolates the per-request cost of admission control, the
    static cost estimate and the deadline plumbing.
    """
    async with AsyncEngine(
        batch_window=0.02,
        max_batch=1024,
        max_pending=4096,
        default_timeout=60.0,
        cost_budget=1_000_000,
    ) as engine:
        results = await engine.run_many(query, batch)
        return results, engine.stats()


def _workloads(quick: bool = False) -> list[dict]:
    results: list[dict] = []

    # 1. async-batched-serving: AsyncEngine vs the sequential loop.
    total, distinct, width = (60, 6, 5) if quick else (240, 12, 7)
    batch = _multi_world_batch(total, distinct, width)
    query = "normalize"
    served, stats = asyncio.run(_serve_concurrently(query, batch))
    assert served == _eager_texts(query, batch), "async serving must be exact"
    t_seq = best_of(lambda: [run_json(query, v) for v in batch])
    t_async = best_of(lambda: asyncio.run(_serve_concurrently(query, batch)))
    results.append(
        {
            "workload": "async-batched-serving",
            "inputs": total,
            "distinct_worlds": distinct,
            "batches": stats["batches"],
            "deduped_inputs": stats["deduped_inputs"],
            "sequential_s": t_seq,
            "async_s": t_async,
            "speedup": t_seq / t_async,
        }
    )

    # 2. process-vs-eager-sharding on a CPU-bound wide map(normalize).
    elements, width = (24, 6) if quick else (48, 8)
    workers = max(2, default_process_count())
    eng = Engine()
    eng.backends["process"] = ProcessBackend(max_workers=workers, min_shard=2)
    probe = _cpu_bound_input(elements, width, salt=999)
    assert eng.run(MAP_NORMALIZE, probe, backend="process") == eng.run(
        MAP_NORMALIZE, probe, backend="eager"
    ), "process sharding must be structurally exact"

    def timed(backend: str) -> float:
        # Freshly salted inputs per repetition: no backend may win by
        # re-serving a memoized normal form.
        best = float("inf")
        for rep in range(3):
            xs = _cpu_bound_input(elements, width, salt=rep)
            start = time.perf_counter()
            eng.run(MAP_NORMALIZE, xs, backend=backend)
            best = min(best, time.perf_counter() - start)
        return best

    t_eager = timed("eager")
    t_process = timed("process")
    results.append(
        {
            "workload": "process-vs-eager-sharding",
            "elements": elements,
            "design_width": width,
            "workers": workers,
            "eager_s": t_eager,
            "process_s": t_process,
            "speedup": t_eager / t_process,
        }
    )
    eng.backends["process"].close()

    # 3. robust-serving-under-faults: overload burst + injected faults,
    # then the steady-state price of the robustness layer itself.
    burst, distinct, width = (48, 6, 5) if quick else (160, 10, 6)
    storm_batch = _multi_world_batch(burst, distinct, width)
    with faults.active_plan(STORM):
        outcomes, stats, p99 = asyncio.run(
            _serve_under_storm("normalize", storm_batch, max_pending=8, timeout=5.0)
        )
    assert sum(outcomes.values()) == burst, "every request must resolve"

    plain_batch = _multi_world_batch(total, distinct, width)
    t_plain = best_of(
        lambda: asyncio.run(_serve_concurrently("normalize", plain_batch))
    )
    t_robust = best_of(
        lambda: asyncio.run(_serve_armed("normalize", plain_batch))
    )
    results.append(
        {
            "workload": "robust-serving-under-faults",
            "burst": burst,
            "max_pending": 8,
            "served": outcomes["served"],
            "shed": outcomes["shed"],
            "deadline": outcomes["deadline"],
            "failed": outcomes["failed"],
            "retries": stats["retries"],
            "timeouts": stats["timeouts"],
            "p99_latency_s": p99,
            "plain_s": t_plain,
            "robust_s": t_robust,
            "steady_state_overhead": t_robust / t_plain,
        }
    )
    return results


def main() -> None:
    args = _parse_args()
    results = _workloads(quick=args.quick)
    print(f"{'workload':<28} {'baseline (ms)':>14} {'served (ms)':>12} {'speedup':>8}")
    for row in results:
        if row["workload"] == "robust-serving-under-faults":
            print(
                f"{row['workload']:<28} burst={row['burst']}"
                f" served={row['served']} shed={row['shed']}"
                f" deadline={row['deadline']} failed={row['failed']}"
                f" retries={row['retries']} p99={row['p99_latency_s'] * 1000:.2f}ms"
                f" overhead={row['steady_state_overhead']:.2f}x"
            )
            continue
        base = row.get("sequential_s", row.get("eager_s"))
        new = row.get("async_s", row.get("process_s"))
        print(
            f"{row['workload']:<28} {base * 1000:>14.2f}"
            f" {new * 1000:>12.2f} {row['speedup']:>7.1f}x"
        )
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="async serving and process-sharding benchmarks"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (seconds, not minutes)"
    )
    return parser.parse_args()


# -- pytest entry points (the serving-layer claims) --------------------------


def test_async_serving_beats_sequential_loop_on_duplicates():
    batch = _multi_world_batch(total=80, distinct=8, width=6)
    query = "normalize"
    served, stats = asyncio.run(_serve_concurrently(query, batch))
    assert served == _eager_texts(query, batch)
    assert stats["deduped_inputs"] > 0
    t_seq = best_of(lambda: [run_json(query, v) for v in batch])
    t_async = best_of(lambda: asyncio.run(_serve_concurrently(query, batch)))
    # Deduplication evaluates each distinct world once; 0.8 keeps timing
    # noise out of CI.
    assert t_async <= t_seq * 0.8, (t_async, t_seq)


def test_storm_resolves_every_request():
    # The fault-tolerance claim on the bench workload: under an overload
    # burst with injected evaluation faults, every request resolves —
    # served, shed with a retry hint, or failed with a typed error.
    batch = _multi_world_batch(total=48, distinct=6, width=5)
    with faults.active_plan(STORM):
        outcomes, stats, p99 = asyncio.run(
            _serve_under_storm("normalize", batch, max_pending=8, timeout=5.0)
        )
    assert sum(outcomes.values()) == len(batch)
    assert outcomes["served"] > 0
    assert stats["pending"] == 0
    assert p99 > 0.0


def test_robustness_layer_steady_state_overhead_is_small():
    # Acceptance: <10% steady-state regression.  The pytest gate is
    # looser (50%) to keep shared-runner timing noise out of CI; the
    # honest ratio lands in BENCH_serve.json.
    batch = _multi_world_batch(total=80, distinct=8, width=6)
    plain, _ = asyncio.run(_serve_concurrently("normalize", batch))
    armed, stats = asyncio.run(_serve_armed("normalize", batch))
    assert armed == plain, "the robustness guards must not change results"
    assert stats["shed"] == 0 and stats["timeouts"] == 0
    t_plain = best_of(lambda: asyncio.run(_serve_concurrently("normalize", batch)))
    t_armed = best_of(lambda: asyncio.run(_serve_armed("normalize", batch)))
    assert t_armed <= t_plain * 1.5, (t_armed, t_plain)


def test_process_backend_matches_eager_on_bench_workload():
    eng = Engine()
    eng.backends["process"] = ProcessBackend(max_workers=2, min_shard=2)
    xs = _cpu_bound_input(elements=12, width=5)
    assert eng.run(MAP_NORMALIZE, xs, backend="process") == eng.run(
        MAP_NORMALIZE, xs, backend="eager"
    )
    eng.backends["process"].close()


if __name__ == "__main__":
    main()
