"""Experiment NET-SERVE — the network front-end under open-loop load.

Two workloads measure the TCP serving layer:

* **net-serve sweeps** — ``tools/loadgen.py`` drives a live
  :class:`~repro.serve.net.NetServer` over real sockets with open-loop
  sweep specs (connections x rate x program mix).  Each row records the
  client-observed p50/p90/p99 latency and achieved throughput alongside
  the server's own ring-buffer histogram snapshot — the two views must
  tell the same story for the observability layer to be trustworthy.
* **metrics overhead** — the steady-state price of latency recording:
  the duplicate-heavy serving mix timed through an engine with metrics
  on vs off, in interleaved pairs of calls.  The acceptance bar is <10%
  (``--gate 1.10`` in CI); the honest ratio lands in the JSON whatever
  it is.

Run ``python benchmarks/bench_net_serve.py`` (add ``--quick`` for CI
smoke sizes, ``--gate X`` to fail the run when metrics overhead exceeds
``X``) to print the table and write ``BENCH_net_serve.json`` next to
this file; under pytest the same workloads assert the sweep/latency
and metrics-overhead claims at smoke sizes.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import random
import statistics
import sys

from harness import best_of, write_results

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

from loadgen import LoadSpec, run_spec  # noqa: E402 — tools/ path above

from repro.io import value_to_json  # noqa: E402
from repro.serve import AsyncEngine, NetServer  # noqa: E402
from repro.values.values import vorset, vpair, vset  # noqa: E402

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_net_serve.json"


def _design(width: int, salt: int = 0):
    """A Section 4-shaped object whose normal form has 2^width worlds."""
    return vpair(
        vset(*(vorset(10 * i + salt, 10 * i + salt + 5) for i in range(1, width + 1))),
        vorset(1, 2),
    )


def _multi_world_batch(total: int, distinct: int, width: int) -> list:
    pool = [value_to_json(_design(width, salt=100 * s)) for s in range(distinct)]
    rng = random.Random(0)
    return [pool[rng.randrange(distinct)] for _ in range(total)]


# -- workload 1: open-loop sweeps over a live server -------------------------


def _sweep_specs(quick: bool) -> list:
    duplicate_mix = [
        ("normalize", "normalize", value_to_json(_design(5, salt=100 * s)))
        for s in range(4)
    ]
    mixed = duplicate_mix + [
        ("map-id", "map(id)", value_to_json(vset(*range(16)))),
        ("alpha", "alpha", value_to_json(vset(vorset(1, 2), vorset(3, 4)))),
    ]
    if quick:
        return [
            LoadSpec("duplicate-heavy", 4, 120.0, 25, duplicate_mix),
            LoadSpec("mixed-programs", 6, 150.0, 25, mixed),
        ]
    return [
        LoadSpec("duplicate-heavy", 8, 200.0, 60, duplicate_mix),
        LoadSpec("mixed-programs", 12, 250.0, 60, mixed),
    ]


async def _run_sweep(spec: LoadSpec) -> dict:
    async with NetServer() as server:
        summary = await run_spec(server.address, spec)
        stats = server.stats()
    summary["workload"] = f"net-serve:{spec.name}"
    summary["server"] = {
        "total_latency": stats["latency"]["total"],
        "throughput_rps": stats["latency"]["throughput_rps"],
        "deduped_inputs": stats["deduped_inputs"],
    }
    return summary


# -- workload 2: steady-state metrics overhead -------------------------------


async def _run_many(batch: list, metrics: bool) -> list:
    async with AsyncEngine(metrics=metrics) as engine:
        return await engine.run_many("normalize", batch)


def _metrics_overhead(quick: bool) -> dict:
    total, distinct, width = (60, 6, 5) if quick else (160, 10, 6)
    batch = _multi_world_batch(total, distinct, width)
    with_metrics = asyncio.run(_run_many(batch, True))
    without = asyncio.run(_run_many(batch, False))
    assert with_metrics == without, "metrics must never change results"
    # The median ratio over 60 interleaved pairs of calls.  On a 2-vCPU
    # host a quick call takes about 5 ms, of which metrics cost about 5 %;
    # the fastest call of each side, timed in blocks or interleaved,
    # varies between runs by more than the rest of the 10 % bound.
    off, on = [], []
    for _ in range(60):
        off.append(best_of(lambda: asyncio.run(_run_many(batch, False)), repeat=1))
        on.append(best_of(lambda: asyncio.run(_run_many(batch, True)), repeat=1))
    return {
        "workload": "metrics-overhead",
        "inputs": total,
        "pairs": len(off),
        "metrics_off_s": statistics.median(off),
        "metrics_on_s": statistics.median(on),
        "overhead": statistics.median(b / a for a, b in zip(off, on)),
    }


# -- driver ------------------------------------------------------------------


def _workloads(quick: bool = False) -> list:
    results = [asyncio.run(_run_sweep(spec)) for spec in _sweep_specs(quick)]
    results.append(_metrics_overhead(quick))
    return results


def main() -> None:
    args = _parse_args()
    results = _workloads(quick=args.quick)
    for row in results:
        if row["workload"].startswith("net-serve:"):
            print(
                f"{row['workload']:<28} conns={row['connections']}"
                f" offered={row['offered_rps']:.0f}rps"
                f" achieved={row['achieved_rps']:.0f}rps"
                f" p50={row['p50_ms']:.2f}ms p90={row['p90_ms']:.2f}ms"
                f" p99={row['p99_ms']:.2f}ms"
            )
        else:
            print(
                f"{row['workload']:<28} off={row['metrics_off_s'] * 1000:.1f}ms"
                f" on={row['metrics_on_s'] * 1000:.1f}ms"
                f" overhead={row['overhead']:.3f}x"
            )
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")
    if args.gate is not None:
        overhead = next(
            r["overhead"] for r in results if r["workload"] == "metrics-overhead"
        )
        if overhead > args.gate:
            print(f"FAIL: metrics overhead {overhead:.3f}x > gate {args.gate}x")
            raise SystemExit(1)


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="network serving benchmarks")
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (seconds, not minutes)"
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail if metrics-enabled overhead exceeds this ratio (e.g. 1.10)",
    )
    return parser.parse_args()


# -- pytest entry points (the serving claims) --------------------------------


def test_sweep_reports_latency_percentiles_and_serves_everything():
    spec = _sweep_specs(quick=True)[0]
    row = asyncio.run(_run_sweep(spec))
    assert row["completed"] == row["sent"] == spec.connections * spec.requests
    assert row["ok"] == row["sent"] and not row["errors"]
    assert 0 < row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"]
    assert row["server"]["total_latency"]["count"] == row["sent"]
    assert row["server"]["throughput_rps"] > 0


def test_open_loop_pacing_holds_offered_rate():
    # Request k is sent at t0 + k/rate regardless of responses, so the
    # send window can never finish faster than (requests-1)/rate.
    spec = LoadSpec(
        "pacing",
        connections=1,
        rate=200.0,
        requests=20,
        mix=[("normalize", "normalize", value_to_json(vorset(1, 2)))],
    )
    row = asyncio.run(_run_sweep(spec))
    assert row["wall_s"] >= (spec.requests - 1) / spec.rate
    assert row["ok"] == spec.requests


def test_metrics_overhead_steady_state_is_small():
    # Acceptance: <10% (the --gate 1.10 CI run on the full sizes); the
    # pytest gate is looser to keep shared-runner noise out of CI.
    row = _metrics_overhead(quick=True)
    assert row["overhead"] <= 1.5, row


if __name__ == "__main__":
    main()
