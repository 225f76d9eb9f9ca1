"""Experiment NET-SERVE — the network front-end under open-loop load.

Three workloads measure the TCP serving layer and close the loop from
measured latencies back into the static cost model:

* **net-serve sweeps** — ``tools/loadgen.py`` drives a live
  :class:`~repro.serve.net.NetServer` over real sockets with open-loop
  sweep specs (connections x rate x program mix).  Each row records the
  client-observed p50/p90/p99 latency and achieved throughput alongside
  the server's own ring-buffer histogram snapshot — the two views must
  tell the same story for the observability layer to be trustworthy.
* **metrics overhead** — the steady-state price of latency recording:
  the duplicate-heavy serving mix timed through an engine with metrics
  on vs off.  The acceptance bar is <10% (``--gate 1.10`` in CI); the
  honest ratio lands in the JSON whatever it is.
* **cost calibration** — per-program latencies measured on the benchmark
  mix feed :func:`repro.engine.cost_model.calibrate`; the learned
  weight table must *rank* the mix closer to the measured order than the
  hand-tuned :data:`~repro.engine.cost_model.OPERATOR_COSTS` does
  (``rank_error`` strictly improves on a mix the hand-tuned table
  provably misranks: a long fused-away ``map(id)`` chain it prices above
  ``normalize``).  The run also asserts calibration *soundness*: with
  the learned table installed, the :class:`ShapeEstimate` world bound
  still dominates the true world count — calibration tunes the
  scheduler's ordering, never the estimator's guarantees.

Run ``python benchmarks/bench_net_serve.py`` (add ``--quick`` for CI
smoke sizes, ``--gate X`` to fail the run when metrics overhead exceeds
``X``) to print the table and write ``BENCH_net_serve.json`` next to
this file; under pytest the same workloads assert the sweep/latency,
calibration and soundness claims at smoke sizes.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import random
import statistics
import sys
import time

from harness import best_of, write_results

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

from loadgen import LoadSpec, run_spec  # noqa: E402 — tools/ path above

from repro.engine.cost_model import (  # noqa: E402
    OPERATOR_CLASSES,
    calibrate,
    calibration_scope,
    estimate_morphism_cost,
    estimate_value,
    operator_features,
    rank_error,
)
from repro.io import parsed_morphism, run_json, value_to_json  # noqa: E402
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
    async with NetServer(batch_window=0.005, max_batch=512) as server:
        summary = await run_spec(server.address, spec)
        stats = server.stats()
    summary["workload"] = f"net-serve:{spec.name}"
    summary["server"] = {
        "total_latency": stats["latency"]["total"],
        "throughput_rps": stats["latency"]["throughput_rps"],
        "batches": stats["batches"],
        "deduped_inputs": stats["deduped_inputs"],
    }
    return summary


# -- workload 2: steady-state metrics overhead -------------------------------


async def _run_many(batch: list, metrics: bool) -> list:
    async with AsyncEngine(
        batch_window=0.02, max_batch=1024, metrics=metrics
    ) as engine:
        return await engine.run_many("normalize", batch)


def _metrics_overhead(quick: bool) -> dict:
    total, distinct, width = (60, 6, 5) if quick else (160, 10, 6)
    batch = _multi_world_batch(total, distinct, width)
    with_metrics = asyncio.run(_run_many(batch, True))
    without = asyncio.run(_run_many(batch, False))
    assert with_metrics == without, "metrics must never change results"
    t_off = best_of(lambda: asyncio.run(_run_many(batch, False)))
    t_on = best_of(lambda: asyncio.run(_run_many(batch, True)))
    return {
        "workload": "metrics-overhead",
        "inputs": total,
        "metrics_off_s": t_off,
        "metrics_on_s": t_on,
        "overhead": t_on / t_off,
    }


# -- workload 3: learned cost calibration ------------------------------------

#: A map(id) chain long enough that the hand-tuned table prices it above
#: ``normalize`` (240 traversal + 239 composition nodes ≈ 719) while its
#: measured latency stays far below any multi-world normalization — the
#: deterministic misranking calibration must fix.
_CHAIN_LENGTH = 240


def _calibration_mix(quick: bool) -> list:
    width = 6 if quick else 7
    wide = 6 if quick else 10
    chain = " o ".join(["map(id)"] * _CHAIN_LENGTH)
    return [
        ("normalize", "normalize", lambda salt: _design(width, salt=salt)),
        (
            "map-normalize-wide",
            "map(normalize)",
            lambda salt: vset(
                *(_design(4, salt=salt * 1000 + 13 * i) for i in range(wide))
            ),
        ),
        ("map-id-chain", chain, lambda salt: vset(*range(salt, salt + 8))),
        (
            "alpha",
            "alpha",
            lambda salt: vset(vorset(salt + 1, salt + 2), vorset(salt + 3)),
        ),
    ]


def _measure_mix(mix: list, repeats: int = 3) -> list:
    """``(label, features, hand_cost, measured_s)`` per mix entry.

    Each repetition evaluates a freshly salted value, so no program wins
    by re-serving a memoized normal form; the median absorbs the odd
    scheduler hiccup.
    """
    rows = []
    for label, program, value_fn in mix:
        shape = estimate_value(value_fn(0))
        morphism = parsed_morphism(program)
        features = operator_features(morphism, shape)
        hand = estimate_morphism_cost(morphism, shape)
        times = []
        for rep in range(repeats):
            payload = value_to_json(value_fn(rep * 7919))
            start = time.perf_counter()
            run_json(program, payload)
            times.append(time.perf_counter() - start)
        rows.append((label, features, hand, statistics.median(times)))
    return rows


def _calibration_workload(quick: bool) -> dict:
    mix = _calibration_mix(quick)
    rows = _measure_mix(mix)
    measured = [t for _, _, _, t in rows]
    hand_predicted = [c for _, _, c, _ in rows]
    learned_table = calibrate([(f, t) for _, f, _, t in rows])
    learned_predicted = [
        sum(f[k] * learned_table[k] for k in OPERATOR_CLASSES) for _, f, _, _ in rows
    ]
    err_hand = rank_error(hand_predicted, measured)
    err_learned = rank_error(learned_predicted, measured)
    assert err_learned <= err_hand, (
        f"calibration must not worsen rank error ({err_learned} > {err_hand})"
    )

    # Soundness under the learned table: the ShapeEstimate world bound
    # still dominates the true world count, and the estimate itself is
    # bit-identical — calibration never touches the estimator.
    probe = _design(5)
    before = estimate_value(probe)
    with calibration_scope(learned_table):
        during = estimate_value(probe)
        true_worlds = len(run_json("normalize", value_to_json(probe))["orset"])
    assert during == before, "calibration leaked into the estimator"
    assert during.worlds >= true_worlds, "world bound must stay sound"

    return {
        "workload": "cost-calibration",
        "mix": [label for label, _, _, _ in rows],
        "measured_ms": [t * 1000 for t in measured],
        "hand_predicted": hand_predicted,
        "learned_predicted": learned_predicted,
        "learned_weights": learned_table,
        "rank_error_hand": err_hand,
        "rank_error_learned": err_learned,
        "sound_world_bound": int(during.worlds) >= true_worlds,
    }


# -- driver ------------------------------------------------------------------


def _workloads(quick: bool = False) -> list:
    results = [asyncio.run(_run_sweep(spec)) for spec in _sweep_specs(quick)]
    results.append(_metrics_overhead(quick))
    results.append(_calibration_workload(quick))
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
        elif row["workload"] == "metrics-overhead":
            print(
                f"{row['workload']:<28} off={row['metrics_off_s'] * 1000:.1f}ms"
                f" on={row['metrics_on_s'] * 1000:.1f}ms"
                f" overhead={row['overhead']:.3f}x"
            )
        else:
            print(
                f"{row['workload']:<28} rank_error"
                f" hand={row['rank_error_hand']:.3f}"
                f" learned={row['rank_error_learned']:.3f}"
                f" sound={row['sound_world_bound']}"
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
    parser = argparse.ArgumentParser(
        description="network serving + calibration benchmarks"
    )
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


# -- pytest entry points (the serving + calibration claims) ------------------


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


def test_calibration_reduces_rank_error_on_misranked_mix():
    row = _calibration_workload(quick=True)
    # The hand-tuned table misprices the map(id) chain above normalize;
    # the learned table must strictly improve on that misranking.
    assert row["rank_error_hand"] > 0.0
    assert row["rank_error_learned"] < row["rank_error_hand"]
    assert row["sound_world_bound"]


def test_metrics_overhead_steady_state_is_small():
    # Acceptance: <10% (the --gate 1.10 CI run on the full sizes); the
    # pytest gate is looser to keep shared-runner noise out of CI.
    row = _metrics_overhead(quick=True)
    assert row["overhead"] <= 1.5, row


if __name__ == "__main__":
    main()
