"""Open-loop load generator for the network serving front-end.

Drives a running :class:`repro.serve.net.NetServer` with a spec-driven
sweep: *connections* concurrent NDJSON connections, each firing
*requests* frames at a fixed *rate* drawn round-robin from a *mix* of
``(label, program, value)`` entries.  The generator is **open-loop**:
request *k* on a connection is sent at ``t0 + k/rate`` whether or not
earlier responses have arrived, so a slow server faces a growing backlog
exactly as it would from real independent clients — closed-loop
generators (send, await, send) flatter an overloaded server by slowing
down with it, hiding the latencies this harness exists to measure.

Each response is matched to its send timestamp by frame ``id``; the
summary reports client-observed p50/p90/p99/mean/max latency, offered
vs achieved throughput, per-outcome error counts, and per-program-label
median latencies.

Library use (any asyncio context)::

    value = value_to_json(vorset(1, 2))  # wrapped-atom JSON encoding
    spec = LoadSpec("smoke", connections=4, rate=100.0, requests=50,
                    mix=[("normalize", "normalize", value)])
    summary = await run_spec(server.address, spec)

CLI use against a live server::

    python tools/loadgen.py --host 127.0.0.1 --port 7707 \
        --connections 4 --rate 100 --requests 50 --program normalize
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class LoadSpec:
    """One sweep point: connections x rate x program mix.

    *rate* is requests/second **per connection** (offered load is
    ``connections * rate``); *requests* is per connection; *mix* entries
    are ``(label, program, value_json)`` cycled round-robin with a
    per-connection phase shift so every connection exercises the whole
    mix.
    """

    name: str
    connections: int
    rate: float
    requests: int
    mix: "list[tuple[str, object, object]]" = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.connections < 1 or self.requests < 1:
            raise ValueError("connections and requests must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not self.mix:
            raise ValueError("mix must name at least one (label, program, value)")


async def run_spec(address, spec: LoadSpec) -> dict:
    """Run one sweep point against *address*; the summary dict."""
    start = time.perf_counter()
    per_connection = await asyncio.gather(
        *(_one_connection(address, spec, c) for c in range(spec.connections))
    )
    wall = time.perf_counter() - start
    samples = [sample for connection in per_connection for sample in connection]
    return summarize(spec, samples, wall)


async def _one_connection(address, spec: LoadSpec, connection_index: int) -> list:
    reader, writer = await asyncio.open_connection(*address)
    send_times: "dict[int, float]" = {}
    labels: "dict[int, str]" = {}
    samples: list = []

    async def send_open_loop() -> None:
        t0 = time.perf_counter()
        for k in range(spec.requests):
            target = t0 + k / spec.rate
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            label, program, value = spec.mix[
                (connection_index + k) % len(spec.mix)
            ]
            labels[k] = label
            send_times[k] = time.perf_counter()
            frame = {"id": k, "program": program, "value": value}
            writer.write((json.dumps(frame) + "\n").encode())
        await writer.drain()

    async def collect_responses() -> None:
        for _ in range(spec.requests):
            line = await reader.readline()
            if not line:
                break
            data = json.loads(line)
            rid = data.get("id")
            if rid not in send_times:
                continue
            samples.append(
                {
                    "program": labels[rid],
                    "latency_s": time.perf_counter() - send_times[rid],
                    "ok": "result" in data or "results" in data,
                    "code": data.get("code"),
                }
            )

    try:
        await asyncio.gather(send_open_loop(), collect_responses())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return samples


def summarize(spec: LoadSpec, samples: list, wall_s: float) -> dict:
    """Latency percentiles, throughput and outcome counts for one run."""
    from repro.serve.metrics import percentile

    latencies = [s["latency_s"] for s in samples]
    ok = [s for s in samples if s["ok"]]
    errors = Counter(s["code"] for s in samples if not s["ok"])
    per_program: "dict[str, list[float]]" = {}
    for s in ok:
        per_program.setdefault(s["program"], []).append(s["latency_s"])

    def ms(q: int) -> "float | None":
        p = percentile(latencies, q)
        return p * 1000 if p is not None else None

    return {
        "spec": spec.name,
        "connections": spec.connections,
        "rate_per_connection": spec.rate,
        "requests_per_connection": spec.requests,
        "sent": spec.connections * spec.requests,
        "completed": len(samples),
        "ok": len(ok),
        "errors": dict(errors),
        "p50_ms": ms(50),
        "p90_ms": ms(90),
        "p99_ms": ms(99),
        "mean_ms": (sum(latencies) / len(latencies) * 1000) if latencies else None,
        "max_ms": max(latencies) * 1000 if latencies else None,
        "offered_rps": spec.connections * spec.rate,
        "achieved_rps": len(samples) / wall_s if wall_s > 0 else 0.0,
        "wall_s": wall_s,
        "per_program_p50_ms": {
            label: statistics.median(vals) * 1000
            for label, vals in sorted(per_program.items())
        },
    }


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(
        description="open-loop load generator for the repro network server"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument("--rate", type=float, default=100.0)
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--program", default="normalize")
    parser.add_argument(
        "--value",
        default='{"orset": [{"atom": "int", "value": 1}, {"atom": "int", "value": 2}]}',
        help="JSON value encoding sent with every request (wrapped atoms)",
    )
    parser.add_argument("--name", default="cli")
    args = parser.parse_args(argv)

    spec = LoadSpec(
        name=args.name,
        connections=args.connections,
        rate=args.rate,
        requests=args.requests,
        mix=[(args.program, args.program, json.loads(args.value))],
    )
    summary = asyncio.run(run_spec((args.host, args.port), spec))
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
