"""perfbench — the end-to-end and per-layer benchmark of the or-set engine.

Run from the repository root::

    python3 perfbench/run.py --workload batch-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is ``serve-mix``, ``batch-mix``, ``world-queries`` or
``all`` (each in a fresh interpreter, then one combined table).  The
seed picks the atoms of every input and the order of the operations;
the number of operations is fixed by ``--seconds`` (calibrated so that
this commit measures about that long), so two commits measure the same
sample count.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs the workload untraced and then traced,
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else (host stamp, raw and normalized values, spans) is
printed above it and written under ``perfbench/out/``.

The workloads, why they were chosen and what was left out are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import refkernel
import spans
import tables

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("serve-mix", "batch-mix", "world-queries")

#: Operations per second of ``--seconds`` at the calibration commit:
#: serve-mix requests, and batch-mix / world-queries rounds (the strata
#: multisets in workloads.py).
RATE = {"serve-mix": 540.0, "batch-mix": 0.15, "world-queries": 0.7}

#: Tail percentile per workload: the highest with at least ten samples
#: beyond it that repeats within the bound (see README.md).
TAIL_PCT = {"serve-mix": 90, "batch-mix": 90, "world-queries": 90}

#: Gauge both CPUs where a process pool spreads the work (see refkernel.py).
BOTH_CPU_GAUGE = {"batch-mix": True, "world-queries": False}

#: Setup measurements per run (each in a fresh interpreter); the median is reported.
SETUP_PROBES = 3

#: A run that has not finished by then is stopped: its children are
#: killed and it exits non-zero, well inside the 180 s limit.
HARD_LIMIT_S = 170.0
SERVE_CONNECTIONS, SERVE_INFLIGHT = 2, 8

#: serve-mix requests per segment (about a second), reference-server
#: requests between two segments, and gauges on each side of a segment
#: that set its scale.
SERVE_SEGMENT = 500
REF_SEGMENT = 96
GAUGE_SPAN = 2

#: The traced pass and the regret matrix draw their inputs from this
#: seed offset, so they never repeat an input of the untraced pass.
TRACE_SEED_OFFSET = 1_000_003


# -- helpers -------------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def descendants() -> list[int]:
    """Live (or unreaped) descendants of this process, from /proc."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    parents[int(entry)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue
    found, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return found


def kill_descendants() -> list[int]:
    pids = descendants()
    for pid in pids:
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    return pids


def start_watchdog() -> None:
    def expire() -> None:
        kill_descendants()
        sys.stderr.write(f"perfbench: run exceeded {HARD_LIMIT_S:.0f} s; stopped\n")
        sys.stderr.flush()
        os._exit(3)

    timer = threading.Timer(HARD_LIMIT_S, expire)
    timer.daemon = True
    timer.start()


def source_commit() -> str:
    """The git commit, or a digest of src/ when the tree is not a repository."""
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError(ROOT / ".git")
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import hashlib

    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:12]


def reset_peak_rss() -> None:
    """Start the peak-RSS count here, after the benchmark built its inputs."""
    import gc

    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # peak_rss_mb then includes the input generation


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workload set-up (shared by the timed run and the set-up probes) -------------


def serve_warmup() -> list:
    from workloads import serve_pool

    return [op for i, op in enumerate(serve_pool(-1)) if i % 9 == 0]


async def serve_setup(warm: list):
    """Start a default NetServer and send one request per stratum through it."""
    from repro.serve.net import NetServer

    server = NetServer()
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(*server.address, limit=1 << 24)
        for i, op in enumerate(warm):
            writer.write((json.dumps(frame_of(op, i)) + "\n").encode())
        await writer.drain()
        for _ in warm:
            reply = json.loads(await reader.readline())
            if reply.get("result") != warm[reply["id"]].expected[0]:
                raise RuntimeError(f"warm-up reply is wrong: {str(reply)[:200]}")
        writer.close()
        await writer.wait_closed()
    except BaseException:
        await serve_teardown(server)
        raise
    return server


async def serve_teardown(server) -> None:
    from repro.engine import BACKENDS

    await server.close()
    # AsyncEngine.close() leaves the process pool it warmed running.
    BACKENDS["process"].close()


def inprocess_warmup(workload: str) -> list:
    from workloads import batch_warmup, world_warmup

    return batch_warmup() if workload == "batch-mix" else world_warmup()


def inprocess_setup(warm: list) -> None:
    from repro.engine import BACKENDS

    BACKENDS["process"].warm()
    for op in warm:
        if not check(op, call(op, op.inputs())):
            raise RuntimeError(f"warm-up answer is wrong: {op.stratum}")


def inprocess_teardown() -> None:
    from repro.engine import BACKENDS

    BACKENDS["process"].close()


def frame_of(op, request_id=None) -> dict:
    frame = {"program": op.program, "value": op.inputs()[0]}
    if op.kind == "count":
        frame["op"] = "count"
    if request_id is not None:
        frame["id"] = request_id
    return frame


def call(op, inputs: list):
    """One in-process operation, through the program's public entry points."""
    import repro.engine as engine
    import repro.io as io

    if op.kind == "run":
        return io.run_json_many(op.program, inputs, backend="auto")
    if op.kind == "count":
        return [io.count_worlds_json(op.program, inputs[0])]
    if op.kind == "certain":
        return [io.certain_json(op.program, inputs[0])]
    return [engine.possible(io.parsed_morphism(op.program), op.value, intern=False)]


def check(op, outputs) -> bool:
    if not isinstance(outputs, list) or len(outputs) != len(op.expected):
        return False
    if op.kind == "possible":
        return outputs == op.expected
    from workloads import digest

    return [digest(o) for o in outputs] == op.expected


def setup_probe(workload: str) -> None:
    """Child mode: set the workload up, report readiness, tear it down.

    The readiness line carries the seconds spent building the warm-up
    inputs and their answers, which the parent subtracts.
    """
    import repro.engine  # noqa: F401 — set-up time: the program's imports
    import repro.serve.net  # noqa: F401
    import workloads  # noqa: F401

    start = time.perf_counter()
    warm = serve_warmup() if workload == "serve-mix" else inprocess_warmup(workload)
    ready = json.dumps({"bench_s": time.perf_counter() - start})
    if workload == "serve-mix":

        async def probe() -> None:
            server = await serve_setup(warm)
            print(ready, flush=True)
            await serve_teardown(server)

        asyncio.run(probe())
    else:
        inprocess_setup(warm)
        print(ready, flush=True)
        inprocess_teardown()


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start to ready, in SETUP_PROBES fresh interpreters.

    Returns the raw times and the times scaled by the reference kernel's
    speed, sampled in this process right before and after each probe.
    """
    gauge = refkernel.Gauge()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            gauge.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if not line.strip() or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        for _ in range(3):
            gauge.sample()
        seconds = elapsed - json.loads(line)["bench_s"]
        raw.append(seconds)
        scaled.append(seconds * refkernel.NOMINAL_US / statistics.median(gauge.us[-6:]))
    return raw, scaled


# -- the in-process workloads ----------------------------------------------------


def inprocess_ops(workload: str, seed: int, seconds: float):
    from workloads import Op, batch_ops, world_ops

    rounds = max(1, round(seconds * RATE[workload]))
    if workload == "world-queries":
        return world_ops(seed, rounds)
    # Two interpreters halve the time batch-mix spends computing its
    # reference answers; each builds every other unit of generation.
    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--generate", str(part), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        for part in (0, 1)
    ]
    halves = []
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed (exit {proc.returncode})")
        halves.append([[Op(**op) for op in part] for part in json.loads(out)])
    built = [halves[j % 2][j // 2] for j in range(len(halves[0]) + len(halves[1]))]
    return batch_ops(seed, rounds, built)


def generate_part(part: int, seed: int, seconds: float) -> None:
    """Child mode: print the batch-mix units of one half as JSON."""
    from dataclasses import asdict

    from workloads import _batch_stratum, batch_units

    rounds = max(1, round(seconds * RATE["batch-mix"]))
    units = batch_units(rounds)[part::2]
    json.dump([[asdict(op) for op in _batch_stratum(seed, r, i)] for r, i in units], sys.stdout)


class Record(NamedTuple):
    start: float
    end: float
    op: object
    ok: bool
    local_share: float  # process CPU time over wall time: work done in this process


def timed_loop(ops, gauge, deadline: float) -> list[Record]:
    """Run the ops in order until *deadline*; one record per op attempted."""
    records = []
    for i, op in enumerate(ops):
        gauge.maybe_sample()
        if time.perf_counter() > deadline:
            break
        inputs = op.inputs()
        token = spans.op_id.set(i)
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            outputs = call(op, inputs)
        except Exception as exc:  # noqa: BLE001 — an exception is a failed operation
            outputs = exc
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        spans.op_id.reset(token)
        records.append(Record(start, end, op, check(op, outputs), cpu / max(end - start, 1e-9)))
    gauge.sample()
    return records


def summarize_inprocess(records: list[Record], gauge, tail_pct) -> dict:
    raw = [r.end - r.start for r in records]
    norm = [(r.end - r.start) * gauge.factor(r.start, r.end, r.local_share) for r in records]
    good = sum(r.op.items for r in records if r.ok)
    summary = latency_summary(good, sum(norm), [t * 1e3 for t in norm], tail_pct)
    summary["raw"] = latency_summary(good, sum(raw), [t * 1e3 for t in raw], tail_pct)
    by_stratum: dict[str, list[float]] = {}
    for r, n in zip(records, norm):
        by_stratum.setdefault(r.op.stratum, []).append(n * 1e3)
    summary.update({
        "samples": len(records),
        "items": sum(r.op.items for r in records),
        "failed_items": sum(r.op.items for r in records if not r.ok),
        "strata": {k: {"ops": len(v), "p50_ms": statistics.median(v), "sum_ms": sum(v)}
                   for k, v in sorted(by_stratum.items())},
        "latencies_ms": sorted(
            (round(n * 1e3, 3), round((r.end - r.start) * 1e3, 3), r.op.stratum)
            for r, n in zip(records, norm)
        ),
    })
    return summary


def run_inprocess(args, deadline: float) -> dict:
    phases = {}
    t = time.perf_counter()
    ops = inprocess_ops(args.workload, args.seed, args.seconds)
    warm = inprocess_warmup(args.workload)
    phases["inputs_s"] = time.perf_counter() - t
    reset_peak_rss()
    gauge = refkernel.Gauge(both_cpus=BOTH_CPU_GAUGE[args.workload])
    try:
        t = time.perf_counter()
        inprocess_setup(warm)
        phases["setup_s"] = time.perf_counter() - t
        t = time.perf_counter()
        records = timed_loop(ops, gauge, deadline)
        phases["measure_s"] = time.perf_counter() - t
        result = summarize_inprocess(records, gauge, TAIL_PCT[args.workload])
        result["phases"] = phases
        result["attempted_ops"] = len(ops)
        result["unattempted_items"] = sum(op.items for op in ops[len(records):])
        if args.trace:
            # Fresh inputs of the same shapes: the process pool's workers
            # memoize normal forms, so a second pass over the same inputs
            # would be faster for reasons that have nothing to do with tracing.
            fresh = inprocess_ops(args.workload, args.seed + TRACE_SEED_OFFSET, args.seconds)
            result["layers"] = trace_inprocess(args, fresh, result, deadline)
    finally:
        gauge.close()
        inprocess_teardown()
    result["ref_us"] = gauge.median_us()
    return result


def trace_inprocess(args, ops, untraced: dict, deadline: float) -> dict:
    tracer = spans.Tracer()
    counters = process_counters()
    tracer.install()
    gauge = refkernel.Gauge(both_cpus=BOTH_CPU_GAUGE[args.workload])
    try:
        start = time.perf_counter()
        records = timed_loop(ops, gauge, deadline)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
        gauge.close()
    traced = summarize_inprocess(records, gauge, TAIL_PCT[args.workload])
    extra = {
        "ops": len(records),
        "wall_s": wall,
        "trace.overhead": untraced["items_per_s"] / traced["items_per_s"],
        "cost_model.worlds_est_ratio": worlds_estimate_ratio(
            [t for r in records for t in r.op.texts]
        ),
        **process_deltas(counters, len(records)),
    }
    if args.workload == "batch-mix":
        extra.update(regret(args.seed, deadline))
    return layer_report(args, tracer, extra)


# -- the serve-mix workload ----------------------------------------------------


class Generator:
    """The load-generator process (client.py), driven one command at a time."""

    def __init__(self, proc) -> None:
        self.proc = proc

    @classmethod
    async def start(cls, job: dict) -> "Generator":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "client.py"),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        proc.stdin.write((json.dumps(job) + "\n").encode())
        return cls(proc)

    async def send(self, command: str) -> None:
        self.proc.stdin.write((command + "\n").encode())
        await self.proc.stdin.drain()

    async def answer(self, limit: float) -> dict:
        line = await asyncio.wait_for(self.proc.stdout.readline(), max(1.0, limit))
        if not line:
            raise RuntimeError("load generator exited")
        return json.loads(line)

    async def close(self) -> None:
        """Stop the generator; kill it if it does not exit promptly."""
        try:
            await self.send("stop")
            await asyncio.wait_for(self.proc.wait(), 10)
        except (asyncio.TimeoutError, ConnectionError, RuntimeError):
            pass
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


async def start_reference_server():
    """The benchmark's own NDJSON server: every request runs the reference
    kernel on an executor thread, as the program's server evaluates on one.

    It shares the host process, event loop, executor and client with the
    program's server, so host conditions slow both alike; its speed
    between segments is the serve-mix gauge.
    """
    loop = asyncio.get_running_loop()

    async def serve_one(line: bytes, writer, lock) -> None:
        request_id = json.loads(line)["id"]
        answer = await loop.run_in_executor(None, refkernel.request_work)
        async with lock:
            writer.write((json.dumps({"id": request_id, "result": answer}) + "\n").encode())
            await writer.drain()

    async def on_connection(reader, writer) -> None:
        lock, tasks = asyncio.Lock(), set()
        try:
            while line := await reader.readline():
                task = asyncio.ensure_future(serve_one(line, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()

    return await asyncio.start_server(on_connection, "127.0.0.1", 0)


async def reference_rate(generator: Generator) -> float:
    """Reference-server requests per second over one short closed-loop run."""
    await generator.send(f"ref {REF_SEGMENT}")
    seg = await generator.answer(30)
    if seg["failed"] or len(seg["latencies_ms"]) != REF_SEGMENT:
        raise RuntimeError(f"reference server failed: {seg['errors'][:1]}")
    return REF_SEGMENT / seg["elapsed_s"]


async def serve_pass(server, generator, requests: int, deadline: float) -> dict:
    """One closed-loop pass in segments of SERVE_SEGMENT requests.

    Before and after every segment the same loop runs REF_SEGMENT
    requests against the reference server; each segment's times are
    scaled by the reference speed around it (the median of the gauges
    within GAUGE_SPAN segments on either side) relative to its speed on
    the reference host.
    """
    before = server.stats()
    start = time.perf_counter()
    segments, failed, errors = [], 0, []
    rates = [await reference_rate(generator)]
    done = 0
    while done < requests:
        n = min(SERVE_SEGMENT, requests - done)
        await generator.send(f"go {n}")
        try:
            seg = await generator.answer(deadline - time.perf_counter())
        except (asyncio.TimeoutError, RuntimeError) as exc:
            errors.append(f"generator: {exc!r}")
            break
        done += n
        rates.append(await reference_rate(generator))
        segments.append(seg)
        failed += seg["failed"] + n - len(seg["latencies_ms"])
        errors += seg["errors"]
    after = server.stats()
    raw, norm, raw_s, norm_s = [], [], 0.0, 0.0
    for i, seg in enumerate(segments):
        # Gauge i precedes segment i and gauge i + 1 follows it.
        nearby = rates[max(0, i + 1 - GAUGE_SPAN): i + 1 + GAUGE_SPAN]
        factor = statistics.median(nearby) / refkernel.NOMINAL_RPS
        raw += seg["latencies_ms"]
        norm += [v * factor for v in seg["latencies_ms"]]
        raw_s += seg["elapsed_s"]
        norm_s += seg["elapsed_s"] * factor
    answered = len(raw)
    summary = {
        "items": requests,
        "failed_items": failed + requests - done,
        "samples": answered,
        "wall_s": time.perf_counter() - start,
        "errors": errors,
        "stats": (before, after),
        "reference_rps": [round(v, 1) for v in rates],
        "segments_s": raw_s,  # the program's segments only, no reference gauges
    }
    summary.update(latency_summary(answered - failed, norm_s, norm, TAIL_PCT["serve-mix"]))
    summary["raw"] = latency_summary(answered - failed, raw_s, raw, TAIL_PCT["serve-mix"])
    return summary


def latency_summary(good: int, seconds: float, latencies_ms: list, tail_pct: int) -> dict:
    out = {
        "items_per_s": good / seconds if seconds else 0.0,
        "p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
        "tail_ms": percentile(latencies_ms, tail_pct) if latencies_ms else 0.0,
    }
    for pct in (90, 95, 99):
        out[f"p{pct}_ms"] = percentile(latencies_ms, pct) if latencies_ms else 0.0
    return out


async def run_serve(args, deadline: float) -> dict:
    from workloads import serve_pool, serve_sequence

    pool = serve_pool(args.seed)
    requests = max(len(pool), round(args.seconds * RATE["serve-mix"]))
    sequence = serve_sequence(args.seed, pool, requests)
    job = {
        "connections": SERVE_CONNECTIONS,
        "inflight": SERVE_INFLIGHT,
        "deadline_s": max(5.0, deadline - time.perf_counter() - 5.0),
        "pool": [frame_of(op) for op in pool],
        "expected": [op.expected[0] for op in pool],
        # The traced pass replays the same requests after the untraced one.
        "sequence": sequence * (2 if args.trace else 1),
    }
    warm = serve_warmup()
    reset_peak_rss()
    server = await serve_setup(warm)
    job["host"], job["port"] = server.address
    reference = await start_reference_server()
    job["ref_port"] = reference.sockets[0].getsockname()[1]
    gauge = refkernel.Gauge()
    for _ in range(10):
        gauge.sample()
    generator = await Generator.start(job)
    try:
        result = await serve_pass(server, generator, len(sequence), deadline)
        if args.trace:
            tracer = spans.Tracer()
            counters = process_counters()
            tracer.install()
            try:
                traced = await serve_pass(server, generator, len(sequence), deadline)
            finally:
                tracer.uninstall()
            extra = serve_layer_extras(traced, traced["segments_s"])
            extra.update(process_deltas(counters, extra["ops"]))
            extra["trace.overhead"] = (
                result["items_per_s"] / traced["items_per_s"] if traced["items_per_s"] else 0.0
            )
            extra["cost_model.worlds_est_ratio"] = worlds_estimate_ratio(
                [pool[i].texts[0] for i in sequence]
            )
            result["layers"] = layer_report(args, tracer, extra)
    finally:
        await generator.close()
        reference.close()
        await reference.wait_closed()
        await serve_teardown(server)
    for _ in range(10):
        gauge.sample()
    result["ref_us"] = gauge.median_us()
    result.pop("stats")
    return result


def serve_layer_extras(traced: dict, wall: float) -> dict:
    before, after = traced["stats"]
    ops = max(1, traced["samples"])

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    batches = max(1, delta("batches"))
    latency = after.get("latency", {})
    tail = "p90"  # stats() offers p50, p90 and p99 over its last 2048 requests

    def ms(phase, q):
        value = (latency.get(phase) or {}).get(q)
        return value * 1e3 if value is not None else 0.0

    return {
        "ops": ops,
        "wall_s": wall,
        "net.frames": (after["net"]["frames"] - before["net"]["frames"]) / ops,
        "net.overhead_ms": traced["raw"]["p50_ms"] - ms("total", "p50"),
        "serve.queue_ms.p50": ms("queue", "p50"),
        "serve.queue_ms.tail": ms("queue", tail),
        "serve.execute_ms.p50": ms("execute", "p50"),
        "serve.execute_ms.tail": ms("execute", tail),
        "serve.batch_size": delta("batched_inputs") / batches,
        "serve.groups_per_batch": delta("groups") / batches,
        "serve.dedupe_ratio": delta("deduped_inputs") / max(1, delta("batched_inputs")),
        "serve.shed": delta("shed") / ops,
        "serve.timeouts": delta("timeouts") / ops,
        "serve.retries": delta("retries") / ops,
        "serve.errors": delta("errors") / ops,
    }


# -- per-layer metrics -----------------------------------------------------------


def regret(seed: int, deadline: float) -> dict:
    """auto ÷ best explicit backend, per batch-mix stratum (tracing off).

    Every backend gets its own fresh call of the stratum, so no backend
    profits from normal forms a pool worker memoized for another.
    """
    import random

    import repro.engine as engine
    import repro.io as io
    from workloads import BATCH_ROUND, batch_call

    names = [n for n in ("eager", "streaming", "fused", "parallel", "process")
             if n in engine.DEFAULT_ENGINE.backends]
    rng = random.Random(f"regret:{seed}")
    ratios, detail = [], {}
    for stratum, *_rest in BATCH_ROUND:
        times = {}
        for backend in ["auto", *names]:
            if time.perf_counter() > deadline - 20:
                break
            op = batch_call(stratum, rng)
            inputs = op.inputs()
            start = time.perf_counter()
            try:
                outputs = io.run_json_many(op.program, inputs, backend=backend)
            except Exception:  # noqa: BLE001 — a backend that cannot run it is skipped
                continue
            elapsed = time.perf_counter() - start
            if check(op, outputs):
                times[backend] = elapsed
        best = min((t for b, t in times.items() if b != "auto"), default=None)
        if "auto" in times and best:
            ratios.append(times["auto"] / best)
            detail[stratum] = {b: round(t * 1e3, 2) for b, t in times.items()}
    return {
        "cost_model.regret_max": max(ratios, default=0.0),
        "cost_model.regret_geomean": spans.geomean(ratios),
        "regret_ms": detail,
    }


def exact_worlds(value) -> int:
    """|worlds(value)|: by structure when no atom repeats, else by listing them."""
    from repro.core.worlds import worlds
    from repro.values.values import Atom, OrSetValue, Pair, SetValue

    seen: list = []

    def count(v) -> int:
        if isinstance(v, Atom):
            seen.append(v)
            return 1
        if isinstance(v, Pair):
            return count(v.fst) * count(v.snd)
        if isinstance(v, OrSetValue):
            return sum(count(e) for e in v.elems)
        if isinstance(v, SetValue):
            product = 1
            for e in v.elems:
                product *= count(e)
            return product
        raise TypeError(type(v).__name__)

    try:
        structural = count(value)
    except TypeError:
        return len(worlds(value))
    # With every atom distinct, no two choices collapse into one world.
    return structural if len(seen) == len(set(seen)) else len(worlds(value))


def worlds_estimate_ratio(texts) -> float:
    """Geometric mean of estimated ÷ exact worlds over the distinct inputs."""
    import math

    from repro.engine import estimate_value
    from repro.io import value_from_json

    logs = []
    for text in set(texts):
        v = value_from_json(json.loads(text))
        actual = exact_worlds(v)
        if actual > 0:
            logs.append(math.log(estimate_value(v).worlds) - math.log(actual))
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def process_deltas(before: dict, ops: int) -> dict:
    after = process_counters()
    return {f"process.{k}": (after[k] - before[k]) / max(1, ops) for k in before}


def process_counters() -> dict:
    from repro.engine import BACKENDS

    stats = BACKENDS["process"].stats()
    return {k: stats.get(k, 0) for k in ("remote_chunks", "pickle_fallbacks",
                                         "pool_fallbacks", "pool_restarts")}


_CALLS, _MS, _RATIO = "calls/op", "ms/op", "ratio"

#: Every per-layer metric, with its unit.  Counts and times are per
#: operation; "ms" metrics of the serving layer are latencies.
PER_LAYER = (
    ("net.frames", _CALLS), ("net.overhead_ms", "ms"),
    ("serve.queue_ms.p50", "ms"), ("serve.queue_ms.tail", "ms"),
    ("serve.execute_ms.p50", "ms"), ("serve.execute_ms.tail", "ms"),
    ("serve.batch_size", _RATIO), ("serve.groups_per_batch", _RATIO),
    ("serve.dedupe_ratio", _RATIO), ("serve.eval_concurrency", _RATIO),
    ("serve.shed", _CALLS), ("serve.timeouts", _CALLS), ("serve.retries", _CALLS),
    ("serve.errors", _CALLS),
    ("io.decode_ms", _MS), ("io.decode_calls", _CALLS),
    ("io.encode_ms", _MS), ("io.encode_calls", _CALLS),
    ("engine.compile_calls", _CALLS), ("engine.compile_ms", _MS),
    ("engine.compile_hit_ratio", _RATIO),
    ("engine.select_calls", _CALLS), ("engine.select_ms", _MS),
    *((f"engine.route.{b}", _CALLS) for b in spans.BACKEND_NAMES),
    ("cost_model.worlds_est_ratio", _RATIO), ("cost_model.regret_max", _RATIO),
    ("cost_model.regret_geomean", _RATIO),
    *((f"backend.{b}.{m}", _MS if m == "ms" else _CALLS)
      for b in spans.BACKEND_NAMES[:-1] for m in ("ms", "calls")),
    ("process.remote_chunks", _CALLS), ("process.pickle_fallbacks", _CALLS),
    ("process.pool_fallbacks", _CALLS), ("process.pool_restarts", _CALLS),
    ("interning.normalize_calls", _CALLS), ("interning.memo_hit_ratio", _RATIO),
    ("normalize.calls", _CALLS), ("normalize.ms", _MS), ("normalize.share", _RATIO),
    ("symbolic.calls", _CALLS), ("symbolic.count_ms", _MS), ("symbolic.certain_ms", _MS),
    ("symbolic.possible_ms", _MS), ("symbolic.enum_fallbacks", _CALLS),
    ("sat.circuit_ms", _MS),
    ("trace.overhead", _RATIO),
)
UNITS = dict(PER_LAYER)


def layer_report(args, tracer, extra: dict) -> dict:
    """Every per-layer metric (0 where the layer did no work) plus the table."""
    ops = max(1, extra["ops"])
    names = tracer.by_name()

    def calls(name):
        return names.get(name, {}).get("calls", 0) / ops

    def self_ms(name):
        return names.get(name, {}).get("self_ms", 0.0) / ops

    table = tracer.layer_table()
    work = sum(row["self_ms"] for row in table if not row["async"]) or 1.0
    compile_tags = names.get("engine.compile", {}).get("tags", {})
    routes = names.get("engine.select", {}).get("tags", {})
    hits, memo_calls = tracer.memo_hits()
    metrics = {name: 0.0 for name in UNITS}
    metrics.update({k: v for k, v in extra.items() if k in metrics})
    metrics.update({
        "io.decode_ms": self_ms("io.decode"),
        "io.decode_calls": calls("io.decode"),
        "io.encode_ms": self_ms("io.encode"),
        "io.encode_calls": calls("io.encode"),
        "engine.compile_calls": calls("engine.compile"),
        "engine.compile_ms": self_ms("engine.compile"),
        "engine.compile_hit_ratio": compile_tags.get("hit", 0)
        / max(1, sum(compile_tags.values())),
        "engine.select_calls": calls("engine.select"),
        "engine.select_ms": self_ms("engine.select"),
        "interning.normalize_calls": memo_calls / ops,
        "interning.memo_hit_ratio": hits / max(1, memo_calls),
        "normalize.calls": calls("core.normalize"),
        "normalize.ms": self_ms("core.normalize"),
        "normalize.share": names.get("core.normalize", {}).get("self_ms", 0.0) / work,
        "symbolic.calls": sum(calls(n) for n in ("symbolic.count", "symbolic.certain",
                                                  "symbolic.possible")),
        "symbolic.count_ms": self_ms("symbolic.count"),
        "symbolic.certain_ms": self_ms("symbolic.certain"),
        "symbolic.possible_ms": self_ms("symbolic.possible"),
        "symbolic.enum_fallbacks": calls("backend.enum"),
        "sat.circuit_ms": self_ms("sat.circuit"),
    })
    for backend in spans.BACKEND_NAMES:
        metrics[f"engine.route.{backend}"] = routes.get(backend, 0) / ops
    for backend in spans.BACKEND_NAMES[:-1]:
        metrics[f"backend.{backend}.ms"] = self_ms(f"backend.{backend}")
        metrics[f"backend.{backend}.calls"] = calls(f"backend.{backend}")
    if "io.run_json_many" in names:
        metrics["serve.eval_concurrency"] = (
            names["io.run_json_many"]["wall_ms"] / 1e3 / extra["wall_s"]
            if args.workload == "serve-mix" else 0.0
        )
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    return {
        "metrics": metrics,
        "table": table,
        "spans": len(tracer.spans),
        "missing_patch_points": tracer.missing,
        "regret_ms": extra.get("regret_ms", {}),
    }


# -- reporting -----------------------------------------------------------------


def host_stamp(args, ref_us: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": source_commit(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "ref_kernel_us": round(ref_us, 2),
        "ref_kernel_nominal_us": refkernel.NOMINAL_US,
    }


def print_report(result: dict) -> None:
    """Human-readable tables; the JSON result line follows them."""
    stamp = result["host"]
    print(
        f"perfbench {stamp['workload']}  seed={stamp['seed']}  commit={stamp['commit']}  "
        f"cpus={stamp['cpus']}  python={stamp['python']}  "
        f"ref-kernel={stamp['ref_kernel_us']:.1f} us/call (nominal {stamp['ref_kernel_nominal_us']})"
    )
    print(tables.end_to_end_table([result]))
    if "layers" in result:
        print()
        print(tables.layer_table([result]))
        missing = result["layers"]["missing_patch_points"]
        if missing:
            print(f"patch points not found (metrics read 0): {', '.join(missing)}")


def run_one(args) -> int:
    start_watchdog()
    deadline = time.perf_counter() + HARD_LIMIT_S - 15.0
    if args.workload == "serve-mix":
        result = asyncio.run(run_serve(args, deadline))
    else:
        result = run_inprocess(args, deadline)
    result["peak_rss_mb"] = peak_rss_mb()
    if not args.trace:
        t = time.perf_counter()
        raw, scaled = measure_setup(args.workload, args.seed)
        result.setdefault("phases", {})["probes_s"] = time.perf_counter() - t
        result["setup_runs_s"] = {"raw": raw, "normalized": scaled}
        result["setup_s"] = statistics.median(scaled)
        result["raw"]["setup_s"] = statistics.median(raw)
    # No pool worker, generator or probe may outlive the run.
    leftovers = [pid for pid in descendants() if not _reaped(pid)]
    result["leftover_processes"] = len(kill_descendants()) if leftovers else 0
    result["host"] = host_stamp(args, result["ref_us"])
    result["tail_pct"] = TAIL_PCT[args.workload]
    attempted = result["items"]
    failed = result["failed_items"] + result.get("unattempted_items", 0)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in result["layers"]["metrics"].items()
        }
    else:
        metrics = {
            name: {"value": result[name], "unit": unit}
            for name, unit in (("setup_s", "s"), ("items_per_s", "1/s"), ("p50_ms", "ms"),
                               ("tail_ms", "ms"), ("peak_rss_mb", "MB"))
        }
    line = {
        "correct": failed == 0 and result["leftover_processes"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "result": line}, fh, indent=1, default=str)
    print_report(result)
    print(json.dumps(line))
    return 0


def _reaped(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one combined table."""
    results = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        with open(OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json") as fh:
            results.append(json.load(fh))
    print(tables.end_to_end_table(results))
    if args.trace:
        print()
        print(tables.layer_table(results))
    lines = [r["result"] for r in results]
    print(json.dumps({
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {f"{r['host']['workload']}.{k}": v for r in results
                    for k, v in r["result"]["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--generate", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.generate is not None:
        generate_part(args.generate, args.seed, args.seconds)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
