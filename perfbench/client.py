"""The serve-mix load generator: a closed loop of NDJSON frames over TCP.

Runs in its own process, apart from the server and its trace wrappers,
and never imports the program: it sees only frames and expected replies.
The first line on stdin is the job::

    {"host": ..., "port": ..., "connections": 2, "inflight": 8,
     "deadline_s": 150, "pool": [frame, ...], "expected": [result, ...],
     "sequence": [pool index, ...]}

Then each further line is a command, answered by one JSON line on stdout:

* ``go N`` — send the next N requests of the sequence over *connections*
  connections, each keeping *inflight* pipelined requests outstanding (a
  new request is sent only when a reply arrives: a closed loop).  The
  answer carries each request's latency, from its send to the reply
  read, and its failures: a reply whose result differs from the expected
  one, or an error frame.
* ``ref N`` — the same closed loop, N requests to the *reference
  server* at ``ref_port``: a fixed server of the benchmark's own whose
  requests run the reference kernel (see refkernel.py).  Its speed,
  measured between segments, gauges what the host can do right now.
* ``stop`` (or end of input) — close the connections and exit.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

import refkernel


class _Connection:
    def __init__(self, job: dict, reader, writer) -> None:
        self.job, self.reader, self.writer = job, reader, writer

    @classmethod
    async def open(cls, job: dict, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(job["host"], port, limit=1 << 24)
        return cls(job, reader, writer)

    async def drive(self, take, report: dict) -> None:
        job = self.job
        pool, expected, sequence = job["pool"], job["expected"], job["sequence"]
        sent: dict[int, float] = {}

        def send() -> bool:
            i = take()
            if i is None:
                return False
            frame = dict(pool[sequence[i]])
            frame["id"] = i
            sent[i] = time.perf_counter()
            self.writer.write((json.dumps(frame) + "\n").encode())
            return True

        outstanding = sum(send() for _ in range(job["inflight"]))
        while outstanding:
            await self.writer.drain()
            line = await self.reader.readline()
            now = time.perf_counter()
            if not line:
                raise ConnectionError("server closed the connection")
            reply = json.loads(line)
            i = reply.get("id")
            report["latencies_ms"].append((now - sent.pop(i)) * 1e3)
            if reply.get("result") != expected[sequence[i]]:
                report["failed"] += 1
                if len(report["errors"]) < 5:
                    report["errors"].append(str(reply)[:300])
            outstanding -= 1
            outstanding += send()


async def _segment(connections, first: int, count: int, limit: float) -> dict:
    cursor = iter(range(first, first + count))
    report = {"latencies_ms": [], "failed": 0, "errors": []}

    def take():
        return next(cursor, None)

    start = time.perf_counter()
    try:
        await asyncio.wait_for(
            asyncio.gather(*(c.drive(take, report) for c in connections)), limit
        )
    except (asyncio.TimeoutError, OSError) as exc:
        report["errors"].append(f"generator stopped: {exc!r}")
    report["elapsed_s"] = time.perf_counter() - start
    return report


async def _main() -> None:
    loop = asyncio.get_running_loop()
    job = json.loads(await loop.run_in_executor(None, sys.stdin.readline))
    n = job["connections"]
    connections = [await _Connection.open(job, job["port"]) for _ in range(n)]
    # The reference loop: same shape, requests that always answer the same.
    ref_job = dict(job, pool=[{"ref": True}], expected=[refkernel.REQUEST_ANSWER])
    ref_connections = [await _Connection.open(ref_job, job["ref_port"]) for _ in range(n)]
    sent = ref_sent = 0
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).split()
            if not command or command[0] == "stop":
                break
            count = int(command[1])
            if command[0] == "ref":
                ref_job["sequence"] = [0] * (ref_sent + count)
                answer = await _segment(ref_connections, ref_sent, count, job["deadline_s"])
                ref_sent += count
            else:
                count = min(count, len(job["sequence"]) - sent)
                answer = await _segment(connections, sent, count, job["deadline_s"])
                sent += count
            sys.stdout.write(json.dumps(answer) + "\n")
            sys.stdout.flush()
    finally:
        for c in connections + ref_connections:
            c.writer.close()
            try:
                await c.writer.wait_closed()
            except OSError:
                pass


if __name__ == "__main__":
    asyncio.run(_main())
