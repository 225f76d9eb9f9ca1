"""``python -m repro.serve`` — a JSON-lines stdio server over AsyncEngine.

Protocol: one JSON object per input line, one JSON object per output
line (order may interleave; match on ``id``).

Request::

    {"id": 1, "program": "normalize", "value": {"orset": [...]}}
    {"id": 2, "program": "normalize", "values": [{...}, {...}]}

Response::

    {"id": 1, "result": {...}}
    {"id": 2, "results": [{...}, {...}]}
    {"id": 1, "error": "...", "code": "malformed"}

Requests on different lines are admitted concurrently, so consecutive
lines land in the same micro-batch and duplicate inputs are evaluated
once — the whole point of the front-end.  EOF closes the server cleanly
(in-flight requests are served first) and prints the batching stats to
stderr.

The framing layer is hardened against hostile or broken peers: input
lines longer than ``--max-line`` are rejected with a structured error
frame (``"code": "oversized"``) and skipped to the next newline instead
of buffering without bound; malformed JSON and malformed value
encodings answer ``"code": "malformed"``; shed requests answer
``"code": "overloaded"`` with a ``retry_after`` hint; expired deadlines
answer ``"code": "deadline"``; over-budget inputs answer
``"code": "cost"``.  ``--idle-timeout`` closes the server when no line
arrives for that many seconds — a dead peer cannot hold the process
open forever.

Flags: ``--backend`` (default ``auto``), ``--window`` (batching window,
seconds), ``--max-batch``, ``--timeout`` (per-request deadline,
seconds), ``--max-pending``, ``--cost-budget``, ``--max-line`` (bytes),
``--idle-timeout`` (seconds), ``--quiet`` (suppress the stats line).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading

from repro.serve.proto import DEFAULT_MAX_LINE, error_frame as _error_frame
from repro.serve.server import AsyncEngine

__all__ = ["main", "amain"]

#: Sentinel for "the peer sent a line longer than --max-line".
_OVERSIZED = object()


async def _handle(engine: AsyncEngine, line: str, stdout) -> None:
    from repro.engine import faults

    request_id = None
    try:
        line = faults.fire("serve.frame", line)
        request = json.loads(line)
        request_id = request.get("id")
        program = request["program"]
        if "values" in request:
            payload = {"results": await engine.run_many(program, request["values"])}
        else:
            payload = {"result": await engine.run_json(program, request["value"])}
    except Exception as exc:  # noqa: BLE001 — every request error goes to the client
        payload = _error_frame(exc)
    if request_id is not None:
        payload["id"] = request_id
    print(json.dumps(payload, sort_keys=True), file=stdout, flush=True)


def _read_frame(stdin, max_line: int):
    """One line from *stdin*, bounded: '' on EOF, _OVERSIZED past the cap.

    Runs on a worker thread (blocking reads must not stall the loop).
    An oversized line is consumed up to its newline so the *next* frame
    starts clean — one hostile line must not poison the rest of the
    stream.
    """
    line = stdin.readline(max_line + 1)
    if not line:
        return ""
    if len(line) > max_line and not line.endswith("\n"):
        while True:
            rest = stdin.readline(max_line)
            if not rest or rest.endswith("\n"):
                return _OVERSIZED
    return line


def _pump_frames(stdin, max_line: int, loop, frames: asyncio.Queue) -> None:
    """Daemon reader thread: feed frames from *stdin* into *frames*.

    A daemon thread rather than the loop's executor, so a peer that
    never closes stdin cannot pin the process open: blocked reads are
    simply abandoned at exit instead of joined.
    """
    while True:
        frame = _read_frame(stdin, max_line)
        try:
            loop.call_soon_threadsafe(frames.put_nowait, frame)
        except RuntimeError:  # loop already closed (idle-timeout exit)
            return
        if frame == "":
            return


async def amain(
    argv: list[str] | None = None, stdin=None, stdout=None, stderr=None
) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--backend", default="auto")
    parser.add_argument("--window", type=float, default=0.002)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-pending", type=int, default=1024)
    parser.add_argument("--cost-budget", type=int, default=None)
    parser.add_argument("--max-line", type=int, default=DEFAULT_MAX_LINE)
    parser.add_argument("--idle-timeout", type=float, default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    engine = AsyncEngine(
        backend=args.backend,
        batch_window=args.window,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        default_timeout=args.timeout,
        cost_budget=args.cost_budget,
    )
    loop = asyncio.get_running_loop()
    pending: set[asyncio.Task] = set()
    frames: asyncio.Queue = asyncio.Queue()
    async with engine:
        # Start the reader only once the engine has forked its pool
        # workers: a worker forked while the reader holds stdin's buffer
        # lock would block forever closing stdin in its bootstrap, and
        # the interpreter would then hang at exit joining it.
        threading.Thread(
            target=_pump_frames,
            args=(stdin, args.max_line, loop, frames),
            name="serve-stdin",
            daemon=True,
        ).start()
        while True:
            if args.idle_timeout is None:
                line = await frames.get()
            else:
                try:
                    line = await asyncio.wait_for(frames.get(), args.idle_timeout)
                except asyncio.TimeoutError:
                    if not args.quiet:
                        print(
                            f"idle for {args.idle_timeout}s, closing", file=stderr
                        )
                    break
            if not line:
                break
            if line is _OVERSIZED:
                frame = {
                    "error": f"request line over {args.max_line} characters",
                    "code": "oversized",
                }
                print(json.dumps(frame, sort_keys=True), file=stdout, flush=True)
                continue
            if not line.strip():
                continue
            task = asyncio.ensure_future(_handle(engine, line, stdout))
            pending.add(task)
            task.add_done_callback(pending.discard)
            # Yield once so same-burst lines land in one batching window.
            await asyncio.sleep(0)
        if pending:
            await asyncio.gather(*pending)
    if not args.quiet:
        print(f"serve stats: {json.dumps(engine.stats(), sort_keys=True)}", file=stderr)


def main(argv: list[str] | None = None) -> None:
    """Synchronous entry point (console and ``-m`` execution)."""
    asyncio.run(amain(argv))


if __name__ == "__main__":
    main()
