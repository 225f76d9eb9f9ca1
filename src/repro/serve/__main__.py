"""``python -m repro.serve`` — a JSON-lines stdio server over AsyncEngine.

Protocol: one JSON object per input line, one JSON object per output
line (order may interleave; match on ``id``).  The frames — runs,
``values`` batches, ``{"op": "count"}`` world counts and
``{"op": "stats"}`` snapshots — are the ones :mod:`repro.serve.proto`
documents, answered by its dispatcher exactly as
:class:`~repro.serve.net.NetServer` answers them.

Requests on different lines are admitted concurrently, so duplicate
inputs in flight together share one evaluation.  EOF closes the server
cleanly (in-flight requests are served first) and prints the engine's
stats to stderr.

The framing layer is hardened against hostile or broken peers: input
lines longer than ``--max-line`` are rejected with a structured error
frame (``"code": "oversized"``) and skipped to the next newline instead
of buffering without bound; every other failure is mapped to its
structured frame by :func:`repro.serve.proto.error_frame`.
``--idle-timeout`` closes the server when no line arrives for that many
seconds — a dead peer cannot hold the process open forever.

Flags: the engine flags shared with ``python -m repro.serve.net``
(``--backend``, default ``auto``; ``--timeout``, the per-request
deadline in seconds; ``--max-pending``; ``--cost-budget``;
``--max-line`` in characters), plus ``--idle-timeout`` (seconds) and
``--quiet`` (suppress the stats line).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading

from repro.serve.proto import (
    OversizedFrame,
    add_engine_flags,
    answer,
    encode_frame,
    engine_from_flags,
    error_frame,
)
from repro.serve.server import AsyncEngine

__all__ = ["main", "amain"]

#: Sentinel for "the peer sent a line longer than --max-line".
_OVERSIZED = object()


def _emit(payload: dict, stdout) -> None:
    print(encode_frame(payload), file=stdout, flush=True)


async def _answer(engine: AsyncEngine, line: str, stdout) -> None:
    _emit(await answer(line, engine), stdout)


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
    add_engine_flags(parser)
    parser.add_argument("--idle-timeout", type=float, default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    engine = engine_from_flags(args)
    loop = asyncio.get_running_loop()
    pending: set[asyncio.Task] = set()
    frames: asyncio.Queue = asyncio.Queue()
    async with engine:
        # Start the reader only once the engine has forked its pool
        # workers (only `--backend process` forks any): a worker forked
        # while the reader holds stdin's buffer lock would block forever
        # closing stdin in its bootstrap, and the interpreter would then
        # hang at exit joining it.
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
                message = f"request line over {args.max_line} characters"
                _emit(error_frame(OversizedFrame(message)), stdout)
                continue
            if not line.strip():
                continue
            task = asyncio.ensure_future(_answer(engine, line, stdout))
            pending.add(task)
            task.add_done_callback(pending.discard)
            # Yield once per line, so the frame is admitted, or answered,
            # before the next is taken: queued lines never pile up as tasks.
            await asyncio.sleep(0)
        if pending:
            await asyncio.gather(*pending)
    if not args.quiet:
        stats = json.dumps(engine.stats(), sort_keys=True)  # lint: allow-LR009
        print(f"serve stats: {stats}", file=stderr)


def main(argv: list[str] | None = None) -> None:
    """Synchronous entry point (console and ``-m`` execution)."""
    asyncio.run(amain(argv))


if __name__ == "__main__":
    main()
