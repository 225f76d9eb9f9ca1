"""Drive NDJSON request lines through each serving transport, start to finish.

:func:`run_stdio` and :func:`run_tcp` take the request lines (each
ending in a newline) and return the parsed response frames; responses
may arrive in any order, so callers match on ``id``.
:func:`stdio_text`, :func:`tcp_lines` and :func:`http_exchange` return
the bytes as written, for checks on the encoding itself.
:func:`eager_text` is the text a server answers a run with.
"""

from __future__ import annotations

import asyncio
import io
import json

from repro.engine import run
from repro.io import dumps_value, parsed_morphism, value_from_json
from repro.serve import NetServer
from repro.serve.__main__ import amain


def eager_text(program: str, value_json) -> str:
    """``dumps_value`` of *program*'s eager result on *value_json*."""
    value = value_from_json(value_json)
    return dumps_value(run(parsed_morphism(program), value, backend="eager"))


def stdio_text(lines, argv=None) -> str:
    """What ``python -m repro.serve`` (in-process) writes to stdout for
    *lines*, read until EOF."""
    stdin = io.StringIO("".join(lines))
    stdout = io.StringIO()
    asyncio.run(
        amain(argv if argv is not None else ["--quiet"], stdin, stdout, io.StringIO())
    )
    return stdout.getvalue()


def run_stdio(lines, argv=None) -> list[dict]:
    """Feed *lines* to ``python -m repro.serve`` (in-process) until EOF."""
    return [json.loads(line) for line in stdio_text(lines, argv).splitlines()]


def tcp_lines(lines, **server_kwargs) -> list[bytes]:
    """Send *lines* on one connection to a fresh :class:`NetServer`; the
    raw response lines, newline included."""

    async def main():
        async with NetServer(**server_kwargs) as server:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write("".join(lines).encode())
            await writer.drain()
            frames = [await reader.readline() for _ in lines]
            writer.close()
            await writer.wait_closed()
            return frames

    return asyncio.run(main())


def run_tcp(lines, **server_kwargs) -> list[dict]:
    """Send *lines* on one connection to a fresh :class:`NetServer`."""
    return [json.loads(line) for line in tcp_lines(lines, **server_kwargs)]


def http_exchange(path: str, body: bytes, **server_kwargs) -> tuple[bytes, bytes]:
    """``POST`` *body* to *path* on a fresh :class:`NetServer`; the raw
    response's head (status line and headers) and body."""

    async def main():
        async with NetServer(**server_kwargs) as server:
            reader, writer = await asyncio.open_connection(*server.address)
            head = f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
            writer.write(head.encode() + body)
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            return response

    head, _, payload = asyncio.run(main()).partition(b"\r\n\r\n")
    return head, payload
