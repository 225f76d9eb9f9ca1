"""Drive NDJSON request lines through each serving transport, start to finish.

Both helpers take the request lines (each ending in a newline) and
return the parsed response frames; responses may arrive in any order,
so callers match on ``id``.
"""

from __future__ import annotations

import asyncio
import io
import json

from repro.serve import NetServer
from repro.serve.__main__ import amain


def run_stdio(lines, argv=None) -> list[dict]:
    """Feed *lines* to ``python -m repro.serve`` (in-process) until EOF."""
    stdin = io.StringIO("".join(lines))
    stdout = io.StringIO()
    asyncio.run(
        amain(argv if argv is not None else ["--quiet"], stdin, stdout, io.StringIO())
    )
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def run_tcp(lines, **server_kwargs) -> list[dict]:
    """Send *lines* on one connection to a fresh :class:`NetServer`."""

    async def main():
        async with NetServer(**server_kwargs) as server:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write("".join(lines).encode())
            await writer.drain()
            frames = [json.loads(await reader.readline()) for _ in lines]
            writer.close()
            await writer.wait_closed()
            return frames

    return asyncio.run(main())
