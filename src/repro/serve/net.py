"""The network serving front-end: TCP/HTTP over :class:`AsyncEngine`.

``python -m repro.serve`` speaks JSON-lines over stdio — one process,
one pipe.  This module is the *service* face the ROADMAP's serving item
asks for: a socket front-end many clients connect to concurrently, with
per-client rate limits and latency observability.  One
:class:`NetServer` speaks two protocols on one port:

* **NDJSON frames** — the same newline-delimited JSON protocol as the
  stdio server, answered by the same dispatcher
  (:func:`repro.serve.proto.answer`) and written by the same encoder
  (:func:`repro.serve.proto.encode_frame`): runs, ``values`` batches,
  ``{"op": "count"}`` world counts and ``{"op": "stats"}`` snapshots.
  Frames on one connection are admitted concurrently, so duplicate
  inputs in flight together share one evaluation.
* **a minimal HTTP path** — ``POST /run`` and ``POST /count`` take a
  request frame as their JSON body; ``GET /stats`` answers the stats
  snapshot.  Structured error codes map onto status
  lines (429 for ``overloaded`` with a ``Retry-After`` header, 504 for
  ``deadline``, 413 for ``cost``, ...), and so does broken framing: a
  ``Content-Length`` that is not a length, or a body that ends short of
  it, is ``malformed`` (400); a header line, the headers or a declared
  body over ``max_line`` is ``oversized`` (431), refused before the body
  is read.
  One request per connection (``Connection: close``) — curl-ability,
  not a web server.

**Rate limits.**  With ``rate=`` set, each client (keyed by peer
address) gets a :class:`~repro.serve.metrics.TokenBucket`; a client over
its budget is shed with the same :class:`~repro.errors.Overloaded` →
``{"code": "overloaded", "retry_after": ...}`` path as engine
backpressure, *before* the request reaches the engine.

Latency for every served request is recorded by the engine's metrics
layer (:mod:`repro.serve.metrics`): ``stats()["latency"]`` carries
p50/p90/p99 per phase plus windowed throughput, which the load harness
(``tools/loadgen.py``, ``benchmarks/bench_net_serve.py``) sweeps and the
REPL's ``serve`` command prints.

Use as an async context manager::

    async with NetServer() as server:
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        ...

or from a shell: ``python -m repro.serve.net --port 7707``.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from collections import OrderedDict
from functools import partial

from repro.errors import OrNRAError, Overloaded
from repro.serve.metrics import TokenBucket
from repro.serve.proto import (
    DEFAULT_MAX_LINE,
    HTTP_STATUS,
    OversizedFrame,
    add_engine_flags,
    answer,
    encode_frame,
    engine_from_flags,
    error_frame,
)
from repro.serve.server import AsyncEngine

__all__ = ["NetServer", "RateLimiter", "main", "amain"]

_HTTP_METHODS = {"GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH"}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class RateLimiter:
    """Per-client token buckets, LRU-bounded so clients can't leak memory.

    One bucket per client key (the network layer keys by peer address);
    buckets are created full on first sight and evicted least-recently-
    used past *max_clients* — an evicted-and-returning client starts
    with a fresh burst, which errs on the side of serving.
    """

    def __init__(
        self,
        rate: float,
        burst: "float | None" = None,
        clock=time.monotonic,
        max_clients: int = 1024,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        self.clock = clock
        self.max_clients = max(1, max_clients)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def admit(self, key: str) -> float:
        """0.0 if *key* may proceed, else seconds until it should retry."""
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, self.clock)
            self._buckets[key] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(key)
        return bucket.admit()


class NetServer:
    """An asyncio TCP/HTTP server over :class:`AsyncEngine`.

    *engine* is an :class:`AsyncEngine` to serve; omitted, one is built
    from ``**engine_kwargs`` (``backend``, ``max_pending``,
    ``default_timeout``, ``cost_budget``, ...).  *rate* / *burst* arm the
    per-client token buckets (requests per second; ``None`` disables
    rate limiting).  *port* 0 (the default) picks an ephemeral port —
    read :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        engine: "AsyncEngine | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate: "float | None" = None,
        burst: "float | None" = None,
        max_line: int = DEFAULT_MAX_LINE,
        **engine_kwargs,
    ) -> None:
        self.host = host
        self.port = port
        self.max_line = max_line
        self.engine = engine if engine is not None else AsyncEngine(**engine_kwargs)
        self._limiter = RateLimiter(rate, burst) if rate is not None else None
        self._server: "asyncio.AbstractServer | None" = None
        self.address: "tuple[str, int] | None" = None
        self._counters = {
            "connections": 0,
            "frames": 0,
            "http_requests": 0,
            "rate_limited": 0,
            "oversized": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "NetServer":
        if self._server is not None:
            return self
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=self.max_line
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.engine.close()

    async def __aenter__(self) -> "NetServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- request processing ------------------------------------------------

    def _admit_client(self, key: str, counter: str) -> None:
        """Rate-limit *key*, then count its request under *counter*."""
        if self._limiter is not None:
            retry_after = self._limiter.admit(key)
            if retry_after:
                self._counters["rate_limited"] += 1
                raise Overloaded(
                    f"client {key} over its rate limit", retry_after=retry_after
                )
        self._counters[counter] += 1

    def stats(self) -> dict:
        """The stats snapshot: engine counters plus the ``net`` counters."""
        snapshot = self.engine.stats()
        snapshot["net"] = dict(self._counters)
        return snapshot

    # -- the connection loop -----------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        self._counters["connections"] += 1
        peer = writer.get_extra_info("peername")
        key = str(peer[0]) if isinstance(peer, (tuple, list)) and peer else "local"
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line over the stream limit: answer a structured
                    # frame and drop the connection — there is no way to
                    # resync to the next newline we never buffered.
                    self._counters["oversized"] += 1
                    message = f"request line over {self.max_line} bytes"
                    frame = error_frame(OversizedFrame(message))
                    await self._write_frame(writer, write_lock, frame)
                    break
                if not line:
                    break
                text = line.decode("utf-8", "replace").strip()
                if not text:
                    continue
                if _looks_like_http(text):
                    await self._serve_http(text, reader, writer, key)
                    break  # Connection: close
                task = asyncio.ensure_future(
                    self._serve_frame(text, writer, write_lock, key)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                # Yield once per line, so the frame is admitted, or
                # answered, before the next is read: a burst of buffered
                # lines never piles up as tasks.
                await asyncio.sleep(0)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _write_frame(self, writer, write_lock, payload: dict) -> None:
        blob = (encode_frame(payload) + "\n").encode()
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(blob)
            try:
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    async def _serve_frame(self, text: str, writer, write_lock, key: str) -> None:
        payload = await answer(
            text,
            self.engine,
            stats=self.stats,
            admit=partial(self._admit_client, key, "frames"),
        )
        await self._write_frame(writer, write_lock, payload)

    # -- the HTTP path -----------------------------------------------------

    async def _serve_http(self, request_line: str, reader, writer, key: str) -> None:
        parts = request_line.split()
        method = parts[0]
        path = parts[1] if len(parts) > 1 else "/"
        try:
            body = await self._read_http_body(reader)
        except OversizedFrame as exc:
            self._counters["oversized"] += 1
            status, payload = HTTP_STATUS["oversized"], error_frame(exc)
        except OrNRAError as exc:
            status, payload = HTTP_STATUS["malformed"], error_frame(exc)
        else:
            status, payload = await self._http_dispatch(method, path, body, key)
        blob = encode_frame(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            "Connection: close\r\n"
        )
        if payload.get("code") == "overloaded" and "retry_after" in payload:
            head += f"Retry-After: {max(1, math.ceil(payload['retry_after']))}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + blob)
        try:
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    async def _read_http_body(self, reader) -> bytes:
        """Read the headers after the request line, then the body.

        A header line over the stream limit, a header block or a declared
        length over ``max_line``, raises :class:`OversizedFrame` before
        any body is read; a ``Content-Length`` that is not a decimal
        number, or a body that ends short of it, raises a
        malformed-request error.
        """
        headers: "dict[str, str]" = {}
        size = 0
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                raise OversizedFrame(
                    f"header line over {self.max_line} bytes"
                ) from None
            size += len(raw)
            if size > self.max_line:
                raise OversizedFrame(f"headers over {self.max_line} bytes")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise OrNRAError(f"malformed Content-Length {declared[:40]!r}")
        digits = declared.lstrip("0") or "0"
        # Count the digits first: int() refuses thousands of them.
        fits = len(digits) <= len(str(self.max_line))
        length = int(digits) if fits else self.max_line + 1
        if length > self.max_line:
            raise OversizedFrame(f"request body over {self.max_line} bytes")
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise OrNRAError(
                f"request body ended after {len(exc.partial)} of {length} bytes"
            ) from None

    async def _http_dispatch(self, method, path, body: bytes, key):
        if method == "GET" and path == "/stats":
            # Observability is exempt from rate limits: a shedding
            # server must still answer "how bad is it?".
            return 200, {"stats": self.stats()}
        if method == "POST" and path in ("/run", "/count"):
            payload = await answer(
                body.decode("utf-8", "replace"),
                self.engine,
                stats=self.stats,
                admit=partial(self._admit_client, key, "http_requests"),
                op="count" if path == "/count" else None,
            )
            return HTTP_STATUS.get(payload.get("code"), 200), payload
        return 404, error_frame(OrNRAError(f"no route for {method} {path}"))


def _looks_like_http(text: str) -> bool:
    return text.split(" ", 1)[0] in _HTTP_METHODS and " HTTP/" in text


# -- CLI ---------------------------------------------------------------------


async def amain(argv: "list[str] | None" = None, *, ready=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.net", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    add_engine_flags(parser)
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--burst", type=float, default=None)
    args = parser.parse_args(argv)

    server = NetServer(
        engine_from_flags(args),
        host=args.host,
        port=args.port,
        rate=args.rate,
        burst=args.burst,
        max_line=args.max_line,
    )
    async with server:
        host, port = server.address
        print(f"serving on {host}:{port}", file=sys.stderr)
        if ready is not None:
            ready(server)
        await asyncio.Event().wait()


def main(argv: "list[str] | None" = None) -> None:
    """Synchronous entry point (``python -m repro.serve.net``)."""
    try:
        asyncio.run(amain(argv))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
