"""Tests for the TCP/HTTP network front-end (:mod:`repro.serve.net`).

Each test boots a real :class:`NetServer` on an ephemeral loopback port
and talks to it over actual sockets: NDJSON frames (including ``count``
and ``stats`` ops), the minimal HTTP path, per-client rate limiting
with ``retry_after`` hints, and oversized-line rejection.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing

import pytest

from repro.engine import BACKENDS
from repro.io import run_json, value_to_json
from repro.serve import NetServer, RateLimiter
from repro.values.values import vorset, vset


def orset_json(*xs):
    return value_to_json(vorset(*xs))


async def request_frames(address, frames, *, expect=None):
    """Send *frames* on one connection; responses keyed by ``id``."""
    reader, writer = await asyncio.open_connection(*address)
    for frame in frames:
        writer.write((json.dumps(frame) + "\n").encode())
    await writer.drain()
    responses = {}
    for _ in range(expect if expect is not None else len(frames)):
        line = await reader.readline()
        assert line, "server closed the connection early"
        data = json.loads(line)
        responses[data.get("id")] = data
    writer.close()
    await writer.wait_closed()
    return responses


async def http_request(address, method, path, body=None):
    """One minimal HTTP/1.1 exchange; returns (status, headers, payload)."""
    reader, writer = await asyncio.open_connection(*address)
    blob = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\nContent-Length: {len(blob)}\r\n\r\n"
    )
    writer.write(head.encode() + blob)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    payload = json.loads(await reader.readexactly(length)) if length else {}
    writer.close()
    await writer.wait_closed()
    return status, headers, payload


async def raw_http(address, data: bytes, *, eof: bool = False):
    """Send *data* as it is, half-closing the connection after it if *eof*;
    returns the response's status and payload."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(data)
    if eof:
        writer.write_eof()
    await writer.drain()
    response = await asyncio.wait_for(reader.read(), 10.0)
    writer.close()
    await writer.wait_closed()
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestFrames:
    def test_ndjson_round_trip_single_and_batch(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                frames = [
                    {"id": 1, "program": "normalize", "value": orset_json(1, 2)},
                    {
                        "id": 2,
                        "program": "normalize",
                        "values": [orset_json(3), orset_json(4, 4)],
                    },
                ]
                return await request_frames(server.address, frames)

        responses = asyncio.run(main())
        assert responses[1]["result"] == run_json("normalize", orset_json(1, 2))
        assert responses[2]["results"] == [
            run_json("normalize", orset_json(3)),
            run_json("normalize", orset_json(4, 4)),
        ]

    def test_count_and_stats_ops(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                return await request_frames(
                    server.address,
                    [
                        {
                            "id": 1,
                            "op": "count",
                            "program": "normalize",
                            "value": orset_json(1, 2, 3),
                        },
                        {"id": 2, "op": "stats"},
                    ],
                )

        responses = asyncio.run(main())
        assert responses[1]["result"]["count"] >= 1
        stats = responses[2]["stats"]
        assert stats["net"]["connections"] == 1
        assert "latency" in stats  # engine metrics surface through the wire

    def test_default_server_forks_no_workers(self):
        # A pool an earlier caller warmed is not this server's doing.
        BACKENDS["process"].close()
        stray = set(multiprocessing.active_children())

        async def main():
            async with NetServer(batch_window=0.001) as server:
                return await request_frames(
                    server.address,
                    [
                        {"id": 1, "program": "normalize", "value": orset_json(1, 2)},
                        {"id": 2, "program": "map(id)", "value": value_to_json(vset(1, 2))},
                        {
                            "id": 3,
                            "op": "count",
                            "program": "normalize",
                            "value": orset_json(1, 2, 3),
                        },
                    ],
                )

        responses = asyncio.run(main())
        assert all("result" in responses[i] for i in (1, 2, 3)), responses
        assert set(multiprocessing.active_children()) <= stray
        assert BACKENDS["process"]._pool is None

    def test_malformed_and_unknown_op_answer_structured_errors(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                responses = await request_frames(
                    server.address,
                    [
                        {"id": 1, "value": orset_json(1)},  # no program
                        {"id": 2, "op": "mystery", "program": "normalize"},
                    ],
                )
                raw = await request_frames(
                    server.address, ["not json at all"], expect=1
                )
                return responses, raw

        responses, raw = asyncio.run(main())
        assert responses[1]["code"] == "malformed"
        assert responses[2]["code"] == "malformed"
        assert raw[None]["code"] == "malformed"

    def test_oversized_line_is_rejected_and_connection_dropped(self):
        async def main():
            async with NetServer(batch_window=0.001, max_line=256) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"x" * 1024 + b"\n")
                await writer.drain()
                frame = json.loads(await reader.readline())
                eof = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return frame, eof, server.stats()

        frame, eof, stats = asyncio.run(main())
        assert frame["code"] == "oversized"
        assert eof == b""  # no resync possible mid-line: server hangs up
        assert stats["net"]["oversized"] == 1


class TestRateLimiting:
    def test_over_budget_clients_are_shed_with_retry_after(self):
        async def main():
            async with NetServer(
                batch_window=0.001, rate=0.001, burst=2.0
            ) as server:
                frames = [
                    {"id": i, "program": "normalize", "value": orset_json(i)}
                    for i in range(4)
                ]
                responses = await request_frames(server.address, frames)
                return responses, server.stats()

        responses, stats = asyncio.run(main())
        outcomes = [("result" in responses[i]) for i in range(4)]
        assert outcomes == [True, True, False, False]
        for i in (2, 3):
            assert responses[i]["code"] == "overloaded"
            assert responses[i]["retry_after"] > 0
        assert stats["net"]["rate_limited"] == 2
        assert stats["net"]["frames"] == 2  # shed frames never count as served

    def test_limiter_is_per_key_and_lru_bounded(self):
        clock = [0.0]
        limiter = RateLimiter(1.0, burst=1.0, clock=lambda: clock[0], max_clients=2)
        assert limiter.admit("a") == 0.0
        assert limiter.admit("b") == 0.0
        assert limiter.admit("a") > 0.0  # a's bucket is empty
        # c evicts the least-recently-used bucket (b); b returns fresh
        # with a full burst — eviction errs on the side of serving.
        assert limiter.admit("c") == 0.0
        assert limiter.admit("b") == 0.0
        assert len(limiter._buckets) == 2


class TestHttp:
    def test_post_run_and_get_stats(self):
        async def main():
            async with NetServer(batch_window=0.001) as server:
                status, _, payload = await http_request(
                    server.address,
                    "POST",
                    "/run",
                    {"program": "normalize", "value": orset_json(1, 2)},
                )
                cstatus, _, cpayload = await http_request(
                    server.address,
                    "POST",
                    "/count",
                    {"program": "normalize", "value": orset_json(1, 2)},
                )
                sstatus, _, spayload = await http_request(
                    server.address, "GET", "/stats"
                )
                return (status, payload), (cstatus, cpayload), (sstatus, spayload)

        (status, payload), (cstatus, cpayload), (sstatus, spayload) = asyncio.run(
            main()
        )
        assert status == 200
        assert payload["result"] == run_json("normalize", orset_json(1, 2))
        assert cstatus == 200
        assert cpayload["result"]["count"] >= 1
        assert sstatus == 200
        assert spayload["stats"]["net"]["http_requests"] == 2
        assert "latency" in spayload["stats"]

    def test_error_codes_map_onto_status_lines(self):
        async def main():
            async with NetServer(
                batch_window=0.001, rate=0.001, burst=2.0
            ) as server:
                first = await http_request(
                    server.address,
                    "POST",
                    "/run",
                    {"program": "normalize", "value": orset_json(1)},
                )
                # Admission precedes validation, so this burns a token too.
                bad = await http_request(
                    server.address, "POST", "/run", {"value": orset_json(1)}
                )
                shed = await http_request(
                    server.address,
                    "POST",
                    "/run",
                    {"program": "normalize", "value": orset_json(2)},
                )
                missing = await http_request(server.address, "GET", "/nope")
                # Observability is exempt from the rate limit.
                stats = await http_request(server.address, "GET", "/stats")
                return first, shed, missing, bad, stats

        first, shed, missing, bad, stats = asyncio.run(main())
        assert first[0] == 200
        assert shed[0] == 429
        assert shed[2]["code"] == "overloaded"
        assert int(shed[1]["retry-after"]) >= 1
        assert missing[0] == 404
        assert bad[0] == 400 and bad[2]["code"] == "malformed"
        assert stats[0] == 200


class TestHttpFraming:
    """Broken HTTP framing gets a typed error frame, never an empty reply."""

    @staticmethod
    def exchange(data: bytes, *, eof: bool = False, max_line: int = 256):
        async def main():
            async with NetServer(batch_window=0.001, max_line=max_line) as server:
                answer = await raw_http(server.address, data, eof=eof)
                # The server still serves the next client.
                after = await raw_http(
                    server.address,
                    b"GET /stats HTTP/1.1\r\n\r\n",
                )
                return answer, after[0], server.stats()["net"]

        return asyncio.run(main())

    @pytest.mark.parametrize("length", [b"ten", b"-3"])
    def test_content_length_that_is_not_a_length_is_malformed(self, length):
        (status, frame), after, _ = self.exchange(
            b"POST /run HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n{}"
        )
        assert (status, frame["code"], after) == (400, "malformed", 200)
        assert "Content-Length" in frame["error"]

    def test_body_shorter_than_its_length_is_malformed(self):
        (status, frame), after, _ = self.exchange(
            b'POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\n{"program"', eof=True
        )
        assert (status, frame["code"], after) == (400, "malformed", 200)
        assert "10 of 50 bytes" in frame["error"]

    def test_header_line_over_the_stream_limit_is_oversized(self):
        (status, frame), after, net = self.exchange(
            b"POST /run HTTP/1.1\r\nX-Pad: " + b"a" * 1024 + b"\r\n\r\n"
        )
        assert (status, frame["code"], after) == (431, "oversized", 200)
        assert net["oversized"] == 1

    def test_headers_over_max_line_are_oversized(self):
        # Each line fits the stream limit; together they do not.
        lines = b"".join(b"X-Pad-%d: %s\r\n" % (i, b"a" * 100) for i in range(10))
        (status, frame), after, _ = self.exchange(b"POST /run HTTP/1.1\r\n" + lines + b"\r\n")
        assert (status, frame["code"], after) == (431, "oversized", 200)

    def test_declared_body_over_max_line_is_refused_unread(self):
        # No body follows: an answer at all shows the server never waited
        # for the 100,000 bytes it was promised.
        for length in (b"100000", b"9" * 5000):
            (status, frame), _, net = self.exchange(
                b"POST /run HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n",
                max_line=8192,
            )
            assert (status, frame["code"], net["oversized"]) == (431, "oversized", 1)

    def test_length_within_max_line_still_serves(self):
        body = json.dumps({"program": "normalize", "value": orset_json(1, 2)}).encode()
        head = f"POST /run HTTP/1.1\r\nContent-Length: 000{len(body)}\r\n\r\n"
        (status, frame), _, _ = self.exchange(head.encode() + body, max_line=len(body))
        assert status == 200
        assert frame["result"] == run_json("normalize", orset_json(1, 2))
