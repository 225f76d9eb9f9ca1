"""One wire protocol: every transport answers a frame the same way.

:func:`repro.serve.proto.answer` is the only frame dispatcher, so the
stdio server and a :class:`~repro.serve.NetServer` connection must give
identical answers to the same request line — runs, batches, world
counts, stats, and every kind of malformed frame.  And
:func:`repro.serve.proto.encode_frame` is the only frame encoder: the
bytes stdio, NDJSON and HTTP write for a frame are exactly
``json.dumps(payload, sort_keys=True)`` of the payload with its run
results as :func:`repro.io.run_json` dicts.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import OrNRAError
from repro.io import count_worlds_json, run_json, value_to_json
from repro.serve.proto import encode_frame, error_frame
from repro.values.values import vorset, vset
from tests.serve.transports import http_exchange, run_stdio, run_tcp, stdio_text, tcp_lines

WORLD = value_to_json(vorset(1, 2))
#: A set of two 2-way or-sets: four worlds.
TWO_CHOICES = value_to_json(vset(vorset(1, 2), vorset(3, 4)))
#: A set whose two int atoms hold values that do not compare.
INCOMPARABLE = {"set": [{"atom": "int", "value": 1}, {"atom": "int", "value": "x"}]}


def malformed(message: str, request_id=None) -> dict:
    frame = {"code": "malformed", "error": message}
    if request_id is not None:
        frame["id"] = request_id
    return frame


#: name → (request frame or raw line, fields the answer must carry).
CASES = {
    "run": (
        {"id": 1, "program": "normalize", "value": WORLD},
        {"id": 1, "result": run_json("normalize", WORLD)},
    ),
    "values": (
        {"id": 2, "program": "normalize", "values": [WORLD, TWO_CHOICES]},
        {"id": 2, "results": [run_json("normalize", v) for v in (WORLD, TWO_CHOICES)]},
    ),
    "count": (
        {"id": 3, "op": "count", "program": "normalize", "value": TWO_CHOICES},
        {"id": 3, "result": {"count": 4, "approximate": False}},
    ),
    "stats": ({"id": 4, "op": "stats"}, {"id": 4}),
    "unknown-op": (
        {"id": 5, "op": "bogus", "program": "normalize", "value": WORLD},
        malformed("unknown op 'bogus'", 5),
    ),
    "non-object": ([1, 2], malformed("malformed request frame: [1, 2]")),
    "unparsable": ('{"id": 7, "program": nope', {"code": "malformed"}),
    "missing-program": (
        {"id": 8, "value": WORLD},
        malformed("malformed request frame: missing 'program'", 8),
    ),
    "missing-value": (
        {"id": 9, "program": "normalize"},
        malformed("malformed request frame: missing 'value'", 9),
    ),
    "incomparable-atoms": (
        {"id": 10, "program": "normalize", "value": INCOMPARABLE},
        {"id": 10, "code": "malformed"},
    ),
    "incomparable-atoms-count": (
        {"id": 11, "op": "count", "program": "normalize", "value": INCOMPARABLE},
        {"id": 11, "code": "malformed"},
    ),
}


@pytest.mark.parametrize("frame, expected", list(CASES.values()), ids=list(CASES))
def test_stdio_and_tcp_answer_alike(frame, expected):
    line = (frame if isinstance(frame, str) else json.dumps(frame)) + "\n"
    (stdio,) = run_stdio([line], ["--quiet", "--backend", "eager"])
    (tcp,) = run_tcp([line], backend="eager")
    assert expected.items() <= stdio.items()
    if "stats" in stdio:
        # Both answer the engine's counters; NetServer adds its ``net``
        # block, and latency figures differ run to run, so compare keys.
        assert set(stdio.pop("stats")) == set(tcp.pop("stats")) - {"net"}
    assert stdio == tcp


def _failure(program: str, value, request_id) -> dict:
    """The error frame for a request that fails as ``run_json`` does."""
    with pytest.raises(OrNRAError) as failed:
        run_json(program, value)
    return {"id": request_id, **error_frame(failed.value)}


#: name → (request frame, its response payload built from run_json dicts).
BYTE_CASES = {
    "run": (
        {"id": 1, "program": "normalize", "value": TWO_CHOICES},
        {"id": 1, "result": run_json("normalize", TWO_CHOICES)},
    ),
    "values": (
        {"id": "b\u00e4tch", "program": "normalize", "values": [WORLD, TWO_CHOICES, WORLD]},
        {
            "id": "b\u00e4tch",
            "results": [run_json("normalize", v) for v in (WORLD, TWO_CHOICES, WORLD)],
        },
    ),
    "count": (
        {"id": 3, "op": "count", "program": "normalize", "value": TWO_CHOICES},
        {"id": 3, "result": {"count": count_worlds_json("normalize", TWO_CHOICES),
                             "approximate": False}},
    ),
    "error": (
        {"id": [4], "program": "mu", "value": WORLD},
        _failure("mu", WORLD, [4]),
    ),
}


@pytest.mark.parametrize("frame, payload", list(BYTE_CASES.values()), ids=list(BYTE_CASES))
def test_every_transport_writes_the_dict_encoding_byte_for_byte(frame, payload):
    expected = json.dumps(payload, sort_keys=True)
    line = json.dumps(frame) + "\n"
    assert stdio_text([line], ["--quiet", "--backend", "eager"]) == expected + "\n"
    assert tcp_lines([line], backend="eager") == [(expected + "\n").encode()]
    head, body = http_exchange("/run", json.dumps(frame).encode(), backend="eager")
    assert body == expected.encode()
    assert f"Content-Length: {len(body)}".encode() in head.split(b"\r\n")


@pytest.mark.parametrize(
    "payload",
    [
        {"id": 4, "stats": {"latency": {"p50_ms": 0.5, "count": 3}, "b\u00e4tches": [1, 2]}},
        {"id": "x", "error": "busy", "code": "overloaded", "retry_after": 0.05},
    ],
    ids=["stats", "overloaded"],
)
def test_frames_without_result_text_are_written_as_json_dumps(payload):
    assert encode_frame(payload) == json.dumps(payload, sort_keys=True)
