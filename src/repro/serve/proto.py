"""The serving wire protocol: one frame dispatcher for every transport.

``python -m repro.serve`` (stdio JSON-lines) and
:class:`repro.serve.net.NetServer` (TCP NDJSON and HTTP) speak the same
frames and answer them through the same code: :func:`answer` decodes a
frame, dispatches its op against an :class:`AsyncEngine` and maps every
failure to an error frame, and :func:`encode_frame` writes the response
frame's text.  The transports only move lines.

Request::

    {"id": 1, "program": "normalize", "value": {"orset": [...]}}
    {"id": 2, "program": "normalize", "values": [{...}, {...}]}
    {"id": 3, "op": "count", "program": "normalize", "value": {...}}
    {"id": 4, "op": "stats"}

Response::

    {"id": 1, "result": {...}}
    {"id": 2, "results": [{...}, {...}]}
    {"id": 3, "result": {"count": 4, "approximate": false}}
    {"id": 4, "stats": {...}}
    {"id": 1, "error": "...", "code": "overloaded", "retry_after": 0.05}

Run results are JSON text: :meth:`AsyncEngine.run_json` resolves to
the result's canonical JSON text, written once on the engine's executor
thread, so :func:`answer`'s payload carries a ``str`` under ``result``
(a run) or a list of them under ``results`` (a ``values`` batch).
:func:`encode_frame` splices those texts into the frame as they are;
a count's ``result`` dict, stats and error frames it writes as
``json.dumps(payload, sort_keys=True)``, and a spliced frame reads
byte for byte as that call would write it from the result dicts.

Every failure is a *structured* error frame: the ``code`` names which
admission or evaluation guard fired (``overloaded`` / ``deadline`` /
``cost`` / ``closed`` / ``malformed`` / ``oversized`` / ``error``), and
overload frames carry the ``retry_after`` hint clients should back off
by.  :func:`error_frame` is the single exception→frame mapping;
:data:`HTTP_STATUS` maps the same codes onto HTTP status lines for the
network front-end's ``POST /run`` path.  :func:`add_engine_flags` and
:func:`engine_from_flags` are the engine flags both command lines share.
"""

from __future__ import annotations

import json

from repro.engine import faults
from repro.errors import CostBudgetExceeded, DeadlineExceeded, Overloaded, OrNRAError
from repro.serve.server import AsyncEngine, ServerClosed

__all__ = [
    "DEFAULT_MAX_LINE",
    "HTTP_STATUS",
    "OversizedFrame",
    "add_engine_flags",
    "answer",
    "encode_frame",
    "engine_from_flags",
    "error_frame",
]

#: Default cap on one request line (1 MiB of text).
DEFAULT_MAX_LINE = 1 << 20

#: Error-frame ``code`` → HTTP status for the network front-end.
HTTP_STATUS = {
    "malformed": 400,
    "cost": 413,
    "overloaded": 429,
    "error": 500,
    "closed": 503,
    "deadline": 504,
    "oversized": 431,
}


class OversizedFrame(Exception):
    """A request line longer than the transport's ``max_line``."""


def error_frame(exc: BaseException) -> dict:
    """The structured error payload for one failed request."""
    if isinstance(exc, Overloaded):
        return {
            "error": str(exc),
            "code": "overloaded",
            "retry_after": exc.retry_after,
        }
    if isinstance(exc, DeadlineExceeded):
        return {"error": str(exc), "code": "deadline"}
    if isinstance(exc, CostBudgetExceeded):
        return {"error": str(exc), "code": "cost"}
    if isinstance(exc, ServerClosed):
        return {"error": str(exc), "code": "closed"}
    if isinstance(exc, OversizedFrame):
        return {"error": str(exc), "code": "oversized"}
    if isinstance(exc, (json.JSONDecodeError, KeyError, OrNRAError)):
        return {"error": str(exc), "code": "malformed"}
    return {"error": str(exc), "code": "error"}


_encode_key = json.encoder.encode_basestring_ascii
#: ``json.dumps(obj, sort_keys=True)``, without building an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True).encode


def encode_frame(payload: dict) -> str:
    """The text of the response frame *payload*, one line, no newline.

    Exactly ``json.dumps(payload, sort_keys=True)`` of the frame with its
    run results as dicts: a ``str`` under ``result`` and each ``str``
    under ``results`` are already canonical JSON text, and are spliced
    in as they are; every other field is written as ``json.dumps`` writes
    it.  Every transport writes its frames through here.
    """
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if key == "results":
            text = f"[{', '.join(value)}]"
        elif key == "result" and type(value) is str:
            text = value
        else:
            text = _dumps(value)
        fields.append(f"{_encode_key(key)}: {text}")
    return f"{{{', '.join(fields)}}}"


async def answer(
    text: str, engine: AsyncEngine, *, stats=None, admit=None, op=None
) -> dict:
    """One request frame's *text* → its response frame; never raises.

    Fires the ``serve.frame`` fault site on the raw text, decodes it,
    calls *admit* (the transport's rate limit: raise to refuse the
    frame) and dispatches the op against *engine*.  *stats* returns the
    ``stats`` op's snapshot (default ``engine.stats``); *op* overrides
    the frame's own op (HTTP's ``POST /count``).  The response carries
    the request's ``id`` whenever the frame decoded far enough to have
    one.  Run results in it are JSON text; write it with
    :func:`encode_frame`.
    """
    request_id = None
    try:
        request = json.loads(faults.fire("serve.frame", text))
        if not isinstance(request, dict):
            raise OrNRAError(f"malformed request frame: {request!r}")
        request_id = request.get("id")
        if admit is not None:
            admit()
        payload = await _dispatch(
            engine, request, op or request.get("op"), stats or engine.stats
        )
    except Exception as exc:  # noqa: BLE001 — every request error goes to the client
        payload = error_frame(exc)
    if request_id is not None:
        payload["id"] = request_id
    return payload


async def _dispatch(engine: AsyncEngine, request: dict, op, stats) -> dict:
    if op == "stats":
        return {"stats": stats()}
    if op not in (None, "run", "count"):
        raise OrNRAError(f"unknown op {op!r}")
    program = _field(request, "program")
    if op == "count":
        return {"result": await engine.count_json(program, _field(request, "value"))}
    if "values" in request:
        return {"results": await engine.run_many(program, request["values"])}
    return {"result": await engine.run_json(program, _field(request, "value"))}


def _field(request: dict, name: str):
    try:
        return request[name]
    except KeyError:
        raise OrNRAError(f"malformed request frame: missing {name!r}") from None


# -- the command lines' shared engine flags ------------------------------------


def add_engine_flags(parser) -> None:
    """Add the engine and line-length flags to an ``argparse`` parser."""
    parser.add_argument("--backend", default="auto")
    parser.add_argument("--window", type=float, default=0.002)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-pending", type=int, default=1024)
    parser.add_argument("--cost-budget", type=int, default=None)
    parser.add_argument("--max-line", type=int, default=DEFAULT_MAX_LINE)


def engine_from_flags(args) -> AsyncEngine:
    """The :class:`AsyncEngine` that :func:`add_engine_flags`' flags configure."""
    return AsyncEngine(
        backend=args.backend,
        batch_window=args.window,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        default_timeout=args.timeout,
        cost_budget=args.cost_budget,
    )
