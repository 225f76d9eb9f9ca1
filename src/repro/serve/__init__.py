"""The serving layer: an asyncio front-end over the batched engine.

``repro.engine`` turned the paper's evaluator into a library;
``repro.serve`` turns the library into a *service*:

* :class:`AsyncEngine` (:mod:`repro.serve.server`) — the embeddable
  front-end: admit JSON queries concurrently from many clients, let
  structurally equal requests in flight together share one evaluation,
  and run each evaluation through :func:`repro.io.run_json_texts` off
  the event loop, so each result comes back as its canonical JSON text;
* ``python -m repro.serve`` (:mod:`repro.serve.__main__`) — a JSON-lines
  stdio server, for driving the service from another process or a
  shell pipe;
* :class:`NetServer` (:mod:`repro.serve.net`, also
  ``python -m repro.serve.net``) — the TCP/HTTP front-end: NDJSON frames
  and a minimal ``POST /run`` / ``GET /stats`` HTTP path on one port,
  with per-client token-bucket rate limits;
* :mod:`repro.serve.proto` — the wire protocol both transports speak:
  one dispatcher (:func:`~repro.serve.proto.answer`) decodes every
  frame, runs its op and maps every failure to a structured error frame,
  and one encoder (:func:`~repro.serve.proto.encode_frame`) writes every
  response frame, splicing result texts in as they are;
* :mod:`repro.serve.metrics` — the latency observability layer:
  ring-buffer histograms (:class:`RingHistogram`) behind
  :class:`ServerMetrics`, recording admission/queue/execute/total
  durations per request, plus the :class:`TokenBucket` rate limiter.

See ``docs/ARCHITECTURE.md`` ("The serving layer" and "Network serving
& observability") for how admission, shared evaluation, the cost model
and the process backend compose.
"""

from repro.serve.metrics import RingHistogram, ServerMetrics, TokenBucket
from repro.serve.net import NetServer, RateLimiter
from repro.serve.server import AsyncEngine, ServerClosed

__all__ = [
    "AsyncEngine",
    "NetServer",
    "RateLimiter",
    "RingHistogram",
    "ServerClosed",
    "ServerMetrics",
    "TokenBucket",
]
