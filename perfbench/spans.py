"""Spans around the program's public functions, installed from outside.

The traced run wraps the function at each layer boundary where it is
looked up, records one span per call in memory (name, start, end,
parent, thread, operation id) and writes them out when the run ends.
Nothing in the program changes: every wrapper is removed by
:meth:`Tracer.uninstall`.

A span's *self time* is its duration minus the time of its children in
the same thread (children are found through a context variable).  The
duration is measured on the thread's CPU clock as well as the wall
clock, and self times and shares use the CPU clock: the engine fans
work out over threads that share one interpreter lock, and a span's
wall time includes the time its thread waited for that lock while
other threads ran.  The asyncio front-end's spans (``net.frame``,
``serve.request``) are awaits, not work: they are listed with their
wall time and left out of the self-time shares.

Work done inside process-pool workers is invisible from here; it shows
as the coordinator's ``backend.process`` wall time.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Iterator

#: Span-name prefix -> layer (module) it times, in table order.
LAYERS = (
    ("net.", "serve.net"),
    ("serve.", "serve.server"),
    ("io.", "io"),
    ("engine.", "engine"),
    ("backend.", "engine.backends"),
    ("interning.", "engine.interning"),
    ("core.", "core.normalize"),
    ("symbolic.", "engine.symbolic"),
    ("sat.", "sat"),
)
ASYNC_LAYERS = ("serve.net", "serve.server")
BACKEND_NAMES = ("eager", "streaming", "fused", "parallel", "process", "symbolic")

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=(0, ""))
op_id: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=-1)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        # (id, parent, name, thread, op, start, end, cpu, tag): wall start
        # and end, and the span's duration on its thread's CPU clock.
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, outermost=False, pre=None, post=None):
        spans, ids = self.spans, self._ids

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                parent = _current.get()
                sid = next(ids)
                token = _current.set((sid, name))
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _current.reset(token)
                    spans.append(
                        (sid, parent[0], name, threading.get_ident(), op_id.get(), start, end,
                         0.0, None)
                    )

            return traced_async

        def consume(it, sid, parent, start, cpu):
            """Time a returned iterator where it is consumed, as one span."""
            end = start
            try:
                while True:
                    token = _current.set((sid, name))
                    tick = time.thread_time()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        cpu += time.thread_time() - tick
                        end = time.perf_counter()
                        _current.reset(token)
                    yield item
            finally:
                spans.append(
                    (sid, parent, name, threading.get_ident(), op_id.get(), start, end, cpu, None)
                )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            if outermost and parent[1] == name:
                return fn(*args, **kwargs)  # a recursive call: time the outermost only
            tag = pre(*args, **kwargs) if pre is not None else None
            sid = next(ids)
            token = _current.set((sid, name))
            cpu = time.thread_time()
            start = time.perf_counter()
            result = None
            lazy = False
            try:
                result = fn(*args, **kwargs)
                # World enumerations are lazy: their work happens while the
                # caller iterates, so the span follows the iterator.
                lazy = isinstance(result, Iterator)
                if lazy:
                    return consume(result, sid, parent[0], start, time.thread_time() - cpu)
                return result
            finally:
                _current.reset(token)
                if not lazy:
                    end = time.perf_counter()
                    cpu = time.thread_time() - cpu
                    if post is not None:
                        tag = post(result)
                    spans.append(
                        (sid, parent[0], name, threading.get_ident(), op_id.get(), start, end,
                         cpu, tag)
                    )

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by a traced wrapper (skipped if absent)."""
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        own = vars(owner).get(attr, None) if hasattr(owner, "__dict__") else None
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, **options))
        self._patches.append((owner, attr, own))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is None:
                delattr(owner, attr)  # an instance attribute shadowing the class
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    # -- the patch points ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary, each where its callers look it up."""
        import repro.engine as engine
        import repro.io as io

        serve_server = sys.modules.get("repro.serve.server")
        serve_net = sys.modules.get("repro.serve.net")
        symbolic = sys.modules.get("repro.engine.symbolic")
        normalize_module = sys.modules.get("repro.core.normalize")
        interning = sys.modules.get("repro.engine.interning")

        if serve_net is not None:
            self.patch(serve_net.NetServer, "_serve_frame", "net.frame")
        if serve_server is not None:
            self.patch(serve_server.AsyncEngine, "run_json", "serve.request")
            self.patch(serve_server.AsyncEngine, "count_json", "serve.request")
            self.patch(serve_server, "run_json_many", "io.run_json_many")
            self.patch(serve_server, "count_worlds_json", "io.count_worlds_json")

        self.patch(io, "run_json_many", "io.run_json_many")
        self.patch(io, "count_worlds_json", "io.count_worlds_json")
        self.patch(io, "certain_json", "io.certain_json")
        self.patch(io, "value_from_json", "io.decode", outermost=True)
        self.patch(io, "value_to_json", "io.encode", outermost=True)

        def compile_hit(self_, program, optimize=True):
            return "hit" if (program, optimize) in self_._plans else "miss"

        self.patch(engine.Engine, "compile", "engine.compile", pre=compile_hit)
        self.patch(engine, "select_backend", "engine.select", post=_route_tag)
        self.patch(engine.Engine, "run_many", "engine.run_many")
        for query in ("count_worlds", "certain", "possible"):
            self.patch(engine.Engine, query, "engine.world_query")

        for name, backend in engine.DEFAULT_ENGINE.backends.items():
            if name == "symbolic":
                for query, span in (
                    ("count_worlds", "symbolic.count"),
                    ("certain", "symbolic.certain"),
                    ("possible", "symbolic.possible"),
                ):
                    self.patch(backend, query, span)
                self.patch(getattr(backend, "_eager", None), "possibilities", "backend.enum")
            else:
                self.patch(backend, "execute", f"backend.{name}")
                self.patch(backend, "possibilities", "backend.enum")
        process = engine.DEFAULT_ENGINE.backends.get("process")
        if process is not None:
            self.patch(process, "run_values", "backend.process")
        if symbolic is not None:
            self.patch(symbolic.ChoiceSpace, "iter_worlds", "backend.enum")
            self.patch(symbolic, "compile_ddnnf", "sat.circuit")
            self.patch(symbolic, "dpll_solve", "sat.solve")
            self.patch(symbolic, "dpll_sat", "sat.solve")

        if interning is not None:
            self.patch(interning.Interner, "intern", "interning.intern")
            self.patch(interning.Interner, "normalize", "interning.normalize")
        if normalize_module is not None:
            self.patch(normalize_module, "normalize", "core.normalize")

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> CPU seconds minus those of its children on the same thread."""
        out = {span[0]: span[7] for span in self.spans}
        threads = {span[0]: span[3] for span in self.spans}
        for _sid, parent, _name, thread, _op, _start, _end, cpu, _tag in self.spans:
            if threads.get(parent) == thread:
                out[parent] -= cpu
        return out

    def layer_table(self) -> list[dict]:
        """Per layer: calls, self ms, share of the traced self time."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        for span in self.spans:
            layer = layer_of(span[2])
            calls[layer] += 1
            # An await's CPU clock means nothing: its wall time is listed.
            busy[layer] += span[6] - span[5] if layer in ASYNC_LAYERS else self_s[span[0]]
        work = sum(v for k, v in busy.items() if k not in ASYNC_LAYERS) or 1.0
        rows = []
        for _prefix, layer in LAYERS:
            is_async = layer in ASYNC_LAYERS
            rows.append(
                {
                    "layer": layer,
                    "calls": calls.get(layer, 0),
                    "self_ms": busy.get(layer, 0.0) * 1e3,
                    "share": 0.0 if is_async else busy.get(layer, 0.0) / work,
                    "async": is_async,
                }
            )
        return rows

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, self ms, wall ms, and tag counts."""
        self_s = self.self_times()
        out: dict[str, dict] = {}
        for sid, _parent, name, _thread, _op, start, end, _cpu, tag in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "wall_ms": 0.0, "tags": defaultdict(int)})
            row["calls"] += 1
            row["self_ms"] += self_s[sid] * 1e3
            row["wall_ms"] += (end - start) * 1e3
            if tag is not None:
                row["tags"][tag] += 1
        return out

    def memo_hits(self) -> tuple[int, int]:
        """(hits, calls) of ``Interner.normalize``: a hit never reaches core."""
        reached = {span[1] for span in self.spans if span[2] == "core.normalize"}
        calls = [span[0] for span in self.spans if span[2] == "interning.normalize"]
        return sum(1 for sid in calls if sid not in reached), len(calls)

    def dump(self, path) -> None:
        import json

        with open(path, "w") as fh:
            for sid, parent, name, thread, op, start, end, cpu, tag in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "thread": thread,
                         "op": op, "start": start, "end": end, "cpu": cpu, "tag": tag}
                    )
                    + "\n"
                )


def _route_tag(choice) -> str | None:
    return getattr(choice, "backend", None)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))
