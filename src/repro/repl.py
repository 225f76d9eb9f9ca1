"""An OR-SML-flavoured interactive interpreter for or-NRA+ (Section 7).

The paper's implementation "provides an interface which includes the
operations of or-NRA+ ... creation and destruction of objects, input and
output facilities".  This module is that interface for the Python
reproduction: a small line-oriented interpreter over named objects and
named morphisms.

Commands::

    let x = <1, 2, 3>                 bind a value (paper notation)
    let x : <int> = <1, 2>            bind with a declared type
    def f = ormap(pi_1) o alpha       bind a morphism
    apply f x                         evaluate a named/inline morphism
    applymany f x y z                 batched evaluation (run_many)
    serve f x x y z                   concurrent requests through the async
                                      serving front-end (dedupes)
    normalize x                       the conceptual value (or-NRA+)
    worlds x                          possible-worlds denotation
    count f x                         exact world count of f(x) (symbolic —
                                      no enumeration on supported plans)
    certain f x                       elements in every world of f(x)
    possible f x                      elements in some world of f(x)
    type x                            inferred type
    typeof f                          most general morphism type
    size x                            Section 6 size measure
    plan f                            compiled engine plan of a morphism
    backend process                   switch the execution backend
    show x          /  x              print a binding
    del x                             destroy a binding
    env                               list bindings
    help / quit

Use :func:`main` for the interactive loop; :class:`Repl` evaluates single
lines and is what the tests drive.

Example session::

    or-nra> let db = {<1, 2>, <3>}
    db = {<1, 2>, <3>} : {<int>}
    or-nra> normalize db
    <{1, 3}, {2, 3}> : <{int}>
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.core.normalize import Normalize
from repro.core.worlds import worlds
from repro.engine import Engine
from repro.errors import OrNRAError
from repro.lang.morphisms import Morphism, infer_signature
from repro.lang.parser import parse_morphism, parse_value
from repro.types.kinds import Type
from repro.types.parse import format_type, parse_type
from repro.types.rewrite import nf_type
from repro.values.measure import size
from repro.values.values import Value, check_type, format_value, infer_type

__all__ = ["Repl", "main"]

_HELP = """commands:
  let NAME = VALUE            bind a value, e.g.  let db = {<1, 2>, <3>}
  let NAME : TYPE = VALUE     bind with a declared type
  def NAME = MORPHISM         bind a morphism, e.g.  def q = ormap(pi_1)
  apply MORPHISM NAME         run a morphism on a binding
  applymany MORPHISM NAMES..  run a morphism on several bindings at once
                              (compiled once, fanned out via run_many)
  serve MORPHISM NAMES..      run bindings as concurrent requests through
                              the async serving front-end (structurally
                              equal inputs share one evaluation)
  normalize NAME              conceptual value (the or-NRA+ primitive)
  worlds NAME                 possible-worlds denotation
  count MORPHISM NAME         exact world count of the output — symbolic
                              (no enumeration) on supported plans
  certain MORPHISM NAME       elements present in every world of the output
  possible MORPHISM NAME      elements present in some world of the output
  type NAME | typeof NAME     type of a value / morphism binding
  size NAME                   Section 6 size measure
  plan MORPHISM               show the optimized, compiled engine plan
  backend [auto|eager|streaming|process|fused|symbolic]
                              show or select the execution backend
                              (auto picks per call from the cost model)
  show NAME (or just NAME)    print a binding
  del NAME                    remove a binding
  env | help | quit"""


class Repl:
    """A line interpreter over named values and morphisms."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[Value, Type]] = {}
        self.morphisms: dict[str, Morphism] = {}
        # All evaluation routes through one compile-and-run engine, so
        # repeated queries share compiled plans.
        self.engine = Engine()
        self.backend = "auto"

    # ----- helpers ---------------------------------------------------------

    def _render(self, v: Value, t: Type | None = None) -> str:
        if t is None:
            t = infer_type(v)
        return f"{format_value(v)} : {format_type(t)}"

    def _lookup_value(self, name: str) -> tuple[Value, Type]:
        if name not in self.values:
            raise OrNRAError(f"unbound value {name!r}")
        return self.values[name]

    def _morphism(self, text: str) -> Morphism:
        text = text.strip()
        if text in self.morphisms:
            return self.morphisms[text]
        return parse_morphism(text, env=self.morphisms)

    # ----- command dispatch ------------------------------------------------

    def eval_line(self, line: str) -> str:
        """Evaluate one command line and return the printed output."""
        line = line.strip()
        if not line or line.startswith("--"):
            return ""
        try:
            return self._dispatch(line)
        except OrNRAError as exc:
            return f"error: {exc}"

    def _dispatch(self, line: str) -> str:
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "help":
            return _HELP
        if head == "env":
            parts = [f"{n} = {self._render(v, t)}" for n, (v, t) in self.values.items()]
            parts += [f"{n} = {m.describe()}" for n, m in self.morphisms.items()]
            return "\n".join(parts) if parts else "(empty)"
        if head == "let":
            return self._cmd_let(rest)
        if head == "def":
            return self._cmd_def(rest)
        if head == "apply":
            return self._cmd_apply(rest)
        if head == "applymany":
            return self._cmd_applymany(rest)
        if head == "serve":
            return self._cmd_serve(rest)
        if head == "normalize":
            value, t = self._lookup_value(rest)
            result = self.engine.run(Normalize(t), value, backend=self.backend)
            return self._render(result, nf_type(t))
        if head == "plan":
            return self.engine.explain(self._morphism(rest))
        if head == "backend":
            if not rest:
                return f"backend = {self.backend}"
            if rest != "auto" and rest not in self.engine.backends:
                options = ", ".join(["auto", *sorted(self.engine.backends)])
                return f"error: unknown backend {rest!r} (have: {options})"
            self.backend = rest
            return f"backend = {rest}"
        if head == "worlds":
            value, _t = self._lookup_value(rest)
            rendered = sorted(format_value(w) for w in worlds(value))
            return "{" + ", ".join(rendered) + "}"
        if head == "count":
            m, value = self._morphism_and_value(rest, "count")
            return str(self.engine.count_worlds(m, value, backend=self.backend))
        if head == "certain":
            m, value = self._morphism_and_value(rest, "certain")
            return self._render(self.engine.certain(m, value, backend=self.backend))
        if head == "possible":
            m, value = self._morphism_and_value(rest, "possible")
            return self._render(self.engine.possible(m, value, backend=self.backend))
        if head == "type":
            value, t = self._lookup_value(rest)
            return format_type(t)
        if head == "typeof":
            if rest in self.morphisms:
                return format_type(infer_signature(self.morphisms[rest]))
            return format_type(infer_signature(self._morphism(rest)))
        if head == "size":
            value, _t = self._lookup_value(rest)
            return str(size(value))
        if head == "del":
            if rest in self.values:
                del self.values[rest]
                return f"deleted {rest}"
            if rest in self.morphisms:
                del self.morphisms[rest]
                return f"deleted {rest}"
            return f"error: unbound name {rest!r}"
        if head == "show":
            value, t = self._lookup_value(rest)
            return self._render(value, t)
        if line in self.values:
            value, t = self.values[line]
            return self._render(value, t)
        if line in self.morphisms:
            return self.morphisms[line].describe()
        return f"error: unknown command {head!r} (try: help)"

    def _cmd_let(self, rest: str) -> str:
        name, _, definition = rest.partition("=")
        name = name.strip()
        if not definition:
            return "error: expected  let NAME = VALUE"
        declared: Type | None = None
        if ":" in name:
            name, _, type_text = name.partition(":")
            name = name.strip()
            declared = parse_type(type_text.strip())
        if not name.isidentifier():
            return f"error: bad name {name!r}"
        value = parse_value(definition.strip())
        if declared is not None and not check_type(value, declared):
            return (
                f"error: {format_value(value)} does not inhabit "
                f"{format_type(declared)}"
            )
        t = declared if declared is not None else infer_type(value)
        self.values[name] = (value, t)
        return f"{name} = {self._render(value, t)}"

    def _cmd_def(self, rest: str) -> str:
        name, _, definition = rest.partition("=")
        name = name.strip()
        if not definition or not name.isidentifier():
            return "error: expected  def NAME = MORPHISM"
        m = parse_morphism(definition.strip(), env=self.morphisms)
        self.morphisms[name] = m
        return f"{name} = {m.describe()}"

    def _morphism_and_value(self, rest: str, cmd: str) -> tuple[Morphism, Value]:
        # `CMD MORPHISM NAME` — same shape as `apply`.
        morph_text, _, arg = rest.strip().rpartition(" ")
        if not morph_text:
            raise OrNRAError(f"expected  {cmd} MORPHISM NAME")
        if arg not in self.values:
            raise OrNRAError(f"unbound value {arg!r}")
        return self._morphism(morph_text), self.values[arg][0]

    def _cmd_apply(self, rest: str) -> str:
        # `apply MORPHISM NAME` — the argument is the trailing identifier.
        text = rest.strip()
        morph_text, _, arg = text.rpartition(" ")
        if not morph_text:
            return "error: expected  apply MORPHISM NAME"
        if arg not in self.values:
            return f"error: unbound value {arg!r}"
        m = self._morphism(morph_text)
        value, _t = self.values[arg]
        result = self.engine.run(m, value, backend=self.backend)
        return self._render(result)

    def _split_trailing_names(self, rest: str, usage: str) -> tuple[Morphism, list[str]]:
        # `CMD MORPHISM NAME...` — the arguments are the trailing run of
        # bound value names; everything before them is the morphism
        # text.  A bound name may shadow a morphism word (e.g. a value
        # called `alpha`), so of the candidate splits we take the
        # longest name suffix whose prefix actually parses.
        tokens = rest.split()
        longest = len(tokens)
        while longest > 1 and tokens[longest - 1] in self.values:
            longest -= 1
        if longest == len(tokens) or longest == 0:
            raise OrNRAError(usage)
        last_error: OrNRAError | None = None
        for split in range(longest, len(tokens)):
            try:
                m = self._morphism(" ".join(tokens[:split]))
            except OrNRAError as exc:
                last_error = exc
                continue
            return m, tokens[split:]
        raise last_error if last_error is not None else OrNRAError(usage)

    def _cmd_applymany(self, rest: str) -> str:
        m, names = self._split_trailing_names(
            rest, "expected  applymany MORPHISM NAME..."
        )
        results = self.engine.run_many(
            m,
            [self.values[name][0] for name in names],
            backend=self.backend,
        )
        return "\n".join(
            f"{name}: {self._render(result)}"
            for name, result in zip(names, results, strict=True)
        )

    def _cmd_serve(self, rest: str) -> str:
        # The serving-layer smoke command: each named binding becomes one
        # concurrent client request against an AsyncEngine, so the
        # output's trailing lines show the dedupe at work.
        import asyncio

        from repro.io import loads_value, value_to_json
        from repro.serve import AsyncEngine

        m, names = self._split_trailing_names(rest, "expected  serve MORPHISM NAME...")
        payloads = [value_to_json(self.values[name][0]) for name in names]

        async def drive():
            async with AsyncEngine(backend=self.backend) as server:
                results = await server.run_many(m, payloads)
                return results, server.stats()

        results, stats = asyncio.run(drive())
        lines = [
            f"{name}: {self._render(loads_value(result))}"
            for name, result in zip(names, results, strict=True)
        ]
        lines.append(
            f"served {stats['requests']} request(s): "
            f"{stats['deduped_inputs']} deduplicated"
        )
        lines.append(
            f"robustness: shed {stats['shed']}, timeouts {stats['timeouts']}, "
            f"degraded {stats['degraded']}, "
            f"breaker {'open' if stats['breaker_open'] else 'closed'}"
        )
        latency = stats.get("latency")
        if latency is not None:
            total = latency["total"]
            lines.append(
                "latency: p50 {p50:.2f}ms, p90 {p90:.2f}ms, p99 {p99:.2f}ms "
                "({rps:.0f} req/s)".format(
                    p50=(total["p50"] or 0.0) * 1000,
                    p90=(total["p90"] or 0.0) * 1000,
                    p99=(total["p99"] or 0.0) * 1000,
                    rps=latency["throughput_rps"],
                )
            )
        return "\n".join(lines)


def main(stdin: TextIO | None = None, stdout: TextIO | None = None) -> None:
    """The interactive loop (``python -m repro.repl``)."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    repl = Repl()
    print("or-NRA+ interpreter (type 'help'; 'quit' to exit)", file=stdout)
    while True:
        print("or-nra> ", end="", file=stdout, flush=True)
        line = stdin.readline()
        if not line or line.strip() in ("quit", "exit"):
            print("bye.", file=stdout)
            return
        output = repl.eval_line(line)
        if output:
            print(output, file=stdout)


if __name__ == "__main__":
    main()
