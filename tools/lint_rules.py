#!/usr/bin/env python3
"""Project-specific AST lint rules the generic linters cannot express.

Eight invariants of this engine are architectural, not stylistic, and a
violation is a latent bug that no unit test reliably catches:

* **LR001 — no lambdas in transport-path modules.**  The callables
  defined in :mod:`repro.lang.primitives` and :mod:`repro.engine.process`
  are pickled into plans shipped to process-pool workers.  A lambda
  never pickles, so one stray lambda silently demotes the process
  backend to its sequential fallback (and the purity analysis refuses
  to certify it) — the failure is a performance cliff, not an error.

* **LR002 — no unlocked ``DEFAULT_ENGINE`` mutation.**  The module-level
  engine is documented safe for concurrent use; rebinding it or
  assigning its attributes from outside :mod:`repro.engine` (where its
  locking discipline lives) races every concurrent caller.

* **LR003 — estimators must never normalize.**  The entire point of the
  Section 6 cost model (:mod:`repro.engine.cost_model`,
  :mod:`repro.engine.analysis`) is to bound ``size(normalize(x))``
  *without* building the ``3^(n/3)`` worlds.  A ``normalize``/
  ``possibilities`` call inside estimation code turns a static bound
  into the exponential work it was supposed to avoid.

* **LR004 — only ``serve/proto.py`` builds error frames.**  Every
  transport answers failures through :func:`repro.serve.proto.error_frame`,
  the one exception→error-code mapping.  A dict literal with a
  ``"code"`` key anywhere else in :mod:`repro.serve` is a hand-built
  error frame, and the transports start to drift apart on error
  semantics.

* **LR005 — the engine does not import ``repro.sat``.**  World queries
  are answered by structural recursion over values
  (:mod:`repro.engine.symbolic`); :mod:`repro.sat` is the paper's
  Section 6 reduction and its reference solver.  A solver call back in
  the engine reintroduces the per-candidate SAT loops the recursion
  replaced.

* **LR007 — only ``values.py`` fills a collection or stores a key.**
  Only ``repro/values/values.py`` may call ``object.__setattr__(…,
  "elems", …)`` or ``object.__setattr__(…, "_key", …)`` (or their
  ``setattr`` twins), reach a slot's writer as ``….elems.__set__`` or
  ``…._key.__set__``, or refer to ``object.__setattr__`` other than by
  calling it (``_set = object.__setattr__`` would hide both writes from
  this rule).  A collection filled without its constructor is canonical
  only if its builder sorts by exactly ``sort_key``'s layout, and a
  stored key is right only if it is built in that layout.  A second copy
  of the layout drifts silently, and then equality, hashing and the
  worlds oracle disagree without an error; builders call the node
  constructors, ``collection_from_list`` for a list they hand over
  (it keeps elements already in canonical order as they come and sorts
  any others), or ``ordered_collection`` for elements the caller
  vouches are in canonical order, instead.

* **LR008 — the engine does not read the worlds oracle.**  No module
  under ``repro/engine/``, and not ``repro/core/lazy.py``, may import
  :mod:`repro.core.worlds`.  The engine enumerates worlds only through
  the one stream in :mod:`repro.core.lazy`, which lists a set's worlds
  lazily under a deadline checkpoint per world; the oracle stores every
  member's worlds first and checks no deadline, and it is what tests
  and benchmarks compare the engine against.

* **LR009 — transports write frames only through ``proto.encode_frame``.**
  No ``json.dumps`` call may appear in :mod:`repro.serve.net` or
  :mod:`repro.serve.__main__`.  Run results reach the transports as
  JSON text; :func:`repro.serve.proto.encode_frame` splices them into
  the frame as they are, so a transport that dumps a frame itself
  writes a result as a quoted string, and the transports' bytes drift
  apart.  The stdio server's stderr stats line, which is no frame,
  carries ``# lint: allow-LR009``.

Usage::

    python tools/lint_rules.py src tests benchmarks examples

Violations print as ``path:line:col: LR00x message`` and exit status 1.
A deliberate exception is suppressed with an end-of-line comment
``# lint: allow-LR001`` (rule-specific) or ``# lint: allow`` (any rule).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Modules whose callables ride inside pickled plans (LR001).
TRANSPORT_PATH_MODULES = (
    "src/repro/lang/primitives.py",
    "src/repro/engine/process.py",
)

#: Modules that must bound normalization without performing it (LR003).
ESTIMATOR_MODULES = (
    "src/repro/engine/cost_model.py",
    "src/repro/engine/analysis.py",
)

#: The one module allowed to create/own DEFAULT_ENGINE (LR002).
ENGINE_HOME = "src/repro/engine/__init__.py"

#: The serving package, and the one module in it that builds error frames (LR004).
SERVE_PACKAGE = "src/repro/serve/"
PROTOCOL_HOME = "src/repro/serve/proto.py"

#: The transports, which write frames only through proto.encode_frame (LR009).
FRAME_WRITERS = ("src/repro/serve/net.py", "src/repro/serve/__main__.py")

#: The engine package, which must not import the SAT package (LR005).
ENGINE_PACKAGE = "src/repro/engine/"
SAT_PACKAGE = "repro.sat"

#: The worlds oracle, which the engine and the world stream must not import (LR008).
WORLDS_ORACLE = "repro.core.worlds"
WORLD_STREAM = "src/repro/core/lazy.py"

#: The source tree, in which only VALUES_HOME fills collections (LR007).
SOURCE_PACKAGE = "src/repro/"

#: The one module in the source tree that fills collections directly (LR007).
VALUES_HOME = "src/repro/values/values.py"

#: The node slots only VALUES_HOME may write (LR007).
GUARDED_SLOTS = frozenset({"elems", "_key"})

#: Call targets forbidden in estimator modules: each materializes worlds.
NORMALIZING_CALLS = frozenset(
    {"normalize", "normalize_with_strategy", "normalize_with_trace", "possibilities"}
)


class Violation:
    __slots__ = ("path", "line", "col", "code", "message")

    def __init__(self, path: str, line: int, col: int, code: str, message: str):
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def _suppressed(source_lines: list[str], line: int, code: str) -> bool:
    if not 1 <= line <= len(source_lines):
        return False
    text = source_lines[line - 1]
    marker = text.rpartition("# lint:")[2].strip().lower()
    if not marker:
        return False
    return marker == "allow" or marker == f"allow-{code.lower()}"


def check_source(source: str, path: str) -> list[Violation]:
    """All rule violations in one module's *source* (path selects rules)."""
    posix = _posix(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 1, 0, "LR000", f"syntax error: {exc.msg}")]
    lines = source.splitlines()
    out: list[Violation] = []

    def report(node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if not _suppressed(lines, line, code):
            out.append(Violation(path, line, getattr(node, "col_offset", 0), code, message))

    transport = posix.endswith(TRANSPORT_PATH_MODULES)
    estimator = posix.endswith(ESTIMATOR_MODULES)
    engine_home = posix.endswith(ENGINE_HOME)
    serve = SERVE_PACKAGE in posix and not posix.endswith(PROTOCOL_HOME)
    frame_writer = posix.endswith(FRAME_WRITERS)
    engine = ENGINE_PACKAGE in posix
    stream = engine or posix.endswith(WORLD_STREAM)
    fills = SOURCE_PACKAGE in posix and not posix.endswith(VALUES_HOME)

    # `object.__setattr__` as a call's target: the one use LR007 reads on.
    setattr_calls = {
        id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }

    for node in ast.walk(tree):
        if transport and isinstance(node, ast.Lambda):
            report(
                node,
                "LR001",
                "lambda in a transport-path module: lambdas never pickle, so "
                "plans carrying one silently lose the process backend",
            )
        if not engine_home and _mutates_default_engine(node):
            report(
                node,
                "LR002",
                "mutation of DEFAULT_ENGINE outside repro.engine: the shared "
                "engine's locking discipline lives there; build a local "
                "Engine() instead",
            )
        if estimator and isinstance(node, ast.Call):
            name = _call_name(node)
            if name in NORMALIZING_CALLS:
                report(
                    node,
                    "LR003",
                    f"{name}() inside cost-estimation code: estimators must "
                    "bound normalization without materializing worlds",
                )
        if serve and isinstance(node, ast.Dict) and _has_code_key(node):
            report(
                node,
                "LR004",
                "error frame built outside serve/proto.py: raise a typed "
                "error and map it with proto.error_frame",
            )
        if frame_writer and isinstance(node, ast.Call) and _is_json_dumps(node.func):
            report(
                node,
                "LR009",
                "json.dumps in a transport: run results are already JSON "
                "text; write every frame with proto.encode_frame",
            )
        if engine and _imports(node, SAT_PACKAGE, {"sat"}):
            report(
                node,
                "LR005",
                "repro.sat imported in the engine: world queries recurse "
                "over values; the SAT package is the Section 6 reduction",
            )
        if stream and _imports(node, WORLDS_ORACLE, {"worlds", "iter_worlds", "world_count"}):
            report(
                node,
                "LR008",
                "repro.core.worlds imported by the engine: it is the oracle "
                "the engine is tested against, and it enumerates without a "
                "deadline; stream worlds through repro.core.lazy",
            )
        if fills and _writes_slot(node, setattr_calls):
            report(
                node,
                "LR007",
                "value slot written outside repro/values/values.py: a second "
                "copy of sort_key's layout drifts silently; build the node "
                "with a constructor, collection_from_list or ordered_collection",
            )
    return out


def _imports(node: ast.AST, module: str, aliases: set[str]) -> bool:
    """Does *node* import *module* or a submodule of it, in any form?
    *aliases* are the names ``from <parent package> import …`` reaches
    it by."""

    def inside(name: str) -> bool:
        return name == module or name.startswith(module + ".")

    if isinstance(node, ast.Import):
        return any(inside(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module is not None:
        return inside(node.module) or (
            node.module == module.rpartition(".")[0]
            and any(alias.name in aliases for alias in node.names)
        )
    return False


def _call_name(node: ast.Call) -> str | None:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def _is_json_dumps(fn: ast.AST) -> bool:
    """Is *fn* ``json.dumps``, or a bare ``dumps`` (``from json import dumps``)?"""
    if isinstance(fn, ast.Attribute):
        return fn.attr == "dumps" and isinstance(fn.value, ast.Name) and fn.value.id == "json"
    return isinstance(fn, ast.Name) and fn.id == "dumps"


def _writes_slot(node: ast.AST, calls: set[int]) -> bool:
    """Does *node* write (or reach a writer of) a node's ``elems``/``_key``?

    That is ``object.__setattr__(x, "elems"|"_key", …)`` or its
    ``setattr`` twin, ``….elems.__set__``/``…._key.__set__``, or
    ``object.__setattr__`` anywhere but as a call's target (*calls*
    holds the ids of those targets).
    """
    if isinstance(node, ast.Call):
        if _call_name(node) not in ("__setattr__", "setattr") or len(node.args) < 2:
            return False
        name = node.args[1]
        return isinstance(name, ast.Constant) and name.value in GUARDED_SLOTS
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr == "__set__":
        return isinstance(node.value, ast.Attribute) and node.value.attr in GUARDED_SLOTS
    return (
        node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
        and id(node) not in calls
    )


def _has_code_key(node: ast.Dict) -> bool:
    return any(
        isinstance(key, ast.Constant) and key.value == "code" for key in node.keys
    )


def _roots_in_default_engine(node: ast.AST) -> bool:
    """Is *node* ``DEFAULT_ENGINE`` or an attribute/index path into it?"""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "DEFAULT_ENGINE"


def _mutates_default_engine(node: ast.AST) -> bool:
    targets: list[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    else:
        return False
    flat: list[ast.AST] = []
    for t in targets:
        if isinstance(t, (ast.Tuple, ast.List)):
            flat.extend(t.elts)
        else:
            flat.append(t)
    return any(
        _roots_in_default_engine(t)
        or (isinstance(t, ast.Name) and t.id == "DEFAULT_ENGINE")
        for t in flat
    )


def check_path(path: Path) -> list[Violation]:
    return check_source(path.read_text(encoding="utf-8"), str(path))


def iter_python_files(args: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in args:
        p = Path(arg)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def main(argv: list[str]) -> int:
    targets = argv or ["src"]
    violations: list[Violation] = []
    for path in iter_python_files(targets):
        violations.extend(check_path(path))
    for v in violations:
        print(v)
    if violations:
        print(f"lint_rules: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
