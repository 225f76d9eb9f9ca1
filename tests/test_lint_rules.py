"""The project-specific AST lint rules (tools/lint_rules.py).

Each rule is exercised on synthetic snippets — positive (violation
found, correct code/line) and negative (idiomatic code passes, the
rule only applies to its designated modules, suppressions work) — and
the real tree must lint clean, which is what CI enforces.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "lint_rules", REPO / "tools" / "lint_rules.py"
)
lint_rules = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_rules)

check_source = lint_rules.check_source

PRIMITIVES = "src/repro/lang/primitives.py"
PROCESS = "src/repro/engine/process.py"
COST_MODEL = "src/repro/engine/cost_model.py"
ANALYSIS = "src/repro/engine/analysis.py"
NET = "src/repro/serve/net.py"
PROTO = "src/repro/serve/proto.py"
SYMBOLIC = "src/repro/engine/symbolic.py"


def codes(source, path):
    return [v.code for v in check_source(source, path)]


class TestLR001Lambdas:
    def test_lambda_in_primitives_flagged(self):
        src = "def plus():\n    return Primitive('p', lambda v: v, INT, INT)\n"
        vs = check_source(src, PRIMITIVES)
        assert [v.code for v in vs] == ["LR001"]
        assert vs[0].line == 2
        assert "pickle" in vs[0].message

    def test_lambda_in_process_flagged(self):
        assert codes("f = lambda i: i\n", PROCESS) == ["LR001"]

    def test_named_functions_pass(self):
        src = "def _double(v):\n    return v.value * 2\n"
        assert codes(src, PRIMITIVES) == []

    def test_lambda_elsewhere_is_fine(self):
        assert codes("f = lambda i: i\n", "src/repro/engine/passes.py") == []

    def test_allow_comment_suppresses(self):
        src = "f = lambda i: i  # lint: allow-lr001\n"
        assert codes(src, PROCESS) == []


class TestLR002DefaultEngineMutation:
    def test_rebinding_flagged(self):
        assert codes("DEFAULT_ENGINE = Engine()\n", "src/repro/io.py") == ["LR002"]

    def test_attribute_assignment_flagged(self):
        src = "from repro.engine import DEFAULT_ENGINE\nDEFAULT_ENGINE.pipeline = None\n"
        assert codes(src, "examples/demo.py") == ["LR002"]

    def test_nested_attribute_assignment_flagged(self):
        src = "DEFAULT_ENGINE._plans[key] = plan\n"
        assert codes(src, "tests/test_anything.py") == ["LR002"]

    def test_augmented_assignment_flagged(self):
        assert codes("DEFAULT_ENGINE.hits += 1\n", "src/repro/io.py") == ["LR002"]

    def test_reads_pass(self):
        src = "out = DEFAULT_ENGINE.run(program, value)\n"
        assert codes(src, "src/repro/io.py") == []

    def test_defining_module_is_exempt(self):
        assert codes("DEFAULT_ENGINE = Engine()\n", "src/repro/engine/__init__.py") == []


class TestLR003NormalizeInEstimators:
    def test_normalize_call_flagged(self):
        src = "def estimate(v):\n    return len(normalize(v).elems)\n"
        vs = check_source(src, COST_MODEL)
        assert [v.code for v in vs] == ["LR003"]
        assert vs[0].line == 2

    def test_method_and_variants_flagged(self):
        src = "worlds = core.possibilities(v)\ntrace = normalize_with_trace(v)\n"
        assert codes(src, ANALYSIS) == ["LR003", "LR003"]

    def test_isinstance_against_normalize_class_passes(self):
        src = "ok = isinstance(m, Normalize)\nn = Normalize(t)\n"
        assert codes(src, ANALYSIS) == []

    def test_normalize_outside_estimators_is_fine(self):
        assert codes("w = normalize(v)\n", "src/repro/engine/backends.py") == []


class TestLR004ErrorFramesOnlyInProto:
    def test_hand_built_frame_flagged(self):
        src = 'frame = {\n    "error": "too long",\n    "code": "oversized",\n}\n'
        vs = check_source(src, NET)
        assert [v.code for v in vs] == ["LR004"]
        assert vs[0].line == 1
        assert "proto" in vs[0].message

    def test_any_serve_module_flagged(self):
        src = 'payload = {"error": str(exc), "code": "malformed"}\n'
        assert codes(src, "src/repro/serve/__main__.py") == ["LR004"]

    def test_proto_may_build_frames(self):
        src = 'frame = {"error": str(exc), "code": "deadline"}\n'
        assert codes(src, PROTO) == []

    def test_reads_docstrings_and_other_keys_pass(self):
        src = (
            '"""Answers {"code": "overloaded"} frames."""\n'
            'if payload.get("code") == "overloaded":\n'
            '    head = {"stats": snapshot, "id": 1}\n'
        )
        assert codes(src, NET) == []

    def test_frames_outside_serve_are_fine(self):
        src = 'row = {"code": "x"}\n'
        assert codes(src, "tests/serve/test_net.py") == []


class TestLR009FramesOnlyThroughEncodeFrame:
    def test_dumped_frame_flagged(self):
        src = "import json\nblob = json.dumps(payload, sort_keys=True).encode()\n"
        vs = check_source(src, NET)
        assert [v.code for v in vs] == ["LR009"]
        assert vs[0].line == 2
        assert "encode_frame" in vs[0].message

    def test_every_transport_and_import_form_flagged(self):
        src = "from json import dumps\nprint(dumps(payload), file=stdout)\n"
        assert codes(src, "src/repro/serve/__main__.py") == ["LR009"]

    def test_allow_comment_suppresses(self):
        src = "stats = json.dumps(engine.stats())  # lint: allow-LR009\n"
        assert codes(src, "src/repro/serve/__main__.py") == []

    def test_other_modules_and_calls_pass(self):
        src = "text = json.dumps(payload, sort_keys=True)\n"
        assert codes(src, PROTO) == []
        assert codes(src, "src/repro/serve/server.py") == []
        assert codes("blob = encode_frame(payload).encode()\n", NET) == []


class TestLR005NoSatInEngine:
    def test_from_import_flagged(self):
        src = "import math\nfrom repro.sat.dpll import dpll_sat\n"
        vs = check_source(src, SYMBOLIC)
        assert [v.code for v in vs] == ["LR005"]
        assert vs[0].line == 2

    def test_every_import_form_flagged(self):
        src = "import repro.sat.cnf\nfrom repro.sat import CNF\nfrom repro import sat\n"
        assert codes(src, "src/repro/engine/cost_model.py") == ["LR005"] * 3

    def test_other_repro_imports_pass(self):
        src = "from repro.core.lazy import iter_possibilities\nfrom repro import values\n"
        assert codes(src, SYMBOLIC) == []

    def test_sat_outside_the_engine_is_fine(self):
        src = "from repro.sat.dpll import dpll_sat\n"
        assert codes(src, "benchmarks/bench_sat_hardness.py") == []
        assert codes(src, "src/repro/sat/via_normalization.py") == []


class TestLR007:
    """Only repro/values/values.py fills a collection's elements directly."""

    def test_object_setattr_and_setattr_flagged(self):
        src = (
            "node = object.__new__(SetValue)\n"
            'object.__setattr__(node, "elems", elems)\n'
            'setattr(node, "elems", elems)\n'
        )
        vs = check_source(src, "src/repro/core/normalize.py")
        assert [(v.code, v.line) for v in vs] == [("LR007", 2), ("LR007", 3)]
        assert "sort_key" in vs[0].message

    def test_every_source_module_flagged(self):
        src = 'object.__setattr__(node, "elems", ())\n'
        assert codes(src, "src/repro/io.py") == ["LR007"]
        assert codes(src, "src/repro/engine/columnar.py") == ["LR007"]

    def test_values_module_and_other_trees_pass(self):
        src = 'object.__setattr__(self, "elems", _canonical_distinct(elems))\n'
        assert codes(src, "src/repro/values/values.py") == []
        assert codes(src, "tests/values/test_values.py") == []
        assert codes(src, "benchmarks/bench_engine.py") == []

    def test_other_attribute_names_pass(self):
        src = (
            'object.__setattr__(self, "lower", frozenset(lo))\n'
            'object.__setattr__(self, "pairs", frozen)\n'
            'setattr(plan, "_facts", facts)\n'
            "setattr(self, counter, n)\n"
            'getattr(node, "elems")\n'
        )
        assert codes(src, "src/repro/orders/approx.py") == []

    def test_allow_comment_suppresses(self):
        src = 'object.__setattr__(node, "elems", ())  # lint: allow-LR007\n'
        assert codes(src, "src/repro/core/normalize.py") == []

    def test_key_slot_writes_flagged(self):
        src = (
            'object.__setattr__(node, "_key", key)\n'
            'setattr(node, "_key", key)\n'
            "Value._key.__set__(node, key)\n"
            "SetValue.elems.__set__(node, elems)\n"
        )
        vs = check_source(src, "src/repro/core/normalize.py")
        assert [(v.code, v.line) for v in vs] == [
            ("LR007", 1), ("LR007", 2), ("LR007", 3), ("LR007", 4),
        ]

    def test_setattr_alias_flagged(self):
        # An alias would write `elems` or `_key` where the rule cannot see.
        src = (
            "_set = object.__setattr__\n"
            "def build(fill=object.__setattr__):\n"
            "    pass\n"
            "writers = [object.__setattr__]\n"
        )
        vs = check_source(src, "src/repro/core/normalize.py")
        assert [(v.code, v.line) for v in vs] == [("LR007", 1), ("LR007", 2), ("LR007", 4)]

    def test_values_module_writes_keys(self):
        src = (
            "_set_key = Value._key.__set__\n"
            "_set = object.__setattr__\n"
            'object.__setattr__(node, "_key", key)\n'
        )
        assert codes(src, "src/repro/values/values.py") == []
        assert codes(src, "tests/values/test_values.py") == []


class TestLR008:
    """The engine and the world stream do not import the worlds oracle."""

    def test_from_import_flagged(self):
        src = "import math\nfrom repro.core.worlds import iter_worlds\n"
        vs = check_source(src, "src/repro/engine/backends.py")
        assert [(v.code, v.line) for v in vs] == [("LR008", 2)]
        assert "repro.core.lazy" in vs[0].message

    def test_every_import_form_flagged(self):
        src = (
            "import repro.core.worlds\n"
            "import repro.core.worlds as oracle\n"
            "from repro.core.worlds import worlds\n"
            "from repro.core import worlds\n"
            "from repro.core import iter_worlds, world_count\n"
        )
        assert codes(src, SYMBOLIC) == ["LR008"] * 5

    def test_every_engine_module_and_the_stream_flagged(self):
        src = "from repro.core.worlds import worlds\n"
        assert codes(src, "src/repro/engine/columnar.py") == ["LR008"]
        assert codes(src, "src/repro/core/lazy.py") == ["LR008"]

    def test_oracle_readers_pass(self):
        src = "from repro.core.worlds import iter_worlds\n"
        assert codes(src, "src/repro/core/worlds.py") == []
        assert codes(src, "src/repro/core/existential.py") == []
        assert codes(src, "tests/engine/test_symbolic.py") == []
        assert codes(src, "benchmarks/bench_symbolic.py") == []

    def test_other_core_imports_pass(self):
        src = "from repro.core import lazy\nfrom repro.core.lazy import has_world\n"
        assert codes(src, SYMBOLIC) == []

    def test_allow_comment_suppresses(self):
        src = "from repro.core.worlds import worlds  # lint: allow-LR008\n"
        assert codes(src, SYMBOLIC) == []


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        vs = check_source("def broken(:\n", "src/repro/engine/analysis.py")
        assert [v.code for v in vs] == ["LR000"]

    def test_violation_format(self):
        (v,) = check_source("f = lambda i: i\n", PROCESS)
        assert str(v).startswith(f"{PROCESS}:1:")
        assert "LR001" in str(v)

    def test_repo_lints_clean(self):
        """The invariant CI enforces: the real tree has no violations."""
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_rules.py"),
             "src", "tests", "benchmarks", "examples"],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_exit_code_on_violation(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "engine" / "process.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("f = lambda i: i\n")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_rules.py"), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "LR001" in proc.stdout
