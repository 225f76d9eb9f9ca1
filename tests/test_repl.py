"""Tests for the OR-SML-style interpreter (Section 7)."""

import io

import pytest

from repro.repl import Repl, main


@pytest.fixture()
def repl():
    return Repl()


class TestBindings:
    def test_let_and_show(self, repl):
        out = repl.eval_line("let x = <1, 2, 3>")
        assert out == "x = <1, 2, 3> : <int>"
        assert repl.eval_line("show x") == "<1, 2, 3> : <int>"
        assert repl.eval_line("x") == "<1, 2, 3> : <int>"

    def test_let_with_declared_type(self, repl):
        out = repl.eval_line("let x : <int> = <1>")
        assert out == "x = <1> : <int>"

    def test_declared_type_checked(self, repl):
        out = repl.eval_line("let x : <bool> = <1>")
        assert out.startswith("error:")

    def test_del(self, repl):
        repl.eval_line("let x = 1")
        assert repl.eval_line("del x") == "deleted x"
        assert repl.eval_line("show x").startswith("error:")

    def test_env_lists_bindings(self, repl):
        repl.eval_line("let x = 1")
        repl.eval_line("def f = pi_1")
        listing = repl.eval_line("env")
        assert "x = 1 : int" in listing
        assert "f = pi_1" in listing

    def test_empty_and_comment_lines(self, repl):
        assert repl.eval_line("") == ""
        assert repl.eval_line("-- a comment") == ""

    def test_unknown_command(self, repl):
        assert "unknown command" in repl.eval_line("frobnicate x")


class TestQueries:
    def test_normalize(self, repl):
        repl.eval_line("let db = {<1, 2>, <3>}")
        out = repl.eval_line("normalize db")
        assert out == "<{1, 3}, {2, 3}> : <{int}>"

    def test_worlds(self, repl):
        repl.eval_line("let db = <1, 2>")
        assert repl.eval_line("worlds db") == "{1, 2}"

    def test_type_and_size(self, repl):
        repl.eval_line("let db = ({<1, 2>, <3>}, <1, 2>)")
        assert repl.eval_line("type db") == "{<int>} * <int>"
        assert repl.eval_line("size db") == "5"

    def test_apply_named_morphism(self, repl):
        repl.eval_line("let db = {<1, 2>, <3>}")
        repl.eval_line("def choices = alpha")
        out = repl.eval_line("apply choices db")
        assert out.startswith("<{1, 3}, {2, 3}>")

    def test_apply_inline_morphism(self, repl):
        repl.eval_line("let p = (1, 2)")
        assert repl.eval_line("apply pi_2 p") == "2 : int"

    def test_apply_composed(self, repl):
        repl.eval_line("let db = {<1, 2>}")
        out = repl.eval_line("apply ormap(eta) o alpha db")
        assert out == "<{{1}}, {{2}}> : <{{int}}>"

    def test_typeof_morphism(self, repl):
        repl.eval_line("def q = alpha")
        out = repl.eval_line("typeof q")
        assert "->" in out and "{<" in out

    def test_variant_values_work(self, repl):
        repl.eval_line("let v = inl <1, 2>")
        out = repl.eval_line("apply or_kappa_1 v")
        assert out.startswith("<inl 1, inl 2>")

    def test_error_reported_not_raised(self, repl):
        repl.eval_line("let x = 1")
        out = repl.eval_line("apply alpha x")
        assert out.startswith("error:")


class TestBackendsAndBatch:
    def test_backend_streaming_selectable(self, repl):
        assert repl.eval_line("backend streaming") == "backend = streaming"
        repl.eval_line("let db = {<1, 2>, <3>}")
        out = repl.eval_line("apply ormap(eta) o alpha db")
        assert out == "<{{1, 3}}, {{2, 3}}> : <{{int}}>"

    def test_backend_unknown_rejected(self, repl):
        out = repl.eval_line("backend warp")
        assert out.startswith("error:") and "process" in out

    def test_backend_fused_selectable(self, repl):
        assert repl.eval_line("backend fused") == "backend = fused"
        repl.eval_line("let db = {(1, 2), (3, 4)}")
        out = repl.eval_line("apply map(pi_1) db")
        assert out == "{1, 3} : {int}"

    def test_plan_shows_fusion(self, repl):
        out = repl.eval_line("plan map(pi_1) o mu")
        assert "fusion:" in out and "fused kernel" in out

    def test_plan_shows_routing_facts(self, repl):
        out = repl.eval_line("plan map(pi_1) o mu")
        assert "facts: symbolic=" in out
        assert "fused-spans=[0:2)x2" in out
        assert "shape=set" in out
        out = repl.eval_line("plan ormap(normalize) o settoor")
        assert "symbolic=yes" in out and "short-circuit=yes" in out

    def test_applymany(self, repl):
        repl.eval_line("let a = {<1, 2>}")
        repl.eval_line("let b = {<3>}")
        out = repl.eval_line("applymany ormap(eta) o alpha a b")
        assert out.splitlines() == [
            "a: <{{1}}, {{2}}> : <{{int}}>",
            "b: <{{3}}> : <{{int}}>",
        ]

    def test_applymany_named_morphism(self, repl):
        repl.eval_line("let a = <1, 2>")
        repl.eval_line("let b = <3>")
        repl.eval_line("def q = ormap(eta)")
        out = repl.eval_line("applymany q a b")
        assert out.splitlines()[0].startswith("a:")
        assert out.splitlines()[1].startswith("b:")

    def test_applymany_respects_backend(self, repl):
        repl.eval_line("backend streaming")
        repl.eval_line("let a = {<1, 2>}")
        out = repl.eval_line("applymany alpha a")
        assert out == "a: <{1}, {2}> : <{int}>"

    def test_applymany_requires_names(self, repl):
        assert repl.eval_line("applymany alpha").startswith("error:")
        assert repl.eval_line("applymany").startswith("error:")

    def test_applymany_unbound_name(self, repl):
        out = repl.eval_line("applymany alpha nosuch")
        assert out.startswith("error:")

    def test_applymany_value_shadowing_morphism_word(self, repl):
        # A binding named like the morphism's last word must not be
        # swallowed into the argument list.
        repl.eval_line("let alpha = {<9>}")
        repl.eval_line("let db = {<1, 2>}")
        out = repl.eval_line("applymany ormap(eta) o alpha db")
        assert out == "db: <{{1}}, {{2}}> : <{{int}}>"

    def test_applymany_shadowed_name_still_usable_as_argument(self, repl):
        repl.eval_line("let alpha = <1, 2>")
        out = repl.eval_line("applymany ormap(eta) alpha")
        assert out == "alpha: <{1}, {2}> : <{int}>"


class TestMainLoop:
    def test_scripted_session(self):
        stdin = io.StringIO("let x = <1, 2>\nnormalize x\nquit\n")
        stdout = io.StringIO()
        main(stdin=stdin, stdout=stdout)
        text = stdout.getvalue()
        assert "x = <1, 2> : <int>" in text
        assert "bye." in text

    def test_eof_terminates(self):
        stdin = io.StringIO("let x = 1\n")
        stdout = io.StringIO()
        main(stdin=stdin, stdout=stdout)
        assert "bye." in stdout.getvalue()
