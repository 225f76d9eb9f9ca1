"""Tests for the CDCL solver."""

import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF, all_assignments, random_cnf
from repro.sat.dpll import dpll_sat, dpll_solve


def brute_force_sat(cnf: CNF) -> bool:
    return any(cnf.is_satisfied_by(a) for a in all_assignments(cnf.n_vars))


@st.composite
def small_cnfs(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 12))
    clauses = tuple(
        frozenset(
            draw(
                st.sets(
                    st.integers(1, n).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        for _ in range(m)
    )
    return CNF(n, clauses)


class TestBasics:
    def test_empty_formula_sat(self):
        assert dpll_sat(CNF(1, ()))

    def test_unit_clause(self):
        assert dpll_solve(CNF(1, (frozenset({1}),))) == {1: True}

    def test_contradiction(self):
        assert not dpll_sat(CNF(1, (frozenset({1}), frozenset({-1}))))

    def test_simple_3sat(self):
        cnf = CNF(3, (frozenset({1, 2}), frozenset({-1, 3}), frozenset({-2, -3})))
        model = dpll_solve(cnf)
        assert model is not None
        assert cnf.is_satisfied_by({v: model.get(v, False) for v in (1, 2, 3)})

    def test_unsat_pigeonhole_style(self):
        # x1..x? encode: (1)(−1∨2)(−2) is unsatisfiable.
        cnf = CNF(2, (frozenset({1}), frozenset({-1, 2}), frozenset({-2})))
        assert not dpll_sat(cnf)


class TestAgainstBruteForce:
    def test_random_instances(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 5)
            m = rng.randint(1, 10)
            k = rng.randint(1, min(3, n))
            cnf = random_cnf(n, m, k, rng)
            assert dpll_sat(cnf) == brute_force_sat(cnf)

    def test_models_actually_satisfy(self):
        rng = random.Random(123)
        for _ in range(40):
            cnf = random_cnf(4, 6, 2, rng)
            model = dpll_solve(cnf)
            if model is not None:
                total = {v: model.get(v, False) for v in range(1, 5)}
                assert cnf.is_satisfied_by(total)

    @settings(max_examples=150, deadline=None)
    @given(small_cnfs())
    def test_sat_matches_brute_force(self, cnf):
        assert dpll_sat(cnf) == brute_force_sat(cnf)

    @settings(max_examples=100, deadline=None)
    @given(small_cnfs())
    def test_solutions_are_models(self, cnf):
        model = dpll_solve(cnf)
        if model is None:
            assert not brute_force_sat(cnf)
        else:
            total = {v: model.get(v, False) for v in range(1, cnf.n_vars + 1)}
            assert cnf.is_satisfied_by(total)


class TestIterativeSolver:
    def test_deep_implication_chain_needs_no_recursion(self):
        # The CDCL loop is an explicit trail, not Python recursion: a
        # 3000-variable unit-propagation chain must solve far below the
        # default recursion limit.  (The old recursive DPLL overflowed.)
        n = 3000
        clauses = [frozenset({1})]
        clauses += [frozenset({-i, i + 1}) for i in range(1, n)]
        cnf = CNF(n, tuple(clauses))
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(150)
            model = dpll_solve(cnf)
        finally:
            sys.setrecursionlimit(limit)
        assert model is not None
        assert all(model[i] for i in range(1, n + 1))

    def test_deep_chain_unsat(self):
        n = 2000
        clauses = [frozenset({1})]
        clauses += [frozenset({-i, i + 1}) for i in range(1, n)]
        clauses.append(frozenset({-n}))
        cnf = CNF(n, tuple(clauses))
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(150)
            assert not dpll_sat(cnf)
        finally:
            sys.setrecursionlimit(limit)

    def test_partial_model_contract(self):
        # Solutions are partial: variables not needed to satisfy every
        # clause stay unassigned (callers treat them as free).
        assert dpll_solve(CNF(5, (frozenset({1}),))) == {1: True}

    def test_conflict_learning_on_crossed_implications(self):
        # A formula where plain DPLL backtracks chronologically many
        # times; any solver must still answer UNSAT.
        clauses = (
            frozenset({1, 2}),
            frozenset({1, -2}),
            frozenset({-1, 3}),
            frozenset({-1, -3, 4}),
            frozenset({-4, 5}),
            frozenset({-4, -5}),
        )
        assert not dpll_sat(CNF(5, clauses))
