"""A CDCL SAT solver: the reference solver for the Section 6 reduction.

Originally a recursive textbook DPLL; now a small conflict-driven
clause-learning solver in the MiniSat lineage:

* **iterative trail** — assignments live on an explicit trail with
  decision levels, so deep implication chains never touch the Python
  recursion limit (the old ``_solve`` recursed once per branch);
* **two-watched-literal unit propagation** — each clause is watched by
  two literals and is only visited when a watch is falsified, so
  propagation cost is proportional to the clauses that actually change;
* **conflict-driven clause learning** — conflicts are analyzed to the
  first unique implication point (1-UIP), the learned clause is added
  and the solver backjumps non-chronologically.

The normalization-based satisfiability backends
(:mod:`repro.sat.via_normalization`) are checked against it.

The public contract is unchanged: :func:`dpll_solve` returns a
satisfying (possibly partial — variables in no clause stay unassigned)
assignment or ``None``, and :func:`dpll_sat` the boolean.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.sat.cnf import CNF, Clause

__all__ = ["dpll_sat", "dpll_solve"]


class _CDCL:
    """One solver instance over a fixed clause database."""

    def __init__(self, clauses: Iterable[Clause]) -> None:
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = defaultdict(list)
        self.assign: dict[int, bool] = {}
        self.level: dict[int, int] = {}
        self.reason: dict[int, int | None] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.variables: list[int] = []
        seen_vars: set[int] = set()
        units: list[int] = []
        for clause in clauses:
            lits = sorted(clause, key=abs)
            for lit in lits:
                if abs(lit) not in seen_vars:
                    seen_vars.add(abs(lit))
                    self.variables.append(abs(lit))
            if not lits:
                self.ok = False
                continue
            if len(lits) == 1:
                units.append(lits[0])
                continue
            self._attach(lits)
        self.variables.sort()
        if self.ok:
            for lit in units:
                if not self._enqueue(lit, None):
                    self.ok = False
                    break

    # -- clause plumbing ----------------------------------------------------

    def _attach(self, lits: list[int]) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        return ci

    def _value(self, lit: int) -> bool | None:
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int, reason: int | None) -> bool:
        val = self._value(lit)
        if val is not None:
            return val
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    # -- unit propagation (two watched literals) ----------------------------

    def _propagate(self) -> list[int] | None:
        """Propagate the queue; return a conflicting clause or ``None``."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = -lit
            watching = self.watches[falsified]
            kept: list[int] = []
            i = 0
            while i < len(watching):
                ci = watching[i]
                i += 1
                lits = self.clauses[ci]
                # Normalize so the falsified watch sits at position 1.
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                if self._value(lits[0]) is True:
                    kept.append(ci)
                    continue
                # Look for a new literal to watch.
                for j in range(2, len(lits)):
                    if self._value(lits[j]) is not False:
                        lits[1], lits[j] = lits[j], lits[1]
                        self.watches[lits[1]].append(ci)
                        break
                else:
                    kept.append(ci)
                    if not self._enqueue(lits[0], ci):
                        kept.extend(watching[i:])
                        del watching[:]
                        watching.extend(kept)
                        return lits
                    continue
            del watching[:]
            watching.extend(kept)
        return None

    # -- conflict analysis (1-UIP) ------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """Learn a 1-UIP clause from *conflict*; return (clause, backjump)."""
        current = len(self.trail_lim)
        seen: set[int] = set()
        learnt: list[int] = []
        counter = 0
        lits = conflict
        idx = len(self.trail) - 1
        uip = 0
        while True:
            for lit in lits:
                var = abs(lit)
                if var in seen or self.level.get(var, 0) == 0:
                    continue
                seen.add(var)
                if self.level[var] == current:
                    counter += 1
                else:
                    learnt.append(lit)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            uip = self.trail[idx]
            var = abs(uip)
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[var]
            assert reason is not None
            lits = [lit for lit in self.clauses[reason] if abs(lit) != var]
        learnt_clause = [-uip] + learnt
        if len(learnt_clause) == 1:
            return learnt_clause, 0
        back = max(self.level[abs(lit)] for lit in learnt)
        return learnt_clause, back

    def _backjump(self, target_level: int) -> None:
        limit = self.trail_lim[target_level]
        for lit in self.trail[limit:]:
            var = abs(lit)
            del self.assign[var], self.level[var], self.reason[var]
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- the search loop ----------------------------------------------------

    def _all_clauses_satisfied(self) -> bool:
        return all(
            any(self._value(lit) is True for lit in lits) for lits in self.clauses
        )

    def solve(self) -> dict[int, bool] | None:
        if not self.ok:
            return None
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return None
                learnt, back = self._analyze(conflict)
                self._backjump(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        return None
                else:
                    # Position a literal of the backjump level as the
                    # second watch so the clause wakes up correctly.
                    for j in range(1, len(learnt)):
                        if self.level.get(abs(learnt[j]), 0) == back:
                            learnt[1], learnt[j] = learnt[j], learnt[1]
                            break
                    ci = self._attach(learnt)
                    self._enqueue(learnt[0], ci)
                continue
            if self._all_clauses_satisfied():
                return dict(self.assign)
            decision = next(
                (v for v in self.variables if v not in self.assign), None
            )
            if decision is None:
                return dict(self.assign)
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, None)


def dpll_solve(cnf: CNF) -> dict[int, bool] | None:
    """A satisfying (partial) assignment, or ``None`` if unsatisfiable.

    Variables that occur in no clause are left unassigned, and the search
    stops as soon as every clause is satisfied — matching the historical
    DPLL behaviour that callers (and tests) rely on.
    """
    return _CDCL(cnf.clauses).solve()


def dpll_sat(cnf: CNF) -> bool:
    """Is *cnf* satisfiable?"""
    return dpll_solve(cnf) is not None
