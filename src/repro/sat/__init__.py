"""The Section 6 SAT reduction and its reference solver.

CNF encoding and the FD predicate (:mod:`repro.sat.cnf`), the
normalization-based satisfiability backends
(:mod:`repro.sat.via_normalization`), and the CDCL solver they are
checked against (:mod:`repro.sat.dpll`).  The engine does not use this
package: its symbolic backend answers world queries by recursion over
values (:mod:`repro.engine.symbolic`).
"""

from repro.sat.cnf import (
    CNF,
    VAR_BASE,
    all_assignments,
    assignment_satisfies,
    decode_choice,
    encode_cnf,
    encoded_type,
    fd_predicate,
    random_cnf,
    satisfies_fd,
)
from repro.sat.dpll import dpll_sat, dpll_solve
from repro.sat.via_normalization import sat_eager, sat_lazy, sat_witness

__all__ = [
    "CNF", "VAR_BASE", "random_cnf", "encode_cnf", "encoded_type",
    "decode_choice", "satisfies_fd", "fd_predicate", "assignment_satisfies",
    "all_assignments",
    "dpll_sat", "dpll_solve",
    "sat_eager", "sat_lazy", "sat_witness",
]
