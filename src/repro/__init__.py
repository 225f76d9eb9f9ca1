"""repro — a reproduction of Libkin & Wong,
"Semantic Representations and Query Languages for Or-Sets" (PODS 1993 /
JCSS 52(1), 1996).

The package implements the paper end to end:

* :mod:`repro.types` — the type system and the normalization rewrite
  system on types (Section 2, Proposition 4.1);
* :mod:`repro.values` — complex objects mixing tuples, sets and or-sets;
* :mod:`repro.lang` — or-NRA, the structural query language (Figure 1),
  with type inference, a surface parser, comprehensions and the OR-SML
  derived library (Section 7);
* :mod:`repro.core` — normalization and the conceptual language or-NRA+
  (Theorem 4.2, Corollaries 4.3/6.4, Theorems 5.1/6.2/6.3/6.5,
  Propositions 2.1/5.2/6.1), possible-worlds oracle, lazy streams;
* :mod:`repro.engine` — the compile-and-run engine: plan IR, pass-based
  optimizer and the execution backends behind
  ``engine.run(program, value)``;
* :mod:`repro.orders` — the partial-information semantics (Section 3):
  posets, Hoare/Smyth/Plotkin, update closures, the ``alpha_a``
  isomorphism (Theorem 3.3) and modal theories (Proposition 3.4);
* :mod:`repro.sat` — the Section 6 NP-hardness reduction.

Quick start::

    from repro import vset, vorset, vpair, normalize, possibilities

    design = vpair(vset(vorset(1, 2), vorset(3)), vorset(1, 2))
    print(normalize(design))          # <({1,3},1), ({1,3},2), ...>
"""

from repro.core import (
    Normalize,
    coherence_witness,
    conceptual_eq,
    exists_query,
    forall_query,
    m_value,
    normalize,
    normalize_morphism,
    normalize_via_tagging,
    possibilities,
    preserve,
    witness,
    worlds,
)
from repro.errors import (
    EligibilityError,
    NormalizationError,
    OrNRAError,
    OrNRAParseError,
    OrNRATypeError,
    OrNRAValueError,
)
from repro.types import (
    BOOL,
    INT,
    STRING,
    UNIT,
    Type,
    format_type,
    nf_type,
    orset_of,
    parse_type,
    prod,
    set_of,
)
from repro import engine
from repro.engine import Engine, compile_plan
from repro.engine import run as run_program
from repro.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    Value,
    atom,
    format_value,
    from_python,
    infer_type,
    to_python,
    vbag,
    vorset,
    vpair,
    vset,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "OrNRAError", "OrNRATypeError", "OrNRAValueError", "OrNRAParseError",
    "NormalizationError", "EligibilityError",
    # types
    "Type", "BOOL", "INT", "STRING", "UNIT",
    "prod", "set_of", "orset_of", "parse_type", "format_type", "nf_type",
    # values
    "Value", "Atom", "Pair", "SetValue", "OrSetValue", "BagValue",
    "atom", "vpair", "vset", "vorset", "vbag",
    "format_value", "infer_type", "from_python", "to_python",
    # core
    # engine
    "engine", "Engine", "run_program", "compile_plan",
    "normalize", "possibilities", "conceptual_eq", "coherence_witness",
    "Normalize", "normalize_morphism", "normalize_via_tagging",
    "worlds", "m_value", "preserve",
    "exists_query", "forall_query", "witness",
]
