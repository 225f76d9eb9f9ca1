"""Quickstart: or-sets, structural vs conceptual queries, normalization.

Run:  python examples/quickstart.py

Walks through the paper's core ideas on a five-minute scale:
1. build complex objects mixing tuples, sets and or-sets;
2. query them *structurally* with or-NRA;
3. normalize to pass to the *conceptual* level (or-NRA+);
4. ask existential questions lazily;
5. run queries through the compile-and-run engine.
"""

from repro import (
    engine,
    format_value,
    normalize,
    parse_type,
    possibilities,
    vorset,
    vpair,
    vset,
)
from repro.core import conceptual_eq, exists_query, witness
from repro.lang import ormap, or_select, parse_morphism, predicate
from repro.types import INT, nf_type, format_type


def main() -> None:
    # ----------------------------------------------------------------- 1.
    # An object of type {<int>} * <int>: a set of alternatives plus one
    # more independent choice (the paper's Section 4 example).
    design = vpair(vset(vorset(1, 2), vorset(3)), vorset(1, 2))
    t = parse_type("{<int>} * <int>")
    print("object     :", format_value(design))
    print("type       :", format_type(t))

    # ----------------------------------------------------------------- 2.
    # Structural query: how many alternatives does each component offer?
    # (Queries see the or-sets themselves.)  Evaluation goes through the
    # engine: the query is optimized, compiled to a plan and executed.
    first_choices = parse_morphism("map(ortoset) o pi_1")
    print("choices    :", format_value(engine.run(first_choices, design)))

    # ----------------------------------------------------------------- 3.
    # Conceptual level: normalize lists every completed possibility.
    normal = normalize(design, t)
    print("nf type    :", format_type(nf_type(t)))
    print("normalized :", format_value(normal))

    # <<1>> and <1> denote the same number:
    print("<<1>> == <1> conceptually:", conceptual_eq(vorset(vorset(1)), vorset(1)))

    # ----------------------------------------------------------------- 4.
    # The intro's query shape: keep only cheap alternatives.
    ischeap = predicate("ischeap", lambda v: v.value <= 1, INT)
    cheap_only = or_select(ischeap)
    print("cheap      :", format_value(cheap_only(vorset(1, 2, 3))))

    # Existential query with lazy normalization: is there a possibility
    # whose components sum below 6?  (Stops at the first witness.)
    def small(world) -> bool:
        total = sum(e.value for e in world.fst.elems) + world.snd.value
        return total < 6

    print("exists sum<6:", exists_query(small, design, t))
    found = witness(small, design, t)
    print("witness    :", format_value(found) if found else None)

    # possibilities() is the tuple behind all of this:
    print("count      :", len(possibilities(design, t)))

    # ----------------------------------------------------------------- 5.
    # engine.run is the single entry point behind the REPL, the I/O
    # helpers and the benchmarks: pass-based optimization, plan
    # compilation, and a choice of backends.
    query = parse_morphism("ormap(map(eta)) o alpha o pi_1")
    print("engine     :", format_value(engine.run(query, design)))
    print("streaming  :", format_value(engine.run(query, design, backend="streaming")))
    print("plan       :")
    print(engine.explain(query, t))


if __name__ == "__main__":
    main()
