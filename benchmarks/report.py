"""Print the paper-vs-measured tables of this reproduction.

Run:  python benchmarks/report.py

Prints, for each paper result that a ``bench_*.py`` file in this
directory reproduces, the quantity the paper claims and the value
measured here.  The pytest-benchmark
files in this directory measure *time*; this script measures the
*quantities* (cardinalities, sizes, equalities, agreement rates).
"""

from __future__ import annotations

import os
import random
import sys
import time

# Allow `python benchmarks/report.py` from the repository root.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def hr(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 66 - len(title)))


def row(label: str, paper: str, measured: object) -> None:
    print(f"  {label:<44} paper: {paper:<18} measured: {measured}")


def report_p21() -> None:
    from repro.core.powerset import Powerset, alpha_via_powerset, powerset_from_alpha
    from repro.gen import random_value
    from repro.lang.orset_ops import Alpha
    from repro.types.kinds import INT, OrSetType, SetType

    hr("P2.1  alpha == powerset (interdefinable)")
    rng = random.Random(1)
    sets = [random_value(SetType(INT), rng, 5, 2, 15) for _ in range(30)]
    fams = [random_value(SetType(OrSetType(INT)), rng, 3, 1, 10) for _ in range(30)]
    ok1 = sum(powerset_from_alpha()(x) == Powerset()(x) for x in sets)
    ok2 = sum(alpha_via_powerset(x) == Alpha()(x) for x in fams)
    row("powerset-from-alpha agreement", "identity", f"{ok1}/30")
    row("alpha-from-powerset agreement", "identity", f"{ok2}/30")
    row(
        "proof-sketch criterion on {<1,2>,<3>,<3,4>}",
        "(sketch bug)",
        "corrected: {1,2,3} excluded",
    )


def report_p31_p32() -> None:
    from itertools import chain as ichain, combinations

    from repro.orders.poset import random_poset
    from repro.orders.powerdomains import hoare_le, smyth_le
    from repro.orders.updates import (
        hoare_reachable,
        hoare_reachable_antichain,
        smyth_reachable,
        smyth_reachable_antichain,
    )

    hr("P3.1/P3.2  update closures == Hoare/Smyth orderings")
    rng = random.Random(2)
    checked = agree = 0
    checked_a = agree_a = 0
    for _ in range(5):
        poset = random_poset(4, 0.45, rng)
        subsets = [
            frozenset(c)
            for c in ichain.from_iterable(
                combinations(sorted(poset.carrier), k) for k in range(5)
            )
        ]
        for start in subsets[:8]:
            hr_set = hoare_reachable(poset, start)
            sm_set = smyth_reachable(poset, start) if start else None
            for target in subsets:
                checked += 1
                ok = (target in hr_set) == hoare_le(start, target, poset.le)
                if sm_set is not None:
                    ok = ok and (
                        (target in sm_set) == smyth_le(start, target, poset.le)
                    )
                agree += ok
            if poset.is_antichain(start) and start:
                ha = hoare_reachable_antichain(poset, start)
                sa = smyth_reachable_antichain(poset, start)
                for target in subsets:
                    if not poset.is_antichain(target):
                        continue
                    checked_a += 1
                    agree_a += (
                        (target in ha) == hoare_le(start, target, poset.le)
                    ) and ((target in sa) == smyth_le(start, target, poset.le))
    row("closure == order (all pairs)", "equivalence", f"{agree}/{checked}")
    row("antichain closure == order", "equivalence", f"{agree_a}/{checked_a}")


def report_t33() -> None:
    from benchmarks.bench_isomorphism import _family
    from repro.orders.iso import alpha_antichain, beta_antichain
    from repro.orders.poset import random_poset

    hr("T3.3  alpha_a is an isomorphism with inverse beta_a")
    rng = random.Random(3)
    trips = ok = 0
    for _ in range(8):
        poset = random_poset(4, 0.4, rng)
        orders = {"d": poset}
        for _ in range(10):
            fam = _family(poset, rng)
            trips += 1
            ok += beta_antichain(alpha_antichain(fam, orders), orders) == fam
    row("beta_a(alpha_a(A)) == A", "identity", f"{ok}/{trips}")


def report_p34() -> None:
    from benchmarks.bench_theories import CASES, _values
    from repro.orders.semantics import value_le
    from repro.orders.theories import theory_superset

    hr("P3.4  x <= y  iff  Th(x) superset of Th(y)")
    rng = random.Random(4)
    checked = agree = 0
    for _name, t, orders in CASES:
        values = _values(t, orders, rng, count=6)
        for x in values:
            for y in values:
                checked += 1
                agree += value_le(x, y, orders) == theory_superset(
                    x, y, t, orders, disj_width=3
                )
    row("order == theory containment", "equivalence", f"{agree}/{checked}")


def report_p41_t42() -> None:
    from repro.gen import random_orset_value, random_type
    from repro.core.normalize import coherence_witness, possibilities
    from repro.core.worlds import worlds
    from repro.types.rewrite import all_normal_forms, nf_type

    hr("P4.1/T4.2  type confluence + object coherence")
    rng = random.Random(5)
    types = [random_type(rng, 3) for _ in range(40)]
    unique = sum(all_normal_forms(t, 3000) == {nf_type(t)} for t in types)
    row("types: unique normal form", "Church-Rosser", f"{unique}/40")
    objs = [random_orset_value(rng, 3, 2, 1) for _ in range(40)]
    coherent = sum(len(coherence_witness(v, t, samples=5)) == 1 for v, t in objs)
    row("objects: strategy-independent nf", "coherence", f"{coherent}/40")
    oracle = sum(
        frozenset(possibilities(v, t)) == worlds(v) for v, t in objs
    )
    row("nf == possible-worlds denotation", "(semantic check)", f"{oracle}/40")


def report_c43() -> None:
    from repro.core.normalize import normalize
    from repro.core.tagged import normalize_via_tagging
    from repro.gen import random_orset_value

    hr("C4.3  normalize expressible in or-NRA (tagging)")
    rng = random.Random(6)
    objs = [random_orset_value(rng, 3, 3, 1) for _ in range(40)]
    same = sum(normalize_via_tagging(v, t) == normalize(v, t) for v, t in objs)
    row("tagged == engine normal forms", "identity", f"{same}/40")
    start = time.perf_counter()
    for v, t in objs:
        normalize(v, t)
    engine_time = time.perf_counter() - start
    start = time.perf_counter()
    for v, t in objs:
        normalize_via_tagging(v, t)
    tagged_time = time.perf_counter() - start
    row("tagging overhead factor", "O(1) factor", f"{tagged_time / engine_time:.2f}x")


def report_t51_p52() -> None:
    from benchmarks.bench_losslessness import SUITE, _inputs
    from repro.core.preserve import analog_is_maplike, analog_is_onto, verify_losslessness
    from repro.lang.orset_ops import OrUnion
    from repro.lang.set_ops import SetRho2

    hr("T5.1/P5.2  losslessness + conceptual analogs")
    rng = random.Random(7)
    checked = ok = 0
    for _name, f, t, width in SUITE:
        for x in _inputs(t, width, rng, count=8):
            checked += 1
            ok += verify_losslessness(f, x, t)
    row("commuting squares (eligible class)", "equality", f"{ok}/{checked}")
    row("or_union analog map-like", "not map-like", analog_is_maplike(OrUnion()))
    row("rho_2 analog onto", "not onto", analog_is_onto(SetRho2()))


def report_section6() -> None:
    from repro.core.costs import (
        m_value,
        normalized_size,
        prop61_bound,
        thm62_bound,
        thm63_bound,
        thm65_bound,
        tight_family,
    )
    from repro.gen import random_orset_value
    from repro.values.measure import has_orset, size

    hr("P6.1/T6.2/T6.3/T6.5  cost bounds")
    rng = random.Random(8)
    objs = [random_orset_value(rng, 3, 3, 1) for _ in range(60)]
    p61 = t62 = t63 = total = 0
    for v, t in objs:
        n = size(v)
        if n <= 1 or not has_orset(v):
            continue
        total += 1
        m = m_value(v, t)
        p61 += m <= prop61_bound(v)
        t62 += m <= thm62_bound(n) + 1e-9
        t63 += normalized_size(v, t) <= thm63_bound(n) + 1e-9
    row("P6.1: m <= prod(m_i + 1)", "bound holds", f"{p61}/{total}")
    row("T6.2: m <= 3^(n/3)", "bound holds", f"{t62}/{total}")
    row("T6.3: size(nf) <= (n/2)3^(n/3)", "bound holds", f"{t63}/{total}")
    for k in (3, 5):
        x, t = tight_family(k)
        n = size(x)
        row(
            f"T6.2/T6.5 tight family k={k} (n={n})",
            f"m=3^{k}, sz=(n/3)3^(n/3)",
            f"m={m_value(x, t)}, sz={normalized_size(x, t)}"
            f" (bounds {round(thm62_bound(n))}, {round(thm65_bound(n))})",
        )


def report_s6np() -> None:
    from benchmarks.bench_sat_hardness import _disjoint_family
    from repro.core.costs import m_value
    from repro.sat.cnf import encode_cnf, encoded_type, random_cnf
    from repro.sat.dpll import dpll_sat
    from repro.sat.via_normalization import sat_eager, sat_lazy

    hr("S6NP  SAT as an existential query over normal forms")
    rng = random.Random(9)
    suite = [random_cnf(5, 8, 3, rng) for _ in range(30)]
    agree = sum(
        sat_lazy(c) == sat_eager(c) == dpll_sat(c) for c in suite
    )
    row("3 backends agree on random 3-CNF", "equivalence", f"{agree}/30")
    sizes = {m: m_value(encode_cnf(_disjoint_family(m)), encoded_type()) for m in (4, 6, 8)}
    row("normal-form growth (disjoint clauses)", "2^m", sizes)

    def timed(fn, arg):
        start = time.perf_counter()
        fn(arg)
        return time.perf_counter() - start

    cnf = _disjoint_family(10)
    lazy_t = timed(sat_lazy, cnf)
    eager_t = timed(sat_eager, cnf)
    row(
        "lazy vs eager on satisfiable 2^10 family",
        "lazy wins",
        f"{eager_t / max(lazy_t, 1e-9):.0f}x faster lazily",
    )


def report_impl_lazy() -> None:
    from repro.core.costs import tight_family
    from repro.core.existential import exists_query

    hr("IMPL  lazy stream normalization (Section 7)")
    x, t = tight_family(8)

    def pred(world):
        return all(int(e.value) % 3 == 0 for e in world.elems)

    start = time.perf_counter()
    assert exists_query(pred, x, t, backend="lazy")
    lazy_t = time.perf_counter() - start
    start = time.perf_counter()
    assert exists_query(pred, x, t, backend="eager")
    eager_t = time.perf_counter() - start
    row(
        "early-witness existential (3^8 designs)",
        "lazy streams win",
        f"lazy {lazy_t * 1000:.1f} ms vs eager {eager_t * 1000:.1f} ms"
        f" ({eager_t / max(lazy_t, 1e-9):.0f}x)",
    )


def report_ext_variants() -> None:
    from repro.core.normalize import coherence_witness, possibilities
    from repro.core.worlds import worlds
    from repro.gen import random_variant_value
    from repro.types.rewrite import all_normal_forms, nf_type

    hr("EXT-V  variant types (Section 7): coherence still holds")
    rng = random.Random(10)
    objs = [random_variant_value(rng, 3, 2, 1) for _ in range(40)]
    coherent = sum(len(coherence_witness(v, t, samples=4)) == 1 for v, t in objs)
    oracle = sum(frozenset(possibilities(v, t)) == worlds(v) for v, t in objs)
    confluent = sum(
        all_normal_forms(t, 5000) == {nf_type(t)} for _v, t in objs
    )
    row("coherence with variants", "holds (Sec. 7)", f"{coherent}/40")
    row("nf == worlds with variants", "(semantic check)", f"{oracle}/40")
    row("type confluence with variants", "Church-Rosser", f"{confluent}/40")


def report_ext_optimizer() -> None:
    from benchmarks.bench_optimizer import NAIVE, OPTIMIZED, _family
    from repro.lang.optimize import cost

    hr("EXT-O  equational optimizer (Section 7)")
    row("static operator count", "fewer", f"{cost(NAIVE)} -> {cost(OPTIMIZED)}")
    for k in (8, 10):
        x = _family(k)
        start = time.perf_counter()
        out_naive = NAIVE.apply(x)
        t_naive = time.perf_counter() - start
        start = time.perf_counter()
        out_opt = OPTIMIZED.apply(x)
        t_opt = time.perf_counter() - start
        assert out_naive == out_opt
        row(
            f"alpha-push speedup, k={k} (2^{k} choices)",
            "optimized wins",
            f"{t_naive / max(t_opt, 1e-9):.1f}x, outputs identical",
        )


def report_ext_approx() -> None:
    from repro.orders.approx import (
        Sandwich,
        consistent_witness,
        sandwich_le,
        sandwich_to_object,
    )
    from repro.orders.poset import random_poset
    from repro.orders.semantics import value_le

    hr("EXT-A  approximation models via or-sets (Section 7, [22])")
    rng = random.Random(11)
    embed_checked = embed_ok = cons_checked = cons_ok = 0
    for _ in range(6):
        poset = random_poset(4, 0.4, rng)
        orders = {"d": poset}
        carrier = sorted(poset.carrier, key=repr)
        sws = []
        for _ in range(6):
            lo = rng.sample(carrier, rng.randint(0, 2))
            up = rng.sample(carrier, rng.randint(0, 2))
            sws.append(Sandwich(lo, up, poset))
        for s in sws:
            cons_checked += 1
            cons_ok += s.is_consistent() == (
                consistent_witness(s, max_size=4) is not None
            )
        for a in sws:
            for b in sws:
                embed_checked += 1
                embed_ok += sandwich_le(a, b) == value_le(
                    sandwich_to_object(a), sandwich_to_object(b), orders
                )
    row("sandwich order == object order", "order embedding", f"{embed_ok}/{embed_checked}")
    row("consistency closed form == search", "equivalence", f"{cons_ok}/{cons_checked}")


def report_ext_refinement() -> None:
    from benchmarks.bench_refinement import _catalogue
    from repro.core.normalize import possibilities
    from repro.core.refine import GroundTruthOracle, refine_to_budget
    from repro.core.worlds import worlds

    hr("EXT-C  complexity-tailored refinement (Section 7, [16])")
    x = _catalogue(8)
    rng = random.Random(12)
    for budget in (6561, 81, 1):
        oracle = GroundTruthOracle(rng)
        report = refine_to_budget(x, budget, oracle)
        start = time.perf_counter()
        count = len(possibilities(report.refined))
        elapsed = time.perf_counter() - start
        row(
            f"questions for budget {budget}",
            "3^(8-q) worlds",
            f"q={len(report.questions)}, |nf|={count}, eager query {elapsed * 1000:.1f} ms",
        )
    oracle = GroundTruthOracle(random.Random(13))
    refined = refine_to_budget(x, 1, oracle).refined
    row(
        "ground truth preserved",
        "never lost",
        str(worlds(refined) <= worlds(x) and len(worlds(refined)) == 1),
    )


def main() -> None:
    print("Paper-vs-measured report for 'Semantic Representations and Query")
    print("Languages for Or-Sets' (Libkin & Wong, PODS 1993).")
    report_p21()
    report_p31_p32()
    report_t33()
    report_p34()
    report_p41_t42()
    report_c43()
    report_t51_p52()
    report_section6()
    report_s6np()
    report_impl_lazy()
    report_ext_variants()
    report_ext_optimizer()
    report_ext_approx()
    report_ext_refinement()
    print("\ndone.")


if __name__ == "__main__":
    main()
