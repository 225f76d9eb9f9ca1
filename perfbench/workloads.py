"""Seeded inputs, operation schedules and reference answers.

Every workload is a fixed multiset of operation *strata* (program, input
shape, size); the seed changes the atoms inside each input and the order
of the operations, never the sizes or the counts.  Two runs with
different seeds therefore do the same amount of work, and a percentile
lands at the same rank of the same strata in every run.

Reference answers never go through the engine:

* ``normalize`` is checked against ``OrSetValue(worlds(x))``, the
  possible-worlds oracle of :mod:`repro.core.worlds`; programs that map
  ``normalize`` over a collection apply the same oracle per element;
* other programs are checked against their direct interpretation,
  ``parsed_morphism(p)(x)``;
* world counts are ``len(worlds(x))``, and certain and possible answers
  the intersection and the union of the worlds' elements.  On inputs
  whose members share no atom (tight families with up to ``3**19``
  worlds, candidate tables) the same answers take a closed form, checked
  against ``worlds`` on a small table in every run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.core.worlds import worlds
from repro.io import parsed_morphism, value_to_json
from repro.values.values import Atom, OrSetValue, SetValue, vorset, vpair, vset


@dataclass
class Op:
    """One operation: a stratum, a program, its inputs and expected answers.

    Inputs are kept as JSON text, which the garbage collector does not
    traverse and which takes a fraction of the memory of decoded JSON:
    the benchmark's own data must not swamp the program's peak RSS or
    slow its collections.  Answers are kept as digests, except the
    ``possible`` answers, which are compared as Values.
    """

    stratum: str
    program: str
    kind: str  # "run" (a batch call), "count", "certain" or "possible"
    texts: list[str]
    expected: list = field(default_factory=list)
    value: object = None  # the decoded input of a "possible" query

    @property
    def items(self) -> int:
        return len(self.texts)

    def inputs(self) -> list:
        return [json.loads(t) for t in self.texts]


def _text(v) -> str:
    return json.dumps(value_to_json(v))


def digest(data) -> str:
    """A short stand-in for a JSON answer, so answers need not stay in memory."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


# -- input shapes -------------------------------------------------------------


def design(width: int, base: int):
    """A Section 4 design: ``({<a_i, b_i> : i <= width}, <c, d>)``, 2^(width+1) worlds."""
    return vpair(
        vset(*(vorset(base + 10 * i, base + 10 * i + 5) for i in range(1, width + 1))),
        vorset(base + 1, base + 2),
    )


def tight_family(k: int, base: int):
    """Theorem 6.5's tight family: k disjoint three-way or-sets, 3^k worlds."""
    return vset(*(vorset(base + 3 * i, base + 3 * i + 1, base + 3 * i + 2) for i in range(k)))


def pair_family(members: int, width: int, base: int):
    """A set of or-sets of pairs — the input of ``ormap(map(pi_1)) o alpha``."""
    return vset(
        *(
            vorset(*(vpair(base + 100 * i + 2 * j, base + 100 * i + 2 * j + 1) for j in range(width)))
            for i in range(members)
        )
    )


def atoms(n: int, base: int):
    return vset(*(Atom("int", base + i) for i in range(n)))


def candidate_table(keys: int, base: int):
    """Keys mapped to or-sets of two candidates, plus two keys with one.

    The two single-candidate rows make the certain answer non-empty.
    """
    rows = [
        vpair(Atom("string", f"k{base}_{i}"), vorset(base + 10 * i, base + 10 * i + 1))
        for i in range(keys)
    ]
    rows += [
        vpair(Atom("string", f"s{base}_{i}"), vorset(base + 10 * (keys + i)))
        for i in range(2)
    ]
    return vset(*rows)


def shared_family(members: int, base: int):
    """Three-way or-sets over ``members + 2`` atoms, so choices collide.

    Member i holds atoms i, i + 1 and i + 3 (mod the domain): a fixed
    pattern, so every seed gives the same number of distinct worlds.
    """
    domain = members + 2
    return vset(
        *(vorset(*(base + (i + d) % domain for d in (0, 1, 3))) for i in range(members))
    )


# -- reference answers ----------------------------------------------------------


def oracle_normal_form(x):
    return OrSetValue(worlds(x))


def oracle_run(program: str, x):
    if program == "normalize":
        return oracle_normal_form(x)
    if program == "map(normalize)":
        return SetValue(oracle_normal_form(e) for e in x.elems)
    if program == "ormap(normalize)":
        return OrSetValue(oracle_normal_form(e) for e in x.elems)
    if set(program.split(" o ")) == {"map(id)"}:
        return x  # id is the identity: skip rebuilding a 2000-element set thrice
    return parsed_morphism(program)(x)


def _world_elements(x) -> list[frozenset]:
    return [frozenset(w.elems) for w in worlds(x)]


def _member_worlds(m) -> list:
    """Worlds of one member of a disjoint family: an or-set or (key, or-set)."""
    if isinstance(m, OrSetValue):
        return list(m.elems)
    return [vpair(m.fst, c) for c in m.snd.elems]


def oracle_world_query(kind: str, x, disjoint: bool):
    """count / certain / possible of ``normalize`` over the set *x*.

    *disjoint* marks a set whose members share no atom (tight families,
    candidate tables).  Then a world picks one world of every member, an
    element lies in every world iff it is the only world of its member,
    and in some world iff it is a world of some member; so the answers
    take a closed form instead of listing up to ``3**19`` worlds.
    Elsewhere they are the intersection and union over ``worlds(x)``.
    """
    if disjoint:
        members = [_member_worlds(m) for m in x.elems]
        if kind == "count":
            count = 1
            for m in members:
                count *= len(m)
            return {"count": count}
        if kind == "certain":
            return SetValue(m[0] for m in members if len(m) == 1)
        return SetValue(w for m in members for w in m)
    elems = _world_elements(x)
    if kind == "count":
        return {"count": len(elems)}
    if kind == "certain":
        return SetValue(frozenset.intersection(*elems))
    return SetValue(frozenset.union(*elems))


def check_closed_form(rng: random.Random) -> None:
    """The closed form must agree with listing the worlds (on a small table)."""
    x = candidate_table(6, _bases(rng, 1)[0])
    for kind in ("count", "certain", "possible"):
        if oracle_world_query(kind, x, True) != oracle_world_query(kind, x, False):
            raise AssertionError(f"closed-form {kind} disagrees with worlds()")


# -- schedules -----------------------------------------------------------------


def _bases(rng: random.Random, n: int) -> list[int]:
    """n distinct atom offsets, far enough apart that inputs never share atoms."""
    return [10_000 * b for b in rng.sample(range(1, 1_000_000), n)]


def _run_op(stratum: str, program: str, values: list) -> Op:
    return Op(
        stratum, program, "run", [_text(v) for v in values],
        [digest(value_to_json(oracle_run(program, v))) for v in values],
    )


#: serve-mix: the pool every request draws from — (stratum, program, op, entries).
SERVE_POOL = (
    ("normalize", "normalize", "run", 9),
    ("alpha_pi1", "ormap(map(pi_1)) o alpha", "run", 9),
    ("map_id", "map(id)", "run", 9),
    ("count", "normalize", "count", 9),
)


def serve_pool(seed: int) -> list[Op]:
    """The fixed pool of small serve-mix inputs (one value per entry).

    The pool is small, so its answers are kept whole: the load generator
    compares replies with them.
    """
    rng = random.Random(f"serve-mix:{seed}")
    pool: list[Op] = []
    for stratum, program, kind, entries in SERVE_POOL:
        bases = _bases(rng, entries)
        for i, base in enumerate(bases):
            if stratum == "normalize":
                v = design(3 + i % 3, base)
            elif stratum == "alpha_pi1":
                v = pair_family(3, 2 + i % 2, base)
            elif stratum == "map_id":
                v = atoms(64, base)
            else:
                v = tight_family(6 + i % 3, base)
            if kind == "count":
                answer = {"count": 3 ** (6 + i % 3), "approximate": False}
            else:
                answer = value_to_json(oracle_run(program, v))
            pool.append(Op(stratum, program, kind, [_text(v)], [answer]))
    return pool


def serve_sequence(seed: int, pool: list[Op], requests: int) -> list[int]:
    """Pool indices of *requests* requests: equal per stratum, then shuffled."""
    rng = random.Random(f"serve-mix-order:{seed}")
    by_stratum: dict[str, list[int]] = {}
    for i, op in enumerate(pool):
        by_stratum.setdefault(op.stratum, []).append(i)
    per = requests // len(by_stratum)
    sequence = []
    for indices in by_stratum.values():
        sequence += [indices[j % len(indices)] for j in range(per)]
    rng.shuffle(sequence)
    return sequence


#: batch-mix round: (stratum, program, calls per round, inputs per call).
#: Calls per round weight the strata to comparable shares of time.
BATCH_ROUND = (
    ("normalize", "normalize", 16, 3),
    ("map_normalize", "map(normalize)", 1, 2),
    ("ormap_normalize", "ormap(normalize)", 2, 2),
    ("map_alpha", "map(alpha)", 9, 2),
    ("map_id3", "map(id) o map(id) o map(id)", 20, 4),
)

_NORMALIZE_WIDTHS = ((5, 6, 7), (6, 7, 8), (5, 6, 8), (5, 7, 8))


def _batch_value(stratum: str, call: int, slot: int, rng: random.Random, small: bool = False):
    """One input; *small* shrinks it for warm-up while keeping its route."""
    if stratum == "normalize":
        return design(3 if small else _NORMALIZE_WIDTHS[call % 4][slot], _bases(rng, 1)[0])
    if stratum == "map_normalize":
        return vset(*(design(2 if small else 6, b) for b in _bases(rng, 48)))
    if stratum == "ormap_normalize":
        return vorset(*(design(2 if small else 5, b) for b in _bases(rng, 40)))
    if stratum == "map_alpha":
        return vset(
            *(
                vset(*(vorset(b + 2 * i, b + 2 * i + 1) for i in range(2 + j % 2)))
                for j, b in enumerate(_bases(rng, 40 if small else 200))
            )
        )
    return atoms(2000, _bases(rng, 1)[0])


def _batch_stratum(seed: int, round_: int, index: int) -> list[Op]:
    """The calls of one stratum in one round (a unit of parallel generation)."""
    stratum, program, calls, per_call = BATCH_ROUND[index]
    rng = random.Random(f"batch-mix:{seed}:{round_}:{stratum}")
    return [
        _run_op(stratum, program, [_batch_value(stratum, call, s, rng) for s in range(per_call)])
        for call in range(calls)
    ]


def batch_units(rounds: int) -> list[tuple[int, int]]:
    """(round, stratum index) of every unit of generation, in order."""
    return [(r, i) for r in range(rounds) for i in range(len(BATCH_ROUND))]


def batch_ops(seed: int, rounds: int, built: list | None = None) -> list[Op]:
    """*rounds* rounds of fresh, distinct batch-mix calls in seeded order.

    *built* holds the calls of every unit of :func:`batch_units` when
    they were made elsewhere (``run.py`` makes them in two processes).
    """
    if built is None:
        built = [_batch_stratum(seed, r, i) for r, i in batch_units(rounds)]
    ops = [op for part in built for op in part]
    random.Random(f"batch-mix:{seed}").shuffle(ops)
    return ops


def batch_call(stratum: str, rng: random.Random) -> Op:
    """One fresh call of a batch-mix stratum (the regret matrix times these)."""
    for name, program, _calls, per_call in BATCH_ROUND:
        if name == stratum:
            return _run_op(stratum, program, [_batch_value(stratum, 0, s, rng) for s in range(per_call)])
    raise KeyError(stratum)


def batch_warmup() -> list[Op]:
    """One small call per batch-mix stratum, routed like the real ones."""
    rng = random.Random("batch-mix:warm-up")
    return [
        _run_op(stratum, program, [_batch_value(stratum, 0, s, rng, True) for s in range(2)])
        for stratum, program, _calls, _per in BATCH_ROUND
    ]


#: world-queries round: (stratum, sizes); every size is asked count,
#: certain and possible once per round.
WORLD_ROUND = (
    ("tight", (12, 13, 14, 15, 16, 17, 18, 19)),
    ("table", (8, 9, 10, 11)),
    ("shared", (4, 5, 6, 4, 5, 6)),
)
WORLD_KINDS = ("count", "certain", "possible")


def _world_value(stratum: str, size: int, rng: random.Random):
    base = _bases(rng, 1)[0]
    if stratum == "tight":
        return tight_family(size, base)
    if stratum == "table":
        return candidate_table(size, base)
    return shared_family(size, base)


def _world_op(stratum: str, size: int, kind: str, rng: random.Random) -> Op:
    v = _world_value(stratum, size, rng)
    op = Op(f"{stratum}.{kind}", "normalize", kind, [_text(v)])
    answer = oracle_world_query(kind, v, disjoint=stratum != "shared")
    # engine.possible answers a Value, compared as one; the JSON answers
    # of count_worlds_json and certain_json are compared by digest.
    if kind == "count":
        op.expected = [digest(answer["count"])]
    elif kind == "certain":
        op.expected = [digest(value_to_json(answer))]
    else:
        op.expected = [answer]
        op.value = v
    return op


def world_ops(seed: int, rounds: int) -> list[Op]:
    """*rounds* rounds of world queries over fresh inputs, in seeded order."""
    rng = random.Random(f"world-queries:{seed}")
    check_closed_form(rng)
    ops = [
        _world_op(stratum, size, kind, rng)
        for _ in range(rounds)
        for stratum, sizes in WORLD_ROUND
        for size in sizes
        for kind in WORLD_KINDS
    ]
    rng.shuffle(ops)
    return ops


def world_warmup() -> list[Op]:
    """One query of each kind on the smallest input of each shape."""
    rng = random.Random("world-queries:warm-up")
    return [
        _world_op(stratum, min(sizes), kind, rng)
        for stratum, sizes in WORLD_ROUND
        for kind in WORLD_KINDS
    ]
