"""Differential conformance suite: every registered backend must agree.

This is the gate any future backend must pass.  The harness enumerates
the engine's backend registry *dynamically* — eager, streaming,
process, fused, symbolic and the adaptive ``"auto"`` today; anything registered
tomorrow is covered without editing this file — and drives every backend
over the same Hypothesis-generated programs and inputs, asserting

* structurally identical results (the direct interpreter ``f(v)`` is the
  ground truth, so a bug shared by all backends still fails);
* identical ``possibilities`` semantics: the same *set* of conceptual
  worlds, and a well-defined short-circuit prefix — taking one witness
  yields a member of that set without exhausting (or erroring on) the
  stream;
* identical error behavior on ill-typed program/input pairs.

The process backend runs with a forced 2-worker pool and a tiny
``min_shard`` so shards genuinely cross the process boundary even on
single-core CI runners.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalize import Normalize
from repro.engine import BACKENDS, Backend, Engine, ProcessBackend
from repro.errors import OrNRATypeError
from repro.gen import random_orset_value
from repro.lang.morphisms import Compose, Id, PairOf
from repro.lang.orset_ops import OrMap, OrToSet, SetToOr
from repro.lang.primitives import plus
from repro.lang.set_ops import SetMap, SetMu
from repro.morphgen import random_lossless_morphism
from repro.values.values import vorset, vset

from tests.strategies import design, typed_orset_values

# One engine for the whole module so the plan cache and the process
# pool are shared across examples (workers start once).
ENGINE = Engine()
ENGINE.backends["process"] = ProcessBackend(max_workers=2, min_shard=2)

#: Every registered backend plus the adaptive selector.  Reading the
#: registry off the engine means a backend added to BACKENDS in any
#: imported module is automatically under test.
ALL_BACKENDS = sorted(ENGINE.backends) + ["auto"]

DOUBLE = Compose(plus(), PairOf(Id(), Id()))


def test_registry_is_complete():
    # The suite's premise: all the fixed engine backends are registered.
    for expected in (
        "eager", "streaming", "process", "fused", "symbolic",
    ):
        assert expected in BACKENDS, f"backend {expected!r} lost from the registry"
        assert isinstance(BACKENDS[expected], Backend)


class TestResultConformance:
    @settings(max_examples=30, deadline=None)
    @given(
        typed_orset_values(max_depth=3, max_width=3, min_width=1),
        st.integers(0, 100_000),
    )
    def test_every_backend_matches_the_interpreter(self, pair, seed):
        value, t = pair
        f, _ = random_lossless_morphism(t, random.Random(seed), depth=4)
        reference = f(value)
        for name in ALL_BACKENDS:
            assert ENGINE.run(f, value, backend=name) == reference, (
                name,
                f.describe(),
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_morphgen_programs_agree(self, seed):
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
        f, _ = random_lossless_morphism(t, rng, depth=5)
        reference = f(v)
        results = {name: ENGINE.run(f, v, backend=name) for name in ALL_BACKENDS}
        mismatched = {n for n, r in results.items() if r != reference}
        assert not mismatched, (sorted(mismatched), f.describe())

    def test_wide_sharded_spine_agrees(self):
        # Wide enough that both sharded backends genuinely chunk, with a
        # mu + map + arithmetic spine (the CPU-bound serving shape).
        q = Compose(SetMap(DOUBLE), Compose(SetMu(), SetMap(OrToSet())))
        x = vset(*(vorset(10 * i, 10 * i + 1) for i in range(64)))
        reference = q(x)
        for name in ALL_BACKENDS:
            assert ENGINE.run(q, x, backend=name) == reference, name

    def test_run_many_conformance(self):
        q = Compose(SetMu(), SetMap(OrToSet()))
        batch = [vset(vorset(i, i + 1), vorset(i + 2)) for i in range(6)] * 2
        # map(normalize) over sets of designs: overlapping windows repeat
        # a design across inputs and the batch repeats whole inputs (on
        # process, the distinct inputs run in the workers).
        designs = [design(4, base=100 * b) for b in range(4)]
        design_batch = [vset(*designs[i : i + 2]) for i in range(3)] * 2
        for program, values in ((q, batch), (SetMap(Normalize()), design_batch)):
            reference = [program(v) for v in values]
            for name in ALL_BACKENDS:
                results = ENGINE.run_many(program, values, backend=name)
                assert results == reference, (name, program.describe())


class TestPossibilitiesConformance:
    @settings(max_examples=20, deadline=None)
    @given(
        typed_orset_values(max_depth=3, max_width=2, min_width=1),
        st.integers(0, 100_000),
    )
    def test_same_world_set_on_every_backend(self, pair, seed):
        value, t = pair
        f, _ = random_lossless_morphism(t, random.Random(seed), depth=3)
        expected = set(ENGINE.possibilities(f, value, backend="eager"))
        for name in ALL_BACKENDS:
            worlds = set(ENGINE.possibilities(f, value, backend=name))
            assert worlds == expected, (name, f.describe())

    def test_short_circuit_prefix_is_a_member_everywhere(self):
        # The existential consumer contract: taking one witness off the
        # stream must succeed and belong to the common world set, on
        # every backend (streaming does it lazily; the others after
        # materializing — the observable behavior is identical).
        q = Compose(OrMap(Id()), SetToOr())
        x = vset(*(vorset(2 * i, 2 * i + 1) for i in range(8)))
        expected = set(ENGINE.possibilities(q, x, backend="eager"))
        for name in ALL_BACKENDS:
            stream = ENGINE.possibilities(q, x, backend=name)
            first = next(iter(stream))
            assert first in expected, name


class TestErrorConformance:
    def test_type_errors_agree(self):
        # An ill-typed program/input pair raises OrNRATypeError on every
        # backend — including from inside process-pool workers.
        q = SetMap(plus())
        x = vset(*range(40))
        for name in ALL_BACKENDS:
            with pytest.raises(OrNRATypeError):
                ENGINE.run(q, x, backend=name)

    def test_kind_mismatch_agrees(self):
        q = SetMu()
        x = vorset(1, 2, 3)
        for name in ALL_BACKENDS:
            with pytest.raises(OrNRATypeError):
                ENGINE.run(q, x, backend=name)
