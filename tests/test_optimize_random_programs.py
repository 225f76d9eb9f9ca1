"""Optimizer soundness over randomly generated well-typed programs.

`tests/lang/test_optimize.py` checks each rule on hand-picked shapes;
here the program space is the random Theorem 5.1-eligible class from
:mod:`repro.morphgen` — arbitrary compositions of maps, monad operators
and the interaction combinators — so any unsound rule interaction shows
up as an output mismatch.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.passes import DEFAULT_PASSES, default_pipeline
from repro.gen import random_orset_value, random_value
from repro.lang.optimize import cost, optimize
from repro.morphgen import random_lossless_morphism


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_optimized_random_programs_agree(seed):
    rng = random.Random(seed)
    v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
    f, _ = random_lossless_morphism(t, rng, depth=4)
    opt = optimize(f)
    assert opt(v) == f(v), (f.describe(), opt.describe(), str(v))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_optimize_never_grows_random_programs(seed):
    rng = random.Random(seed)
    _v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
    f, _ = random_lossless_morphism(t, rng, depth=4)
    assert cost(optimize(f)) <= cost(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_optimize_is_idempotent_on_random_programs(seed):
    rng = random.Random(seed)
    _v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
    f, _ = random_lossless_morphism(t, rng, depth=4)
    once = optimize(f)
    assert optimize(once) == once


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_every_pass_and_pipeline_preserve_semantics(seed):
    """Each optimizer pass alone — and the full default pipeline — agrees
    with the direct interpreter on random Theorem 5.1-eligible programs."""
    rng = random.Random(seed)
    v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
    f, _ = random_lossless_morphism(t, rng, depth=4)
    expected = f(v)
    for pipeline_pass in DEFAULT_PASSES:
        rewritten = pipeline_pass.run(f)
        assert rewritten(v) == expected, (pipeline_pass.name, f.describe())
    assert default_pipeline().run(f)(v) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_engine_run_agrees_with_direct_interpreter(seed):
    """engine.run (both backends, interned or not) matches direct p(v)."""
    rng = random.Random(seed)
    v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
    f, _ = random_lossless_morphism(t, rng, depth=4)
    expected = f(v)
    eng = Engine()
    assert eng.run(f, v) == expected
    assert eng.run(f, v, backend="streaming") == expected
    assert eng.run(f, v, optimize=False) == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_optimized_programs_agree_on_orset_free_inputs(seed):
    from repro.gen import random_type

    rng = random.Random(seed)
    t = random_type(rng, max_depth=3, allow_orset=False)
    v = random_value(t, rng, max_width=2, min_width=0)
    f, _ = random_lossless_morphism(t, rng, depth=4)
    assert optimize(f)(v) == f(v)
