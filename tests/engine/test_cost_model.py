"""Tests for the cost model: estimator soundness, plan annotation,
cost-guided pass scheduling and adaptive backend selection."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import engine, io
from repro.core.costs import (
    estimate_m_value,
    estimate_normalized_size,
    m_value,
    normalized_size,
    prop61_bound,
    tight_family,
)
from repro.core.normalize import Normalize
from repro.engine import BACKENDS, Engine, cost_model
from repro.engine.cost_model import (
    FUSED_MIN_SPINE,
    SHARD_BREAK_EVEN_WORK,
    SMALL_WORLDS,
    STREAM_NORM_SIZE,
    WIDE_SPINE,
    estimate_morphism_cost,
    estimate_value,
    plan_profile,
    select_backend,
)
from repro.engine.passes import (
    CONDITIONALS,
    LATE_NORMALIZE,
    Pipeline,
    default_pipeline,
    operator_census,
)
from repro.engine.plan import compile_plan
from repro.engine.symbolic import plan_supports_symbolic
from repro.gen import random_orset_value
from repro.io import value_to_json
from repro.lang.morphisms import Compose, Cond, Id, Proj1, Proj2
from repro.lang.orset_ops import OrMap, OrMu, OrToSet, SetToOr
from repro.lang.set_ops import SetMap, SetMu
from repro.morphgen import random_lossless_morphism
from repro.types.parse import parse_type
from repro.values.values import Atom, vorset, vpair, vset

from tests.engine.test_columnar import DOUBLE, FUSED_CHAIN

#: Streamable spines: the selector's streaming and short-circuit routes.
STREAMABLE_SPINES = (
    Compose(SetMu(), SetMap(OrToSet())),
    Compose(OrMap(Normalize()), SetToOr()),
    Compose(OrMap(Id()), SetToOr()),
)

#: A wide set of two-member or-set families.
WIDE_FAMILIES = vset(
    *(vset(vorset(4 * i, 4 * i + 1), vorset(4 * i + 2, 4 * i + 3)) for i in range(WIDE_SPINE + 8))
)

#: The registries the selector is asked about: eager only, the two
#: backends every engine has, and everything registered (process too).
REGISTRIES = (
    frozenset({"eager"}),
    frozenset({"eager", "streaming"}),
    frozenset(BACKENDS),
)


def full_tree_route(plan, value, *, existential, world_query, available) -> str:
    """The selector's decision tree as it stood before it read the plan
    first, minus its process branch: every input is estimated."""
    names = available
    if world_query and "symbolic" in names and plan_supports_symbolic(plan):
        return "symbolic"
    est = estimate_value(value)
    profile = plan_profile(plan)
    if (
        existential
        and est.worlds > SMALL_WORLDS
        and profile.spine_stages >= 1
        and "streaming" in names
    ):
        return "streaming"
    if est.worlds <= SMALL_WORLDS and (est.width or 0) < WIDE_SPINE:
        return "eager"
    if profile.spine_maps >= 1 and est.width is not None and est.width >= WIDE_SPINE:
        if est.norm_size // max(1, est.width) < SHARD_BREAK_EVEN_WORK:
            if (
                profile.fused_stages >= 1
                and est.width >= FUSED_MIN_SPINE
                and "fused" in names
            ):
                return "fused"
            return "eager"
    if (
        profile.spine_stages >= 2
        and est.norm_size > STREAM_NORM_SIZE
        and "streaming" in names
    ):
        return "streaming"
    return "eager"


@st.composite
def routed_calls(draw):
    """A (program, value) pair: random, tight-family or flat inputs under
    random lossless programs, the streamable spines, the fused chain or
    a single fusible map."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    shape = draw(st.sampled_from(("random", "tight", "flat")))
    if shape == "random":
        value, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
    elif shape == "tight":
        value, t = tight_family(draw(st.integers(1, 80)))
    else:
        value = vset(*range(draw(st.integers(0, 600))))
        t = parse_type("{int}")
    program = draw(st.sampled_from((None, FUSED_CHAIN, SetMap(DOUBLE), *STREAMABLE_SPINES)))
    if program is None:
        program, _ = random_lossless_morphism(t, rng, depth=4)
    return program, value


class TestEstimatorSoundness:
    """The static estimator must be a sound upper bound on the measured
    Section 6 quantities — checked against full normalization."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_estimate_bounds_m_value(self, seed):
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        assert estimate_m_value(v) >= m_value(v, t), str(v)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_estimate_bounds_normalized_size(self, seed):
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=3, min_width=0)
        assert estimate_normalized_size(v) >= normalized_size(v, t), str(v)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_estimate_at_most_prop61(self, seed):
        """The combined bound never exceeds Proposition 6.1's cap."""
        from repro.values.measure import has_orset

        rng = random.Random(seed)
        v, _t = random_orset_value(rng, max_depth=3, max_width=3, min_width=1)
        if has_orset(v):
            assert estimate_m_value(v) <= prop61_bound(v)

    def test_exact_on_tight_family(self):
        """Theorem 6.5's witnesses: the estimate is not just sound but
        exact — m = 3^k worlds of k atoms each."""
        for k in range(1, 6):
            x, t = tight_family(k)
            est = estimate_value(x)
            assert est.worlds == 3**k == m_value(x, t)
            assert est.norm_size == k * 3**k == normalized_size(x, t)
            assert est.size == 3 * k
            assert est.width == k

    def test_estimation_never_normalizes(self, monkeypatch):
        """The acceptance guard: estimating must not call the
        normalization machinery at all."""
        import sys

        # `repro.core` re-exports a `normalize` *function*, shadowing the
        # submodule attribute — go through sys.modules for the module.
        normalize_mod = sys.modules["repro.core.normalize"]

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("estimator called the normalizer")

        monkeypatch.setattr(normalize_mod, "normalize", boom)
        monkeypatch.setattr(normalize_mod, "normalize_with_trace", boom)
        monkeypatch.setattr(normalize_mod, "possibilities", boom)
        x, _t = tight_family(5)
        assert estimate_value(x).worlds == 3**5
        assert estimate_m_value(vpair(vorset(1, 2), vset(vorset(3, 4)))) == 4

    def test_empty_orset_means_no_worlds(self):
        assert estimate_m_value(vpair(1, vorset())) == 0
        assert estimate_m_value(vset()) == 1  # the empty set is one world


class TestSharedTraversal:
    def test_m_value_and_normalized_size_share_one_normalization(self):
        from repro.core.costs import normalization_measures

        normalization_measures.cache_clear()
        x, t = tight_family(3)
        assert m_value(x, t) == 27
        assert normalized_size(x, t) == 81
        info = normalization_measures.cache_info()
        assert info.misses == 1 and info.hits == 1


class TestPlanAnnotation:
    def test_explain_with_value_shows_estimates_and_backend(self):
        out = engine.explain(
            Normalize(), value=vset(vorset(1, 2), vorset(3, 4))
        )
        assert "~worlds<=4" in out
        assert "backend: eager" in out

    def test_settoor_annotation_accounts_for_disjunction(self):
        # settoor turns a k-member set into a k-way disjunction; the
        # annotation must not carry the set's world count through.
        plan = compile_plan(SetToOr())
        est = plan.annotate_estimates(vset(1, 2, 3))
        assert est.worlds >= 3

    def test_annotate_estimates_on_chain(self):
        q = Compose(OrMap(Id()), SetToOr())
        plan = compile_plan(q)
        x, t = tight_family(4)
        root_est = plan.annotate_estimates(x)
        # The root prediction stays above the output's true world count.
        assert root_est.worlds >= m_value(q(x))
        assert plan.nodes[plan.root].est_worlds == root_est.worlds


class TestBackendSelection:
    def test_small_inputs_stay_eager(self):
        plan = compile_plan(OrMap(Id()))
        choice = select_backend(plan, vorset(1, 2))
        assert choice.backend == "eager"

    def test_existential_blowup_streams(self):
        x, _t = tight_family(SMALL_WORLDS)  # 3^64 estimated worlds
        plan = compile_plan(Compose(OrMap(Normalize()), SetToOr()))
        choice = select_backend(plan, x, existential=True)
        assert choice.backend == "streaming"

    def test_wide_spine_streams_without_process(self):
        # Without a process backend to shard across, a wide spine with a
        # large estimated normal form runs lazily.
        x, _t = tight_family(WIDE_SPINE + 8)
        plan = compile_plan(Compose(SetMu(), SetMap(OrToSet())))
        choice = select_backend(plan, x)
        assert choice.backend == "streaming"

    def test_profile_counts_spine_stages(self):
        plan = compile_plan(Compose(SetMu(), SetMap(OrToSet())))
        profile = plan_profile(plan)
        assert profile.spine_maps == 1
        assert profile.spine_stages == 2  # map(ortoset) then mu

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_auto_matches_every_backend(self, seed):
        """The regression gate: adaptive selection must return results
        structurally equal to the fixed in-process backends."""
        rng = random.Random(seed)
        v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
        f, _ = random_lossless_morphism(t, rng, depth=4)
        eng = Engine()
        auto = eng.run(f, v, backend="auto")
        for name in ("eager", "streaming"):
            assert eng.run(f, v, backend=name) == auto, (name, f.describe())

    def test_auto_is_the_default(self):
        x, _t = tight_family(3)
        eng = Engine()
        assert eng.run(Normalize(), x) == eng.run(
            Normalize(), x, backend="eager"
        )

    def test_choose_backend_reports_reason(self):
        eng = Engine()
        choice = eng.choose_backend(OrMap(Id()), vorset(1, 2))
        assert choice.backend == "eager"
        assert choice.reason

    @settings(max_examples=300, deadline=None)
    @given(
        call=routed_calls(),
        existential=st.booleans(),
        world_query=st.booleans(),
        available=st.sampled_from(REGISTRIES),
    )
    @example(  # one fusible map over a wide flat set: fused
        call=(SetMap(DOUBLE), vset(*range(500))),
        existential=False,
        world_query=False,
        available=REGISTRIES[2],
    )
    @example(  # a one-stage spine streams only for an existential consumer
        call=(STREAMABLE_SPINES[1], tight_family(SMALL_WORLDS)[0]),
        existential=True,
        world_query=False,
        available=REGISTRIES[1],
    )
    def test_route_matches_the_full_tree(self, call, existential, world_query, available):
        """Routing a plan eager without its estimate changes no decision:
        the selector agrees with the tree that estimates every input."""
        program, value = call
        plan = compile_plan(default_pipeline().run(program))
        flags = {
            "existential": existential,
            "world_query": world_query,
            "available": available,
        }
        choice = select_backend(plan, value, **flags)
        assert choice.backend == full_tree_route(plan, value, **flags), (
            program.describe(),
            choice,
        )


class TestEstimateOnlyWhenRead:
    """The selector walks an input only when the plan leaves the estimate
    a route to choose."""

    @pytest.fixture
    def estimates(self, monkeypatch):
        calls: list = []
        unpatched = cost_model.estimate_value

        def counting(value):
            calls.append(value)
            return unpatched(value)

        monkeypatch.setattr(cost_model, "estimate_value", counting)
        return calls

    @pytest.mark.parametrize(
        "program, values",
        [
            ("normalize", [tight_family(6)[0], tight_family(7)[0]]),
            ("map(normalize)", [WIDE_FAMILIES]),
            ("ormap(normalize)", [vorset(*WIDE_FAMILIES.elems)]),
            ("map(alpha)", [WIDE_FAMILIES, vset(vset(vorset(1, 2)))]),
            (
                "map(id) o map(id) o map(id)",
                [vset(*(Atom("int", i) for i in range(500))), vset(1, 2)],
            ),
        ],
    )
    def test_batch_strata_route_without_estimating(self, estimates, program, values):
        inputs = [value_to_json(v) for v in values]
        out = io.run_json_many(program, inputs, backend="auto")
        assert estimates == []
        assert out == io.run_json_many(program, inputs, backend="eager")

    def test_fused_chain_estimates_once_per_input(self, estimates):
        xs = [vset(*range(500)), vset(*range(1, 501))]
        eng = Engine()
        out = eng.run_many(FUSED_CHAIN, xs + xs[:1])
        assert len(estimates) == 2
        assert out == [FUSED_CHAIN(x) for x in xs + xs[:1]]
        assert eng.choose_backend(FUSED_CHAIN, xs[0]).backend == "fused"

    def test_existential_stream_estimates_once(self, estimates):
        x, _t = tight_family(SMALL_WORLDS)
        q = Compose(OrMap(Normalize()), SetToOr())
        eng = Engine()
        first = next(iter(eng.possibilities(q, x)))
        assert len(estimates) == 1
        assert first == next(iter(eng.possibilities(q, x, backend="eager")))


class TestCostGuidedScheduling:
    def test_census_skips_irrelevant_passes(self):
        m = Compose(SetMap(Proj1()), SetMap(Proj2()))
        present = operator_census(m)
        assert not CONDITIONALS.relevant(present)
        assert Cond in operator_census(Cond(Proj1(), Proj1(), Proj2()))

    def test_run_matches_fixed_order_semantics(self):
        rng = random.Random(7)
        for _ in range(25):
            v, t = random_orset_value(rng, max_depth=3, max_width=2, min_width=1)
            f, _ = random_lossless_morphism(t, rng, depth=4)
            guided = default_pipeline().run(f)
            fixed = default_pipeline().run_fixed_order(f)
            assert guided(v) == fixed(v) == f(v), f.describe()

    def test_budget_zero_is_identity(self):
        m = Compose(Id(), Compose(SetMap(Proj1()), SetMap(Proj2())))
        pipeline = Pipeline(budget=0)
        assert pipeline.run(m) == m
        assert pipeline.fired == []

    def test_budget_caps_rule_applications(self):
        m = Compose(Id(), Compose(SetMap(Proj1()), SetMap(Proj2())))
        pipeline = Pipeline(budget=1)
        pipeline.run(m)
        assert len(pipeline.fired) == 1

    def test_schedule_records_cost_deltas(self):
        pipeline = default_pipeline()
        pipeline.run(Compose(Id(), SetMap(Id())))
        assert pipeline.schedule
        for _label, before, after in pipeline.schedule:
            assert after <= before

    def test_weighted_cost_ranks_normalize_heaviest(self):
        assert estimate_morphism_cost(Normalize()) > estimate_morphism_cost(
            Compose(SetMap(Proj1()), SetMu())
        )

    def test_cost_scales_with_input_worlds(self):
        x, _t = tight_family(20)
        big = estimate_morphism_cost(Normalize(), estimate_value(x))
        small = estimate_morphism_cost(Normalize(), estimate_value(vorset(1)))
        assert big > small


class TestLateNormalization:
    def test_drops_elementwise_prenormalization(self):
        m = Compose(Normalize(), SetMap(Normalize()))
        out = LATE_NORMALIZE.run(m)
        assert out == Normalize()
        v = vset(vpair(1, vorset(1, 2)), vpair(3, vorset(4, 5)))
        assert out(v) == m(v)

    def test_delays_normalize_past_or_mu(self):
        t = parse_type("<int>")
        m = Compose(OrMu(), OrMap(Normalize(t)))
        out = LATE_NORMALIZE.run(m)
        assert out == Compose(Normalize(t), OrMu())
        v = vorset(vorset(1, 2), vorset(2, 3))
        assert out(v) == m(v)

    def test_untyped_normalize_not_moved_past_mu(self):
        # Without a declared or-set input type the rewritten or_mu could
        # receive a non-or-set element type, so the rule must not fire.
        m = Compose(OrMu(), OrMap(Normalize()))
        assert LATE_NORMALIZE.run(m) == m

    def test_in_default_pipeline(self):
        m = Compose(Normalize(), OrMap(Normalize()))
        assert default_pipeline().run(m) == Normalize()

