"""Tests for the cost model's operator features (:mod:`repro.engine.cost_model`).

``estimate_morphism_cost`` is exactly the dot product of
:func:`operator_features` with :data:`OPERATOR_COSTS`, and an input's
shape scales only the expansion-class features.
"""

from __future__ import annotations

from repro.engine.cost_model import (
    OPERATOR_CLASSES,
    OPERATOR_COSTS,
    estimate_morphism_cost,
    estimate_value,
    operator_features,
)
from repro.io import parsed_morphism
from repro.values.values import vorset


def features_of(program: str, value=None):
    shape = estimate_value(value) if value is not None else None
    return operator_features(parsed_morphism(program), shape)


class TestFeaturesAndLinearity:
    def test_feature_classes_partition_the_operator_count(self):
        m = parsed_morphism("map(normalize) o alpha o mu")
        features = operator_features(m)
        assert set(features) == set(OPERATOR_CLASSES)
        assert features["expansion"] >= 1  # normalize
        assert features["alpha"] >= 1
        assert features["traversal"] >= 1  # map
        assert sum(features.values()) > 0

    def test_shape_scales_expansion_classes_only(self):
        wide = vorset(*range(64))
        flat = features_of("map(normalize) o alpha o mu")
        scaled = features_of("map(normalize) o alpha o mu", wide)
        bits = estimate_value(wide).worlds.bit_length()
        assert scaled["expansion"] == flat["expansion"] * bits
        assert scaled["alpha"] == flat["alpha"] * bits
        assert scaled["traversal"] == flat["traversal"]
        assert scaled["other"] == flat["other"]

    def test_cost_is_dot_product_of_features_and_table(self):
        for program in ("normalize", "map(id)", "map(normalize) o mu"):
            m = parsed_morphism(program)
            features = operator_features(m)
            dot = sum(features[k] * OPERATOR_COSTS[k] for k in OPERATOR_CLASSES)
            assert estimate_morphism_cost(m) == max(1, round(dot))
