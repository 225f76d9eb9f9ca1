"""Every node carries the sort key its definition computes.

Nodes store their keys when they are built, each from its children's
keys, and pickles leave the keys out.  These tests compare every node of
values built every way the program builds them with
:func:`tests.keys.reference_sort_key`, which reads no stored key.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

from repro.core.normalize import normalize
from repro.io import value_from_json, value_to_json
from repro.lang.orset_ops import Alpha
from repro.lang.parser import parse_value
from repro.types.kinds import OrSetType, SetType
from repro.values.values import (
    TRUE,
    UNIT_VALUE,
    Atom,
    UnitValue,
    format_value,
    sort_key,
    vbag,
    vinl,
    vinr,
    vorset,
    vpair,
    vset,
)

from tests.keys import nodes, reference_sort_key
from tests.strategies import object_types, typed_values, value_of


def assert_reference_keys(value):
    for node in nodes(value):
        assert sort_key(node) == reference_sort_key(node)


class TestStoredKeys:
    @settings(max_examples=150, deadline=None)
    @given(typed_values(variants=True, bags=True, min_width=0))
    def test_every_builder_stores_reference_keys(self, pair):
        value, t = pair
        assert_reference_keys(value)  # the constructors
        decoded = value_from_json(value_to_json(value))
        parsed = parse_value(format_value(value))
        assert decoded == value and parsed == value
        assert_reference_keys(decoded)
        assert_reference_keys(parsed)
        assert_reference_keys(normalize(value, t))
        unpickled = pickle.loads(pickle.dumps(value))
        assert unpickled == value
        assert_reference_keys(unpickled)

    @settings(max_examples=100, deadline=None)
    @given(
        object_types(max_depth=2, variants=True, bags=True).flatmap(
            lambda t: value_of(SetType(OrSetType(t)), min_width=0)
        )
    )
    def test_alpha_stores_reference_keys(self, value):
        assert_reference_keys(Alpha().apply(value))


#: One node of every value class, each with children of other classes.
EVERY_CLASS = [
    UNIT_VALUE,
    UnitValue(),
    TRUE,
    Atom("int", 3),
    Atom("int", 2.5),
    Atom("string", "x"),
    Atom("module", "m"),
    vpair(1, vorset(2, 3)),
    vset(vorset(1), vorset(2, 3), vbag(4, 4)),
    vorset(vset(1, 2), vset()),
    vbag(vpair(1, True), vpair(1, True), vpair(0, False)),
    vinl(vset(vorset(1, 2))),
    vinr(UNIT_VALUE),
]


class TestPickledKeys:
    """Pickles leave keys out; an unpickled node recomputes its own."""

    @pytest.mark.parametrize("node", EVERY_CLASS, ids=repr)
    def test_pickle_leaves_the_key_out(self, node):
        assert sort_key(node) == reference_sort_key(node)  # the key is set
        clone = pickle.loads(pickle.dumps(node))
        # The clone carries no key anywhere, and pickles to the same bytes.
        for part in nodes(clone):
            with pytest.raises(AttributeError):
                part._key  # noqa: B018 — reading the unset slot raises
        assert pickle.dumps(clone) == pickle.dumps(node)
        assert clone == node
        assert sort_key(clone) == reference_sort_key(node)
        assert_reference_keys(clone)
