"""Tests for the complex-object value model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OrNRAValueError
from repro.types.kinds import (
    BOOL,
    INT,
    OrSetType,
    ProdType,
    SetType,
    TypeVar,
    UnitType,
)
from repro.values.values import (
    FALSE,
    TRUE,
    UNIT_VALUE,
    Atom,
    BagValue,
    Or,
    OrSetValue,
    Pair,
    SetValue,
    Variant,
    atom,
    boolean,
    check_type,
    collection_from_list,
    format_value,
    from_python,
    infer_type,
    ordered_collection,
    sort_key,
    to_python,
    vbag,
    vorset,
    vpair,
    vset,
)

from tests.keys import reference_sort_key
from tests.strategies import object_types, typed_values, value_of


class TestCanonicalization:
    def test_sets_deduplicate(self):
        assert vset(1, 2, 2, 1) == vset(1, 2)
        assert len(vset(1, 2, 2, 1)) == 2

    def test_orsets_deduplicate(self):
        assert vorset(3, 3, 3) == vorset(3)

    def test_bags_keep_duplicates(self):
        assert len(vbag(1, 1, 2)) == 3
        assert vbag(1, 1) != vbag(1)

    def test_order_insensitive(self):
        assert vset(3, 1, 2) == vset(1, 2, 3)
        assert vorset(vpair(2, 1), vpair(1, 2)) == vorset(vpair(1, 2), vpair(2, 1))
        assert vbag(2, 1, 2) == vbag(2, 2, 1)

    def test_nested_sets_hashable(self):
        outer = vset(vset(1, 2), vset(2, 1), vset(3))
        assert len(outer) == 2

    def test_sort_key_total_on_same_type(self):
        values = [vset(2), vset(1), vset(1, 2)]
        keys = [sort_key(v) for v in values]
        assert sorted(keys) == sorted(keys, reverse=False)
        assert len(set(keys)) == 3


class TestAtoms:
    def test_atom_inference(self):
        assert atom(True) == TRUE
        assert atom(0).base == "int"
        assert atom("x").base == "string"
        assert atom(None) is UNIT_VALUE

    def test_bool_not_confused_with_int(self):
        assert atom(True) != atom(1)

    def test_custom_base(self):
        module = atom("B", base="module")
        assert isinstance(module, Atom)
        assert module.base == "module"

    def test_boolean_constants(self):
        assert boolean(True) is TRUE
        assert boolean(False) is FALSE

    def test_atom_rejects_unhashable_kinds(self):
        with pytest.raises(OrNRAValueError):
            atom(object())


class TestFormatting:
    def test_paper_notation(self):
        # Canonical element order sorts shorter or-sets first: <3> < <1, 2>.
        v = vpair(vset(vorset(1, 2), vorset(3)), vorset(1, 2))
        assert format_value(v) == "({<3>, <1, 2>}, <1, 2>)"

    def test_bool_and_string_atoms(self):
        assert format_value(vpair(True, "hi")) == '(true, "hi")'

    def test_empty_collections(self):
        assert format_value(vset()) == "{}"
        assert format_value(vorset()) == "<>"
        assert format_value(vbag()) == "[||]"

    def test_unit(self):
        assert format_value(UNIT_VALUE) == "()"


class TestTypeInference:
    def test_infer_simple(self):
        assert infer_type(vorset(1, 2)) == OrSetType(INT)
        assert infer_type(vpair(1, True)) == ProdType(INT, BOOL)
        assert infer_type(UNIT_VALUE) == UnitType()

    def test_infer_empty_collection_gives_variable(self):
        t = infer_type(vset())
        assert isinstance(t, SetType)
        assert isinstance(t.elem, TypeVar)

    def test_infer_mixed_with_empty(self):
        t = infer_type(vset(vorset(), vorset(1)))
        assert t == SetType(OrSetType(INT))

    def test_heterogeneous_raises(self):
        with pytest.raises(OrNRAValueError):
            infer_type(vset(1, True))

    def test_check_type(self):
        assert check_type(vorset(1), OrSetType(INT))
        assert not check_type(vorset(1), SetType(INT))
        assert check_type(vset(), SetType(INT))  # empty inhabits any set type

    @given(typed_values(max_depth=3, max_width=2, min_width=1))
    def test_inferred_type_checks(self, pair):
        value, t = pair
        assert check_type(value, t)


class TestPythonRoundTrip:
    def test_from_python(self):
        v = from_python({(1, True), (2, False)})
        assert isinstance(v, SetValue)
        assert vpair(1, True) in v

    def test_or_wrapper(self):
        assert from_python(Or(1, 2)) == vorset(1, 2)

    def test_list_is_bag(self):
        assert from_python([1, 1]) == vbag(1, 1)

    def test_round_trip(self):
        original = ((1, Or(2, 3)), frozenset({4}))
        assert to_python(from_python(original)) == (
            (1, Or(2, 3)),
            frozenset({4}),
        )

    def test_non_pair_tuple_rejected(self):
        with pytest.raises(OrNRAValueError):
            from_python((1, 2, 3))

    @given(typed_values(max_depth=3, max_width=2))
    def test_value_round_trip(self, pair):
        value, _ = pair
        assert from_python(to_python(value)) == value


class TestKindChecks:
    def test_pair_fields(self):
        p = vpair(1, vset(2))
        assert p.fst == atom(1)
        assert p.snd == vset(2)

    def test_membership(self):
        assert atom(1) in vset(1, 2)
        assert atom(3) not in vorset(1, 2)

    def test_bag_not_equal_to_set(self):
        assert vbag(1) != vset(1)


class TestKeyedCollection:
    """Collections sort and deduplicate by their elements' stored keys;
    ordered_collection builds, from elements already in canonical order,
    what the constructors build; every node's stored key is the one
    recomputed by its definition."""

    @given(
        object_types(max_depth=3, variants=True, bags=True).flatmap(
            lambda t: st.lists(value_of(t), max_size=5)
        ),
        st.sampled_from([SetValue, OrSetValue, BagValue]),
    )
    def test_matches_constructor(self, elems, cls):
        elems = elems + elems[:2]
        expected = cls(elems)
        # Canonical order by reference keys: a dict keeps the last element
        # of each key, then the keys are sorted.
        if cls is BagValue:
            canonical = sorted(elems, key=reference_sort_key)
        else:
            last = {reference_sort_key(e): e for e in elems}
            canonical = [last[k] for k in sorted(last)]
        assert repr(list(expected.elems)) == repr(canonical)
        node = ordered_collection(cls, expected.elems)
        assert type(node) is cls
        assert node == expected
        assert repr(node) == repr(expected)
        assert sort_key(node) == sort_key(expected) == reference_sort_key(expected)
        # collection_from_list stores ordered elements as they come and
        # sorts any others, as the constructor does.
        for given_elems in (list(expected.elems), list(elems)):
            node = collection_from_list(cls, given_elems)
            assert type(node) is cls
            assert repr(node) == repr(expected)
            assert sort_key(node) == reference_sort_key(expected)

    def test_last_equal_element_survives(self):
        elems = [Atom("int", 1), Atom("int", 1.0)]
        assert repr(SetValue(elems)) == "SetValue([Atom(int:1.0)])"
        assert repr(OrSetValue(elems[::-1])) == "OrSetValue([Atom(int:1)])"
        assert repr(BagValue(elems)) == "BagValue([Atom(int:1), Atom(int:1.0)])"

    @given(
        typed_values(max_depth=2, variants=True, bags=True),
        typed_values(max_depth=2, variants=True, bags=True),
    )
    def test_keys_from_child_keys(self, left, right):
        # Pairs and variants build their keys from their children's.
        (a, _), (b, _) = left, right
        assert sort_key(Pair(a, b)) == (2, sort_key(a), sort_key(b))
        assert sort_key(Pair(a, b)) == reference_sort_key(Pair(a, b))
        for side in (0, 1):
            assert sort_key(Variant(side, a)) == (6, side, sort_key(a))
            assert sort_key(Variant(side, a)) == reference_sort_key(Variant(side, a))

    def test_atom_key(self):
        for a in (TRUE, atom(3), atom("x"), Atom("module", "m"), Atom("int", 2.5)):
            assert sort_key(a) == reference_sort_key(a)

    def test_incomparable_keys_raise_type_error(self):
        elems = [Atom("int", 1), Atom("int", "x")]
        for cls in (SetValue, OrSetValue, BagValue):
            with pytest.raises(TypeError):
                cls(elems)
