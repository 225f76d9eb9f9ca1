"""Tests for serialization (Section 7's I/O facilities)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OrNRAValueError
from repro.io import (
    dumps_type,
    dumps_value,
    loads_type,
    loads_value,
    value_from_json,
    value_from_text,
    value_to_json,
    value_to_text,
)
from repro.values.values import (
    UNIT_VALUE,
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    Variant,
    vbag,
    vorset,
    vpair,
    vset,
)

from tests.strategies import object_types, typed_values


class TestJsonRoundTrip:
    @given(typed_values(max_depth=3, max_width=3))
    def test_round_trip(self, pair):
        value, _ = pair
        assert loads_value(dumps_value(value)) == value

    def test_json_shape(self):
        data = value_to_json(vpair(1, vorset(True)))
        assert data == {
            "pair": [
                {"atom": "int", "value": 1},
                {"orset": [{"atom": "bool", "value": True}]},
            ]
        }

    def test_bag_round_trip(self):
        assert value_from_json(value_to_json(vbag(1, 1))) == vbag(1, 1)

    def test_malformed_json_rejected(self):
        with pytest.raises(OrNRAValueError):
            value_from_json({"mystery": 1})
        with pytest.raises(OrNRAValueError):
            value_from_json(42)


class TestMalformedFragments:
    """Regression: decode failures raise the domain error, never a bare
    ValueError/TypeError from the decoding plumbing."""

    def test_short_pair_rejected(self):
        with pytest.raises(OrNRAValueError, match="pair"):
            value_from_json({"pair": [{"atom": "int", "value": 1}]})

    def test_long_pair_rejected(self):
        one = {"atom": "int", "value": 1}
        with pytest.raises(OrNRAValueError, match="pair"):
            value_from_json({"pair": [one, one, one]})

    def test_non_list_pair_rejected(self):
        with pytest.raises(OrNRAValueError, match="pair"):
            value_from_json({"pair": {"left": 1}})

    @pytest.mark.parametrize("key", ["set", "orset", "bag"])
    def test_non_list_collection_rejected(self, key):
        with pytest.raises(OrNRAValueError, match=key):
            value_from_json({key: 7})

    @pytest.mark.parametrize("key", ["set", "orset", "bag"])
    def test_non_dict_element_rejected(self, key):
        with pytest.raises(OrNRAValueError):
            value_from_json({key: [3]})

    def test_atom_without_value_rejected(self):
        with pytest.raises(OrNRAValueError, match="atom"):
            value_from_json({"atom": "int"})

    def test_non_scalar_atom_value_rejected(self):
        with pytest.raises(OrNRAValueError, match="scalar"):
            value_from_json({"atom": "int", "value": [1, 2]})
        with pytest.raises(OrNRAValueError, match="scalar"):
            value_from_json({"set": [{"atom": "int", "value": {"x": 1}}]})
        with pytest.raises(OrNRAValueError, match="scalar"):
            value_from_json({"atom": "int", "value": None})

    def test_loads_value_wraps_decode_errors(self):
        from repro.io import loads_value

        with pytest.raises(OrNRAValueError, match="malformed"):
            loads_value("{not json")

    def test_error_names_offending_fragment(self):
        with pytest.raises(OrNRAValueError, match=r"\[1\]"):
            value_from_json({"pair": [1]})

    @pytest.mark.parametrize("key", ["set", "orset", "bag"])
    def test_incomparable_atoms_rejected(self, key):
        atoms = [{"atom": "int", "value": 1}, {"atom": "int", "value": "x"}]
        with pytest.raises(OrNRAValueError, match=f"'{key}' holds atoms"):
            value_from_json({key: atoms})
        nested = [{"pair": [a, {"unit": True}]} for a in atoms]
        with pytest.raises(OrNRAValueError, match="do not compare"):
            value_from_json({"inl": {key: nested}})


def reference_from_json(data):
    """The decoding that builds every node through its constructor."""
    if "unit" in data:
        return UNIT_VALUE
    if "atom" in data:
        return Atom(str(data["atom"]), data["value"])
    if "pair" in data:
        left, right = data["pair"]
        return Pair(reference_from_json(left), reference_from_json(right))
    for key, cls in (("set", SetValue), ("orset", OrSetValue), ("bag", BagValue)):
        if key in data:
            return cls([reference_from_json(e) for e in data[key]])
    if "inl" in data:
        return Variant(0, reference_from_json(data["inl"]))
    return Variant(1, reference_from_json(data["inr"]))


def scrambled(data, rng):
    """*data* with each collection's elements shuffled and some repeated.

    Int atoms sometimes turn into equal floats, so a repeat can differ
    from the element it repeats in ``repr`` only, and the decoder must
    keep the same survivor among equal keys as the constructors.
    """
    if "atom" in data:
        value = data["value"]
        if type(value) is int and rng.random() < 0.3:
            value = float(value)
        return {"atom": data["atom"], "value": value}
    if "pair" in data:
        return {"pair": [scrambled(side, rng) for side in data["pair"]]}
    for key in ("set", "orset", "bag"):
        if key in data:
            elems = data[key]
            if elems:
                elems = elems + [rng.choice(elems) for _ in range(rng.randrange(3))]
            out = [scrambled(e, rng) for e in elems]
            rng.shuffle(out)
            return {key: out}
    for key in ("inl", "inr"):
        if key in data:
            return {key: scrambled(data[key], rng)}
    return data


class TestKeyedDecoder:
    """value_from_json builds each key once, yet decodes to the very value
    the constructors build: same elements, order and survivors."""

    @given(
        typed_values(max_depth=3, max_width=3, variants=True, bags=True), st.randoms()
    )
    def test_matches_constructor_decoding(self, pair, rng):
        value, _ = pair
        data = scrambled(value_to_json(value), rng)
        decoded = value_from_json(data)
        expected = reference_from_json(data)
        assert decoded == expected
        assert repr(decoded) == repr(expected)

    def test_last_equal_element_survives(self):
        ones = [{"atom": "int", "value": 1}, {"atom": "int", "value": 1.0}]
        assert repr(value_from_json({"set": ones})) == "SetValue([Atom(int:1.0)])"
        assert repr(value_from_json({"set": ones[::-1]})) == "SetValue([Atom(int:1)])"


class TestTextRoundTrip:
    @given(typed_values(max_depth=3, max_width=3))
    def test_round_trip(self, pair):
        value, _ = pair
        assert value_from_text(value_to_text(value)) == value

    def test_example(self):
        assert value_from_text("{<1, 2>}") == vset(vorset(1, 2))


class TestTypeRoundTrip:
    @given(object_types(max_depth=4))
    def test_round_trip(self, t):
        assert loads_type(dumps_type(t)) == t


class TestBatchedEndpoints:
    def test_run_json_many_matches_run_json(self):
        from repro.io import run_json, run_json_many

        query = "ormap(map(pi_1)) o alpha"
        batch = [
            value_to_json(vset(vorset(vpair(1, 10), vpair(2, 20)))),
            value_to_json(vset(vorset(vpair(3, 30)))),
        ]
        assert run_json_many(query, batch) == [run_json(query, v) for v in batch]

    def test_run_json_many_handles_duplicates_and_order(self):
        from repro.io import run_json, run_json_many

        a = value_to_json(vset(vorset(vpair(1, 10))))
        b = value_to_json(vset(vorset(vpair(2, 20))))
        batch = [a, b, a, a, b]
        query = "ormap(map(pi_1)) o alpha"
        assert run_json_many(query, batch) == [run_json(query, v) for v in batch]

    def test_run_json_many_empty_batch(self):
        from repro.io import run_json_many

        assert run_json_many("normalize", []) == []

    def test_run_text_many_matches_run_text(self):
        from repro.io import run_text, run_text_many

        query = "ormap(map(pi_1)) o alpha"
        texts = ["{<(1, 2), (3, 4)>}", "{<(5, 6)>}"]
        assert run_text_many(query, texts) == [run_text(query, t) for t in texts]

    def test_run_json_many_backend_selectable(self):
        from repro.engine import BACKENDS
        from repro.io import run_json, run_json_many

        a = value_to_json(vset(vorset(vpair(1, 10), vpair(2, 20))))
        b = value_to_json(vset(vorset(vpair(3, 30)), vorset(vpair(4, 40))))
        batch = [a, b, a]
        query = "ormap(map(pi_1)) o alpha"
        expected = [run_json(query, v) for v in batch]
        for backend in [*BACKENDS, "auto"]:
            assert run_json_many(query, batch, backend=backend) == expected, backend
