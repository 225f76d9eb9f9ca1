"""Tests for serialization (Section 7's I/O facilities)."""

import json
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.normalize import normalize
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

from tests.strategies import design, object_types, typed_orset_values, typed_values


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


def reference_to_json(v):
    """The tree-walk encoding: every node encoded afresh, nothing shared."""
    if isinstance(v, Atom):
        return {"atom": v.base, "value": v.value}
    if isinstance(v, SetValue):
        return {"set": [reference_to_json(e) for e in v.elems]}
    if isinstance(v, OrSetValue):
        return {"orset": [reference_to_json(e) for e in v.elems]}
    if isinstance(v, Pair):
        return {"pair": [reference_to_json(v.fst), reference_to_json(v.snd)]}
    if isinstance(v, BagValue):
        return {"bag": [reference_to_json(e) for e in v.elems]}
    if isinstance(v, Variant):
        return {"inl" if v.side == 0 else "inr": reference_to_json(v.payload)}
    return {"unit": True}


def _reusing(children):
    """Nodes over *children* that hold one child object in several places."""
    lists = st.lists(children, max_size=3)
    return st.one_of(
        children.map(lambda c: Pair(c, c)),
        st.tuples(children, children).map(lambda p: Pair(*p)),
        lists.map(lambda xs: BagValue(xs + xs)),
        lists.map(SetValue),
        lists.map(OrSetValue),
        st.tuples(st.integers(0, 1), children).map(lambda p: Variant(*p)),
    )


#: Values with bags that repeat, variants, unit, empty collections,
#: subtrees reused by object, and normal forms (which the kernel builds
#: from shared sub-objects).
ENCODABLE = st.recursive(
    st.one_of(
        typed_values(max_depth=3, max_width=3, variants=True, bags=True).map(
            lambda p: p[0]
        ),
        typed_orset_values(max_depth=3, max_width=3).map(lambda p: normalize(p[0])),
        st.sampled_from([UNIT_VALUE, SetValue([]), OrSetValue([]), BagValue([])]),
    ),
    _reusing,
    max_leaves=6,
)


def _lists(data, seen):
    """The distinct list objects (by identity) in the JSON *data*."""
    if isinstance(data, list):
        seen[id(data)] = data
        for e in data:
            _lists(e, seen)
    elif isinstance(data, dict):
        for e in data.values():
            _lists(e, seen)
    return seen


def _non_atom_nodes(v, seen):
    """The distinct non-atom nodes (by identity) of the value *v*."""
    if isinstance(v, Atom) or id(v) in seen:
        return seen
    seen[id(v)] = v
    if isinstance(v, Pair):
        _non_atom_nodes(v.fst, seen)
        _non_atom_nodes(v.snd, seen)
    elif isinstance(v, Variant):
        _non_atom_nodes(v.payload, seen)
    else:
        for e in getattr(v, "elems", ()):
            _non_atom_nodes(e, seen)
    return seen


class TestSharedEncoder:
    """value_to_json encodes each distinct non-atom node once per call, and
    the JSON text reads exactly as the tree walk's."""

    @given(ENCODABLE)
    def test_text_matches_tree_walk(self, value):
        data = value_to_json(value)
        expected = reference_to_json(value)
        assert json.dumps(data, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert json.dumps(data) == json.dumps(expected)
        assert value_from_json(data) == value

    def test_one_list_per_distinct_node(self):
        value = normalize(design(6))
        data = value_to_json(value)
        # The tree walk writes 257 lists for this normal form.
        assert len(_lists(data, {})) == len(_non_atom_nodes(value, {})) == 193
        assert json.dumps(data, sort_keys=True) == json.dumps(
            reference_to_json(value), sort_keys=True
        )

    def test_reused_subtree_shares_its_dict(self):
        inner = vset(vorset(1, 2), vorset(3))
        data = value_to_json(vpair(inner, inner))
        left, right = data["pair"]
        assert left is right

    def test_each_call_encodes_afresh(self):
        value = vset(vorset(1, 2))
        assert value_to_json(value) is not value_to_json(value)

    def test_non_value_rejected(self):
        from repro.values.values import ordered_collection

        with pytest.raises(OrNRAValueError, match="not a value: 3"):
            value_to_json(ordered_collection(SetValue, (3,)))


#: Text with the quote, the backslash, control characters, non-ASCII
#: and lone surrogates drawn often.
AWKWARD_TEXT = st.text(
    st.characters()
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800",
                       "\udfff", "\U0001f600"]),
    max_size=6,
)

#: (base, payload) pairs, one payload kind per base, so the atoms of one
#: base in a collection always compare.
SCALARS = st.one_of(
    st.tuples(st.just("string"), AWKWARD_TEXT),
    st.tuples(
        st.just("float"),
        st.floats()
        | st.sampled_from([-0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf")]),
    ),
    st.tuples(
        st.just("int"),
        st.integers() | st.integers(-(2**200), 2**200) | st.sampled_from([2**64, -(2**63) - 1]),
    ),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(AWKWARD_TEXT.map(lambda t: "user" + t), st.integers()),
)

#: Every value kind, with those atoms mixed in anywhere.
WRITABLE = st.recursive(
    st.one_of(SCALARS.map(lambda p: Atom(*p)), ENCODABLE), _reusing, max_leaves=8
)


def dict_text(value) -> str:
    """The canonical text as the JSON module writes it from the dicts."""
    return json.dumps(value_to_json(value), sort_keys=True)


class TestTextWriter:
    """dumps_value writes exactly the text json.dumps writes from value_to_json."""

    @given(WRITABLE)
    def test_matches_the_dict_text(self, value):
        assert dumps_value(value) == dict_text(value)

    @given(st.lists(SCALARS, max_size=4))
    def test_every_payload_kind(self, pairs):
        atoms = [Atom(*p) for p in pairs]
        for value in (*atoms, SetValue(atoms), BagValue(atoms), vpair(OrSetValue(atoms), UNIT_VALUE)):
            assert dumps_value(value) == dict_text(value)

    @given(
        st.none()
        | st.lists(st.integers(), max_size=3)
        | st.dictionaries(AWKWARD_TEXT, st.floats(), max_size=3)
    )
    def test_other_payloads_go_through_json(self, payload):
        for value in (Atom("other", payload), vset(Atom("other", payload))):
            assert dumps_value(value) == dict_text(value)

    def test_normal_form_with_shared_worlds(self):
        value = normalize(design(6))
        assert dumps_value(value) == dict_text(value)
        pair = vpair(value, vset(value, vorset(value)))
        assert dumps_value(pair) == dict_text(pair)

    def test_recurring_nodes_inside_mixed_collections(self):
        inner = vpair(vset(1, 2), vorset(3))
        chain = inner
        for i in range(40):
            chain = vpair(chain, Variant(i % 2, inner))
        value = BagValue([Atom("int", 0), chain, Atom("string", "x"), chain, inner])
        assert dumps_value(value) == dict_text(value)
        assert dumps_value(vpair(chain, chain)) == dict_text(vpair(chain, chain))

    def test_deep_value_holds_memory_in_proportion_to_its_text(self):
        # A pair chain a few hundred levels deep around a large set: a
        # writer that kept every level's text would hold about 300 times
        # the output here.
        value = vset(*(Atom("int", i) for i in range(20_000)))
        for i in range(300):
            value = vpair(value, Atom("int", i))
        tracemalloc.start()
        try:
            text = dumps_value(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == dict_text(value)
        assert peak < 8 * len(text)

    @pytest.mark.parametrize(
        "payload",
        [object(), 1 + 2j, {1, 2}, {1: 2, "a": 3}, 10**5000],
        ids=["object", "complex", "set", "mixed-keys", "int-past-the-digit-limit"],
    )
    def test_refused_payload_raises_as_before(self, payload):
        value = vset(Atom("odd", payload))
        with pytest.raises(Exception) as before:
            dict_text(value)
        with pytest.raises(Exception) as after:
            dumps_value(value)
        assert type(after.value) is type(before.value)

    def test_non_value_rejected(self):
        from repro.values.values import ordered_collection

        with pytest.raises(OrNRAValueError, match="not a value: 3"):
            dumps_value(ordered_collection(SetValue, (3,)))


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
        # The encoder's own output is in canonical order and takes the
        # path that stores elements as they come; scrambled input sorts.
        canonical = value_to_json(value)
        for data in (canonical, scrambled(canonical, rng)):
            decoded = value_from_json(data)
            expected = reference_from_json(data)
            assert decoded == expected
            assert repr(decoded) == repr(expected)

    def test_last_equal_element_survives(self):
        ones = [{"atom": "int", "value": 1}, {"atom": "int", "value": 1.0}]
        assert repr(value_from_json({"set": ones})) == "SetValue([Atom(int:1.0)])"
        assert repr(value_from_json({"set": ones[::-1]})) == "SetValue([Atom(int:1)])"

    def test_equal_keys_in_order_keep_the_last(self):
        elems = [Atom("int", 0), Atom("int", 1), Atom("int", 1.0), Atom("int", 2)]
        data = {"set": [{"atom": a.base, "value": a.value} for a in elems]}
        decoded = value_from_json(data)
        assert repr(decoded) == repr(SetValue(elems))
        assert repr(decoded) == "SetValue([Atom(int:0), Atom(int:1.0), Atom(int:2)])"

    def test_canonical_bag_keeps_its_repeats(self):
        bag = vbag(1, 1, 2)
        data = value_to_json(bag)
        assert [e["value"] for e in data["bag"]] == [1, 1, 2]
        decoded = value_from_json(data)
        assert decoded == bag
        assert len(decoded) == 3

    @pytest.mark.parametrize("key", ["set", "orset", "bag"])
    @pytest.mark.parametrize(
        "element",
        [
            {"atom": "int", "value": 1, "extra": 0},
            {"atom": 5, "value": 1},
            {"unit": True, "atom": "int", "value": 1},
            {"atom": "int", "value": True},
            {"value": 1.5, "atom": "int"},
        ],
    )
    def test_odd_elements_decode_as_the_reference(self, key, element):
        # A non-str base such as 5 becomes the base "5".
        data = {key: [element, {"atom": "int", "value": 7}]}
        decoded = value_from_json(data)
        assert repr(decoded) == repr(reference_from_json(data))

    @pytest.mark.parametrize("key", ["set", "orset", "bag"])
    @pytest.mark.parametrize(
        ("element", "message"),
        [
            (
                {"atom": "int", "value": [1]},
                "malformed value JSON: atom value must be a scalar, got [1]",
            ),
            (
                {"atom": "int", "value": None},
                "malformed value JSON: atom value must be a scalar, got None",
            ),
            (
                {"atom": "int", "extra": 1},
                "malformed value JSON: atom without a value: "
                "{'atom': 'int', 'extra': 1}",
            ),
            ([1], "malformed value JSON: [1]"),
        ],
    )
    def test_malformed_elements_keep_their_errors(self, key, element, message):
        with pytest.raises(OrNRAValueError) as alone:
            value_from_json(element)
        with pytest.raises(OrNRAValueError) as inside:
            value_from_json({key: [{"atom": "int", "value": 0}, element]})
        assert str(alone.value) == str(inside.value) == message


class TestTextRoundTrip:
    @given(typed_values(max_depth=3, max_width=3))
    def test_round_trip(self, pair):
        value, _ = pair
        assert value_from_text(value_to_text(value)) == value

    def test_example(self):
        assert value_from_text("{<1, 2>}") == vset(vorset(1, 2))

    # Any text, with the quote and the backslash drawn often.
    @given(st.lists(st.text(st.characters() | st.sampled_from('"\\')), max_size=4))
    def test_string_atoms_round_trip(self, texts):
        value = vpair(
            vset(*(Atom("string", t) for t in texts)),
            vorset(*(Atom("string", t) for t in texts)),
        )
        assert value_from_text(value_to_text(value)) == value

    def test_quote_and_backslash_are_escaped(self):
        value = vset(Atom("string", 'a"b'), Atom("string", "c\\d"))
        text = value_to_text(value)
        assert text == '{"a\\"b", "c\\\\d"}'
        assert value_from_text(text) == value
        assert value_from_text('"a\\\\"') == Atom("string", "a\\")

    def test_other_backslashes_stay_literal(self):
        assert value_from_text('"a\\nb"') == Atom("string", "a\\nb")

    def test_escaped_quote_does_not_close_the_string(self):
        from repro.errors import OrNRAParseError

        with pytest.raises(OrNRAParseError, match="unterminated string"):
            value_from_text('"a\\"')


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
