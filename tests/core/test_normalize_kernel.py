"""The direct normal-form kernel against the paper's rewrite loop.

``normalize`` computes Proposition 4.1's closed form directly;
``normalize_with_strategy`` replays the type-rewrite loop.  Theorem 4.2
says they agree, and the possible-worlds oracle says what they agree on.
"""

import gc

from hypothesis import example, given, settings

from repro.core.normalize import normalize, normalize_with_strategy
from repro.core.worlds import worlds
from repro.types.kinds import SetType, TypeVar, contains_orset
from repro.types.parse import parse_type
from repro.types.rewrite import innermost_strategy
from repro.values.convert import to_sets
from repro.values.values import (
    BagValue,
    OrSetValue,
    SetValue,
    sort_key,
    vbag,
    vinl,
    vinr,
    vorset,
    vpair,
    vset,
)

from tests.keys import nodes, reference_sort_key
from tests.strategies import design, typed_values


@given(typed_values(max_depth=3, max_width=3, variants=True, bags=True))
@settings(max_examples=200, deadline=None)
@example((vorset(), parse_type("<int>")))
@example((vorset(vorset()), parse_type("<<int>>")))
@example((vset(vorset(1), vorset()), parse_type("{<int>}")))
@example((vset(vorset(1), vorset(2)), parse_type("{<int>}")))
@example((vset(), parse_type("{<int>}")))
@example((vbag(vorset(1, 2), vorset(1, 2)), parse_type("[|<int>|]")))
@example((vbag(1, 1), parse_type("[|int|]")))
@example((vinr(3), parse_type("<int> + int")))
@example((vinl(vorset()), parse_type("<int> + bool")))
@example((vpair(vorset(1), vorset(2, 3)), parse_type("<int> * <int>")))
def test_kernel_matches_rewrite_and_worlds(pair):
    x, t = pair
    reference = normalize_with_strategy(x, t, innermost_strategy)
    assert normalize(x, t) == reference
    if contains_orset(t):
        # Bags collapse to sets in the normal form; worlds() keeps them.
        assert reference == OrSetValue(to_sets(w) for w in worlds(x))
    else:
        assert reference == to_sets(x)


def test_kernel_leaves_no_garbage_cycles():
    # The kernel's recursive closure must not keep a call's nodes and
    # leaf table alive until the cyclic collector runs.
    x = vpair(vset(*(vorset(10 * i, 10 * i + 5) for i in range(1, 5))), vorset(1, 2))
    gc.collect()
    gc.disable()
    try:
        normalize(x)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernel_keys_match_sort_key():
    # The kernel builds each key from its children's; the stored key must
    # equal the one recomputed by its definition, and every collection it
    # builds must be in canonical order.
    mixed = vpair(vset(vinl(vorset(1, 2)), vinr(vorset(3))), design(3))
    opaque = (vset(vorset(1, 2), vorset()), SetType(TypeVar("a")))
    for x, t in ((mixed, None), opaque):
        for node in nodes(normalize(x, t)):
            assert sort_key(node) == reference_sort_key(node)
            if isinstance(node, (SetValue, OrSetValue, BagValue)):
                assert type(node)(node.elems).elems == node.elems
