"""Input/output facilities (Section 7's OR-SML package features).

Values and types round-trip through two formats:

* the paper's *text* notation via :mod:`repro.lang.parser` and
  :func:`repro.values.format_value`;
* a plain-JSON structure for interchange with other tooling.

JSON encoding: atoms become ``{"atom": base, "value": v}``; pairs
``{"pair": [a, b]}``; sets ``{"set": [...]}``; or-sets ``{"orset": [...]}``;
bags ``{"bag": [...]}``; unit ``{"unit": true}``; variant injections
``{"inl": ...}`` / ``{"inr": ...}``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Callable

from repro.errors import OrNRAValueError
from repro.types.kinds import Type
from repro.types.parse import format_type, parse_type
from repro.values.values import (
    UNIT_VALUE,
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    UnitValue,
    Value,
    Variant,
    collection_from_list,
    format_value,
)

__all__ = [
    "value_to_json",
    "value_from_json",
    "dumps_value",
    "loads_value",
    "dumps_type",
    "loads_type",
    "value_to_text",
    "value_from_text",
    "parsed_morphism",
    "run_text",
    "run_json",
    "run_text_many",
    "run_json_many",
    "run_json_texts",
    "count_worlds_text",
    "count_worlds_json",
    "certain_text",
    "certain_json",
]


def value_to_json(v: Value) -> object:
    """Encode *v* as plain JSON-serializable data.

    Within one call, each distinct pair, set, or-set, bag, variant and
    unit node is encoded once: where the same node object recurs (a
    normal form builds its worlds from shared sub-objects), its dict is
    reused, so the result may hold one dict in several places.  Callers
    must treat it as read-only.  Atoms are written inline by their parent
    and never shared.  ``json.dumps`` of the result reads exactly as if
    every node had been encoded afresh.
    """
    return _encode(v, {})


_COLLECTION_NAMES = {SetValue: "set", OrSetValue: "orset", BagValue: "bag"}


def _encode(v: Value, memo: dict[int, dict]) -> dict:
    """The JSON of *v*; a non-atom node's dict is stored in *memo* under
    ``id(v)``, and callers look there first.

    Dispatches on the exact class, as the normal-form kernel does.  The
    memo is keyed by object identity, which is stable because the value
    being encoded keeps every node alive for the whole call.  Each level
    of nesting costs one frame, as the tree walk did for pairs.
    """
    cls = type(v)
    if cls is Atom:
        return {"atom": v.base, "value": v.value}
    get = memo.get
    name = _COLLECTION_NAMES.get(cls)
    if name is not None:
        out = []
        append = out.append
        for e in v.elems:
            if type(e) is Atom:
                append({"atom": e.base, "value": e.value})
            else:
                append(get(id(e)) or _encode(e, memo))
        data: dict = {name: out}
    elif cls is Pair:
        fst, snd = v.fst, v.snd
        left = get(id(fst)) or _encode(fst, memo)
        data = {"pair": [left, get(id(snd)) or _encode(snd, memo)]}
    elif cls is Variant:
        side = "inl" if v.side == 0 else "inr"
        data = {side: get(id(v.payload)) or _encode(v.payload, memo)}
    elif cls is UnitValue:
        data = {"unit": True}
    else:
        raise OrNRAValueError(f"not a value: {v!r}")
    memo[id(v)] = data
    return data


def value_from_json(data: object) -> Value:
    """Decode the JSON structure produced by :func:`value_to_json`.

    The result is the value the constructors build: each node's sort key
    is built once, from the keys its children carry, rather than once
    for every collection above it.  A collection element that is exactly
    an atom as the encoder writes it (a dict of ``"atom"``, a ``str``,
    and ``"value"``, a ``bool``/``int``/``float``/``str``) is built
    inline; every other element is decoded in full.  Each collection's
    elements go to :func:`~repro.values.values.collection_from_list`,
    which keeps elements already in canonical order (as the encoder
    writes them) without sorting, and sorts and deduplicates any others
    as the constructors do, the last of equal elements surviving.

    Every malformed fragment — a ``"pair"`` that is not a two-element
    list, a non-list ``"set"``/``"orset"``/``"bag"``, an ``"atom"``
    without a ``"value"``, a collection whose atoms of one base do not
    compare — raises :class:`~repro.errors.OrNRAValueError` naming the
    offending fragment, never a bare ``ValueError`` or ``TypeError``
    from the decoding plumbing.
    """
    return _decode(data)


_COLLECTIONS = (("set", SetValue), ("orset", OrSetValue), ("bag", BagValue))
_SCALARS = (bool, int, float, str)


def _decode(data: object) -> Value:
    """The value *data* encodes, built bottom-up."""
    if not isinstance(data, dict):
        raise OrNRAValueError(f"malformed value JSON: {data!r}")
    if "unit" in data:
        return UNIT_VALUE
    if "atom" in data:
        if "value" not in data:
            raise OrNRAValueError(f"malformed value JSON: atom without a value: {data!r}")
        payload = data["value"]
        if not isinstance(payload, _SCALARS):
            raise OrNRAValueError(
                f"malformed value JSON: atom value must be a scalar, got {payload!r}"
            )
        return Atom(str(data["atom"]), payload)
    if "pair" in data:
        sides = data["pair"]
        if not isinstance(sides, list) or len(sides) != 2:
            raise OrNRAValueError(
                f"malformed value JSON: 'pair' expects [left, right], got {sides!r}"
            )
        return Pair(_decode(sides[0]), _decode(sides[1]))
    for name, cls in _COLLECTIONS:
        if name in data:
            elems = data[name]
            if not isinstance(elems, list):
                raise OrNRAValueError(
                    f"malformed value JSON: {name!r} expects a list of elements, "
                    f"got {elems!r}"
                )
            decoded = []
            append = decoded.append
            for e in elems:
                # An atom is built inline when it is exactly the shape the
                # encoder writes; anything else goes through _decode, which
                # names every malformed fragment.
                if type(e) is dict and len(e) == 2:
                    base = e.get("atom")
                    payload = e.get("value")
                    if type(base) is str and type(payload) in _SCALARS:
                        append(Atom(base, payload))
                        continue
                append(_decode(e))
            try:
                return collection_from_list(cls, decoded)
            except TypeError as exc:
                raise OrNRAValueError(
                    f"malformed value JSON: {name!r} holds atoms that do not "
                    f"compare: {data!r}"
                ) from exc
    if "inl" in data:
        return Variant(0, _decode(data["inl"]))
    if "inr" in data:
        return Variant(1, _decode(data["inr"]))
    raise OrNRAValueError(f"malformed value JSON: {data!r}")


def dumps_value(v: Value) -> str:
    """Serialize *v* to canonical JSON text.

    The text is exactly ``json.dumps(value_to_json(v), sort_keys=True)``,
    written straight from the value with no dicts in between.  Within one
    call, each distinct pair, set, or-set, bag, variant and unit node is
    written once: where the same node object recurs, its text is reused,
    as :func:`value_to_json` reuses dicts.  Atom payloads that are exactly
    a ``str``, ``int``, ``bool`` or ``float`` are formatted here, as
    ``json`` formats them; any other payload goes through ``json.dumps``,
    so it is written, or refused, exactly as before.

    The text is written as fragments into one list and joined once, so a
    call holds O(size of the text), however deep the value nests.
    """
    out: list[str] = []
    _write(v, out, {}, {})
    return "".join(out)


_HEADS = {SetValue: '{"set": [', OrSetValue: '{"orset": [', BagValue: '{"bag": ['}
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _payload_json(x: object) -> str:
    return json.dumps(x, sort_keys=True)


#: Exact payload type -> its JSON text, as ``json.dumps`` writes it.
_PAYLOAD_TEXT: dict[type, Callable[..., str]] = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    float: _float_text,
}


def _atom_head(base: object, heads: dict[str, str]) -> str:
    """``'{"atom": <base>, "value": '``, kept in *heads* for a ``str`` base.

    Only exact strings are kept: ``1``, ``1.0`` and ``True`` are equal
    keys that ``json`` writes apart.
    """
    if type(base) is not str:
        return '{"atom": ' + _payload_json(base) + ', "value": '
    head = heads[base] = '{"atom": ' + _PAYLOAD_TEXT[str](base) + ', "value": '
    return head


def _write(
    v: Value, out: list[str], seen: dict[int, str | tuple[int, int]], heads: dict[str, str]
) -> None:
    """Append the JSON text of *v* to *out*, as one or more fragments.

    *seen* maps ``id(node)`` of each non-atom node written so far to its
    text, or to the ``(start, end)`` span of its fragments in *out*.  A
    collection of atoms only is written as one fragment, which is its
    text.  Any other node's span is joined into text only when the node
    recurs, and that text is written out again there, so the texts in
    *seen* add up to no more than the output, however deep *v* nests.
    *heads* holds the atom heads by base, for one call.
    """
    cls = type(v)
    append = out.append
    formats = _PAYLOAD_TEXT
    if cls is Atom:
        payload = v.value
        head = heads.get(v.base) or _atom_head(v.base, heads)
        append(f"{head}{(formats.get(type(payload)) or _payload_json)(payload)}}}")
        return
    key = id(v)
    known = seen.get(key)
    if known is not None:
        if type(known) is tuple:
            known = seen[key] = "".join(out[known[0] : known[1]])
        append(known)
        return
    start = len(out)
    open_ = _HEADS.get(cls)
    if open_ is not None:
        elems = v.elems
        texts = []
        put = texts.append
        for e in elems:
            if type(e) is not Atom:
                break
            payload = e.value
            head = heads.get(e.base) or _atom_head(e.base, heads)
            put(f"{head}{(formats.get(type(payload)) or _payload_json)(payload)}}}")
        else:
            text = seen[key] = f"{open_}{', '.join(texts)}]}}"
            append(text)
            return
        # Another kind of element: the atoms before it are written already.
        append(f"{open_}{', '.join(texts)}")
        for i in range(len(texts), len(elems)):
            if i:
                append(", ")
            _write(elems[i], out, seen, heads)
        append("]}")
    elif cls is Pair:
        append('{"pair": [')
        _write(v.fst, out, seen, heads)
        append(", ")
        _write(v.snd, out, seen, heads)
        append("]}")
    elif cls is Variant:
        append('{"inl": ' if v.side == 0 else '{"inr": ')
        _write(v.payload, out, seen, heads)
        append("}")
    elif cls is UnitValue:
        append('{"unit": true}')
    else:
        raise OrNRAValueError(f"not a value: {v!r}")
    seen[key] = (start, len(out))


def loads_value(text: str) -> Value:
    """Deserialize a value from :func:`dumps_value` output."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OrNRAValueError(f"malformed value JSON: {exc}") from exc
    return value_from_json(data)


def dumps_type(t: Type) -> str:
    """Serialize a type in the concrete syntax."""
    return format_type(t)


def loads_type(text: str) -> Type:
    """Parse a type from its concrete syntax."""
    return parse_type(text)


def value_to_text(v: Value) -> str:
    """The paper-notation rendering of *v* (parsable back)."""
    return format_value(v)


def value_from_text(text: str) -> Value:
    """Parse a value from the paper notation."""
    from repro.lang.parser import parse_value

    return parse_value(text)


@lru_cache(maxsize=512)
def _parse_morphism_cached(text: str):
    from repro.lang.parser import parse_morphism

    return parse_morphism(text)


def parsed_morphism(program):
    """Resolve *program* — surface-syntax text or a Morphism — to a Morphism.

    Parses are memoized (an LRU over the program text), which is what
    lets a serving loop re-submit the same query string thousands of
    times without re-parsing: the text maps to the *same* morphism
    object, so the engine's plan cache hits too.  Morphism instances
    pass through untouched — the hook the async front-end and the REPL
    use to serve pre-resolved (named) programs.
    """
    from repro.lang.morphisms import Morphism

    if isinstance(program, Morphism):
        return program
    return _parse_morphism_cached(program)


def _deadline_scope(timeout: float | None):
    """A deadline context for the evaluation helpers.

    ``timeout=None`` (the default) inherits whatever deadline is already
    ambient — notably the serving layer's per-request deadline — so a
    nested helper call never silently *extends* a request's budget.
    """
    from repro.engine import Deadline, deadline_scope

    deadline = Deadline.after(timeout) if timeout is not None else None
    if deadline is None:
        from contextlib import nullcontext

        return nullcontext()
    return deadline_scope(deadline)


def run_text(
    morphism_text: str,
    value_text: str,
    backend: str = "eager",
    timeout: float | None = None,
) -> str:
    """Parse, compile and run a query; both sides in the paper notation.

    The batch-mode counterpart of the REPL's ``apply``: the program goes
    through the engine (optimizer passes, plan compilation), so repeated
    calls share compiled plans.  *timeout* (seconds) bounds the
    evaluation: past it, the engine's cooperative checkpoints raise
    :class:`~repro.errors.DeadlineExceeded`.

    >>> run_text("ormap(map(pi_1)) o alpha", "{<(1, 2), (3, 4)>}")
    '<{1}, {3}>'
    """
    from repro.engine import run
    from repro.lang.parser import parse_value

    with _deadline_scope(timeout):
        result = run(
            parsed_morphism(morphism_text),
            parse_value(value_text),
            backend=backend,
        )
    return format_value(result)


def run_json(
    morphism_text: str,
    value_json: object,
    backend: str = "eager",
    timeout: float | None = None,
) -> object:
    """Run a query over the JSON value encoding (interchange endpoint).

    The program is given in the surface syntax, the input and output in
    the :func:`value_to_json` structure.  *timeout* bounds the
    evaluation (see :func:`run_text`).
    """
    from repro.engine import run

    with _deadline_scope(timeout):
        result = run(
            parsed_morphism(morphism_text),
            value_from_json(value_json),
            backend=backend,
        )
    return value_to_json(result)


def count_worlds_text(
    morphism_text: str, value_text: str, backend: str = "auto"
) -> int:
    """Exact world count of a query's output; input in the paper notation.

    The batch-mode counterpart of the REPL's ``count``.  With the
    default ``backend="auto"`` the engine routes supported plans to the
    symbolic backend (:mod:`repro.engine.symbolic`), which counts
    without enumerating — astronomically many worlds come back in
    milliseconds.

    >>> count_worlds_text("normalize", "{<1, 2>, <2, 3>}")
    4
    """
    from repro.engine import count_worlds
    from repro.lang.parser import parse_value

    return count_worlds(
        parsed_morphism(morphism_text),
        parse_value(value_text),
        backend=backend,
    )


def count_worlds_json(
    morphism_text: str, value_json: object, backend: str = "auto"
) -> int:
    """:func:`count_worlds_text` over the JSON value encoding."""
    from repro.engine import count_worlds

    return count_worlds(
        parsed_morphism(morphism_text),
        value_from_json(value_json),
        backend=backend,
    )


def certain_text(morphism_text: str, value_text: str, backend: str = "auto") -> str:
    """The certain answers of a query — elements in *every* world of the
    output — in the paper notation (the REPL's ``certain``).

    >>> certain_text("normalize", "{<1>, <2, 3>}")
    '{1}'
    """
    from repro.engine import certain
    from repro.lang.parser import parse_value

    result = certain(
        parsed_morphism(morphism_text),
        parse_value(value_text),
        backend=backend,
    )
    return format_value(result)


def certain_json(
    morphism_text: str, value_json: object, backend: str = "auto"
) -> object:
    """:func:`certain_text` over the JSON value encoding."""
    from repro.engine import certain

    result = certain(
        parsed_morphism(morphism_text),
        value_from_json(value_json),
        backend=backend,
    )
    return value_to_json(result)


def run_text_many(
    morphism_text,
    value_texts: list[str],
    backend: str = "eager",
    timeout: float | None = None,
) -> list[str]:
    """Batched :func:`run_text`: parse and compile once, dedupe.

    Unlike a loop of ``run_text`` calls, structurally equal inputs are
    computed and formatted once.  *morphism_text* may also be a
    pre-resolved Morphism; *timeout* bounds the whole batch's evaluation
    (see :func:`run_text`).
    """
    from repro.engine import DEFAULT_ENGINE
    from repro.lang.parser import parse_value

    with _deadline_scope(timeout):
        results = DEFAULT_ENGINE.run_many(
            parsed_morphism(morphism_text),
            [parse_value(text) for text in value_texts],
            backend=backend,
        )
    return _encode_each(results, format_value)


def run_json_many(
    morphism_text,
    values_json: list,
    backend: str = "eager",
    timeout: float | None = None,
) -> list[object]:
    """Batched :func:`run_json`: parse and compile once, dedupe.

    The batch endpoint for serving many worlds of one query — and, as
    :func:`run_json_texts`, the function the async front-end
    (:mod:`repro.serve`) fans each micro-batch into: the program is
    parsed and compiled once (parses are LRU-memoized across calls via
    :func:`parsed_morphism`, so a serving loop pays the parse once per
    query text, not per batch),
    structurally equal inputs are computed once, and distinct inputs
    fan out across worker processes when the batch runs on the process
    backend (see :meth:`repro.engine.Engine.run_many`).  Results come
    back in input order, each distinct one encoded once: equal inputs get
    one shared result dict, and within a result every recurring sub-value
    shares one dict too (see :func:`value_to_json`), so callers must
    treat results as read-only.
    *morphism_text* may also be a pre-resolved Morphism; *timeout*
    bounds the whole batch's evaluation (see :func:`run_text`).
    """
    results = _run_decoded(morphism_text, values_json, backend, timeout)
    return _encode_each(results, value_to_json)


def run_json_texts(
    morphism_text,
    values_json: list,
    backend: str = "eager",
    timeout: float | None = None,
) -> list[str]:
    """:func:`run_json_many` with each result as its :func:`dumps_value` text.

    The function the async front-end (:mod:`repro.serve`) fans each
    micro-batch into: a server sends its results as JSON text, so each
    distinct result is written once, straight from the value, and its
    dicts are never built.  ``json.loads`` of each text equals the
    matching :func:`run_json_many` result.
    """
    results = _run_decoded(morphism_text, values_json, backend, timeout)
    return _encode_each(results, dumps_value)


def _run_decoded(
    morphism_text, values_json: list, backend: str, timeout: float | None
) -> list[Value]:
    """The results of *morphism_text* over the decoded *values_json*."""
    from repro.engine import DEFAULT_ENGINE

    with _deadline_scope(timeout):
        return DEFAULT_ENGINE.run_many(
            parsed_morphism(morphism_text),
            [value_from_json(v) for v in values_json],
            backend=backend,
        )


def _encode_each(results: list[Value], encode: Callable[[Value], object]) -> list:
    """``[encode(r) for r in results]``, encoding each result object once.

    ``run_many`` hands equal inputs one shared result, and encoding a
    result can cost more than computing it.
    """
    encoded: dict[int, object] = {}
    out = []
    for r in results:
        if id(r) not in encoded:
            encoded[id(r)] = encode(r)
        out.append(encoded[id(r)])
    return out
