"""Columnar execution: flat arenas and fused single-pass kernels.

The eager backend walks one Python ``Value`` object per element per plan
node — for a wide, flat collection spine (``map`` bodies doing atom
arithmetic, ``mu`` flattening, coercions) almost all of that time is
object allocation and dynamic dispatch, not the paper's semantics.  This
module removes that overhead in three layers:

* :class:`Arena` — a columnar encoding of one collection: parallel
  arrays of atom bases and raw payloads (boxed ``Value`` objects only
  where an element is not an atom), plus optional segment *offsets* for
  a nested spine.  The encoding is lossless: ``Arena.from_value(v,
  ...).to_value()`` is structurally equal to ``v`` (property-tested in
  ``tests/engine/test_columnar.py``), and decoding reuses cached atoms,
  each carrying its sort key, so canonicalization reads keys, never
  recomputes them.
* :func:`compile_scalar` — a tiny compiler from the arithmetic/boolean
  fragment of the morphism language (``Id``, ``Compose``, ``PairOf`` +
  the standard primitives, ``Cond``, ``Const``) to *raw* Python kernels
  ``scalar -> scalar`` that never box an ``Atom`` or allocate a
  ``Pair``.  Elements that do not fit the raw fragment (boxed values,
  off-base atoms) fall back to the compiled closure per element, so
  semantics — including error behavior — match the eager backend
  exactly.
* :func:`build_fused_kernel` / :class:`FusedBackend` — execution of a
  ``fused`` plan node (built by :func:`repro.engine.passes.fuse_plan`):
  encode the input once, run every fused stage as a tight loop over the
  columns, decode once.  The sharded backends reuse the same stage
  runner over contiguous arena slices (``Arena.slice``), which is what
  lets them ship index ranges instead of per-element pickles.

Transient duplicates follow the streaming/sharded convention: map
stages may emit colliding outputs, the set/or-set → bag coercions and
``unique`` deduplicate keeping first occurrences, and the single
``to_value`` at the end canonicalizes exactly like the eager
constructors.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import OrNRATypeError
from repro.lang.bag_ops import BagUnique
from repro.lang.morphisms import (
    Bang,
    Compose,
    Cond,
    Const,
    Id,
    Morphism,
    PairOf,
    Primitive,
)
from repro.lang.primitives import (
    _bool_and_value,
    _bool_not_value,
    _bool_or_value,
    _IntBinOp,
    _IntCompare,
)
from repro.values.values import Atom, Value

from repro.engine.backends import _MU, _RETAG, _WRAPPER_OF, BACKENDS, Backend
from repro.engine.deadline import checkpoint
from repro.engine.plan import Plan, PlanNode, _linearize

__all__ = [
    "Arena",
    "compile_scalar",
    "raw_kernels",
    "stage_of",
    "compile_stages",
    "run_stages",
    "encode_input",
    "build_fused_kernel",
    "FusedBackend",
]

# Error nouns per collection kind, phrased exactly like the streaming
# and sharded spines so every backend raises the same message.
_MAP_NOUN = {
    "set": "map expects a set",
    "orset": "ormap expects an or-set",
    "bag": "dmap expects a bag",
}
_MU_NOUN = {kind: noun for kind, noun in _MU.values()}
_UNIQUE_NOUN = "unique expects a bag"


# -- the arena ---------------------------------------------------------------

#: Bounded cache of decoded atoms, keyed on ``(base, raw)``.  Repeated
#: payloads across calls share one Atom object, which carries its sort
#: key, so decoding them allocates nothing.
_ATOM_CACHE: dict[tuple, Atom] = {}
_ATOM_CACHE_MAX = 4096


def _cached_atom(base: str, raw: object) -> Atom:
    try:
        hit = _ATOM_CACHE.get((base, raw))
    except TypeError:  # unhashable payload: box without caching
        return Atom(base, raw)
    if hit is None:
        hit = Atom(base, raw)
        if len(_ATOM_CACHE) >= _ATOM_CACHE_MAX:
            _ATOM_CACHE.clear()
        _ATOM_CACHE[(base, raw)] = hit
    return hit


class Arena:
    """One collection, column-encoded.

    Flat form (``offsets is None``): element *i* is ``Atom(bases[i],
    raws[i])`` when ``bases[i]`` is a base name, or the boxed ``Value``
    ``raws[i]`` when ``bases[i]`` is ``None``.  Segmented form: the
    columns hold the concatenated elements of ``len(offsets) - 1`` inner
    collections of kind *inner_kind* (segment *i* spans
    ``offsets[i]:offsets[i+1]``) — the encoding of a nested spine whose
    ``mu`` is just "drop the offsets".
    """

    __slots__ = ("kind", "bases", "raws", "offsets", "inner_kind")

    def __init__(
        self,
        kind: str,
        bases: list,
        raws: list,
        offsets: list | None = None,
        inner_kind: str | None = None,
    ) -> None:
        self.kind = kind
        self.bases = bases
        self.raws = raws
        self.offsets = offsets
        self.inner_kind = inner_kind

    def __len__(self) -> int:
        if self.offsets is not None:
            return len(self.offsets) - 1
        return len(self.bases)

    @classmethod
    def from_value(cls, value: Value, kind: str, noun: str) -> "Arena":
        """Column-encode *value*, which must be a *kind* collection."""
        wrapper = _WRAPPER_OF[kind]
        if not isinstance(value, wrapper):
            raise OrNRATypeError(f"{noun}, got {value!r}")
        bases: list = []
        raws: list = []
        for e in value.elems:
            if type(e) is Atom:
                bases.append(e.base)
                raws.append(e.value)
            else:
                bases.append(None)
                raws.append(e)
        return cls(kind, bases, raws)

    @classmethod
    def segmented(cls, value: Value, kind: str, noun: str) -> "Arena":
        """Encode a *kind* collection of *kind* collections with offsets.

        The nested-spine form a leading ``mu`` consumes in O(1): the
        inner elements live flat in the columns and the offsets record
        the segment boundaries.
        """
        wrapper = _WRAPPER_OF[kind]
        if not isinstance(value, wrapper):
            raise OrNRATypeError(f"{noun}, got {value!r}")
        bases: list = []
        raws: list = []
        offsets = [0]
        for inner in value.elems:
            if not isinstance(inner, wrapper):
                raise OrNRATypeError(f"{noun}, got element {inner!r}")
            for e in inner.elems:
                if type(e) is Atom:
                    bases.append(e.base)
                    raws.append(e.value)
                else:
                    bases.append(None)
                    raws.append(e)
            offsets.append(len(bases))
        return cls(kind, bases, raws, offsets=offsets, inner_kind=kind)

    def slice(self, start: int, stop: int) -> "Arena":
        """A contiguous flat sub-range (the sharded backends' unit)."""
        return Arena(self.kind, self.bases[start:stop], self.raws[start:stop])

    def _decode_range(self, start: int, stop: int) -> list[Value]:
        bases, raws = self.bases, self.raws
        return [
            raws[i] if bases[i] is None else _cached_atom(bases[i], raws[i])
            for i in range(start, stop)
        ]

    def to_value(self) -> Value:
        """Decode back to a canonical collection ``Value``.

        The collection constructor canonicalizes (sorts, deduplicates)
        exactly like the eager backend's, reading the key each element
        carries.
        """
        wrapper = _WRAPPER_OF[self.kind]
        if self.offsets is None:
            return wrapper(self._decode_range(0, len(self.bases)))
        inner_wrapper = _WRAPPER_OF[self.inner_kind]
        offs = self.offsets
        return wrapper(
            inner_wrapper(self._decode_range(offs[i], offs[i + 1]))
            for i in range(len(offs) - 1)
        )


# -- the raw scalar-kernel compiler ------------------------------------------


def _ident(x):
    return x


def _pair_prim(op, lf, rf):
    """``x -> op(lf(x), rf(x))`` with the identity legs inlined away."""
    if lf is _ident and rf is _ident:
        return lambda x: op(x, x)
    if lf is _ident:
        return lambda x: op(x, rf(x))
    if rf is _ident:
        return lambda x: op(lf(x), x)
    return lambda x: op(lf(x), rf(x))


def _compose_fns(fns):
    if len(fns) == 1:
        return fns[0]
    fns = tuple(fns)

    def run(x):
        for fn in fns:
            x = fn(x)
        return x

    return run


def compile_scalar(
    m: Morphism, in_base: str
) -> tuple[Callable[[object], object], str] | None:
    """Compile *m* to a raw kernel over bare payloads, or ``None``.

    Returns ``(fn, out_base)`` where ``fn`` maps a raw *in_base* payload
    to a raw *out_base* payload, reproducing eager semantics for
    well-typed atoms (``_unwrap_int`` coerces with ``int()`` — Python
    ints and bools already *are* what the raw ops consume, and the
    per-element guard in the map stage excludes everything else).
    """
    if isinstance(m, Id):
        return _ident, in_base
    if isinstance(m, Const):
        # Const ignores its input entirely (``K v``), so any in_base works.
        v = m.value
        if type(v) is Atom and v.base in ("int", "bool"):
            raw = v.value
            return (lambda x, _raw=raw: _raw), v.base
        return None
    if isinstance(m, Cond):
        pred = compile_scalar(m.pred, in_base)
        then = compile_scalar(m.then, in_base)
        orelse = compile_scalar(m.orelse, in_base)
        if (
            pred is not None
            and pred[1] == "bool"
            and then is not None
            and orelse is not None
            and then[1] == orelse[1]
        ):
            pf, tf, ef = pred[0], then[0], orelse[0]
            return (lambda x: tf(x) if pf(x) else ef(x)), then[1]
        return None
    if isinstance(m, Primitive):
        if m.fn is _bool_not_value and in_base == "bool":
            return (lambda x: not x), "bool"
        return None
    if not isinstance(m, Compose):
        return None

    steps = _linearize(m)
    fns: list[Callable] = []
    base = in_base
    i = 0
    while i < len(steps):
        step = steps[i]
        if isinstance(step, Id):
            i += 1
            continue
        if (
            isinstance(step, Bang)
            and i + 1 < len(steps)
            and isinstance(steps[i + 1], Const)
        ):
            # `Const o Bang` — the Const ignores its input anyway.
            i += 1
            continue
        if (
            isinstance(step, PairOf)
            and i + 1 < len(steps)
            and isinstance(steps[i + 1], Primitive)
        ):
            ev = steps[i + 1].fn
            left = compile_scalar(step.left, base)
            right = compile_scalar(step.right, base)
            if left is None or right is None:
                return None
            if isinstance(ev, (_IntBinOp, _IntCompare)):
                if left[1] != "int" or right[1] != "int":
                    return None
                fns.append(_pair_prim(ev.fn, left[0], right[0]))
                base = "int" if isinstance(ev, _IntBinOp) else "bool"
                i += 2
                continue
            if ev is _bool_and_value or ev is _bool_or_value:
                if left[1] != "bool" or right[1] != "bool":
                    return None
                op = (lambda a, b: a and b) if ev is _bool_and_value else (
                    lambda a, b: a or b
                )
                fns.append(_pair_prim(op, left[0], right[0]))
                base = "bool"
                i += 2
                continue
            return None
        sub = compile_scalar(step, base)
        if sub is None:
            return None
        if sub[0] is not _ident:
            fns.append(sub[0])
        base = sub[1]
        i += 1
    if not fns:
        return _ident, base
    return _compose_fns(fns), base


def raw_kernels(m: Morphism) -> dict[str, tuple[Callable, str]]:
    """Raw kernels for *m* per admissible input base (may be empty)."""
    kernels: dict[str, tuple[Callable, str]] = {}
    for base in ("int", "bool"):
        compiled = compile_scalar(m, base)
        if compiled is not None:
            kernels[base] = compiled
    return kernels


# -- fused stages ------------------------------------------------------------


def stage_of(node: PlanNode) -> tuple | None:
    """The fused-stage descriptor for one spine step, or ``None``.

    Map stages carry the body *morphism* (the raw compiler's input); the
    body's plan index is resolved by :func:`repro.engine.passes.fuse_plan`
    when it rebuilds the node array.
    """
    if node.op == "map":
        return ("map", node.kind, None, node.source.body)
    if node.op == "leaf":
        cls = type(node.source)
        if cls in _MU:
            return ("mu", _MU[cls][0])
        if cls in _RETAG:
            kind_in, kind_out, noun = _RETAG[cls]
            return ("retag", kind_in, kind_out, noun)
        if cls is BagUnique:
            return ("unique",)
    return None


def spec_out_kind(spec: tuple) -> str:
    """The collection kind a fused stage sequence produces."""
    kind = "bag"
    for stage in spec:
        if stage[0] in ("map", "mu"):
            kind = stage[1]
        elif stage[0] == "retag":
            kind = stage[2]
    return kind


def encode_input(spec: tuple, value: Value) -> Arena:
    """Encode the kernel's input for the first fused stage.

    A leading ``mu`` gets the segmented (offsets) encoding so the flatten
    is a constant-time offsets drop; everything else encodes flat.
    """
    first = spec[0]
    tag = first[0]
    if tag == "map":
        return Arena.from_value(value, first[1], _MAP_NOUN[first[1]])
    if tag == "mu":
        return Arena.segmented(value, first[1], _MU_NOUN[first[1]])
    if tag == "retag":
        return Arena.from_value(value, first[1], first[3])
    return Arena.from_value(value, "bag", _UNIQUE_NOUN)


def compile_stages(node: PlanNode, build: Callable[[int], Callable]) -> list:
    """Prepare the runnable stage list for one ``fused`` node.

    *build* resolves a plan-node index to its compiled closure (the
    caller's bound-subtree builder), used for map bodies on the boxed
    fallback path; the raw kernels are compiled here from the body
    morphism recorded in the spec.
    """
    prepared = []
    for stage in node.spec:
        if stage[0] == "map":
            _tag, kind, kid_pos, body_m = stage
            boxed = build(node.kids[kid_pos])
            prepared.append(("map", kind, boxed, raw_kernels(body_m)))
        else:
            prepared.append(stage)
    return prepared


def _run_map(stage: tuple, arena: Arena) -> Arena:
    _tag, kind, boxed, kernels = stage
    if arena.kind != kind:
        raise OrNRATypeError(f"{_MAP_NOUN[kind]}, got {arena.to_value()!r}")
    int_k = kernels.get("int")
    bool_k = kernels.get("bool")
    out_bases: list = []
    out_raws: list = []
    push_base = out_bases.append
    push_raw = out_raws.append
    if int_k is not None:
        int_fn, int_out = int_k
    if bool_k is not None:
        bool_fn, bool_out = bool_k
    for b, r in zip(arena.bases, arena.raws, strict=True):
        if b == "int" and int_k is not None and isinstance(r, int):
            push_base(int_out)
            push_raw(int_fn(r))
        elif b == "bool" and bool_k is not None and type(r) is bool:
            push_base(bool_out)
            push_raw(bool_fn(r))
        else:
            elem = r if b is None else _cached_atom(b, r)
            out = boxed(elem)
            if type(out) is Atom:
                push_base(out.base)
                push_raw(out.value)
            else:
                push_base(None)
                push_raw(out)
    return Arena(kind, out_bases, out_raws)


def _run_mu(stage: tuple, arena: Arena) -> Arena:
    _tag, kind = stage
    noun = _MU_NOUN[kind]
    if arena.kind != kind:
        raise OrNRATypeError(f"{noun}, got {arena.to_value()!r}")
    if arena.offsets is not None:
        # The segmented encoding: flattening is just dropping the offsets.
        return Arena(kind, arena.bases, arena.raws)
    wrapper = _WRAPPER_OF[kind]
    out_bases: list = []
    out_raws: list = []
    for b, r in zip(arena.bases, arena.raws, strict=True):
        inner = r if b is None else _cached_atom(b, r)
        if not isinstance(inner, wrapper):
            raise OrNRATypeError(f"{noun}, got element {inner!r}")
        for e in inner.elems:
            if type(e) is Atom:
                out_bases.append(e.base)
                out_raws.append(e.value)
            else:
                out_bases.append(None)
                out_raws.append(e)
    return Arena(kind, out_bases, out_raws)


def _dedup_columns(bases: list, raws: list) -> tuple[list, list]:
    """Keep-first structural dedup over column-encoded elements.

    Key ``(base, raw)`` matches :class:`Atom` equality (bool payloads
    compare equal to their int coercions, exactly as atoms do); boxed
    values key on themselves and can never collide with an atom tuple.
    """
    seen: set = set()
    out_bases: list = []
    out_raws: list = []
    for b, r in zip(bases, raws, strict=True):
        key = (b, r) if b is not None else r
        if key not in seen:
            seen.add(key)
            out_bases.append(b)
            out_raws.append(r)
    return out_bases, out_raws


def _run_retag(stage: tuple, arena: Arena) -> Arena:
    _tag, kind_in, kind_out, noun = stage
    if arena.kind != kind_in:
        raise OrNRATypeError(f"{noun}, got {arena.to_value()!r}")
    bases, raws = arena.bases, arena.raws
    if kind_out == "bag" and kind_in != "bag":
        # Transient duplicates must not become observable multiplicities
        # (the streaming/sharded spine convention).
        bases, raws = _dedup_columns(bases, raws)
    return Arena(kind_out, bases, raws)


def _run_unique(arena: Arena) -> Arena:
    if arena.kind != "bag":
        raise OrNRATypeError(f"{_UNIQUE_NOUN}, got {arena.to_value()!r}")
    bases, raws = _dedup_columns(arena.bases, arena.raws)
    return Arena("bag", bases, raws)


def run_stages(stages: list, arena: Arena) -> Arena:
    """Run prepared fused stages over *arena*, column to column.

    The per-stage checkpoint keeps fused kernels cooperatively
    cancellable at stage granularity without a per-element branch in
    the tight column loops.
    """
    for stage in stages:
        checkpoint("fused stage")
        tag = stage[0]
        if tag == "map":
            arena = _run_map(stage, arena)
        elif tag == "mu":
            arena = _run_mu(stage, arena)
        elif tag == "retag":
            arena = _run_retag(stage, arena)
        else:
            arena = _run_unique(arena)
    return arena


def build_fused_kernel(
    node: PlanNode, build: Callable[[int], Callable]
) -> Callable[[Value], Value]:
    """The single closure a ``fused`` plan node executes as."""
    stages = compile_stages(node, build)
    spec = node.spec

    def kernel(value: Value) -> Value:
        return run_stages(stages, encode_input(spec, value)).to_value()

    return kernel


# -- the backend -------------------------------------------------------------


class FusedBackend(Backend):
    """Eager execution of the fused plan: one kernel per fused spine run.

    Plans are fused on entry (:func:`repro.engine.passes.fuse_plan`
    caches the derived plan on the original, so repeated executions see
    one stable object and its bound closure); a plan with nothing to
    fuse degrades to plain eager execution.
    """

    name = "fused"

    def execute(self, plan: Plan, value: Value) -> Value:
        from repro.engine.passes import fuse_plan

        return fuse_plan(plan).bind()(value)


BACKENDS["fused"] = FusedBackend()
