"""Execution backends for compiled plans.

Two strategies share the plan IR:

* :class:`EagerBackend` binds the plan to nested closures (see
  :meth:`repro.engine.plan.Plan.bind`) and runs them directly — the same
  semantics as the recursive interpreter, minus the per-composition
  interpretive overhead.

* :class:`StreamingBackend` threads *lazy* collections through the
  top-level spine of the plan in the style of :mod:`repro.core.lazy`:
  ``map``/``mu``/coercion stages over sets, or-sets and bags pass
  generators along instead of materializing (sorting, deduplicating) a
  canonical collection between every stage.  Only the final result — and
  any intermediate consumed by a non-streamable operator — is
  materialized, so a chain like ``map(f) o mu o map(g)`` canonicalizes
  once instead of three times.  Results are structurally identical to
  the eager backend's.

Every backend exposes :meth:`Backend.possibilities`, the lazy
conceptual-value stream of a program's output, which is how existential
queries short-circuit without producing a whole normal form.  It reads
the one world stream, :func:`repro.core.lazy.iter_possibilities`, a
deadline checkpoint per world; the streaming backend streams each
element of a lazy or-set spine the same way, so the first conceptual
value comes before any materialization.  The world queries
(:meth:`Backend.count_worlds`, :meth:`~Backend.exists`,
:meth:`~Backend.certain`, :meth:`~Backend.possible`) are computed from
that stream by default; the symbolic backend answers them in closed
form instead.

Three more strategies register themselves when their modules are
imported (which :mod:`repro.engine` always does): the multiprocess
sharded spine walk :class:`~repro.engine.process.ProcessBackend`
(``BACKENDS["process"]``), the fused columnar kernels of
:class:`~repro.engine.columnar.FusedBackend` (``BACKENDS["fused"]``) and
the closed-form world queries of
:class:`~repro.engine.symbolic.SymbolicBackend`
(``BACKENDS["symbolic"]``).

Callers rarely pick from :data:`BACKENDS` by hand: ``backend="auto"``
(the :meth:`repro.engine.Engine.run` default) chooses among the
in-process ones per call, from the plan's spine profile and, where that
leaves a choice, the cost model's static world-count estimate
(:func:`repro.engine.cost_model.select_backend`).
The differential conformance suite
(``tests/engine/test_backend_conformance.py``) gates every registered
backend on structural equality with the direct interpreter.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.lazy import iter_possibilities, stream_worlds
from repro.errors import OrNRATypeError, OrNRAValueError
from repro.lang.bag_ops import BagMu, BagToSet, BagUnique, SetToBag
from repro.lang.orset_ops import OrMu, OrToSet, SetToOr
from repro.lang.set_ops import SetMu
from repro.values.values import (
    BagValue,
    OrSetValue,
    SetValue,
    Value,
)

from repro.engine.deadline import checkpoint
from repro.engine.plan import MAP_KINDS, Plan

__all__ = ["Backend", "EagerBackend", "StreamingBackend", "BACKENDS"]


class Backend:
    """Interface: execute a compiled plan on a value, and query its worlds."""

    name = "abstract"

    def execute(self, plan: Plan, value: Value) -> Value:
        raise NotImplementedError

    def possibilities(self, plan: Plan, value: Value) -> Iterator[Value]:
        """Stream the conceptual values of the program's output lazily."""
        return iter_possibilities(self.execute(plan, value))

    # -- world queries, by enumeration ---------------------------------------

    def count_worlds(self, plan: Plan, value: Value) -> int:
        """The number of distinct worlds of the program's output."""
        return len(set(self.possibilities(plan, value)))

    def exists(
        self,
        plan: Plan,
        value: Value,
        predicate: Callable[[Value], bool] | None = None,
    ) -> bool:
        """Does some world satisfy *predicate* (with none: is there a world)?

        Worlds are streamed, so the first witness short-circuits.
        """
        worlds = self.possibilities(plan, value)
        if predicate is None:
            return next(worlds, None) is not None
        return any(predicate(world) for world in worlds)

    def certain(self, plan: Plan, value: Value) -> frozenset[Value]:
        """The elements in every world of the (collection-valued) output."""
        return _certain_of_worlds(self.possibilities(plan, value))

    def possible(self, plan: Plan, value: Value) -> frozenset[Value]:
        """The elements in some world of the (collection-valued) output."""
        return _possible_of_worlds(self.possibilities(plan, value))


def _not_a_collection(world: Value) -> OrNRATypeError:
    """The error of ``certain``/``possible`` on a world that is no collection."""
    return OrNRATypeError(
        f"certain/possible expect collection-valued worlds, got {world!r}"
    )


def _world_elements(world: Value) -> frozenset[Value]:
    if isinstance(world, (SetValue, BagValue, OrSetValue)):
        return frozenset(world.elems)
    raise _not_a_collection(world)


def _certain_of_worlds(worlds: Iterator[Value]) -> frozenset[Value]:
    """The intersection of the worlds' element sets."""
    result: frozenset[Value] | None = None
    for world in worlds:
        elems = _world_elements(world)
        result = elems if result is None else result & elems
        if not result:
            break
    if result is None:
        raise OrNRAValueError("certain() of an inconsistent value (no worlds)")
    return result


def _possible_of_worlds(worlds: Iterator[Value]) -> frozenset[Value]:
    """The union of the worlds' element sets."""
    result: set[Value] = set()
    empty = True
    for world in worlds:
        empty = False
        result |= _world_elements(world)
    if empty:
        raise OrNRAValueError("possible() of an inconsistent value (no worlds)")
    return frozenset(result)


class EagerBackend(Backend):
    """Closure-compiled execution with the original eager semantics."""

    name = "eager"

    def execute(self, plan: Plan, value: Value) -> Value:
        checkpoint("eager execution")
        return plan.bind()(value)


# -- streaming ---------------------------------------------------------------

_WRAPPER_OF = {"set": SetValue, "orset": OrSetValue, "bag": BagValue}

# kind-changing coercions that stream (input kind -> output kind).
_RETAG: dict[type, tuple[str, str, str]] = {
    OrToSet: ("orset", "set", "ortoset expects an or-set"),
    SetToOr: ("set", "orset", "settoor expects a set"),
    BagToSet: ("bag", "set", "bagtoset expects a bag"),
    SetToBag: ("set", "bag", "settobag expects a set"),
}

_MU: dict[type, tuple[str, str]] = {
    SetMu: ("set", "mu expects a set of sets"),
    OrMu: ("orset", "or_mu expects an or-set of or-sets"),
    BagMu: ("bag", "b_mu expects a bag of bags"),
}


class _Stream:
    """A lazily produced collection: kind tag plus an element iterator."""

    __slots__ = ("kind", "elems")

    def __init__(self, kind: str, elems: Iterator[Value]) -> None:
        self.kind = kind
        self.elems = elems


def _materialize(x: "Value | _Stream") -> Value:
    if isinstance(x, _Stream):
        return _WRAPPER_OF[x.kind](x.elems)
    return x


def _dedup(elems: Iterator[Value]) -> Iterator[Value]:
    """Yield each distinct element once, keeping first occurrences."""
    seen: set[Value] = set()
    for e in elems:
        if e not in seen:
            seen.add(e)
            yield e


def _as_stream(x: "Value | _Stream", kind: str, error: str) -> _Stream:
    if isinstance(x, _Stream):
        if x.kind != kind:
            raise OrNRATypeError(f"{error}, got {_materialize(x)!r}")
        return x
    wrapper = _WRAPPER_OF[kind]
    if not isinstance(x, wrapper):
        raise OrNRATypeError(f"{error}, got {x!r}")
    return _Stream(kind, iter(x.elems))


class StreamingBackend(Backend):
    """Lazy element flow along the plan's top-level collection spine."""

    name = "streaming"

    def execute(self, plan: Plan, value: Value) -> Value:
        return _materialize(self._eval(plan, plan.root, value, {}))

    def possibilities(self, plan: Plan, value: Value) -> Iterator[Value]:
        """Stream conceptual values without materializing the lazy spine.

        When the plan's output is a lazy *or-set* spine, each element's
        worlds are streamed as the element is produced: the or-set is a
        disjunction, so its conceptual values are the union of its
        elements' worlds and the first witness never forces the tail.
        Set/bag-kinded outputs materialize first.  Yield order may differ
        from the eager backend's; the yielded *set* of values is identical.
        """
        result = self._eval(plan, plan.root, value, {})
        if isinstance(result, _Stream) and result.kind == "orset":
            return _dedup(w for elem in result.elems for w in stream_worlds(elem))
        return iter_possibilities(_materialize(result))

    def _eval(
        self,
        plan: Plan,
        idx: int,
        value: "Value | _Stream",
        bound: dict[int, Callable[[Value], Value]],
    ) -> "Value | _Stream":
        node = plan.nodes[idx]
        op = node.op
        checkpoint("streaming stage")
        if op == "id":
            return value
        if op == "chain":
            for kid in node.kids:
                value = self._eval(plan, kid, value, bound)
            return value
        if op == "map":
            kind, _wrapper, _tw, noun = MAP_KINDS[type(node.source)]
            stream = _as_stream(value, kind, noun)
            body = node.kids[0]

            def mapped(elems=stream.elems, body=body):
                for e in elems:
                    checkpoint("streaming map")
                    yield _materialize(self._eval(plan, body, e, bound))

            return _Stream(kind, mapped())
        source_cls = type(node.source)
        if op == "leaf" and source_cls in _MU:
            kind, noun = _MU[source_cls]
            stream = _as_stream(value, kind, noun)
            wrapper = _WRAPPER_OF[kind]

            def flattened(elems=stream.elems, wrapper=wrapper, noun=noun):
                for inner in elems:
                    if not isinstance(inner, wrapper):
                        raise OrNRATypeError(f"{noun}, got element {inner!r}")
                    yield from inner.elems

            return _Stream(kind, flattened())
        if op == "leaf" and source_cls in _RETAG:
            kind_in, kind_out, noun = _RETAG[source_cls]
            stream = _as_stream(value, kind_in, noun)
            elems = stream.elems
            if kind_out == "bag" and kind_in != "bag":
                # A set/or-set-kinded stream may carry transient
                # duplicates (canonicalization is deferred); they must
                # not become observable bag multiplicities.
                elems = _dedup(elems)
            return _Stream(kind_out, elems)
        if op == "leaf" and source_cls is BagUnique:
            stream = _as_stream(value, "bag", "unique expects a bag")
            return _Stream("bag", _dedup(stream.elems))
        # Anything else: materialize and fall back to the eager node,
        # binding each node's closure once per execution (`bound`), not
        # once per element flowing through a surrounding map.
        concrete = _materialize(value)
        fn = bound.get(idx)
        if fn is None:
            fn = Plan._build_node(
                node,
                lambda k: lambda v: _materialize(self._eval(plan, k, v, bound)),
            )
            bound[idx] = fn
        return fn(concrete)


BACKENDS: dict[str, Backend] = {
    "eager": EagerBackend(),
    "streaming": StreamingBackend(),
}
