"""Lazy (stream) normalization — the Section 7 optimization.

The conclusion sketches evaluating existential queries without producing
the whole normal form: "elements of a normal form are produced as elements
of a stream ... if the test is satisfied, the evaluation stops".  This
module is that stream, and the engine enumerates worlds only through it:

* :func:`stream_worlds` lists a value's worlds lazily, one deadline
  checkpoint per world;
* :func:`iter_possibilities` streams the conceptual values of an object,
  deduplicated on the fly, in the same canonical order-free fashion as
  ``normalize`` (the *set* of yielded values equals the normal form's
  elements);
* :func:`exists_lazy` / :func:`find_first` short-circuit on the first
  witness — the benchmark ``bench_lazy_normalization`` measures the
  speedup over eager normalization on satisfiable existential queries.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Callable, Iterator

from repro.errors import OrNRAValueError
from repro.values.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    UnitValue,
    Value,
    Variant,
)

__all__ = [
    "has_world",
    "stream_worlds",
    "iter_possibilities",
    "exists_lazy",
    "forall_lazy",
    "find_first",
    "take_possibilities",
]


def has_world(v: Value) -> bool:
    """Is *v* consistent: does it denote at least one world?"""
    if isinstance(v, OrSetValue):
        return any(has_world(branch) for branch in v.elems)
    if isinstance(v, (SetValue, BagValue)):
        return all(has_world(member) for member in v.elems)
    if isinstance(v, Pair):
        return has_world(v.fst) and has_world(v.snd)
    if isinstance(v, Variant):
        return has_world(v.payload)
    return True  # atoms and unit


def _odometer(v: Value) -> Iterator[Value]:
    """The worlds of *v*, which has at least one, possibly repeated: a set
    or bag steps through its members' worlds like an odometer, and or-set
    branches without a world are skipped, so the work between two worlds
    is polynomial in the size of *v*."""
    if isinstance(v, OrSetValue):
        for branch in v.elems:
            if has_world(branch):
                yield from _odometer(branch)
    elif isinstance(v, (SetValue, BagValue)):
        members = v.elems
        streams = [_odometer(member) for member in members]
        choice = [next(stream) for stream in streams]
        while True:
            yield type(v)(choice)
            for i in reversed(range(len(members))):
                world = next(streams[i], None)
                if world is not None:
                    choice[i] = world
                    break
            else:
                return
            for j in range(i + 1, len(members)):
                streams[j] = _odometer(members[j])
                choice[j] = next(streams[j])
    elif isinstance(v, Pair):
        for fst in _odometer(v.fst):
            for snd in _odometer(v.snd):
                yield Pair(fst, snd)
    elif isinstance(v, Variant):
        for payload in _odometer(v.payload):
            yield Variant(v.side, payload)
    elif isinstance(v, (Atom, UnitValue)):
        yield v
    else:
        raise OrNRAValueError(f"not a value: {v!r}")


@cache
def _checkpoint() -> Callable[[str], None]:
    # repro.engine imports this module, so the checkpoint is bound late.
    from repro.engine.deadline import checkpoint

    return checkpoint


def stream_worlds(value: Value) -> Iterator[Value]:
    """The worlds of *value*, possibly repeated, lazily, in the oracle's
    order; one deadline checkpoint per world."""
    if has_world(value):
        checkpoint = _checkpoint()
        for world in _odometer(value):
            checkpoint("world enumeration")
            yield world


def iter_possibilities(value: Value) -> Iterator[Value]:
    """Stream the conceptual values of *value* without duplicates.

    Equivalent to iterating over ``possibilities(value)`` but produces
    each element as soon as it is discovered.
    """
    seen: set[Value] = set()
    for world in stream_worlds(value):
        if world not in seen:
            seen.add(world)
            yield world


def exists_lazy(pred: Callable[[Value], bool], value: Value) -> bool:
    """Does some conceptual value of *value* satisfy *pred*?

    Short-circuits on the first witness; this is the lazy evaluation of
    the existential queries of Section 6.
    """
    return any(pred(world) for world in stream_worlds(value))


def forall_lazy(pred: Callable[[Value], bool], value: Value) -> bool:
    """Do all conceptual values of *value* satisfy *pred*?

    Vacuously true for inconsistent objects (no conceptual values).
    """
    return all(pred(world) for world in stream_worlds(value))


def find_first(pred: Callable[[Value], bool], value: Value) -> Value | None:
    """The first conceptual value satisfying *pred*, or ``None``."""
    return next((world for world in stream_worlds(value) if pred(world)), None)


def take_possibilities(value: Value, k: int) -> list[Value]:
    """At most *k* distinct conceptual values (cheap peek at a normal form)."""
    return list(islice(iter_possibilities(value), k))
