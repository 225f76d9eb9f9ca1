"""The value arena: hash-consing and memoized normalize.

Every :class:`~repro.values.values.Value` is immutable, so structurally
equal values are interchangeable — but the direct interpreter happily
builds millions of distinct-but-equal objects, re-deriving the canonical
sort order (and, worse, the normal form) for each copy.  The
:class:`Interner` fixes that at the runtime layer:

* :meth:`Interner.intern` hash-conses a value: structurally equal values
  come back as the *same* object, rebuilt bottom-up so all shared
  substructure is shared physically too.  Every canon carries its sort
  key (:func:`repro.values.values.sort_key`), as every node does;
* :meth:`Interner.normalize` memoizes :func:`repro.core.normalize.normalize`
  keyed on the interned object's *identity* (plus the declared type), so
  repeated normalization of the same object — the dominant cost in
  possible-worlds workloads — is computed once.  A miss runs the
  normal-form kernel *inside* the arena: every node it creates is the
  arena's canon from the start, so the normal form needs no second
  interning pass.

The arena holds strong references by design (identity-keyed caches
require it), so it is *bounded*: past ``max_size`` entries the arena
evicts **least-recently-used** entries one at a time — every intern hit
touches its entry, so the hot working set stays resident while cold
values (and *their* memoized normal forms, keyed by the evicted
object's id) leave together.  The recency order is keyed by
the canon's id, so touching an entry — and re-interning an object that
already is its canon — costs no structural rehash.
``stats()["evictions"]`` counts evicted entries; pass ``max_size=None``
for the old unbounded behaviour, or call :meth:`Interner.clear` to
release everything by hand.

All public methods are thread-safe: one :class:`threading.RLock` guards
the arena and the derived-result caches, which is what makes the shared
``DEFAULT_ENGINE`` safe to hammer from the serving layer's executor
threads.  The normal-form kernel mutates the arena, so it runs under
that lock too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.types.kinds import Type
from repro.values.values import (
    Atom,
    BagValue,
    OrSetValue,
    Pair,
    SetValue,
    UnitValue,
    Value,
    Variant,
    sort_key,
)

__all__ = ["Interner", "DEFAULT_MAX_ARENA_SIZE"]

#: Default arena capacity (entries).  Generous enough that eviction never
#: fires on benchmark-sized workloads, small enough that a long-running
#: REPL or server process cannot pin memory without bound.
DEFAULT_MAX_ARENA_SIZE = 1 << 20

#: Cap on per-interner bound-plan closures (cleared wholesale past it).
_MAX_BOUND_PLANS = 256


class Interner:
    """A hash-consing arena with identity-keyed derived-result caches.

    *max_size* caps the number of arena entries; ``None`` disables the
    cap.  Past capacity the arena evicts in true LRU order: interning an
    already-present value touches its entry, so frequently reused values
    (and their memoized normal forms) survive while cold ones are dropped
    entry by entry.
    """

    def __init__(self, max_size: int | None = DEFAULT_MAX_ARENA_SIZE) -> None:
        self.max_size = max_size
        # Structural lookup, and the LRU order keyed by the canon's id.
        self._arena: dict[Value, Value] = {}
        self._recency: OrderedDict[int, Value] = OrderedDict()
        self._normal_forms: dict[int, dict[Type | None, Value]] = {}
        self._bound_plans: dict[int, tuple[object, object]] = {}
        # RLock: leaf_apply-driven normalize calls may arrive while
        # intern() already holds the lock.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.normalize_hits = 0
        self.normalize_misses = 0
        self.evictions = 0

    # -- hash-consing ------------------------------------------------------

    def intern(self, value: Value) -> Value:
        """The canonical physical object structurally equal to *value*."""
        with self._lock:
            canon = self._intern(value)
            self._trim()
            return canon

    def _intern(self, value: Value) -> Value:
        # An id the arena pins is a live canon: re-interning one is an
        # identity check, not a structural rehash.
        canon = value if id(value) in self._recency else self._arena.get(value)
        if canon is not None:
            self.hits += 1
            self._recency.move_to_end(id(canon))  # touch: LRU keeps hot entries
            return canon
        node = self._rebuild(value)
        # The kernel reads the key of every canon it gets back, and a leaf
        # is its own rebuild: an unpickled one gets its key here.
        sort_key(node)
        return self._canon(node)

    def _canon(self, node: Value) -> Value:
        """The canonical copy of *node*, whose children are canonical.

        This is also the normal-form kernel's arena hook.
        """
        canon = self._arena.setdefault(node, node)
        if canon is node:
            self.misses += 1
            self._recency[id(node)] = node
        else:
            self.hits += 1
            self._recency.move_to_end(id(canon))
        return canon

    def _rebuild(self, value: Value) -> Value:
        if isinstance(value, (Atom, UnitValue)):
            return value
        if isinstance(value, Pair):
            return Pair(self._intern(value.fst), self._intern(value.snd))
        if isinstance(value, Variant):
            return Variant(value.side, self._intern(value.payload))
        if isinstance(value, SetValue):
            return SetValue(self._intern(e) for e in value.elems)
        if isinstance(value, OrSetValue):
            return OrSetValue(self._intern(e) for e in value.elems)
        if isinstance(value, BagValue):
            return BagValue(self._intern(e) for e in value.elems)
        return value

    def is_interned(self, value: Value) -> bool:
        """Is *value* (this exact object) the arena's canonical copy?"""
        with self._lock:
            return id(value) in self._recency

    def _trim(self) -> None:
        """Evict LRU entries until the arena is back within ``max_size``.

        Each evicted canon takes its memoized normal forms with it (they
        are keyed by an id only the arena kept alive).  A single intern of a
        large value may insert many nested entries at once, so trimming
        runs after the rebuild — always keeping at least the most recent
        entry, the canon :meth:`intern` has just built.
        Previously returned canonical objects stay valid values — they
        merely stop being identical to the canon of *future* interns.
        """
        if self.max_size is None:
            return
        floor = max(self.max_size, 1)
        while len(self._recency) > floor:
            key, canon = self._recency.popitem(last=False)
            del self._arena[canon]
            self._normal_forms.pop(key, None)
            self.evictions += 1

    # -- derived results ---------------------------------------------------

    def sort_key(self, value: Value) -> tuple:
        """The canonical sort key: the key the interned canon carries."""
        return sort_key(self.intern(value))

    def normalize(self, value: Value, value_type: Type | None = None) -> Value:
        """Memoized :func:`repro.core.normalize.normalize`, built in the arena.

        The key is the *identity* of the interned input (plus the
        declared type), so equal inputs share one normalization no matter
        how many structurally distinct copies the caller holds.  A miss
        runs the kernel with this arena as its hash-consing table, under
        the lock: the normal form comes back canonical, node by node, and
        the arena is trimmed only after the kernel returns, so no node of
        it stops being the current canon before the memo holds it.
        """
        from repro.core.normalize import normalize as _normalize

        with self._lock:
            try:
                canon = self._intern(value)
                by_type = self._normal_forms.get(id(canon))
                cached = by_type.get(value_type) if by_type is not None else None
                if cached is not None:
                    self.normalize_hits += 1
                    return cached
                self.normalize_misses += 1
                result = _normalize(canon, value_type, arena=self._canon)
                # The kernel's nodes went in after `canon`; re-touch it so
                # the trim evicts them before the memo's key — otherwise
                # the memo would die for exactly the expensive inputs it
                # exists for.
                self._recency.move_to_end(id(canon))
                self._normal_forms.setdefault(id(canon), {})[value_type] = result
                return result
            finally:
                self._trim()

    # -- plan integration --------------------------------------------------

    def leaf_apply(self, m):
        """Leaf executor for :meth:`repro.engine.plan.Plan.bind`.

        ``normalize`` leaves run through the memo table; every other leaf
        keeps its direct ``apply``.
        """
        from repro.core.normalize import Normalize

        if isinstance(m, Normalize):
            declared = m.input_type
            return lambda v: self.normalize(v, declared)
        return m.apply

    def bound_plan(self, plan):
        """The plan's executable closure with this arena's leaf executor.

        The memo lives on the *interner*, not the plan: the bound
        closures close over ``self``, and a plan (cached, shared, run by
        any backend with any arena) can outlive this arena, which a
        plan-side entry would pin.  Here everything dies with the
        interner.  The stored ``(plan, fn)`` pair keeps the plan alive so
        its ``id`` cannot be recycled into a stale hit.
        """
        key = id(plan)
        with self._lock:
            entry = self._bound_plans.get(key)
            if entry is not None and entry[0] is plan:
                return entry[1]
            if len(self._bound_plans) >= _MAX_BOUND_PLANS:
                self._bound_plans.clear()
            fn = plan.bind(self.leaf_apply, cache=False)
            self._bound_plans[key] = (plan, fn)
            return fn

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict[str, int | None]:
        """Arena and cache counters (for benchmarks and diagnostics)."""
        with self._lock:
            return {
                "arena_size": len(self._arena),
                "max_size": self.max_size,
                "intern_hits": self.hits,
                "intern_misses": self.misses,
                "normalize_hits": self.normalize_hits,
                "normalize_misses": self.normalize_misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop the arena and every derived-result cache."""
        with self._lock:
            self._arena.clear()
            self._recency.clear()
            self._normal_forms.clear()
            self._bound_plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._arena)
