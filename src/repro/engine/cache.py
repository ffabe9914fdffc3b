"""The engine's caches: the isomorphism-keyed LRU plan cache and the
version-vector-guarded cache of prepared (preprocessed) enumerators.

Plan-cache lookups are two-tiered: the structural signature (see
:mod:`repro.engine.signature`) selects a bucket in O(query size), then the
bucket is searched first for an *equal* query (same variables, same relation
symbols — the common "same query object again" case) and only then with the
exact isomorphism matcher, which on success yields the renaming needed to
replay the cached plan against data addressed with the new query's names.
Eviction is least-recently-used at bucket granularity; ``maxsize`` bounds
the total number of cached plans.

:class:`PreparedCache` covers the repeated-workload serving pattern (same
plan, same instance object): it memoizes preprocessed enumerators and
revalidates them with *exact* per-relation version vectors, walking the
invalidation ladder exact-hit → delta-apply → rebase (see
:meth:`PreparedCache.fetch`).

Both caches are safe to share across threads: every structural mutation
(bucket search + LRU refresh + hit counting, insert + eviction, entry
revalidation) runs under an internal lock, and :meth:`PlanCache.add_or_get`
makes the lookup-or-store step atomic so concurrent misses for the same
query can never store duplicate plans. The one deliberately *unlocked*
stretch is :meth:`PreparedCache.fetch`'s delta application — it mutates the
cached enumerator, not the cache — whose per-``(plan, instance)`` mutual
exclusion is the engine's job (see ``Engine._prepared_enumerator``'s keyed
build locks); the cache lock is never held across it, so unrelated fetches
stay concurrent under a long delta apply.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Optional

from ..concurrency import make_lock
from ..database.instance import Instance
from ..exceptions import DeadlineExceededError
from ..query.isomorphism import ucq_isomorphism
from ..query.terms import Var
from ..query.ucq import UCQ
from .plan import Plan

#: (plan, free-variable map plan→query, relation map plan→query);
#: the maps are ``None`` for an exact (non-renamed) hit.
CacheHit = tuple[Plan, Optional[dict[Var, Var]], Optional[dict[str, str]]]


class PlanCache:
    """LRU cache of :class:`Plan` objects keyed by structural signature."""

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("plan cache needs room for at least one plan")
        self.maxsize = maxsize
        self._buckets: OrderedDict[tuple, list[Plan]] = OrderedDict()
        self._count = 0
        self._lock = make_lock("cache.plan")

    def lookup(self, ucq: UCQ, signature: tuple) -> Optional[CacheHit]:
        """The cached plan answering *ucq*, or None.

        The bucket for *signature* is searched for an equal query first
        (maps come back ``None``) and isomorphically second (maps carry
        the renaming needed to replay the plan). A hit refreshes the
        bucket's LRU position. The whole search-and-refresh is one
        critical section, so ``plan.hits`` and the LRU order never tear
        under concurrent lookups.
        """
        with self._lock:
            return self._lookup_locked(ucq, signature)

    def _lookup_locked(self, ucq: UCQ, signature: tuple) -> Optional[CacheHit]:
        bucket = self._buckets.get(signature)
        if not bucket:
            return None
        for plan in bucket:
            if plan.ucq == ucq:
                self._buckets.move_to_end(signature)
                plan.hits += 1
                return plan, None, None
        for plan in bucket:
            maps = ucq_isomorphism(plan.ucq, ucq)
            if maps is not None:
                self._buckets.move_to_end(signature)
                plan.hits += 1
                return plan, maps[0], maps[1]
        return None

    def store(self, plan: Plan) -> int:
        """Insert *plan*; returns how many plans were evicted to make room.

        Storing a plan whose query is *equal* to one already in the bucket
        is a no-op (0 evictions): concurrent misses that raced to build
        the same plan must not inflate the count or evict live plans.
        Callers that want the canonical winner use :meth:`add_or_get`.
        """
        return self.add_or_get(plan)[1]

    def add_or_get(self, plan: Plan) -> tuple[Plan, int]:
        """Atomically insert *plan* or return the equal plan that won an
        earlier (possibly concurrent) race: ``(canonical plan, evictions)``.

        The bucket search, the insert and any evictions happen under one
        lock, so two threads that both missed on the same query end up
        sharing a single cached plan object.
        """
        with self._lock:
            bucket = self._buckets.setdefault(plan.signature, [])
            for existing in bucket:
                if existing.ucq == plan.ucq:
                    self._buckets.move_to_end(plan.signature)
                    return existing, 0
            bucket.append(plan)
            self._buckets.move_to_end(plan.signature)
            self._count += 1
            evicted = 0
            while self._count > self.maxsize:
                signature, oldest = next(iter(self._buckets.items()))
                if signature == plan.signature:
                    # the just-stored bucket is also the least-recent one
                    # (all cached queries collide on this signature): shed
                    # its oldest plans so a colliding workload cannot
                    # outgrow maxsize
                    oldest.pop(0)
                    self._count -= 1
                    evicted += 1
                else:
                    del self._buckets[signature]
                    self._count -= len(oldest)
                    evicted += len(oldest)
            return plan, evicted

    def clear(self) -> None:
        """Drop every cached plan."""
        with self._lock:
            self._buckets.clear()
            self._count = 0

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def __contains__(self, signature: tuple) -> bool:
        with self._lock:
            return signature in self._buckets


#: fetch outcomes, in ladder order
HIT = "hit"          # version vector unchanged: serve as-is
DELTA = "delta"      # data changed; deltas applied to the cached enumerator
REBASE = "rebase"    # history unusable (replaced relation / truncated log)
MISS = "miss"        # nothing cached for this (plan, instance)


class PreparedCache:
    """LRU memo of preprocessed enumerators per ``(plan, instance)`` pair.

    Staleness is decided by *exact* version vectors (per-relation
    ``(uid, version)``, see :meth:`Instance.version_vector`) instead of the
    old identity/cardinality fingerprint, which was blind to in-place swaps
    preserving a relation's cardinality. The ladder on lookup:

    1. **exact hit** — the vector is unchanged: the cached enumerator is
       served untouched;
    2. **delta apply** — the instance moved forward but every relation's
       delta log still covers the gap: the net deltas are applied to the
       cached enumerator's preprocessing (interned at the enumerator's id
       boundary, see :meth:`CDYEnumerator.apply_deltas`) in O(|Δ|-affected
       state) and the stored vector advances;
    3. **rebase** — a relation was replaced wholesale, appeared/disappeared,
       outran its delta log, or delta application failed: the entry is
       dropped and the caller re-preprocesses from scratch.

    Entries are keyed by object identity (weakref-guarded, like the plan
    cache's strong plan reference pinning ``id(plan)``).
    """

    def __init__(self, maxsize: int = 32) -> None:
        self.maxsize = maxsize
        # (id(plan), id(instance)) -> (plan, weakref(instance), vector, enum)
        self._entries: OrderedDict[tuple[int, int], tuple] = OrderedDict()
        # reentrant: a GC-triggered weakref callback may fire while the
        # same thread already holds the lock
        self._lock = make_lock("cache.prepared", reentrant=True)

    def fetch(
        self, plan: Plan, instance: Instance, view: Instance | None = None
    ) -> tuple[str, object]:
        """``(outcome, enumerator-or-None)`` for the ladder above.

        Dictionary state is read and written under the cache lock; the
        delta application itself runs *outside* it (it mutates the shared
        enumerator, which the engine serializes per ``(plan, instance)``
        with its keyed build locks), so a long delta apply never blocks
        fetches for other keys.

        *view* is the instance the plan's relation names address when
        that is not *instance* itself (a relation-renamed readdressing
        sharing its relation objects): version vectors and deltas are
        read from it, while the entry stays keyed on, and dies with,
        *instance*.
        """
        data = instance if view is None else view
        key = (id(plan), id(instance))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISS, None
            _plan, ref, vector, enum = entry
            if ref() is not instance:  # id reuse after garbage collection
                self._entries.pop(key, None)
                return MISS, None
        current = data.version_vector(plan.ucq.schema)
        if current == vector:
            with self._lock:
                if key not in self._entries:
                    # a concurrent invalidate()/clear()/eviction removed
                    # the entry between our read and now; invalidate is the
                    # remedy for out-of-band swaps the version vector
                    # cannot see, so the enumerator must not be served
                    return REBASE, None
                self._entries.move_to_end(key)
            return HIT, enum
        deltas = data.diff_since(vector)
        if deltas is not None:
            try:
                enum.apply_deltas(deltas)
            except DeadlineExceededError:
                # the caller's budget ran out mid-patch: the half-patched
                # enumerator is already poisoned (apply_deltas bumps its
                # epoch even on failure), so drop the entry first — the
                # cache stays consistent — then let the deadline propagate
                with self._lock:
                    self._entries.pop(key, None)
                raise
            except Exception:
                # a failed delta application must never serve worse answers
                # than a rebuild: drop the entry and fall through to rebase
                pass
            else:
                with self._lock:
                    # update only a still-present entry: a concurrent
                    # invalidate()/clear()/eviction that removed it must
                    # not be undone by resurrecting state it meant to kill
                    # (invalidate is the remedy for out-of-band swaps the
                    # version vector cannot see, so the patched enumerator
                    # cannot be trusted either — rebase instead)
                    if key in self._entries:
                        self._entries[key] = (_plan, ref, current, enum)
                        self._entries.move_to_end(key)
                        return DELTA, enum
                return REBASE, None
        with self._lock:
            self._entries.pop(key, None)
        return REBASE, None

    def peek(self, plan: Plan, instance: Instance) -> bool:
        """Whether a live entry exists for ``(plan, instance)``.

        A pure presence probe for the batch planner's warm/cold split: no
        LRU refresh, no version-vector check, no ladder — the subsequent
        :meth:`fetch` remains the single authority on what the entry is
        worth. Only guards against a dead-instance id collision.
        """
        key = (id(plan), id(instance))
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[1]() is instance

    def store(
        self,
        plan: Plan,
        instance: Instance,
        enum: object,
        view: Instance | None = None,
    ) -> None:
        """Memoize *enum* for ``(plan, instance)`` at the current version
        vector (of *view*, when given, as in :meth:`fetch`); LRU-evicts
        beyond ``maxsize``. The instance is held weakly — entries die
        with their instance."""
        key = (id(plan), id(instance))
        vector = (instance if view is None else view).version_vector(
            plan.ucq.schema
        )
        try:
            ref = weakref.ref(instance, lambda _r, k=key: self._discard(k))
        except TypeError:  # pragma: no cover - non-weakrefable instance
            return
        with self._lock:
            self._entries[key] = (plan, ref, vector, enum)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def _discard(self, key: tuple[int, int]) -> None:
        """Weakref finalizer: drop a dead instance's entry under the lock."""
        with self._lock:
            self._entries.pop(key, None)

    def invalidate(self, instance: Instance | None = None) -> None:
        """Drop entries for *instance* (or every entry when None)."""
        with self._lock:
            if instance is None:
                self._entries.clear()
                return
            for key in [k for k in self._entries if k[1] == id(instance)]:
                del self._entries[key]

    def clear(self) -> None:
        """Drop every prepared enumerator."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
