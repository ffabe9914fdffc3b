"""Shared concurrency primitives: locked counters and keyed build locks.

The engine and the serving layer are both long-lived shared objects under
multi-threaded traffic (the HTTP front end is a ``ThreadingHTTPServer``;
``tests/test_concurrency.py`` hammers them directly). Two recurring
needs are factored out here:

* :class:`LockedCounters` — a stats object whose increments are atomic.
  Plain ``stats.field += 1`` is a read-modify-write that loses updates
  under contention (two threads read the same old value); routing every
  bump through :meth:`LockedCounters.add` under one internal lock keeps
  totals exact, while plain attribute *reads* stay lock-free (a single
  attribute load is atomic in CPython, and monitoring endpoints prefer
  freshness over a consistent multi-field snapshot —
  :meth:`LockedCounters.as_dict` takes the lock when consistency across
  fields matters).
* :class:`RWLock` — a reader/writer lock for the serving layer's
  instance guards: many sessions may *read* an instance concurrently
  (preprocess, enumerate), while a delta application takes the write side
  and runs exclusively — the versioned relation mutators are not safe
  against a concurrent grounding pass iterating their tuple sets.
* :class:`KeyedLocks` — per-key mutual exclusion for "build once" paths:
  concurrent cache misses for the *same* (plan, instance) serialize on the
  key's lock (one thread preprocesses, the rest find the freshly stored
  entry), while misses for different keys proceed in parallel. Lock
  objects are created on demand and pruned when uncontended, so the
  registry never outgrows the live key set.
* :class:`BoundedGate` — a non-blocking admission counter for the serving
  layer's backpressure: entry either succeeds immediately or fails (the
  caller sheds the request with 503 + ``Retry-After``); nothing ever
  queues behind the limit, which is the whole point — a saturated
  server must refuse work, not accumulate it.

Lock hierarchy (documented in DESIGN.md, "Concurrency model"): a
:class:`KeyedLocks` member lock may be held while taking a cache's
internal lock, never the reverse; counter locks are leaves (no other lock
is ever acquired while holding one). The hierarchy is *machine-checked*:
:data:`LOCK_ORDER` below is the canonical rank table — every lock in the
codebase is annotated with one of its rank names (via :func:`make_lock`,
or the ``rank_name`` of :class:`RWLock` / :class:`KeyedLocks`), the
static lint rule (:mod:`repro.analysis.rules.locks`) checks that nested
``with`` acquisitions only ever move to strictly higher ranks, and the
runtime witness (:mod:`repro.analysis.witness`) records actual held-set →
acquired edges through the :func:`set_lock_witness` seam and reports
potential-deadlock cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


# --------------------------------------------------------------------- #
# the lock-rank table (the machine-checked form of DESIGN.md's hierarchy)


@dataclass(frozen=True)
class LockRank:
    """One row of the lock hierarchy: a named rank with its contract.

    ``rank`` orders acquisition: while holding a lock of rank *r*, only
    locks of **strictly higher** rank may be acquired (equal ranks never
    nest). ``blocking_allowed`` says whether long-running work (builds,
    page fetches, pool construction, sleeps) is permitted under the lock;
    short-held registry/cache/counter locks set it ``False`` and the lint
    bans blocking calls in their ``with`` bodies.
    """

    name: str
    rank: int
    blocking_allowed: bool
    holder: str
    description: str


#: the canonical lock hierarchy, outermost first — DESIGN.md renders this
#: table verbatim and `repro lint` checks code against it
LOCK_ORDER: tuple[LockRank, ...] = (
    LockRank(
        "serving.registry", 10, False, "SessionManager._lock",
        "instance map, session LRU, id counters — short dict ops only, "
        "never held across engine calls or page fetches",
    ),
    LockRank(
        "serving.session", 20, True, "Session.lock",
        "serializes one session's page fetches; different sessions page "
        "in parallel",
    ),
    LockRank(
        "serving.instance", 30, True, "per-instance RWLock",
        "opens/resumes preprocess under read(); apply_delta mutates "
        "under write()",
    ),
    LockRank(
        "engine.build", 40, True, "Engine KeyedLocks member",
        "per-(plan, instance) build-once section: a cold miss "
        "preprocesses while same-key callers wait; delta application "
        "never runs twice on one shared enumerator",
    ),
    LockRank(
        "engine.fragment_registry", 44, False, "FragmentCache._lock",
        "weakref registry of per-instance fragment spaces — dict ops only",
    ),
    LockRank(
        "engine.fragments", 46, True, "FragmentSpace.lock",
        "fragment bucket lookup/adopt/store for one instance's shared "
        "join subtrees",
    ),
    LockRank(
        "engine.pool", 50, True, "Engine._shard_pool_lock",
        "lazy construction and swap of the engine's backend-matched "
        "shard pool (construction may spawn workers)",
    ),
    LockRank(
        "cache.plan", 60, False, "PlanCache._lock",
        "bucket search + LRU refresh + hit counting",
    ),
    LockRank(
        "cache.prepared", 62, False, "PreparedCache._lock",
        "prepared-entry dict ops only — never held across a delta apply "
        "or a build",
    ),
    LockRank(
        "concurrency.keyed_registry", 70, False, "KeyedLocks._master",
        "keyed-lock registry dict ops (claim/prune entries)",
    ),
    LockRank(
        "storage.segments", 80, False, "columns._LIVE_LOCK",
        "shared-memory leak-accounting set",
    ),
    LockRank(
        "serving.gate", 85, False, "BoundedGate._lock",
        "admission counter check-and-bump",
    ),
    LockRank(
        "counters", 90, False, "LockedCounters._lock",
        "leaf: stats increments; no other lock is ever acquired inside",
    ),
)

#: rank-name → :class:`LockRank` lookup for the lint and the witness
LOCK_RANKS: dict[str, LockRank] = {r.name: r for r in LOCK_ORDER}


def rank_of(name: str) -> LockRank:
    """The :class:`LockRank` registered under *name* (KeyError when the
    annotation names an undeclared rank — the lint turns that into a
    finding rather than guessing)."""
    return LOCK_RANKS[name]


# --------------------------------------------------------------------- #
# the runtime witness seam (see repro.analysis.witness)

#: the process-wide installed lock witness (None = zero-overhead path)
_WITNESS = None


def set_lock_witness(witness) -> None:
    """Install *witness* as the process-wide lock-order observer.

    *witness* must expose ``on_acquire(rank_name, lock_id)`` and
    ``on_release(rank_name, lock_id)`` (see
    :class:`repro.analysis.witness.LockOrderWitness`). Installing is
    debug/test-scoped: production runs keep the hook ``None`` and every
    instrumented acquisition costs one global load and a branch.
    """
    global _WITNESS
    _WITNESS = witness


def clear_lock_witness() -> None:
    """Remove the installed lock witness (idempotent)."""
    global _WITNESS
    _WITNESS = None


def active_lock_witness():
    """The installed lock witness, or ``None``."""
    return _WITNESS


class NamedLock:
    """A mutex annotated with its rank-table name, witness-observable.

    Wraps a plain :class:`threading.Lock` (or, with ``reentrant=True``,
    an :class:`threading.RLock`) and forwards ``acquire`` / ``release`` /
    context-manager use. When a lock witness is installed
    (:func:`set_lock_witness`) every acquisition attempt is reported
    *before* blocking — which is exactly what lets the witness flag
    potential deadlocks that did not happen to trigger — and every
    release afterwards. With no witness installed the overhead is one
    module-global load per operation.
    """

    __slots__ = ("rank_name", "_inner")

    def __init__(self, rank_name: str, reentrant: bool = False) -> None:
        if rank_name not in LOCK_RANKS:
            raise ValueError(f"undeclared lock rank {rank_name!r}")
        self.rank_name = rank_name
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock, reporting the attempt first."""
        witness = _WITNESS
        if witness is not None:
            witness.on_acquire(self.rank_name, id(self))
        ok = self._inner.acquire(blocking, timeout)
        if not ok and witness is not None:
            witness.on_release(self.rank_name, id(self))
        return ok

    def release(self) -> None:
        """Release the underlying lock, then report the release."""
        self._inner.release()
        witness = _WITNESS
        if witness is not None:
            witness.on_release(self.rank_name, id(self))

    def __enter__(self) -> "NamedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NamedLock({self.rank_name!r})"


def make_lock(rank_name: str, reentrant: bool = False) -> NamedLock:
    """A rank-annotated lock for the declared hierarchy position.

    This is the factory every lock in the codebase goes through: the
    annotation is what the static lint resolves ``with`` statements
    against, and what the runtime witness names graph nodes with.
    """
    return NamedLock(rank_name, reentrant=reentrant)


class LockedCounters:
    """A bag of integer counters with atomic, lock-guarded increments.

    Subclasses declare their counters in ``_fields``; every counter starts
    at zero. Reads of individual attributes are plain (lock-free);
    increments go through :meth:`add`, which is atomic across all the
    fields it bumps at once.
    """

    #: counter names, declared by subclasses (order = reporting order)
    _fields: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._lock = make_lock("counters")
        for name in self._fields:
            setattr(self, name, 0)

    def add(self, **deltas: int) -> None:
        """Atomically bump the named counters (``stats.add(hits=1)``)."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def as_dict(self) -> dict:
        """A consistent snapshot of every counter as a plain dict."""
        with self._lock:
            return {name: getattr(self, name) for name in self._fields}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({body})"


class BoundedGate:
    """A non-blocking bounded admission counter (load shedding, not queueing).

    ``try_enter()`` admits the caller iff fewer than ``limit`` holders are
    inside (always, when ``limit`` is ``None``); ``leave()`` releases.
    Unlike a semaphore there is no blocking acquire at all — a full gate
    answers *no* immediately, which is what lets the serving layer shed
    load with 503 instead of queueing unboundedly. ``in_flight`` is a
    lock-free snapshot for health endpoints.
    """

    def __init__(self, limit: "int | None" = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative (or None)")
        self.limit = limit
        self._lock = make_lock("serving.gate")
        self._count = 0

    @property
    def in_flight(self) -> int:
        """Current number of admitted holders (monitoring snapshot)."""
        return self._count

    def try_enter(self) -> bool:
        """Admit the caller if the gate has room; never blocks."""
        with self._lock:
            if self.limit is not None and self._count >= self.limit:
                return False
            self._count += 1
            return True

    def leave(self) -> None:
        """Release one admission (must pair with a successful try_enter)."""
        with self._lock:
            if self._count <= 0:  # pragma: no cover - misuse guard
                raise RuntimeError("BoundedGate.leave() without enter")
            self._count -= 1


class RWLock:
    """A writer-preferring reader/writer lock.

    ``with lock.read():`` admits any number of concurrent readers as long
    as no writer holds or awaits the lock; ``with lock.write():`` waits
    for active readers to drain and then runs exclusively. Writers are
    preferred (new readers queue behind a waiting writer), so a steady
    read load cannot starve delta application. Not reentrant on the write
    side; a thread must not upgrade a held read lock to a write lock.
    """

    def __init__(self, rank_name: str = "serving.instance") -> None:
        if rank_name not in LOCK_RANKS:
            raise ValueError(f"undeclared lock rank {rank_name!r}")
        self.rank_name = rank_name
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def read(self) -> "_ReadContext":
        """Context manager for the shared (reader) side."""
        return _ReadContext(self)

    def write(self) -> "_WriteContext":
        """Context manager for the exclusive (writer) side."""
        return _WriteContext(self)

    def _acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def _release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def _acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def _release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class _ReadContext:
    """Pairs one :meth:`RWLock.read` acquisition with its release."""

    __slots__ = ("_lock",)

    def __init__(self, lock: RWLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        witness = _WITNESS
        if witness is not None:
            witness.on_acquire(self._lock.rank_name, id(self._lock))
        self._lock._acquire_read()

    def __exit__(self, *exc_info) -> None:
        self._lock._release_read()
        witness = _WITNESS
        if witness is not None:
            witness.on_release(self._lock.rank_name, id(self._lock))


class _WriteContext:
    """Pairs one :meth:`RWLock.write` acquisition with its release."""

    __slots__ = ("_lock",)

    def __init__(self, lock: RWLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        witness = _WITNESS
        if witness is not None:
            witness.on_acquire(self._lock.rank_name, id(self._lock))
        self._lock._acquire_write()

    def __exit__(self, *exc_info) -> None:
        self._lock._release_write()
        witness = _WITNESS
        if witness is not None:
            witness.on_release(self._lock.rank_name, id(self._lock))


class KeyedLocks:
    """Per-key locks for build-once critical sections, pruned when idle.

    ``with locks.acquire(key):`` serializes callers contending on the same
    *key* while callers on other keys run concurrently. Each registry
    entry is a ``[lock, holder-or-waiter count]`` pair guarded by one
    master lock held only for dict operations: the count is claimed
    *before* blocking on the key's lock, so every contender — however
    late — converges on the same lock object (exact mutual exclusion,
    which the engine's delta-apply path requires — applying one delta
    twice would corrupt cached preprocessing), and an entry is pruned
    exactly when its count drops to zero, keeping the registry bounded by
    the keys *currently being built*.
    """

    def __init__(self, rank_name: str = "engine.build") -> None:
        if rank_name not in LOCK_RANKS:
            raise ValueError(f"undeclared lock rank {rank_name!r}")
        self.rank_name = rank_name
        self._master = make_lock("concurrency.keyed_registry")
        # key -> [lock, number of holders + waiters]
        self._locks: dict[object, list] = {}

    def acquire(self, key: object) -> "_KeyedLockContext":
        """A context manager holding *key*'s lock for the ``with`` body."""
        with self._master:
            entry = self._locks.get(key)
            if entry is None:
                entry = self._locks[key] = [threading.Lock(), 0]
            entry[1] += 1
        return _KeyedLockContext(self, key, entry)

    def _release(self, key: object, entry: list) -> None:
        entry[0].release()
        with self._master:
            entry[1] -= 1
            if entry[1] == 0 and self._locks.get(key) is entry:
                del self._locks[key]

    def __len__(self) -> int:
        with self._master:
            return len(self._locks)


class _KeyedLockContext:
    """Context manager pairing one :class:`KeyedLocks` entry acquisition
    with its refcounted, pruning release."""

    __slots__ = ("_owner", "_key", "_entry")

    def __init__(self, owner: KeyedLocks, key: object, entry: list) -> None:
        self._owner = owner
        self._key = key
        self._entry = entry

    def __enter__(self) -> None:
        witness = _WITNESS
        if witness is not None:
            witness.on_acquire(self._owner.rank_name, id(self._entry))
        self._entry[0].acquire()

    def __exit__(self, *exc_info) -> None:
        self._owner._release(self._key, self._entry)
        witness = _WITNESS
        if witness is not None:
            witness.on_release(self._owner.rank_name, id(self._entry))
