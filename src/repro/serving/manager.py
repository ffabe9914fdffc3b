"""The session manager: bounded, concurrent, resumable serving state.

:class:`SessionManager` is the stateful front door the ROADMAP's serving
story needs: it owns an :class:`~repro.engine.Engine`, a registry of named
instances, and a bounded LRU of live :class:`~repro.serving.session.Session`
objects. Memory stays bounded because sessions are *cheap* (a cursor is a
per-level position vector) while the heavy preprocessed state is shared in
the engine's :class:`~repro.engine.cache.PreparedCache` — so eviction is
painless: an evicted session is transparently *rehydrated* from its last
cursor token (:meth:`SessionManager.resume`), re-entering through the
prepared cache (warm) and seeking the walk cursor in O(query size), never
O(offset).

Update handling follows the engine's invalidation ladder outward: applying
a delta through :meth:`SessionManager.apply_delta` (or mutating relations
directly through the versioned mutators) bumps the instance's version
vector; stale sessions are fenced — proactively by the post-delta sweep,
or lazily at their next fetch — while new sessions are served from the
delta-applied prepared state in O(|Δ|), not a rebuild.

**Locking.** There is no global lock around engine calls. Concurrency is
layered (full hierarchy in DESIGN.md, "Concurrency model"):

* one short-held *registry lock* guards the instance registry, the
  session LRU and the id counters — it is never held across planning,
  preprocessing or page fetches;
* each session carries its own lock, serializing pages of one session
  while different sessions fetch in parallel;
* each registered instance carries a :class:`~repro.concurrency.RWLock`:
  opens/resumes preprocess under the read side (many concurrently),
  :meth:`SessionManager.apply_delta` mutates under the write side
  (exclusively) — the versioned relation mutators are not safe against a
  concurrent grounding pass;
* the engine underneath is itself thread-safe (locked caches, keyed
  per-``(plan, instance)`` build locks), so concurrent opens of the same
  query preprocess once and everything else proceeds in parallel.

Introspection (:meth:`SessionManager.cache_info`, the ``stats`` counters)
deliberately takes only the registry lock and the counters' own leaf
locks, so stats endpoints answer immediately even while a slow cold
``open`` is in flight.
"""

from __future__ import annotations

import itertools
import secrets
import threading
from collections import OrderedDict
from typing import Iterable, Mapping, Union

from ..concurrency import BoundedGate, LockedCounters, RWLock, make_lock
from ..database.instance import Instance
from ..engine import Engine
from ..exceptions import (
    AdmissionError,
    CursorFencedError,
    InstanceNotFoundError,
    ServingError,
    SessionNotFoundError,
)
from ..resilience import Deadline  # noqa: F401 (annotation)
from ..query import parse_ucq
from ..query.ucq import UCQ
from .cursor import CursorToken, prepared_digest, vector_fingerprint
from .session import Page, Session


class ServingStats(LockedCounters):
    """Counters for the serving layer's observable behaviour.

    ``rehydrations`` counts resumes that revived an *evicted* session (the
    bounded-memory story working as designed); ``fences`` counts sessions
    invalidated because their instance moved past their snapshot;
    ``sheds`` counts opens/resumes refused by admission control (the
    caller saw 503 + ``Retry-After``, not a queue); ``counts_served``
    counts :meth:`SessionManager.count` requests answered.
    Increments are atomic (:class:`~repro.concurrency.LockedCounters`), so
    concurrent clients never lose updates.
    """

    _fields = (
        "sessions_opened",
        "pages_served",
        "answers_served",
        "resumes",
        "rehydrations",
        "fences",
        "evictions",
        "sheds",
        "batches",
        "batch_groups",
        "batch_fragment_prewarms",
        "counts_served",
    )


class SessionManager:
    """Open, page, resume and fence enumeration sessions over one engine.

    ``max_sessions`` bounds the number of *live* session objects; older
    sessions are LRU-evicted and continue to be resumable from their
    cursor tokens. ``page_size`` is the default page length for sessions
    that do not choose their own. ``workers`` sizes the pool
    :func:`~repro.serving.batch.submit_many` fans batch groups out over
    (1 = serial); when no engine is supplied the default engine is built
    with ``Engine(workers=workers)``, whose parallel cold pipeline (with
    its auto-selected backend, see :func:`~repro.runtime.select_backend`)
    runs only the cold builds of relation-renamed queries. Every other
    open — the prepared, delta-maintained builds sessions page — builds
    serially at any ``workers``.

    **Admission control.** ``max_inflight`` bounds concurrent
    opens/resumes in flight; ``max_cold_opens`` separately bounds the
    *cold* subset (requests that will preprocess from scratch — the
    expensive kind). Both are non-blocking gates
    (:class:`~repro.concurrency.BoundedGate`): a saturated manager raises
    :class:`~repro.exceptions.AdmissionError` immediately (the HTTP layer
    turns it into 503 + ``Retry-After``) instead of queueing work it
    cannot keep up with. ``None`` (the default) disables a limit.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        max_sessions: int = 256,
        page_size: int = 100,
        workers: int = 1,
        max_inflight: "int | None" = None,
        max_cold_opens: "int | None" = None,
    ) -> None:
        if max_sessions < 1:
            raise ServingError("max_sessions must be positive")
        if page_size < 1:
            raise ServingError("page_size must be positive")
        if workers < 1:
            raise ServingError("workers must be positive")
        self.engine = engine if engine is not None else Engine(workers=workers)
        self.max_sessions = max_sessions
        self.page_size = page_size
        self.workers = workers
        self._inflight = BoundedGate(max_inflight)
        self._cold_opens = BoundedGate(max_cold_opens)
        self.stats = ServingStats()
        self._instances: dict[str, Instance] = {}
        self._guards: dict[str, RWLock] = {}
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        #: the registry lock — short dict operations only, never held
        #: across engine calls or page fetches
        self._lock = make_lock("serving.registry")
        self._instance_ids = itertools.count(1)
        self._session_ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # instance registry

    def register(self, instance: Instance, name: str | None = None) -> str:
        """Register *instance* under *name* (generated when omitted).

        Cursor tokens reference instances by this id, so registration is
        what makes sessions resumable across eviction. Re-registering the
        same object under its existing name is a no-op; binding a name to
        a *different* object is an error (tokens would silently cross
        instances). Registration also creates the instance's
        reader/writer guard (see the module docstring).
        """
        with self._lock:
            if name is None:
                existing = self._id_of(instance)
                if existing is not None:
                    return existing
                name = f"inst-{next(self._instance_ids)}"
            current = self._instances.get(name)
            if current is not None and current is not instance:
                raise ServingError(
                    f"instance name {name!r} is already bound to a "
                    "different instance"
                )
            self._instances[name] = instance
            self._guards.setdefault(name, RWLock())
            return name

    def instance(self, instance_id: str) -> Instance:
        """The registered instance for *instance_id*;
        :class:`~repro.exceptions.InstanceNotFoundError` when absent."""
        with self._lock:
            inst = self._instances.get(instance_id)
            if inst is None:
                raise InstanceNotFoundError(
                    f"unknown instance {instance_id!r}"
                )
            return inst

    def _id_of(self, instance: Instance) -> str | None:
        for name, known in self._instances.items():
            if known is instance:
                return name
        return None

    def _resolve(self, instance: Union[str, Instance]) -> tuple[str, Instance]:
        if isinstance(instance, str):
            return instance, self.instance(instance)
        return self.register(instance), instance

    def _guard(self, instance_id: str) -> RWLock:
        with self._lock:
            return self._guards.setdefault(instance_id, RWLock())

    # ------------------------------------------------------------------ #
    # session lifecycle

    def _admission(self, ucq: UCQ, instance: Instance) -> "_Admission":
        """Claim the in-flight (and, when cold, the cold-open) gate.

        Raises :class:`~repro.exceptions.AdmissionError` — after bumping
        ``sheds`` — when either gate is full; the returned context
        releases whatever was claimed.
        """
        if not self._inflight.try_enter():
            self.stats.add(sheds=1)
            raise AdmissionError(
                "server is at its in-flight request limit; retry shortly"
            )
        cold = False
        try:
            cold = not self.engine.prepared_hot(ucq, instance)
            if cold and not self._cold_opens.try_enter():
                self.stats.add(sheds=1)
                raise AdmissionError(
                    "server is at its cold-preprocessing limit; retry shortly"
                )
        except BaseException:
            self._inflight.leave()
            raise
        return _Admission(self._inflight, self._cold_opens if cold else None)

    def open(
        self,
        query: Union[str, UCQ],
        instance: Union[str, Instance],
        page_size: int | None = None,
        deadline: "Deadline | None" = None,
        order_by: "Iterable[str] | None" = None,
    ) -> Session:
        """Open a session enumerating *query* over *instance*.

        Planning and preprocessing go through the engine's caches
        (:meth:`~repro.engine.Engine.prepare`): a repeated — or merely
        isomorphic — query over unchanged data opens in O(1); over
        delta-mutated data in O(|Δ|). Preprocessing runs under the
        instance's read guard, concurrently with other opens and fetches
        but never during a delta application. *deadline* bounds the
        preprocessing (a cold build past it raises
        :class:`~repro.exceptions.DeadlineExceededError`, leaving no
        half-built cache entries); admission control may refuse the open
        outright with :class:`~repro.exceptions.AdmissionError`.

        *order_by* (free-variable names) requests pages sorted by those
        columns, ties broken by the remaining ones. When the plan's
        compiled walk can realize the order, pages stream from a
        sorted-group cursor and stay O(page)-resumable exactly like
        unordered ones; otherwise the session pages a sorted
        materialization. Cursor tokens carry the order, so resumes
        reproduce it.
        """
        if page_size is not None and (
            not isinstance(page_size, int) or page_size < 1
        ):
            raise ServingError("page_size must be a positive integer")
        order = tuple(str(v) for v in order_by) if order_by else None
        ucq = parse_ucq(query) if isinstance(query, str) else query
        instance_id, inst = self._resolve(instance)
        with self._admission(ucq, inst):
            with self._guard(instance_id).read():
                kwargs = {}
                if deadline is not None:
                    kwargs["deadline"] = deadline
                if order is not None:
                    kwargs["order_by"] = order
                prepared = self.engine.prepare(ucq, inst, **kwargs)
                session = Session(
                    session_id=(
                        f"s{next(self._session_ids)}-{secrets.token_hex(4)}"
                    ),
                    ucq=ucq,
                    query_text=str(ucq),
                    instance_id=instance_id,
                    instance=inst,
                    prepared=prepared,
                    engine=self.engine,
                    page_size=(
                        page_size if page_size is not None else self.page_size
                    ),
                    order_by=order,
                )
        with self._lock:
            self._admit(session)
        self.stats.add(sessions_opened=1)
        return session

    def fetch(
        self,
        session_id: str,
        page_size: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> Page:
        """The next page of a live session (LRU-refreshing).

        Raises :class:`~repro.exceptions.SessionNotFoundError` for evicted
        or unknown sessions (resume those from their cursor token) and
        :class:`~repro.exceptions.CursorFencedError` — dropping the
        session — once its instance has moved on. Pages of *different*
        sessions are served concurrently; pages of one session serialize
        on that session's own lock. *deadline* is checked before the
        cursor advances (see :meth:`Session.fetch`), so a 504 never
        consumes answers.
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(
                f"no live session {session_id!r}; resume it from its "
                "last cursor token"
            )
        return self._serve_page(session, page_size, deadline)

    def _serve_page(
        self,
        session: Session,
        page_size: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> Page:
        """Cut one page of *session* with the full serving bookkeeping.

        The single accounting path for pages — :meth:`fetch` and the batch
        layer's eager first pages both come through here, so the two can
        never drift: a fence drops the session from the LRU and bumps
        ``fences`` before re-raising; success refreshes the session's LRU
        slot (when it is still live — a batch sibling may already have
        evicted it) and bumps ``pages_served``/``answers_served``.
        """
        try:
            with session.lock:  # lock-rank: serving.session
                page = session.fetch(page_size, deadline=deadline)
        except CursorFencedError:
            with self._lock:
                self._sessions.pop(session.session_id, None)
            self.stats.add(fences=1)
            raise
        with self._lock:
            if session.session_id in self._sessions:
                self._sessions.move_to_end(session.session_id)
        self.stats.add(pages_served=1, answers_served=len(page.answers))
        return page

    def resume(self, token: str, deadline: "Deadline | None" = None) -> Session:
        """Rebuild a session from an opaque cursor token.

        Works for live sessions (rewinding them to the token's position)
        and — the point — for *evicted* ones: the prepared cache supplies
        the preprocessing (warm), and the walk cursor seeks to the
        token's per-level positions in O(query size). A token whose
        version-vector fingerprint no longer matches the instance is
        fenced, like any stale cursor. Resumes pass through the same
        admission gates and deadline bound as :meth:`open` (a rehydration
        may have to re-preprocess).
        """
        tok = CursorToken.decode(token)
        with self._lock:
            inst = self._instances.get(tok.instance_id)
        if inst is None:
            raise InstanceNotFoundError(
                f"cursor references unknown instance {tok.instance_id!r}"
            )
        ucq = parse_ucq(tok.query)
        with self._admission(ucq, inst), self._guard(tok.instance_id).read():
            # the fingerprint check runs under the read guard: a delta
            # cannot land between validating the token's snapshot and
            # pinning the rebuilt session to it
            current = vector_fingerprint(inst.version_vector(ucq.schema))
            if current != tok.fingerprint:
                self.stats.add(fences=1)
                raise CursorFencedError(
                    f"cursor for session {tok.session_id} is fenced: "
                    f"instance {tok.instance_id!r} was updated since the "
                    "cursor was issued; open a new session"
                )
            kwargs = {}
            if deadline is not None:
                kwargs["deadline"] = deadline
            if tok.order_by is not None:
                kwargs["order_by"] = tok.order_by
            prepared = self.engine.prepare(ucq, inst, **kwargs)
            if tok.state is not None and tok.walk != prepared_digest(prepared):
                # the plan cache's representative for this query shape
                # changed (evicted and re-populated by a renamed
                # isomorphic query): the token's positions index a walk
                # with different level/group structure — refusing is the
                # only sound answer
                self.stats.add(fences=1)
                raise CursorFencedError(
                    f"cursor for session {tok.session_id} is fenced: the "
                    "cached plan structure changed since the cursor was "
                    "issued; open a new session"
                )
            session = Session(
                session_id=tok.session_id,
                ucq=ucq,
                query_text=tok.query,
                instance_id=tok.instance_id,
                instance=inst,
                prepared=prepared,
                engine=self.engine,
                page_size=tok.page_size,
                state=tok.state,
                served=tok.served,
                order_by=tok.order_by,
            )
        with self._lock:
            was_live = self._sessions.pop(tok.session_id, None) is not None
            self._admit(session)
        if was_live:
            self.stats.add(resumes=1)
        else:
            self.stats.add(resumes=1, rehydrations=1)
        return session

    def close(self, session_id: str) -> bool:
        """Drop a live session; True iff it existed. Tokens stay valid."""
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    # ------------------------------------------------------------------ #
    # counting

    def count(
        self,
        query: Union[str, UCQ],
        instance: Union[str, Instance],
        deadline: "Deadline | None" = None,
    ) -> int:
        """``|query(instance)|`` without opening a session or enumerating.

        Goes through :meth:`~repro.engine.Engine.count`: tractable plans
        answer from the prepared index's support counters (zero
        enumeration work once warm, delta-maintained like any other
        prepared state), the rest materialize. Runs under the same
        admission gates and the instance's read guard as :meth:`open` —
        a count is a read and must not race a delta application.
        """
        ucq = parse_ucq(query) if isinstance(query, str) else query
        instance_id, inst = self._resolve(instance)
        with self._admission(ucq, inst):
            with self._guard(instance_id).read():
                result = self.engine.count(ucq, inst, deadline=deadline)
        self.stats.add(counts_served=1)
        return result

    def _admit(self, session: Session) -> None:
        # caller holds the registry lock
        self._sessions[session.session_id] = session
        self._sessions.move_to_end(session.session_id)
        evictions = 0
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            evictions += 1
        if evictions:
            self.stats.add(evictions=evictions)

    # ------------------------------------------------------------------ #
    # updates

    def apply_delta(
        self,
        instance: Union[str, Instance],
        deltas: Mapping[str, tuple[Iterable[tuple], Iterable[tuple]]],
    ) -> dict:
        """Apply per-relation net ``(adds, removes)`` through the versioned
        mutators, then proactively fence sessions stranded behind the bump.

        This is the serving layer's update hook: the version vector moves,
        cached preprocessing delta-applies on the next open
        (O(|Δ|-affected state)), and every session pinned to the old
        snapshot is fenced *now* rather than at its next fetch. The
        mutation itself runs under the instance's write guard — exclusive
        with every open/resume preprocessing over the same instance, while
        traffic on other instances is unaffected. Returns
        ``{"changed": effective mutations, "fenced": sessions dropped}``.
        """
        instance_id, inst = self._resolve(instance)
        # validate everything before mutating anything: a delta either
        # applies as a whole or leaves the instance (and the sessions
        # pinned to it) untouched
        normalized: list[tuple[object, list[tuple], list[tuple]]] = []
        for symbol, (adds, removes) in deltas.items():
            relation = inst.get(symbol)  # SchemaError on unknown symbol
            try:
                add_rows = [tuple(row) for row in adds]
                remove_rows = [tuple(row) for row in removes]
            except TypeError as exc:
                raise ServingError(
                    f"delta rows for {symbol!r} must be sequences "
                    f"of values: {exc}"
                ) from exc
            for row in add_rows + remove_rows:
                if len(row) != relation.arity:
                    raise ServingError(
                        f"delta row {row!r} does not match arity "
                        f"{relation.arity} of {symbol!r}"
                    )
                try:
                    hash(row)
                except TypeError as exc:
                    raise ServingError(
                        f"delta row {row!r} for {symbol!r} holds "
                        f"unhashable values: {exc}"
                    ) from exc
            normalized.append((relation, add_rows, remove_rows))
        with self._guard(instance_id).write():
            changed = sum(
                relation.apply_batch(add_rows, remove_rows)
                for relation, add_rows, remove_rows in normalized
            )
        return {"changed": changed, "fenced": self.sweep()}

    def sweep(self) -> int:
        """Drop every live session whose instance moved past its snapshot.

        Fencing is otherwise lazy (checked at fetch); a sweep makes it
        eager, which keeps the LRU free of corpses under heavy updates.
        """
        with self._lock:
            stale = [
                sid for sid, s in self._sessions.items() if s.stale()
            ]
            for sid in stale:
                del self._sessions[sid]
        if stale:
            self.stats.add(fences=len(stale))
        return len(stale)

    # ------------------------------------------------------------------ #
    # introspection

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def cache_info(self) -> dict:
        """Serving counters plus the underlying engine's cache counters.

        Takes only the registry lock (briefly) and the counter/cache leaf
        locks — never an instance guard or a session lock — so it answers
        immediately even while a slow cold open or delta application is
        in flight (the concurrency suite asserts this).
        """
        out = self.stats.as_dict()
        with self._lock:
            out["live_sessions"] = len(self._sessions)
            out["registered_instances"] = len(self._instances)
        out["max_sessions"] = self.max_sessions
        out["workers"] = self.workers
        out["in_flight"] = self._inflight.in_flight
        out["cold_opens_in_flight"] = self._cold_opens.in_flight
        out["engine"] = self.engine.cache_info()
        return out

    def health(self) -> dict:
        """A cheap liveness/degradation snapshot for ``/healthz``.

        ``status`` is the worst applicable of ``ok`` → ``degraded`` (the
        engine's recovery ladder has been exercised: answers stayed
        correct but capacity or latency suffered) → ``saturated`` (the
        in-flight admission gate is full: new opens are being shed).
        Takes only leaf locks, like :meth:`cache_info`.
        """
        engine_info = self.engine.cache_info()
        degraded = bool(engine_info.get("degraded"))
        saturated = (
            self._inflight.limit is not None
            and self._inflight.in_flight >= self._inflight.limit
        )
        with self._lock:
            live = len(self._sessions)
        return {
            "status": (
                "saturated" if saturated else
                "degraded" if degraded else "ok"
            ),
            "backend": engine_info["parallel_backend"],
            "workers": engine_info["parallel_workers"],
            "degraded": degraded,
            "in_flight": self._inflight.in_flight,
            "cold_opens_in_flight": self._cold_opens.in_flight,
            "live_sessions": live,
            "limits": {
                "max_inflight": self._inflight.limit,
                "max_cold_opens": self._cold_opens.limit,
                "max_sessions": self.max_sessions,
            },
            "sheds": self.stats.sheds,
        }


class _Admission:
    """Pairs one successful :meth:`SessionManager._admission` claim with
    its release of the in-flight (and, for cold opens, cold) gate."""

    __slots__ = ("_inflight", "_cold")

    def __init__(
        self, inflight: BoundedGate, cold: "BoundedGate | None"
    ) -> None:
        self._inflight = inflight
        self._cold = cold

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._cold is not None:
            self._cold.leave()
        self._inflight.leave()
