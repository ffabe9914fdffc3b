"""Resumable enumeration sessions: pages over a pinned instance snapshot.

A :class:`Session` wraps one prepared query
(:class:`~repro.engine.engine.PreparedQuery`) and delivers its answers in
pages. The heavy state — grounded, reduced, indexed preprocessing — lives
in the engine's :class:`~repro.engine.cache.PreparedCache` and is *shared*
between sessions on the same (plan, instance); the session itself holds
only a cursor (per-level positions, O(query size)), which is why the
session manager can evict and rehydrate sessions freely.

Consistency model: a session serves the instance state it was opened at,
pinned by the version-vector fingerprint in its cursor tokens. Once the
instance moves on (any versioned mutation), the next fetch raises
:class:`~repro.exceptions.CursorFencedError` instead of mixing pre- and
post-update answers — while *new* sessions are served from the
delta-applied prepared state at O(|Δ|) cost, not a rebuild. This is the
"delta-apply or fence" contract the engine's invalidation ladder extends
to stateful clients.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

from ..concurrency import make_lock
from ..database.indexes import tuple_selector
from ..database.instance import Instance
from ..engine.engine import Engine, PreparedQuery
from ..exceptions import CursorFencedError, ServingError
from ..resilience import Deadline  # noqa: F401 (annotation)
from ..query.ucq import UCQ
from ..yannakakis.cdy import CURSOR_DONE
from .cursor import CursorToken, prepared_digest, vector_fingerprint


@dataclass
class Page:
    """One page of answers plus the opaque cursor to fetch the next one.

    ``offset`` is the number of answers delivered before this page;
    ``done`` means the enumeration is exhausted (the cursor token then
    resumes into an empty terminal page). ``cursor`` is self-contained:
    it survives eviction of every piece of server-side session state
    within the serving process. Across a process restart it *fences*
    rather than resumes (relation uids — and therefore version-vector
    fingerprints — are process-local), which is the safe failure mode:
    a reloaded instance has no provable shared history with the one the
    token was issued against.
    """

    answers: list[tuple]
    cursor: str
    done: bool
    offset: int

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.answers)

    def as_dict(self) -> dict:
        """JSON-ready form (used by the HTTP server); the answer tuples
        pass through as they are, since :mod:`json` writes a tuple as an
        array."""
        return {
            "answers": self.answers,
            "cursor": self.cursor,
            "done": self.done,
            "offset": self.offset,
        }


class Session:
    """One client's paginated enumeration of one query over one instance.

    Fetching page *k+1* costs O(page): the session advances a resumable
    cursor (:meth:`~repro.yannakakis.cdy.CDYEnumerator.cursor`) over the
    shared prepared enumerator — never re-preprocessing, never replaying
    the already-delivered prefix. Queries outside the constant-delay
    branches (Theorem 12 / naive dispatch) fall back to paging a
    materialized answer list; paging stays O(page) but session
    rehydration then costs one re-materialization.

    Sessions are usually created through
    :class:`~repro.serving.manager.SessionManager`, which adds LRU
    bounding, token-based rehydration and fence bookkeeping on top — and
    serializes pages of one session on its ``lock`` (cursor state is not
    safe to advance from two threads at once) while different sessions
    page concurrently.
    """

    def __init__(
        self,
        session_id: str,
        ucq: UCQ,
        query_text: str,
        instance_id: str,
        instance: Instance,
        prepared: PreparedQuery,
        engine: Engine,
        page_size: int = 100,
        state=None,
        served: int = 0,
        order_by: "tuple[str, ...] | None" = None,
    ) -> None:
        if not isinstance(page_size, int) or page_size < 1:
            raise ServingError("page_size must be a positive integer")
        self.session_id = session_id
        self.ucq = ucq
        self.query_text = query_text
        self.instance_id = instance_id
        self.instance = instance
        self.prepared = prepared
        self.page_size = page_size
        self.served = served
        #: requested answer order (variable names), or None for the
        #: enumerator's natural order; carried in every cursor token so a
        #: resume rebuilds the identical (possibly sorted) walk
        self.order_by = tuple(order_by) if order_by else None
        #: serializes this session's page fetches (held by the manager)
        self.lock = make_lock("serving.session")
        #: the instance state this session serves, pinned at open time
        self.fingerprint = vector_fingerprint(
            instance.version_vector(ucq.schema)
        )
        #: the walk structure the cursor positions refer to (see
        #: :func:`~repro.serving.cursor.prepared_digest`)
        self.walk_digest = prepared_digest(prepared)
        #: the head reorder of an isomorphic plan hit, compiled once
        self._select = (
            None
            if prepared.permutation is None
            else tuple_selector(prepared.permutation)
        )
        self._cursor = None
        self._materialized: Optional[list[tuple]] = None
        self._offset = 0
        if prepared.resumable:
            if prepared.order_by is not None:
                # ordered paging on the sorted-group walk variant: same
                # checkpoint format, same O(page) resume
                self._cursor = prepared.enumerator.cursor(
                    state, order_by=prepared.order_by
                )
            else:
                self._cursor = prepared.enumerator.cursor(state)
        else:
            # no checkpointable walk for this dispatch branch (or the
            # requested order is not walk-achievable): page over a
            # materialized snapshot (still O(page) per fetch; rehydration
            # after eviction re-materializes — ordered materialization is
            # deterministic, so token offsets stay meaningful)
            self._materialized = list(
                engine.execute(ucq, instance, order_by=self.order_by)
            )
            offset = 0 if state is None else state
            if state == CURSOR_DONE:
                offset = len(self._materialized)
            if not isinstance(offset, int) or not (
                0 <= offset <= len(self._materialized)
            ):
                raise ServingError(
                    f"cursor offset {state!r} does not fit this answer set"
                )
            self._offset = offset

    # ------------------------------------------------------------------ #

    @property
    def resumable(self) -> bool:
        """True when paging runs on a checkpointable constant-delay walk."""
        return self._cursor is not None

    def stale(self) -> bool:
        """Has the instance moved past this session's pinned snapshot?"""
        return (
            vector_fingerprint(self.instance.version_vector(self.ucq.schema))
            != self.fingerprint
        )

    def _fence_check(self) -> None:
        if self.stale():
            raise CursorFencedError(
                f"session {self.session_id}: instance "
                f"{self.instance_id!r} was updated past this session's "
                "snapshot; open a new session (it will be served from the "
                "delta-applied prepared state, not a rebuild)"
            )

    def fetch(
        self, page_size: int | None = None, deadline: "Deadline | None" = None
    ) -> Page:
        """The next page of answers, plus a resumable cursor token.

        Raises :class:`~repro.exceptions.CursorFencedError` once the
        instance has been mutated past the session's snapshot — including
        a mutation that lands *while* the page is being assembled: the
        snapshot is re-checked after the cursor advances and the page is
        discarded rather than returned, because a post-bump open may have
        delta-patched the shared prepared enumerator under the walk (the
        fence-then-reopen contract, now race-free without a global lock).

        *deadline* is checked once, *before* the cursor advances: a page
        either ships whole or raises
        :class:`~repro.exceptions.DeadlineExceededError` having consumed
        nothing — a timed-out request never silently swallows answers the
        client would miss on retry.
        """
        n = self.page_size if page_size is None else page_size
        if not isinstance(n, int) or n < 1:
            raise ServingError("page_size must be a positive integer")
        if deadline is not None:
            deadline.check("serve:page")
        self._fence_check()
        offset = self.served
        if self._cursor is not None:
            cursor = self._cursor
            try:
                answers = cursor.take(n)
            except (CursorFencedError, RuntimeError, IndexError):
                # a concurrent delta patched the shared enumerator under
                # the walk (epoch bump, or a list resized mid-read):
                # report it as the fence it is when the snapshot moved
                self._fence_check()
                raise
            if self._select is not None:
                answers = list(map(self._select, answers))
            state = cursor.checkpoint()
            done = state == CURSOR_DONE
        else:
            data = self._materialized
            answers = data[self._offset : self._offset + n]
            self._offset += len(answers)
            done = self._offset >= len(data)
            state = self._offset
        # a delta that landed mid-page invalidates what was just read:
        # discard the page and fence (the client reopens and is served
        # from the delta-applied prepared state)
        self._fence_check()
        self.served += len(answers)
        token = CursorToken(
            session_id=self.session_id,
            query=self.query_text,
            instance_id=self.instance_id,
            fingerprint=self.fingerprint,
            state=state,
            served=self.served,
            page_size=self.page_size,
            walk=self.walk_digest,
            order_by=self.order_by,
        ).encode()
        return Page(answers=answers, cursor=token, done=done, offset=offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session({self.session_id!r}, query={self.query_text!r}, "
            f"instance={self.instance_id!r}, served={self.served})"
        )
