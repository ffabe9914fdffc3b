"""Algorithm 1 (Theorem 4): answering a union of tractable CQs.

The paper's Algorithm 1 interleaves two enumerators so that the union is
emitted without duplicates and — unlike the generic dedup approach — with
only *constant* extra writable memory during enumeration (the CD∘Lin-friendly
property discussed in Section 6). It relies on two free-connex facilities the
CDY evaluator provides: constant-delay iteration and constant-time membership
tests.

For a union of n CQs the algorithm is applied recursively, treating the tail
``Q2 ∪ ... ∪ Qn`` as the second enumerator (its membership test is the OR of
the member tests).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Protocol, Sequence, TypeVar

from ..database.instance import Instance
from ..enumeration.steps import StepCounter, counter_or_null
from ..exceptions import CursorError, EnumerationError, NotFreeConnexError
from ..query.ucq import UCQ
from ..yannakakis.cdy import CURSOR_DONE, CDYEnumerator

T = TypeVar("T")


class SetEnumerator(Protocol[T]):
    """What Algorithm 1 needs: iteration plus constant-time membership."""

    def __iter__(self) -> Iterator[T]: ...

    def contains(self, item: T) -> bool: ...


def algorithm1(q1: SetEnumerator, q2: SetEnumerator) -> Iterator:
    """Paper's Algorithm 1, verbatim.

    While Q1 produces answers: answers outside Q2 are printed directly; for
    every answer also in Q2 we print the *next* answer of Q2 instead (it
    always exists — line 5 runs at most ``|Q1(I) ∩ Q2(I)| <= |Q2(I)|``
    times). Afterwards the remainder of Q2 is printed. Every answer of the
    union is printed exactly once.
    """
    it2 = iter(q2)
    for a in q1:
        if not q2.contains(a):
            yield a  # line 3: a in Q1(I) \ Q2(I)
        else:
            try:
                yield next(it2)  # line 5: some fresh answer of Q2
            except StopIteration as exc:  # pragma: no cover - impossible
                raise EnumerationError(
                    "Algorithm 1 invariant broken: Q2 exhausted early"
                ) from exc
    yield from it2  # lines 6-7: the rest of Q2(I)


class UnionEnumerator:
    """Iterative Algorithm-1 composition of n set-enumerators.

    Semantically the recursive application of :func:`algorithm1` with the
    tail ``Q2 ∪ ... ∪ Qn`` as the second enumerator, but flattened into one
    explicit loop over levels: level *i* drains ``members[i]``, printing
    answers outside the remaining union directly and borrowing the next
    answer of level *i+1* on a collision; once exhausted it delegates to
    level *i+1* permanently. The seed recursion allocated a fresh
    ``UnionEnumerator`` (an O(n) member-list copy) per level — O(n²) setup —
    and stacked one generator frame per level on every emission; the loop
    keeps the shared member list, one iterator per member, and constant
    extra writable state per level (the CD∘Lin-friendly property intact).
    """

    def __init__(self, members: Sequence[SetEnumerator]):
        if not members:
            raise EnumerationError("UnionEnumerator needs at least one member")
        self.members = list(members)

    def contains(self, item) -> bool:
        return any(m.contains(item) for m in self.members)

    def apply_deltas(self, deltas) -> None:
        """Forward base-relation deltas to every member enumerator.

        Members only consume deltas for symbols their own atoms mention, so
        handing each the full map is safe. Requires members built with
        ``incremental=True``; invalidates in-flight iterators. If any member
        fails midway, *every* member is poisoned so a combined Algorithm-1
        iterator cannot keep emitting from the consistent members while
        another is half-patched.
        """
        try:
            for member in self.members:
                member.apply_deltas(deltas)
        except Exception:
            for member in self.members:
                poison = getattr(member, "poison", None)
                if poison is not None:
                    poison()
            raise

    def cursor(self, state=None) -> "UnionCursor":
        """A resumable Algorithm-1 iterator (see :class:`UnionCursor`).

        ``state=None`` starts from the first answer; a state produced by
        :meth:`UnionCursor.checkpoint` resumes right after the answer the
        checkpoint was taken at, in time independent of the offset.
        """
        return UnionCursor(self, state)

    def __iter__(self) -> Iterator:
        members = self.members
        n = len(members)
        if n == 1:
            yield from iter(members[0])
            return
        iterators = [iter(m) for m in members]
        exhausted = [False] * n  # level drained; it delegates downward
        last = n - 1
        start = 0  # first non-exhausted level (monotone)
        while True:
            level = start
            borrowing = False  # did an outer collision request this answer?
            while True:
                if level == last:
                    # innermost stream: a plain constant-delay iterator
                    try:
                        answer = next(iterators[level])
                    except StopIteration as exc:
                        if borrowing:  # pragma: no cover - impossible
                            raise EnumerationError(
                                "Algorithm 1 invariant broken: "
                                "tail union exhausted early"
                            ) from exc
                        return
                    break
                if exhausted[level]:
                    level += 1
                    continue
                try:
                    answer = next(iterators[level])
                except StopIteration:
                    exhausted[level] = True
                    if level == start:
                        start += 1
                    level += 1
                    continue
                # line 3 vs line 5: outside the remaining union the answer
                # is fresh; otherwise print the *next* answer of the tail
                # instead (it exists: the intersection is no larger than
                # the tail's answer set)
                for j in range(level + 1, n):
                    if members[j].contains(answer):
                        break
                else:
                    break
                level += 1
                borrowing = True
            yield answer


class UnionCursor:
    """A resumable iterator running the same loop as
    :meth:`UnionEnumerator.__iter__`, with checkpoint/rehydrate support.

    The Algorithm-1 state between two emissions is small and explicit: one
    resumable cursor per member (see
    :class:`~repro.yannakakis.cdy.CDYCursor`), the per-level ``exhausted``
    flags, and the first non-exhausted level. :meth:`checkpoint` captures
    exactly that as a JSON-safe value; rehydrating costs one O(#levels)
    member-cursor rehydration per member — independent of how many answers
    were already emitted, which is what the serving layer's O(page)
    pagination guarantee rests on.

    Requires every member to provide a ``cursor(state)`` factory in
    addition to the :class:`SetEnumerator` protocol.
    """

    __slots__ = ("union", "_cursors", "_exhausted", "_start", "_done")

    def __init__(self, union: "UnionEnumerator", state=None) -> None:
        self.union = union
        members = union.members
        n = len(members)
        if state == CURSOR_DONE:
            self._done = True
            self._cursors: list = []
            self._exhausted = [True] * n
            self._start = n
            return
        self._done = False
        if state is None:
            self._cursors = [m.cursor() for m in members]
            self._exhausted = [False] * n
            self._start = 0
            return
        if not isinstance(state, (list, tuple)) or len(state) != 3:
            raise CursorError(f"malformed union cursor state {state!r}")
        member_states, exhausted, start = state
        if (
            not isinstance(member_states, (list, tuple))
            or len(member_states) != n
            or not isinstance(exhausted, (list, tuple))
            or len(exhausted) != n
            or not isinstance(start, int)
            or not 0 <= start <= n
        ):
            raise CursorError(f"malformed union cursor state {state!r}")
        self._cursors = [
            m.cursor(s) for m, s in zip(members, member_states)
        ]
        self._exhausted = [bool(x) for x in exhausted]
        self._start = start

    def __iter__(self) -> "UnionCursor":
        return self

    def __next__(self):
        if self._done:
            raise StopIteration
        members = self.union.members
        cursors = self._cursors
        exhausted = self._exhausted
        n = len(members)
        last = n - 1
        level = self._start
        borrowing = False
        while True:
            if level == last:
                try:
                    return next(cursors[level])
                except StopIteration:
                    if borrowing:  # pragma: no cover - impossible
                        raise EnumerationError(
                            "Algorithm 1 invariant broken: "
                            "tail union exhausted early"
                        ) from None
                    self._done = True
                    raise
            if exhausted[level]:
                level += 1
                continue
            try:
                answer = next(cursors[level])
            except StopIteration:
                exhausted[level] = True
                if level == self._start:
                    self._start += 1
                level += 1
                continue
            for j in range(level + 1, n):
                if members[j].contains(answer):
                    break
            else:
                return answer
            level += 1
            borrowing = True

    def take(self, n: int) -> list:
        """The next *n* answers (fewer once exhausted), as
        :meth:`~repro.yannakakis.cdy.CDYCursor.take` returns them."""
        return list(islice(self, n))

    def checkpoint(self):
        """The resumable state as of the last emitted answer (JSON-safe):
        ``"done"`` after exhaustion, else ``[member_states, exhausted,
        start]`` with each member's own checkpoint inside."""
        if self._done:
            return CURSOR_DONE
        return [
            [c.checkpoint() for c in self._cursors],
            [bool(x) for x in self._exhausted],
            self._start,
        ]


def enumerate_union_of_tractable(
    ucq: UCQ,
    instance: Instance,
    counter: StepCounter | None = None,
) -> UnionEnumerator:
    """Theorem 4's evaluator: every CQ in the union must be free-connex.

    Answers are tuples in the UCQ's canonical head order. Preprocessing
    happens here (building one CDY evaluator per CQ); iteration is
    constant-delay with constant writable memory.
    """
    steps = counter_or_null(counter)
    members: list[CDYEnumerator] = []
    for cq in ucq.cqs:
        if not cq.is_free_connex:
            raise NotFreeConnexError(
                f"Theorem 4 requires free-connex CQs; {cq.name} is not"
            )
        members.append(
            CDYEnumerator(cq, instance, output_order=ucq.head, counter=steps)
        )
    return UnionEnumerator(members)
