"""Relations: finite sets of tuples over the domain.

A relation stores its tuples in a hash set (the RAM-model lookup-table
analogue) and offers the handful of algebra operations the evaluators need:
projection, selection, semijoin. All operations return new relations;
in-place mutation goes through the *versioned mutators* (:meth:`Relation.add`,
:meth:`Relation.discard`, :meth:`Relation.apply_batch`).

Versioning: every relation carries a process-unique ``uid``, a monotone
``version`` counter and a bounded delta log of ``(op, tuple)`` entries, one
per effective mutation. :meth:`Relation.delta_since` replays the log into a
net ``(adds, removes)`` pair, which is what lets the engine maintain cached
preprocessing under updates instead of rebuilding it (the dynamic-setting
perspective of Carmeli & Kröll 2017). When the log has been truncated past
the requested version the method returns ``None`` — the caller must rebase
(re-preprocess from scratch).

Mutating ``Relation.tuples`` directly bypasses the log and leaves the
version counter stale; treat the set as read-only outside this class.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Hashable, Iterable, Iterator, Sequence

from ..exceptions import SchemaError

Value = Hashable
Tuple_ = tuple

#: process-wide uid source; uids distinguish a mutated relation from a
#: replacement object that happens to reuse the same memory address.
_UIDS = itertools.count()


@dataclass
class Relation:
    """A finite relation of fixed arity."""

    arity: int
    tuples: set[tuple] = field(default_factory=set)

    #: per-relation delta-log bound; older entries are dropped, forcing a
    #: rebase for readers whose version fell behind the log window
    DELTA_LOG_LIMIT: ClassVar[int] = 1024

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise SchemaError("arity must be non-negative")
        if not isinstance(self.tuples, set):
            self.tuples = set(self.tuples)
        for t in self.tuples:
            if len(t) != self.arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, relation has arity {self.arity}"
                )
        self.uid: int = next(_UIDS)
        self.version: int = 0
        self._log: deque[tuple[str, tuple]] = deque(maxlen=self.DELTA_LOG_LIMIT)

    # ------------------------------------------------------------------ #
    # constructors

    @staticmethod
    def from_iterable(arity: int, rows: Iterable[Sequence[Value]]) -> "Relation":
        """A relation of the given arity holding *rows* (tuplified)."""
        return Relation(arity, {tuple(r) for r in rows})

    @staticmethod
    def empty(arity: int) -> "Relation":
        """An empty relation of the given arity (fresh uid and history)."""
        return Relation(arity, set())

    # ------------------------------------------------------------------ #
    # basics

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.tuples)

    def __contains__(self, t: tuple) -> bool:
        return t in self.tuples

    def __bool__(self) -> bool:
        return bool(self.tuples)

    def domain(self) -> set[Value]:
        """All values occurring in any position."""
        out: set[Value] = set()
        for t in self.tuples:
            out.update(t)
        return out

    def size_in_integers(self) -> int:
        """Contribution to the ||I|| encoding size (arity * cardinality)."""
        return self.arity * len(self.tuples)

    # ------------------------------------------------------------------ #
    # versioned mutators

    def add(self, t: Sequence[Value]) -> bool:
        """Insert a tuple; returns True iff the relation actually changed."""
        t = tuple(t)
        if len(t) != self.arity:
            raise SchemaError(f"tuple {t!r} does not match arity {self.arity}")
        if t in self.tuples:
            return False
        self.tuples.add(t)
        self.version += 1
        self._log.append(("+", t))
        return True

    def discard(self, t: Sequence[Value]) -> bool:
        """Remove a tuple if present; returns True iff it was."""
        t = tuple(t)
        if t not in self.tuples:
            return False
        self.tuples.remove(t)
        self.version += 1
        self._log.append(("-", t))
        return True

    def apply_batch(
        self,
        adds: Iterable[Sequence[Value]] = (),
        removes: Iterable[Sequence[Value]] = (),
    ) -> int:
        """Apply *removes* then *adds*; returns the number of effective changes.

        A tuple appearing in both ends up present (the add wins, being last).
        """
        changed = 0
        for t in removes:
            changed += self.discard(t)
        for t in adds:
            changed += self.add(t)
        return changed

    # ------------------------------------------------------------------ #
    # delta log

    @property
    def log_floor(self) -> int:
        """The oldest version the delta log can still replay from."""
        return self.version - len(self._log)

    def delta_since(self, version: int) -> tuple[set[tuple], set[tuple]] | None:
        """Net ``(adds, removes)`` since *version*, or None if a rebase is
        required (the log was truncated past *version*, or *version* is from
        the future of this relation)."""
        if version == self.version:
            return set(), set()
        if version < self.log_floor or version > self.version:
            return None
        adds: set[tuple] = set()
        removes: set[tuple] = set()
        skip = len(self._log) - (self.version - version)
        for op, t in itertools.islice(self._log, skip, None):
            if op == "+":
                if t in removes:
                    removes.discard(t)
                else:
                    adds.add(t)
            else:
                if t in adds:
                    adds.discard(t)
                else:
                    removes.add(t)
        return adds, removes

    # ------------------------------------------------------------------ #
    # algebra

    def project(self, positions: Sequence[int]) -> "Relation":
        """Duplicate-eliminating projection onto the given positions."""
        return Relation(
            len(positions), {tuple(t[p] for p in positions) for t in self.tuples}
        )

    def select(self, predicate: Callable[[tuple], bool]) -> "Relation":
        """Generic selection."""
        return Relation(self.arity, {t for t in self.tuples if predicate(t)})

    def select_equal_positions(self, groups: Iterable[Sequence[int]]) -> "Relation":
        """Keep tuples whose values agree inside every position group
        (normalizes atoms with repeated variables)."""
        groups = [list(g) for g in groups]

        def ok(t: tuple) -> bool:
            return all(len({t[p] for p in g}) == 1 for g in groups)

        return self.select(ok)

    def select_constants(self, bindings: dict[int, Value]) -> "Relation":
        """Keep tuples with the given constant at the given positions."""
        return self.select(lambda t: all(t[p] == v for p, v in bindings.items()))

    def copy(self) -> "Relation":
        """A shallow copy: fresh tuple set, fresh uid/version/log."""
        return Relation(self.arity, set(self.tuples))

    def union(self, other: "Relation") -> "Relation":
        """A new relation holding both tuple sets (arities must agree)."""
        if other.arity != self.arity:
            raise SchemaError("union of relations with different arities")
        return Relation(self.arity, self.tuples | other.tuples)

    def __str__(self) -> str:
        return f"Relation(arity={self.arity}, |R|={len(self.tuples)})"
