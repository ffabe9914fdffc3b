"""Value interning: a per-instance bijection between values and dense ints.

The RAM model the paper assumes works over integers; real inputs carry
strings, tuples, whatever is hashable. The :class:`Interner` maps every
distinct value to a dense id (0, 1, 2, ...) once, so that all downstream
preprocessing — grounding, the semijoin sweeps, index construction — hashes
and compares small ints instead of re-hashing arbitrary values on every
pass. Ids are decoded back to values only at the index boundary, where the
enumeration-facing structures are built.

Two ingestion paths share one id space:

* :meth:`Interner.intern_column` — the batch path. One dict ``setdefault``
  per value inside a list comprehension; this is what the columnar
  grounding pass uses per column. For speed it defers maintaining the
  id -> value decode table.
* :meth:`Interner.intern` — the single-value path (delta ingestion). Keeps
  the decode table eagerly in sync, so an O(|Δ|) update never pays an
  O(domain) rebuild.

``ids`` assigns ids in insertion order, so the dict's key order *is* the
decode table; :attr:`Interner.values` materializes the suffix lazily.
Treat both as read-only outside this class.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Hashable, Iterable, Optional

Value = Hashable


class Interner:
    """A bijection ``value <-> dense int id`` growing append-only."""

    __slots__ = ("ids", "_values")

    def __init__(self) -> None:
        self.ids: dict[Value, int] = {}
        self._values: list[Value] = []

    # ------------------------------------------------------------------ #
    # ingestion

    def intern_column(self, column: Iterable[Value]) -> list[int]:
        """Intern a whole column of values; returns the parallel id column.

        Two C-level passes — a ``set`` dedup to find unseen values and a
        ``map`` through the id dict — bracket one small Python loop over
        the *distinct* new values, so columns over repetitive domains cost
        far less than one dict probe per occurrence. The decode table is
        synced lazily (on the next :attr:`values` or :meth:`intern` access).
        """
        if not isinstance(column, (list, tuple)):
            column = list(column)
        ids = self.ids
        missing = set(column)
        missing -= ids.keys()
        for v in missing:
            ids[v] = len(ids)
        return list(map(ids.__getitem__, column))

    def intern_column_array(self, column: Iterable[Value]) -> array:
        """:meth:`intern_column`, but the id column comes back as a flat
        ``array('q')`` — 8 bytes per id instead of a boxed int, and a
        buffer the parallel pipeline can window zero-copy
        (:class:`~repro.database.columns.IdColumn`) or publish into a
        shared-memory segment."""
        if not isinstance(column, (list, tuple)):
            column = list(column)
        ids = self.ids
        missing = set(column)
        missing -= ids.keys()
        for v in missing:
            ids[v] = len(ids)
        return array("q", map(ids.__getitem__, column))

    def intern(self, value: Value) -> int:
        """Intern one value (the delta path); decode table stays in sync."""
        i = self.ids.get(value)
        if i is None:
            self._sync()
            i = len(self.ids)
            self.ids[value] = i
            self._values.append(value)
        return i

    # ------------------------------------------------------------------ #
    # decoding

    def _sync(self) -> None:
        values = self._values
        n = len(values)
        if n != len(self.ids):
            # ids are assigned 0,1,2,... in insertion order, so the dict's
            # key order is the decode table; extend with the new suffix
            values.extend(islice(self.ids, n, None))

    @property
    def values(self) -> list[Value]:
        """The id -> value decode table (index with an id)."""
        self._sync()
        return self._values

    def decode(self, row: Iterable[int]) -> tuple:
        """Map a row of ids back to the original values."""
        values = self.values
        return tuple(values[i] for i in row)

    def id_of(self, value: Value) -> Optional[int]:
        """The id of *value*, or None if it was never interned."""
        return self.ids.get(value)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"Interner({len(self.ids)} values)"
