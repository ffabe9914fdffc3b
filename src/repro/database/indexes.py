"""Hash indexes over relations.

The RAM model lets the paper build lookup tables queried in constant time;
these classes are that facility. A :class:`GroupIndex` groups the tuples of a
relation by a key (a subset of positions) and stores, per key, the *distinct*
projections onto the value positions — exactly the shape the constant-delay
join of the CDY algorithm walks.

Key and value extraction are compiled once per index with
:func:`operator.itemgetter`-based selectors (see :func:`tuple_selector`), and
duplicate elimination uses one small set per group instead of a global
``(key, value)`` pair set: the pair wrappers and the full-size global set were
pure build-time overhead, roughly doubling peak memory during construction.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Sequence


def tuple_selector(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A compiled ``row -> tuple(row[p] for p in positions)``.

    Always returns a tuple (also for zero or one position), so results can be
    used directly as dict keys alongside hand-built tuples. Works on any
    indexable sequence (tuples, lists).
    """
    positions = tuple(positions)
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return itemgetter(*positions)


#: Groups up to this size remove with a plain list scan; the first removal
#: from a larger group builds the group's ``{value: position}`` map, and
#: later removals swap-remove. Below the threshold a scan is the cheaper
#: choice: building a map for a 2–32 value group costs 5–12 µs per first
#: removal and keeps 300–1 200 B per group, a scan takes about 1 µs and
#: keeps nothing (CPython 3.11, one x86-64 core).
POSITION_MAP_MIN = 32


class GroupIndex:
    """Group tuples by key positions; store distinct value projections.

    ``lookup(key)`` returns the list of distinct value tuples for the key
    (empty list when absent); building is one linear pass. Freshly built
    per-group lists preserve first-occurrence order, and ``groups`` exposes
    the underlying ``{key: [values]}`` mapping so hot loops (the compiled
    CDY walk) can bind ``groups.get`` directly without a method call per
    lookup.

    :meth:`apply_delta` removes in O(1): a group above
    :data:`POSITION_MAP_MIN` values gets a ``{value: position}`` map the
    first time a removal hits it, and removals swap the group's last value
    into the freed slot. Group order is therefore unspecified after a
    delta. No position map exists right after a build.
    """

    __slots__ = ("key_positions", "value_positions", "groups", "_positions")

    def __init__(
        self,
        rows: Iterable[tuple],
        key_positions: Sequence[int],
        value_positions: Sequence[int],
    ) -> None:
        self.key_positions = tuple(key_positions)
        self.value_positions = tuple(value_positions)
        key_of = tuple_selector(self.key_positions)
        val_of = tuple_selector(self.value_positions)
        groups: dict[tuple, list[tuple]] = {}
        # per-group dedup sets; transient (dropped when __init__ returns)
        dedup: dict[tuple, set[tuple]] = {}
        for row in rows:
            key = key_of(row)
            val = val_of(row)
            seen = dedup.get(key)
            if seen is None:
                dedup[key] = {val}
                groups[key] = [val]
            elif val not in seen:
                seen.add(val)
                groups[key].append(val)
        self.groups = groups
        # lazy per-group {value: position} maps, only for groups that a
        # removal has hit above POSITION_MAP_MIN values
        self._positions: dict[tuple, dict[tuple, int]] = {}

    @classmethod
    def from_groups(
        cls,
        key_positions: Sequence[int],
        value_positions: Sequence[int],
        groups: dict[tuple, list[tuple]],
    ) -> "GroupIndex":
        """Adopt an already-grouped ``{key: [values]}`` mapping without a
        build pass (the fused preprocessing pipeline produces exactly this
        shape). The caller guarantees per-group value lists are distinct and
        non-empty; *groups* is adopted, not copied.
        """
        index = cls((), key_positions, value_positions)
        index.groups = groups
        return index

    def lookup(self, key: tuple) -> list[tuple]:
        group = self.groups.get(key)
        return group if group is not None else []

    def contains_key(self, key: tuple) -> bool:
        return key in self.groups

    def keys(self) -> Iterable[tuple]:
        return self.groups.keys()

    def __len__(self) -> int:
        return len(self.groups)

    def _remove(self, key: tuple, val: tuple) -> None:
        """Remove *val* from *key*'s group in O(1); raise if it is absent.

        Small groups scan; a group above :data:`POSITION_MAP_MIN` values
        swap-removes through its position map (built here on first use).
        An emptied group is deleted together with its map.
        """
        groups = self.groups
        group = groups[key]  # KeyError on an absent key: fail fast
        positions = self._positions.get(key)
        if positions is None:
            if len(group) <= POSITION_MAP_MIN:
                group.remove(val)  # ValueError on absent: fail fast
                if not group:
                    del groups[key]
                return
            positions = {v: i for i, v in enumerate(group)}
            self._positions[key] = positions
        slot = positions.pop(val, None)
        if slot is None:
            raise ValueError(f"{val!r} is not in the group of {key!r}")
        last = group.pop()
        if slot < len(group):
            group[slot] = last
            positions[last] = slot
        elif not group:
            del groups[key]
            del self._positions[key]

    def _append(self, key: tuple, group: list[tuple], val: tuple) -> None:
        """Append *val* (not yet present) to *key*'s existing *group*,
        recording its position when the group already has a map."""
        if self._positions:
            positions = self._positions.get(key)
            if positions is not None:
                positions[val] = len(group)
        group.append(val)

    def apply_delta(
        self, adds: Iterable[tuple], removes: Iterable[tuple]
    ) -> None:
        """Update the index from row deltas instead of a rebuild.

        Additions and removals are O(1) each, so the bound is O(|Δ|):
        a removal from a group above :data:`POSITION_MAP_MIN` values
        swap-removes through the group's position map, built lazily from
        the group the first time a removal hits it (O(group) once, then
        maintained by every later addition and removal). Group order is
        unspecified after a delta; nothing relies on it, since cursor tokens
        are fenced by version and in-flight walks are poisoned.

        Precondition (not checked): the key and value positions together
        determine a row uniquely — as in the CDY enumeration/extension plans,
        where they partition the node's variables — and *adds*/*removes* are
        exact set changes (nothing added twice, nothing removed that is
        absent; an absent removal raises). Rows whose projections can
        collide need :class:`CountedGroupIndex` instead. Mutates ``groups``
        in place, so walks holding the dict see the update; in-flight
        iterations over a group list are invalidated.
        """
        key_of = tuple_selector(self.key_positions)
        val_of = tuple_selector(self.value_positions)
        remove = self._remove
        for row in removes:
            remove(key_of(row), val_of(row))
        groups = self.groups
        append = self._append
        for row in adds:
            key = key_of(row)
            val = val_of(row)
            group = groups.get(key)
            if group is None:
                groups[key] = [val]
            else:
                append(key, group, val)


class CountedGroupIndex(GroupIndex):
    """A :class:`GroupIndex` that tracks per-``(key, value)`` multiplicities.

    Needed when distinct rows can collapse onto the same projection (the key
    and value positions do not jointly determine a row): a value stays in its
    group until the last supporting row is removed. Costs one count per
    distinct ``(key, value)`` pair — use plain :class:`GroupIndex` when the
    covering precondition holds.
    """

    __slots__ = ("_counts",)

    def __init__(
        self,
        rows: Iterable[tuple],
        key_positions: Sequence[int],
        value_positions: Sequence[int],
    ) -> None:
        super().__init__((), key_positions, value_positions)
        self._counts: dict[tuple, dict[tuple, int]] = {}
        self.apply_delta(rows, ())

    def apply_delta(
        self, adds: Iterable[tuple], removes: Iterable[tuple]
    ) -> None:
        """Multiplicity-aware delta maintenance (removes first, then adds);
        a value leaves its group through the same O(1) removal as
        :meth:`GroupIndex.apply_delta`."""
        key_of = tuple_selector(self.key_positions)
        val_of = tuple_selector(self.value_positions)
        groups = self.groups
        counts = self._counts
        remove = self._remove
        append = self._append
        for row in removes:
            key = key_of(row)
            val = val_of(row)
            group_counts = counts[key]
            n = group_counts[val] - 1
            if n:
                group_counts[val] = n
                continue
            del group_counts[val]
            remove(key, val)
            if not group_counts:
                del counts[key]
        for row in adds:
            key = key_of(row)
            val = val_of(row)
            group_counts = counts.get(key)
            if group_counts is None:
                counts[key] = {val: 1}
                groups[key] = [val]
                continue
            n = group_counts.get(val)
            if n is None:
                group_counts[val] = 1
                append(key, groups[key], val)
            else:
                group_counts[val] = n + 1


class MembershipIndex:
    """Constant-time membership for projections of a relation.

    Internally reference-counted per projected key, so
    :meth:`apply_delta` stays correct when several rows share a projection.
    """

    __slots__ = ("positions", "_counts")

    def __init__(self, rows: Iterable[tuple], positions: Sequence[int]) -> None:
        self.positions = tuple(positions)
        self._counts: dict[tuple, int] = {}
        self.apply_delta(rows, ())

    def __contains__(self, key: tuple) -> bool:
        return key in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def apply_delta(
        self, adds: Iterable[tuple], removes: Iterable[tuple]
    ) -> None:
        """Update membership from row-level deltas in O(|Δ|)."""
        project = tuple_selector(self.positions)
        counts = self._counts
        for r in removes:
            key = project(r)
            n = counts[key] - 1
            if n:
                counts[key] = n
            else:
                del counts[key]
        for r in adds:
            key = project(r)
            counts[key] = counts.get(key, 0) + 1
