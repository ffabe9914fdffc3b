"""Range partitioning of grounded rows for parallel preprocessing.

The cold preprocessing pass is the only super-linear-feeling phase left in
the serving stack (everything warm is O(|Δ|) or O(page)), so it is the one
worth spreading across cores. :func:`shard_bounds` cuts ``range(n)`` into
``k`` contiguous, balanced ``[start, stop)`` windows. It is the one
sharding scheme, used by the zero-copy parallel reducer
(:mod:`repro.yannakakis.parallel`): grounded rows already sit in flat id
columns, any index partition of distinct rows keeps the shard merge
dedup-free (grounding's projection is injective on selection survivors,
see :mod:`repro.yannakakis.grounding`, so per-shard groupings merge by
plain key-wise concatenation), and a contiguous window is a zero-copy
:meth:`~repro.database.columns.IdColumn.slice` — no hashing, no row
movement, perfect balance (±1), and the same assignment in every process.
"""

from __future__ import annotations


def shard_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """``k`` contiguous ``[start, stop)`` windows covering ``range(n)``.

    Balanced to ±1 row (the first ``n % k`` shards get the extra row);
    trailing shards are empty when ``k > n``. This is the zero-copy
    reducer's row partition: windows slice flat id columns without
    copying or hashing.
    """
    if k < 1:
        raise ValueError("shard count must be positive")
    base, extra = divmod(n, k)
    bounds = []
    start = 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds
