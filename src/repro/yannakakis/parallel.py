"""Parallel sharded cold preprocessing over zero-copy shard channels.

The fused cold pipeline (:mod:`repro.yannakakis.fused`) spends almost all
of its time in one place: the per-row materialize+group pass that turns
each join-tree atom node's grounded rows into its shared-key grouping
``{key: [residuals]}``. That pass is embarrassingly parallel under *any*
partition of the rows, because grouping is a disjoint union. The original
sharded design partitioned raw tuples, grounded each shard against a
shard-*local* interner in the worker, and reconciled id spaces at merge —
which meant every shard's rows were pickled out and every grouping (plus
its decode table) pickled back. This module keeps the shape but moves all
bulk data out of the task payloads:

1. **ground once, globally** — the parent columnar-grounds the whole
   instance into the enumerator's interner with flat, buffer-backed id
   columns (:class:`~repro.database.columns.IdColumn`, ``backed=True``).
   Workers never intern; every id they see is already global, so the
   merge needs no remapping at all.
2. **range-shard, zero-copy** — each atom's rows split into ``k``
   contiguous ``[start, stop)`` windows
   (:func:`~repro.database.partition.shard_bounds`). A window over a flat
   column is a ``memoryview`` slice — no hashing, no row movement, and
   grounded rows are distinct, so any index partition keeps the merge
   dedup-free.
3. **ship descriptors, not data** — the thread backend hands workers the
   columns themselves (shared heap); the process backend publishes each
   column once into a :class:`~repro.database.columns.SharedShardArena`
   of :mod:`multiprocessing.shared_memory` segments and ships only
   ``(segment name, length)`` descriptors plus the per-atom windows — a
   few hundred bytes per task instead of megabytes of pickled rows.
   Workers attach (:class:`~repro.database.columns.AttachedBlock`),
   group over the buffer in **global id space**, and return group maps
   keyed by ids only. The arena closes and unlinks in a ``finally``, so
   a crashed worker can never leak ``/dev/shm`` segments.
4. **merge, decode, sweep** — shard group maps concatenate key-wise
   (plain, remap-free), top-subtree nodes decode to value space once in
   the parent, and the classical up-/down-sweeps run over the merged
   groupings exactly as ``fused_reduce``'s second phase would.

The result is a :class:`~repro.yannakakis.fused.FusedReduction` that the
enumerator adopts through the same code path as the fused pipeline, so
``pipeline="parallel"`` is differentially indistinguishable from
``"fused"`` and ``"reference"`` (the concurrency suite asserts exactly
that for ``k ∈ {1, 2, 4}`` under every backend).

**Backends.** ``pool`` accepts ``"auto"`` (default — delegate to
:func:`~repro.runtime.select_backend`: serial on one core, threads on
free-threaded builds, shared-memory processes on multi-core GIL builds),
or an explicit ``"thread"`` / ``"process"`` / ``"serial"``, which the
differential suites use to force each transport regardless of hardware.
A caller-supplied ``executor`` wins over pool construction and implies
its own kind. ``stats_out`` (a dict) receives the chosen backend and the
per-task serialized byte counts.

**Fault tolerance.** Shard dispatch runs a recovery ladder instead of
letting ``concurrent.futures`` internals escape: a failed shard (worker
exception, hard crash → :class:`~concurrent.futures.process.\
BrokenProcessPool`, cancelled future) is retried once with exponential
backoff — on a fresh executor when the pool broke (an engine-supplied
pool is rebuilt through :class:`~repro.resilience.ShardRecovery`'s
factory) — and a shard that fails its retries falls back to in-parent
serial execution, which is by construction the fused pipeline's own
materialize+group stage over the same global-id columns. Every rung
yields identical answers; ``shard_retries`` / ``pool_rebuilds`` /
``fallbacks`` record which rungs ran. A ``deadline``
(:class:`~repro.resilience.Deadline`) is checked at every phase
boundary (ground, dispatch, collect, merge) and rides the tick seam
through the sweeps; ``faults`` (or the process-wide plan installed via
:mod:`repro.faultinject`) is shipped to workers inside task payloads so
injected crashes are deterministic on every backend.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from itertools import compress

from ..database.columns import AttachedBlock, IdColumn, SharedShardArena
from ..database.indexes import tuple_selector
from ..database.instance import Instance
from ..database.interner import Interner
from ..database.partition import partition_instance, shard_bounds
from ..enumeration.steps import StepCounter, tick_or_none
from ..hypergraph.jointree import ATOM, JoinTree
from ..query.cq import CQ
from ..query.terms import Var
from ..resilience import Deadline, ShardRecovery
from ..runtime import (
    PROCESS,
    SERIAL,
    THREAD,
    Backend,
    POOL_CHOICES,
    active_fault_hook,
    resolve_pool,
)
from .fused import (
    FusedNode,
    FusedReduction,
    _materialize_atom,
    down_sweep,
    node_key_split,
)
from .grounding import ColumnarAtom, ground_atoms_columnar

#: accepted pool kinds for :func:`parallel_reduce` (see :mod:`repro.runtime`)
POOLS = POOL_CHOICES


def _resolve_backend(
    workers: int, pool: str, executor: Executor | None
) -> Backend:
    """The effective backend: pool resolution, overridden by a
    caller-supplied executor's actual kind (an engine handing down its
    process pool must get shared-memory channels, not heap sharing)."""
    backend = resolve_pool(pool, workers)
    if executor is not None and backend.workers > 1:
        kind = PROCESS if isinstance(executor, ProcessPoolExecutor) else THREAD
        if kind != backend.kind:
            backend = Backend(
                kind, backend.workers, f"caller-supplied {kind} executor"
            )
    return backend


def _pool_executor(
    backend: Backend, executor: Executor | None
) -> tuple[Executor, Executor | None]:
    """``(executor to use, executor to shut down — None when borrowed)``."""
    if executor is not None:
        return executor, None
    if backend.kind == PROCESS:
        own: Executor = ProcessPoolExecutor(max_workers=backend.workers)
    else:
        own = ThreadPoolExecutor(
            max_workers=backend.workers, thread_name_prefix="repro-shard"
        )
    return own, own


def _backoff(delay_s: float, deadline: "Deadline | None") -> None:
    """Sleep before a retry round, capped to the deadline's remainder
    (and checked first, so an already-expired deadline raises instead of
    sleeping)."""
    if deadline is not None:
        deadline.check("parallel:retry-backoff")
        delay_s = min(delay_s, max(deadline.remaining(), 0.0))
    if delay_s > 0:
        time.sleep(delay_s)


def _replace_pool(
    backend: Backend,
    own: Executor | None,
    recovery: ShardRecovery,
) -> tuple[Executor, Executor | None]:
    """A fresh executor after the current one broke.

    An *owned* pool (built by this call) is discarded and recreated; a
    *borrowed* one is rebuilt through the recovery context's factory —
    the engine swaps its backend-matched shard pool there, transparently
    to every queued build — falling back to a private replacement when no
    factory is available. Returns the ``(executor, executor to shut
    down)`` pair in :func:`_pool_executor`'s convention.
    """
    if own is not None:
        try:
            own.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may refuse
            pass
        return _pool_executor(backend, None)
    factory = recovery.executor_factory
    if factory is not None:
        fresh = factory()
        if fresh is not None:
            return fresh, None
    return _pool_executor(backend, None)


def _dispatch_with_recovery(
    k: int,
    submit,
    serial_run,
    backend: Backend,
    pool_executor: Executor,
    own_executor: Executor | None,
    rec: ShardRecovery,
    deadline: "Deadline | None",
    note,
) -> tuple[list, Executor, Executor | None]:
    """Run ``k`` shard tasks through the recovery ladder.

    ``submit(executor, i, attempt)`` dispatches shard *i*;
    ``serial_run(i)`` is the in-parent last rung (fault-free by
    construction — the ladder must terminate). Each round collects every
    outstanding future, classifying failures: a cancelled or crashed
    future marks its shard for retry, and a broken executor (failed
    submit, :class:`~concurrent.futures.BrokenExecutor`) additionally
    forces a pool replacement before the next round. Returns
    ``(results, executor, executor-to-shut-down)`` — the executor pair
    may have been replaced mid-flight.
    """
    results: list = [None] * k
    pending = list(range(k))
    attempt = 0
    while pending and attempt <= rec.retry.retries:
        if attempt:
            _backoff(rec.retry.delay(attempt), deadline)
            note(shard_retries=len(pending))
        futures: dict[int, object] = {}
        failed: list[int] = []
        broken = False
        for i in pending:
            try:
                futures[i] = submit(pool_executor, i, attempt)
            except Exception:
                # a broken/shut-down pool refuses new work
                failed.append(i)
                broken = True
        for i, fut in futures.items():
            try:
                results[i] = fut.result()
            except CancelledError:
                failed.append(i)
            except BrokenExecutor:
                failed.append(i)
                broken = True
            except Exception:
                failed.append(i)
        if deadline is not None:
            deadline.check("parallel:collect")
        pending = failed
        if pending and broken and attempt < rec.retry.retries:
            pool_executor, own_executor = _replace_pool(
                backend, own_executor, rec
            )
            note(pool_rebuilds=1)
        attempt += 1
    for i in pending:  # shards that failed every pooled attempt
        note(fallbacks=1)
        results[i] = serial_run(i)
        if deadline is not None:
            deadline.check("parallel:fallback")
    return results, pool_executor, own_executor


# --------------------------------------------------------------------- #
# incremental grounding distribution (hash shards, flat decode tables)


def _remap_into(
    table: tuple[str, bytes], interner: Interner
) -> tuple[list[int], bool]:
    """``(local→global id remap, is-identity)`` for one shard's exported
    decode table — the single place the reconciliation invariant lives:
    :meth:`~repro.database.interner.Interner.import_table` preserves table
    order, so the first shard into a fresh interner remaps to the
    identity and translation can be skipped."""
    remap = interner.import_table(*table)
    return remap, all(i == g for i, g in enumerate(remap))


def shard_ground(
    cq: CQ,
    shard: Instance,
    shard_index: int = 0,
    faults=None,
    attempt: int = 0,
) -> tuple[tuple[str, bytes], list]:
    """Columnar-ground one shard against a local interner (pool worker).

    Returns ``(exported decode table, [(vars, columns, row_count) per
    atom])``. The decode table travels as a flat buffer
    (:meth:`~repro.database.interner.Interner.export_table`) and the
    columns as buffer-backed :class:`~repro.database.columns.IdColumn`
    values, whose pickling is a single ``array('q')`` payload — compact
    for thread and process pools alike. *faults*, when given, fires at
    the ``"ground"`` checkpoint with this shard's index and retry
    *attempt* before any work happens.
    """
    if faults is not None:
        faults.fire("ground", worker=shard_index, attempt=attempt)
    interner = Interner()
    grounded = ground_atoms_columnar(cq, shard, interner, backed=True)
    return (
        interner.export_table(),
        [(g.vars, g.columns, g.row_count) for g in grounded],
    )


def parallel_ground_columnar(
    cq: CQ,
    instance: Instance,
    interner: Interner,
    workers: int = 2,
    pool: str = "auto",
    executor: Executor | None = None,
    recovery: ShardRecovery | None = None,
    faults=None,
    deadline: "Deadline | None" = None,
) -> list[ColumnarAtom]:
    """Shard-parallel twin of
    :func:`~repro.yannakakis.grounding.ground_atoms_columnar`.

    Hash-partitions the instance (stable hashes — parent and spawned
    workers agree, see :func:`~repro.database.partition.stable_hash`),
    grounds every shard in a pool worker against a shard-local interner,
    and merges: each shard's flat-exported decode table remaps into
    *interner* via
    :meth:`~repro.database.interner.Interner.import_table` and the id
    columns concatenate per atom per position (one C-level ``map`` per
    column for non-identity remaps, plain adoption otherwise). This is
    what parallelizes the *incremental* (serving) cold build, which
    keeps its grounded columns for the counting reducer the first delta
    builds — only its grounding/interning stage distributes, and the
    fused reduction runs over the merged columns. Shard dispatch runs
    the same recovery ladder as :func:`parallel_reduce`: a failed shard
    (worker crash, broken executor) is retried on a fresh pool, then grounds
    serially in the parent — identical output, recorded through
    *recovery*'s counters. *deadline* caps every retry backoff (and is
    checked at each ladder rung), so a crashing shard cannot sleep a
    request past its 504 budget.
    """
    backend = _resolve_backend(workers, pool, executor)
    k = backend.workers
    if faults is None:
        faults = active_fault_hook()
    rec = recovery if recovery is not None else ShardRecovery()
    schema_instance = Instance(
        {
            symbol: instance.get(symbol, arity)
            for symbol, arity in cq.schema.items()
        }
    )
    if k == 1:
        shards = [schema_instance]
    else:
        shards = partition_instance(schema_instance, k)
    if k == 1 or backend.kind == SERIAL:
        results = []
        for i, shard in enumerate(shards):
            try:
                results.append(shard_ground(cq, shard, i, faults, 0))
            except Exception:
                result = None
                for attempt in range(1, rec.retry.retries + 1):
                    _backoff(rec.retry.delay(attempt), deadline)
                    rec.note(shard_retries=1)
                    try:
                        result = shard_ground(cq, shard, i, faults, attempt)
                        break
                    except Exception:
                        result = None
                if result is None:
                    rec.note(fallbacks=1)
                    result = shard_ground(cq, shard)
                results.append(result)
    else:
        pool_executor, own = _pool_executor(backend, executor)
        try:

            def _submit(ex: Executor, i: int, attempt: int):
                return ex.submit(shard_ground, cq, shards[i], i, faults, attempt)

            results, pool_executor, own = _dispatch_with_recovery(
                len(shards),
                _submit,
                lambda i: shard_ground(cq, shards[i]),
                backend,
                pool_executor,
                own,
                rec,
                deadline,
                rec.note,
            )
        finally:
            if own is not None:
                own.shutdown(wait=True)

    merged_cols: list[list[list[int]]] | None = None
    row_counts: list[int] = []
    atom_vars: list[tuple[Var, ...]] = []
    for table, atoms in results:
        remap, identity = _remap_into(table, interner)
        getg = remap.__getitem__
        if merged_cols is None:
            merged_cols = [[[] for _ in columns] for _v, columns, _n in atoms]
            row_counts = [0] * len(atoms)
            atom_vars = [vars_ for vars_, _c, _n in atoms]
        for index, (_vars, columns, row_count) in enumerate(atoms):
            row_counts[index] += row_count
            target = merged_cols[index]
            for position, column in enumerate(columns):
                if identity:
                    target[position].extend(column)
                else:
                    target[position].extend(map(getg, column))
    return [
        ColumnarAtom(
            atom, atom_vars[i], tuple(merged_cols[i]), row_counts[i]
        )
        for i, atom in enumerate(cq.atoms)
    ]


# --------------------------------------------------------------------- #
# the zero-copy parallel reducer


def _atom_specs(
    tree: JoinTree, decode_top: frozenset[int] | set[int]
) -> list[tuple[int, int, tuple[Var, ...], tuple[Var, ...], bool]]:
    """Per atom node: ``(node id, atom index, key vars, res vars, decode)``.

    The key/residual split mirrors :func:`~repro.yannakakis.fused.fused_reduce`:
    the key covers the variables shared with the node's parent (canonical
    str-sorted order), the residual the rest. ``decode`` marks top-subtree
    nodes; workers group everything in global id space and the *parent*
    decodes those nodes once after the merge — ids are what travel back,
    never value tuples.
    """
    specs = []
    for nid, node in tree.nodes.items():
        if node.kind != ATOM:
            continue
        _vars_v, key_vars, res_vars = node_key_split(tree, nid)
        specs.append(
            (nid, node.atom_index, key_vars, res_vars, nid in decode_top)
        )
    return specs


def _shard_groups(
    lite: list[tuple],
    specs: list[tuple[int, int, tuple[Var, ...], tuple[Var, ...], bool]],
    bounds: tuple[tuple[int, int], ...],
    shard_index: int = 0,
    faults=None,
    attempt: int = 0,
) -> dict[int, dict[tuple, list[tuple]]]:
    """Group one shard's window of every atom node, in global id space.

    *lite* is ``[(vars, columns, row_count) per atom]`` with columns that
    window zero-copy (:meth:`~repro.database.columns.IdColumn.slice`);
    *bounds* gives this shard's ``[start, stop)`` per atom. Runs the
    fused pipeline's materialize+group stage with semijoin checks
    disabled (they need cross-shard state and run after the merge).
    *faults*, when given, fires at the ``"shard"`` checkpoint with this
    shard's index and retry *attempt* before any work happens.
    """
    if faults is not None:
        faults.fire("shard", worker=shard_index, attempt=attempt)
    out: dict[int, dict[tuple, list[tuple]]] = {}
    for nid, atom_index, key_vars, res_vars, _decode in specs:
        vars_, columns, _row_count = lite[atom_index]
        start, stop = bounds[atom_index]
        window = ColumnarAtom(
            None,
            vars_,
            tuple(
                c.slice(start, stop)
                if isinstance(c, IdColumn)
                else c[start:stop]
                for c in columns
            ),
            stop - start,
        )
        out[nid] = _materialize_atom(window, key_vars, res_vars, [], None)
    return out


def shard_materialize_shm(
    block: list[tuple],
    specs: list[tuple[int, int, tuple[Var, ...], tuple[Var, ...], bool]],
    bounds: tuple[tuple[int, int], ...],
    shard_index: int = 0,
    faults=None,
    attempt: int = 0,
) -> dict[int, dict[tuple, list[tuple]]]:
    """Process-pool worker: attach shared-memory columns, group a window.

    *block* is ``[(vars, row_count, (ColumnSegment per column)) per
    atom]`` — descriptors only; the column data stays in the parent's
    segments and is read through zero-copy views. Attachment is detached
    from this process's resource tracker (the parent owns unlinking) and
    every view is released in the ``finally`` even when grouping raises,
    so a crashing worker neither leaks nor double-frees segments — a
    hard ``os._exit`` crash (injected or real) cannot leak either,
    because the parent owns every segment's unlink. *faults* travels in
    the task payload and fires at the ``"shard"`` checkpoint *before*
    attachment, so injected deaths never hold segment views.
    """
    if faults is not None:
        faults.fire("shard", worker=shard_index, attempt=attempt)
    attached = AttachedBlock()
    try:
        lite = [
            (
                vars_,
                tuple(attached.column(segment) for segment in segments),
                row_count,
            )
            for vars_, row_count, segments in block
        ]
        return _shard_groups(lite, specs, bounds)
    finally:
        attached.close()


def _merge_id_groups(
    shard_results: list[dict[int, dict[tuple, list[tuple]]]],
    tick,
) -> dict[int, dict[tuple, list[tuple]]]:
    """Key-wise concatenation of shard group maps — already one id space.

    Workers group over globally interned ids, so there is nothing to
    remap; grounded rows are distinct and range shards partition them, so
    there is nothing to dedup. The first occurrence of a key adopts the
    shard's row list by reference; a collision (same key, different
    shards) extends — converting the shared residual-free marker
    (:data:`~repro.yannakakis.fused._UNIT`) to a private list first.
    """
    merged: dict[int, dict[tuple, list[tuple]]] = {}
    for result in shard_results:
        for nid, groups in result.items():
            target = merged.setdefault(nid, {})
            if tick is not None and groups:
                tick(sum(len(rows) for rows in groups.values()))
            if not target:
                target.update(groups)
                continue
            for key, rows in groups.items():
                bucket = target.get(key)
                if bucket is None:
                    target[key] = rows
                elif isinstance(bucket, list):
                    bucket.extend(rows)
                else:  # shared immutable marker: copy before extending
                    target[key] = list(bucket) + list(rows)
    return merged


def parallel_reduce(
    tree: JoinTree,
    cq: CQ,
    instance: Instance,
    interner: Interner,
    workers: int = 2,
    counter: StepCounter | None = None,
    decode_top: frozenset[int] | set[int] = frozenset(),
    pool: str = "auto",
    executor: Executor | None = None,
    stats_out: dict | None = None,
    deadline: "Deadline | None" = None,
    faults=None,
    recovery: ShardRecovery | None = None,
) -> FusedReduction:
    """Ground globally, window-shard zero-copy, group in parallel, merge,
    then sweep: the parallel twin of
    :func:`~repro.yannakakis.fused.fused_reduce`.

    Produces a :class:`~repro.yannakakis.fused.FusedReduction` over
    *interner* equivalent to the fused pipeline's output (nodes in
    *decode_top* — which must be upward-closed — in value space, the rest
    in id space). ``workers`` is the shard count and the pool width;
    ``pool`` selects the backend (``"auto"`` by default — see the module
    docstring); ``executor``, when given, overrides pool construction (it
    is not shut down, but *is* replaced for retries when it breaks — via
    ``recovery.executor_factory`` when available). ``workers=1`` skips
    the pool entirely but still exercises the shard/merge code path.
    *stats_out*, when given, records the backend decision, the serialized
    bytes each worker task shipped (zero for in-process backends), and
    the recovery ladder's ``shard_retries`` / ``pool_rebuilds`` /
    ``fallbacks`` / ``degraded``. *deadline* is checked at every phase
    boundary; *faults* (defaulting to the process-wide installed plan)
    is handed to every shard task; *recovery* supplies the retry policy
    and the counters/executor-factory of a long-lived caller.
    """
    backend = _resolve_backend(workers, pool, executor)
    k = backend.workers
    if faults is None:
        faults = active_fault_hook()
    rec = recovery if recovery is not None else ShardRecovery()
    degradation = {"shard_retries": 0, "pool_rebuilds": 0, "fallbacks": 0}

    def _note(**deltas: int) -> None:
        for name, delta in deltas.items():
            degradation[name] += delta
        rec.note(**deltas)

    tick = tick_or_none(counter)
    specs = _atom_specs(tree, decode_top)
    if deadline is not None:
        deadline.check("parallel:ground")
    if faults is not None:
        faults.fire("grounding")
    schema_instance = Instance(
        {
            symbol: instance.get(symbol, arity)
            for symbol, arity in cq.schema.items()
        }
    )
    grounded = ground_atoms_columnar(
        cq, schema_instance, interner, counter, backed=True
    )
    lite = [(g.vars, g.columns, g.row_count) for g in grounded]
    per_atom = [shard_bounds(g.row_count, k) for g in grounded]
    windows = [
        tuple(per_atom[a][i] for a in range(len(grounded)))
        for i in range(k)
    ]
    if stats_out is not None:
        stats_out["backend"] = backend.kind
        stats_out["workers"] = k
        stats_out["reason"] = backend.reason
        stats_out["task_bytes"] = [0] * k
    if deadline is not None:
        deadline.check("parallel:dispatch")
    if faults is not None:
        faults.fire("dispatch")

    def _serial_fallback(i: int) -> dict:
        """Last rung: run shard *i* in the parent, fault-free — this is
        the fused pipeline's own materialize+group stage over the same
        global-id columns, so answers cannot differ."""
        _note(fallbacks=1)
        return _shard_groups(lite, specs, windows[i])

    if k == 1 or backend.kind == SERIAL:
        shard_results = []
        for i, w in enumerate(windows):
            try:
                shard_results.append(
                    _shard_groups(lite, specs, w, i, faults, 0)
                )
            except Exception:
                result = None
                for attempt in range(1, rec.retry.retries + 1):
                    _backoff(rec.retry.delay(attempt), deadline)
                    _note(shard_retries=1)
                    try:
                        result = _shard_groups(lite, specs, w, i, faults, attempt)
                        break
                    except Exception:
                        result = None
                shard_results.append(
                    result if result is not None else _serial_fallback(i)
                )
            if deadline is not None:
                deadline.check("parallel:collect")
    else:
        pool_executor, own_executor = _pool_executor(backend, executor)
        arena: SharedShardArena | None = None
        try:
            if backend.kind == PROCESS:
                # the arena outlives retries (closed in the outer finally):
                # a replacement executor's workers attach to the same
                # segments, and the parent owning every unlink is what
                # makes a hard worker crash leak-free by construction
                arena = SharedShardArena()
                block = [
                    (
                        g.vars,
                        g.row_count,
                        tuple(arena.publish(c) for c in g.columns),
                    )
                    for g in grounded
                ]
                if stats_out is not None:
                    stats_out["task_bytes"] = [
                        len(
                            pickle.dumps(
                                (block, specs, w),
                                pickle.HIGHEST_PROTOCOL,
                            )
                        )
                        for w in windows
                    ]
                    stats_out["segment_bytes"] = sum(
                        segment.count * 8
                        for _v, _rc, segments in block
                        for segment in segments
                    )

                def _submit(ex: Executor, i: int, attempt: int):
                    return ex.submit(
                        shard_materialize_shm,
                        block, specs, windows[i], i, faults, attempt,
                    )

            else:  # thread: workers read the parent's columns directly

                def _submit(ex: Executor, i: int, attempt: int):
                    return ex.submit(
                        _shard_groups,
                        lite, specs, windows[i], i, faults, attempt,
                    )

            shard_results, pool_executor, own_executor = (
                _dispatch_with_recovery(
                    k,
                    _submit,
                    lambda i: _shard_groups(lite, specs, windows[i]),
                    backend,
                    pool_executor,
                    own_executor,
                    rec,
                    deadline,
                    _note,
                )
            )
        finally:
            if arena is not None:
                arena.close()
            if own_executor is not None:
                own_executor.shutdown(wait=True)

    if faults is not None:
        faults.fire("merge")
    if deadline is not None:
        deadline.check("parallel:merge")
    if stats_out is not None:
        stats_out.update(degradation)
        stats_out["degraded"] = any(degradation.values())

    if len(shard_results) == 1:
        merged = shard_results[0]
    else:
        merged = _merge_id_groups(shard_results, tick)

    # top-subtree nodes decode to value space once, in the parent — after
    # the merge, so workers only ever ship ids
    value_space = {nid for nid, _ai, _kv, _rv, decode in specs if decode}
    if value_space:
        getv = interner.values.__getitem__
        for nid in value_space:
            groups = merged.get(nid)
            if groups:
                merged[nid] = {
                    tuple(map(getv, key)): [
                        tuple(map(getv, row)) for row in rows
                    ]
                    for key, rows in groups.items()
                }

    # ---- bottom-up: adopt/materialize + up-sweep ---------------------- #
    nodes: dict[int, FusedNode] = {}
    for v in tree.bottomup_order():
        node = tree.nodes[v]
        vars_v, key_vars, res_vars = node_key_split(tree, v)
        key_positions = tuple(vars_v.index(x) for x in key_vars)
        res_positions = tuple(vars_v.index(x) for x in res_vars)
        decoded = v in decode_top

        source = node.source if node.kind != ATOM else None
        checks: list[tuple[tuple[Var, ...], FusedNode]] = []
        alive = True
        for c in tree.children[v]:
            if c == source:
                continue  # projected rows match their source by construction
            child_vars = tree.nodes[c].vars
            shared = tuple(x for x in vars_v if x in child_vars)
            if not shared:
                if not nodes[c].groups:
                    alive = False
                continue
            checks.append((shared, nodes[c]))

        if not alive:
            groups: dict[tuple, list[tuple]] = {}
        elif node.kind == ATOM:
            groups = merged.get(v, {})
        else:
            groups = _project_source(
                nodes[node.source], vars_v, key_vars, res_vars,
                decoded, interner,
            )
        if checks and groups:
            groups = _up_sweep(
                groups, key_vars, res_vars, checks, decoded, interner, tick
            )
        nodes[v] = FusedNode(
            vars_v,
            key_vars,
            res_vars,
            key_positions,
            res_positions,
            groups,
            decoded,
        )

    # ---- top-down: down-sweep at group granularity (shared impl) ------ #
    return FusedReduction(nodes, down_sweep(tree, nodes, interner, tick))


def _project_source(
    src: FusedNode,
    vars_v: tuple[Var, ...],
    key_vars: tuple[Var, ...],
    res_vars: tuple[Var, ...],
    decoded: bool,
    interner: Interner,
) -> dict[tuple, list[tuple]]:
    """A projection node's grouping from its source child's group keys
    (the node's variables are exactly the source's grouping key, so the
    distinct keys *are* the projected rows). A value-space node fed by an
    id-space source translates per group key — the top subtree is
    upward-closed, so the reverse direction cannot occur."""
    if src.key_vars != vars_v:  # pragma: no cover - structural invariant
        raise AssertionError(
            f"projection node vars {vars_v} != source grouping key "
            f"{src.key_vars}"
        )
    rows_iter = iter(src.groups)
    if decoded and not src.decoded:
        getv = interner.values.__getitem__
        rows_iter = (tuple(map(getv, row)) for row in rows_iter)
    if key_vars == vars_v:  # residual-free projection
        return {k: [()] for k in rows_iter}
    if not key_vars:  # root-side projection: one group of residuals
        rows = list(rows_iter)
        return {(): rows} if rows else {}
    ksel = tuple_selector(tuple(vars_v.index(x) for x in key_vars))
    rsel = tuple_selector(tuple(vars_v.index(x) for x in res_vars))
    groups: dict[tuple, list[tuple]] = {}
    for row in rows_iter:
        key = ksel(row)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [rsel(row)]
        else:
            bucket.append(rsel(row))
    return groups


def _up_sweep(
    groups: dict[tuple, list[tuple]],
    key_vars: tuple[Var, ...],
    res_vars: tuple[Var, ...],
    checks: list[tuple[tuple[Var, ...], FusedNode]],
    decoded: bool,
    interner: Interner,
    tick,
) -> dict[tuple, list[tuple]]:
    """Semijoin-filter a merged grouping against already-reduced children.

    A row survives iff its projection onto each check edge's shared
    variables hits the child's group keys (the child's grouping is keyed
    by exactly those variables — its parent is this node). Same asymptotic
    cost as the fused pipeline's compress filters, and the common shapes
    stay at C speed: a check whose shared variables live entirely in the
    grouping key filters whole *groups* through a dict comprehension, one
    confined to the residuals runs as ``compress``/``map`` over each
    group's row list; only a check straddling the key/residual split pays
    a per-row Python call. Probes against an id-space child from a
    value-space node are translated through the interner (the reverse
    cannot occur — the top subtree is upward-closed).
    """

    def _converter(child: FusedNode):
        if child.decoded == decoded:
            return None
        id_of = interner.ids.get  # value-space probe, id-space child
        return lambda t: tuple(map(id_of, t))

    key_set = set(key_vars)
    res_set = set(res_vars)
    count = sum(map(len, groups.values())) if tick is not None else 0
    straddling: list = []
    for shared, child in checks:
        cgroups = child.groups
        convert = _converter(child)
        if all(x in key_set for x in shared):
            # group-granular: survival depends on the key alone
            sel = (
                None
                if shared == key_vars
                else tuple_selector(tuple(key_vars.index(x) for x in shared))
            )
            out: dict[tuple, list[tuple]] = {}
            for k, rows in groups.items():
                probe = k if sel is None else sel(k)
                if (probe if convert is None else convert(probe)) in cgroups:
                    out[k] = rows
            groups = out
        elif all(x in res_set for x in shared):
            # residual-only: one C-level compress/map pass per group
            sel = (
                None
                if shared == res_vars
                else tuple_selector(tuple(res_vars.index(x) for x in shared))
            )
            out = {}
            for k, rows in groups.items():
                probes = rows if sel is None else map(sel, rows)
                if convert is not None:
                    probes = map(convert, probes)
                surviving = list(
                    compress(rows, map(cgroups.__contains__, probes))
                )
                if surviving:
                    out[k] = surviving
            groups = out
        else:
            straddling.append((shared, cgroups, convert))
    if straddling:
        concat = key_vars + res_vars
        sels = [
            (
                tuple_selector(tuple(concat.index(x) for x in shared)),
                cgroups,
                convert,
            )
            for shared, cgroups, convert in straddling
        ]
        out = {}
        for key, rows in groups.items():
            surviving = [
                r
                for r in rows
                if all(
                    (
                        sel(key + r)
                        if convert is None
                        else convert(sel(key + r))
                    )
                    in cgroups
                    for sel, cgroups, convert in sels
                )
            ]
            if surviving:
                out[key] = surviving
        groups = out
    if tick is not None:
        tick(count)
    return groups
