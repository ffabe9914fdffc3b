"""Zero-copy parallel cold path: columns, shard channels, backends.

Covers the buffer-backed column type (:mod:`repro.database.columns`),
range sharding, shared-memory arena hygiene (including worker crashes),
the backend-selection matrix (:mod:`repro.runtime`), and a differential
sweep of the parallel pipeline under every backend.
"""

import pickle
from array import array
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.database import (
    Interner,
    live_segments,
    random_instance_for,
    shard_bounds,
    system_segments,
)
from repro.database.columns import (
    AttachedBlock,
    ColumnSegment,
    IdColumn,
    SharedShardArena,
)
from repro.engine import Engine
from repro.query import parse_cq
from repro.runtime import (
    PROCESS,
    SERIAL,
    THREAD,
    Backend,
    RuntimeInfo,
    resolve_pool,
    select_backend,
)
from repro.serving import SessionManager
from repro.yannakakis import CDYEnumerator
from repro.yannakakis import parallel as parallel_module
from repro.yannakakis.parallel import parallel_reduce


# --------------------------------------------------------------------- #
# IdColumn


def test_id_column_basic_protocol():
    col = IdColumn([5, 3, 9, 9, 1])
    assert len(col) == 5
    assert list(col) == [5, 3, 9, 9, 1]
    assert col[2] == 9
    assert col == [5, 3, 9, 9, 1]
    assert col == IdColumn(array("q", [5, 3, 9, 9, 1]))
    assert col != [5, 3]


def test_id_column_slicing_is_zero_copy():
    backing = array("q", range(100))
    col = IdColumn(backing)
    window = col.slice(10, 20)
    assert list(window) == list(range(10, 20))
    # the slice borrows the same buffer: a write through the backing
    # array is visible in the window (read-only protocol, shared bytes)
    backing[10] = -7
    assert window[0] == -7
    assert list(col[10:20]) == list(window)
    with pytest.raises(ValueError):
        col[::2]


def test_id_column_wrap_non_contiguous_buffer_compacts():
    backing = array("q", range(10))
    strided = memoryview(backing)[::2]
    assert not strided.contiguous
    col = IdColumn.wrap(strided)
    assert list(col) == [0, 2, 4, 6, 8]
    # the compacted copy is private: the source can change freely
    backing[0] = 99
    assert col[0] == 0


def test_id_column_wrap_untyped_bytes_and_count():
    payload = array("q", [7, 8, 9]).tobytes()
    col = IdColumn.wrap(payload, count=2)
    assert list(col) == [7, 8]


def test_id_column_rejects_wrong_typecode():
    with pytest.raises(TypeError):
        IdColumn(array("i", [1, 2]))


def test_id_column_pickle_round_trips_as_copy():
    col = IdColumn(memoryview(array("q", [4, 5, 6])))
    clone = pickle.loads(pickle.dumps(col))
    assert isinstance(clone, IdColumn)
    assert list(clone) == [4, 5, 6]


# --------------------------------------------------------------------- #
# range sharding


def test_shard_bounds_balanced_and_validated():
    assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert shard_bounds(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]
    assert shard_bounds(0, 2) == [(0, 0), (0, 0)]
    with pytest.raises(ValueError):
        shard_bounds(5, 0)


# --------------------------------------------------------------------- #
# shared-memory arena hygiene


def test_arena_publish_attach_round_trip():
    with SharedShardArena(prefix="repro-test-rt") as arena:
        seg_a = arena.publish(IdColumn([1, 2, 3, 4]))
        seg_b = arena.publish([])  # null descriptor, no segment
        assert seg_b.name == "" and seg_b.count == 0
        assert arena.segment_names == (seg_a.name,)
        assert seg_a.name in live_segments()
        with AttachedBlock() as block:
            col = block.column(seg_a)
            assert list(col) == [1, 2, 3, 4]
            assert list(block.column(seg_b)) == []
    assert not live_segments()
    assert system_segments("repro-test-rt") == []


def test_arena_close_is_idempotent_and_fences_publish():
    arena = SharedShardArena(prefix="repro-test-close")
    arena.publish(IdColumn([1]))
    arena.close()
    arena.close()
    with pytest.raises(ValueError):
        arena.publish(IdColumn([2]))
    assert not live_segments()
    assert system_segments("repro-test-close") == []


def test_arena_cleans_up_when_the_build_raises():
    with pytest.raises(RuntimeError):
        with SharedShardArena(prefix="repro-test-crash") as arena:
            arena.publish(IdColumn(range(64)))
            arena.publish(IdColumn(range(32)))
            raise RuntimeError("simulated mid-build crash")
    assert not live_segments()
    assert system_segments("repro-test-crash") == []


def test_column_segment_pickles_by_fields():
    seg = ColumnSegment("repro-abc-0", 17)
    clone = pickle.loads(pickle.dumps(seg))
    assert (clone.name, clone.count) == ("repro-abc-0", 17)


def _crash_worker(block, specs, window, shard_index=0, faults=None, attempt=0):
    raise RuntimeError("injected worker crash")


def test_parallel_reduce_recovers_and_unlinks_when_a_worker_crashes(monkeypatch):
    """A crashing process worker must neither fail the build nor leak
    /dev/shm segments: the recovery ladder retries each shard and falls
    back to in-parent serial execution, the answers stay identical to the
    fused pipeline's, and the arena's ``finally`` unlinks everything the
    parent published."""
    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)")
    instance = random_instance_for(cq, n_tuples=500, seed=11)
    probe = CDYEnumerator(cq, instance, pipeline="fused")
    reference = sorted(probe)
    monkeypatch.setattr(
        parallel_module, "shard_materialize_shm", _crash_worker
    )
    stats: dict = {}
    parallel_reduce(
        probe.tree,
        cq,
        instance,
        Interner(),
        workers=2,
        decode_top=probe.ext.top_ids,
        pool="process",
        stats_out=stats,
    )
    assert stats["degraded"] is True
    assert stats["fallbacks"] == 2  # every shard rode the ladder down
    assert stats["shard_retries"] >= 1
    # the full pipeline rides the same ladder and still matches fused
    got = sorted(
        CDYEnumerator(
            cq, instance, pipeline="parallel", workers=2, pool="process"
        )
    )
    assert got == reference
    assert not live_segments()
    assert system_segments() == []


# --------------------------------------------------------------------- #
# backend selection matrix


def _info(cores, gil, ft=False):
    return RuntimeInfo(
        python="x", free_threaded_build=ft, gil_enabled=gil, cpu_count=cores
    )


def test_select_backend_matrix():
    assert select_backend(1, _info(8, True)).kind == SERIAL
    one_core = select_backend(4, _info(1, True))
    assert (one_core.kind, one_core.workers) == (SERIAL, 1)
    freethreaded = select_backend(4, _info(8, False, ft=True))
    assert (freethreaded.kind, freethreaded.workers) == (THREAD, 4)
    gil_multicore = select_backend(4, _info(8, True))
    assert (gil_multicore.kind, gil_multicore.workers) == (PROCESS, 4)
    # a free-threaded build with the GIL re-enabled behaves like GIL-on
    assert select_backend(4, _info(8, True, ft=True)).kind == PROCESS
    with pytest.raises(ValueError):
        select_backend(0, _info(8, True))


def test_resolve_pool_explicit_and_auto():
    forced = resolve_pool("process", 3, _info(1, True))
    assert (forced.kind, forced.workers) == (PROCESS, 3)
    serial = resolve_pool("serial", 4, _info(8, True))
    assert (serial.kind, serial.workers) == (SERIAL, 4)
    assert resolve_pool("auto", 4, _info(8, True)).kind == PROCESS
    with pytest.raises(ValueError):
        resolve_pool("fiber", 2, _info(8, True))
    with pytest.raises(ValueError):
        resolve_pool("thread", 0, _info(8, True))


def test_backend_reasons_are_machine_readable():
    for backend in (
        select_backend(1, _info(8, True)),
        select_backend(4, _info(1, True)),
        select_backend(4, _info(8, False, ft=True)),
        select_backend(4, _info(8, True)),
    ):
        assert isinstance(backend, Backend)
        assert backend.reason


# --------------------------------------------------------------------- #
# differential: every backend, every worker count


def test_parallel_pipeline_matches_fused_under_every_backend():
    queries = (
        "Q(x, y) <- R(x, y), S(y, z), T(z, w)",
        "Q(x) <- R(x, y), S(y, x)",
    )
    for query in queries:
        cq = parse_cq(query)
        instance = random_instance_for(cq, n_tuples=2_000, seed=23)
        reference = sorted(CDYEnumerator(cq, instance, pipeline="fused"))
        for pool in ("serial", "thread", "process", "auto"):
            for workers in (1, 2, 4):
                got = sorted(
                    CDYEnumerator(
                        cq,
                        instance,
                        pipeline="parallel",
                        workers=workers,
                        pool=pool,
                    )
                )
                assert got == reference, (query, pool, workers)
    assert not live_segments()
    assert system_segments() == []


def test_parallel_pipeline_with_caller_supplied_process_pool():
    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)")
    instance = random_instance_for(cq, n_tuples=1_500, seed=5)
    reference = sorted(CDYEnumerator(cq, instance, pipeline="fused"))
    with ProcessPoolExecutor(max_workers=2) as pool:
        got = sorted(
            CDYEnumerator(
                cq,
                instance,
                pipeline="parallel",
                workers=2,
                pool="process",
                executor=pool,
            )
        )
    assert got == reference
    assert not live_segments()


def test_parallel_reduce_reports_task_bytes_for_process_backend():
    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)")
    instance = random_instance_for(cq, n_tuples=1_000, seed=3)
    probe = CDYEnumerator(cq, instance, pipeline="fused")
    stats: dict = {}
    parallel_reduce(
        probe.tree,
        cq,
        instance,
        Interner(),
        workers=4,
        decode_top=probe.ext.top_ids,
        pool="process",
        stats_out=stats,
    )
    assert stats["backend"] == PROCESS
    assert stats["workers"] == 4
    assert len(stats["task_bytes"]) == 4
    # descriptor payloads: segment names + windows, never the columns
    assert all(0 < b < 4_096 for b in stats["task_bytes"])
    assert not live_segments()


# --------------------------------------------------------------------- #
# engine / serving wiring


def test_engine_exposes_backend_decision():
    engine = Engine(workers=4)
    expected = select_backend(4)
    assert engine.backend == expected
    info = engine.cache_info()
    assert info["parallel_backend"] == expected.kind
    assert info["parallel_workers"] == expected.workers
    engine.close()
    engine.close()  # idempotent


def test_engine_parallel_answers_match_serial_engine():
    from repro.query import parse_ucq

    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z), T(z, w)")
    instance = random_instance_for(ucq, n_tuples=2_000, seed=9)
    serial = set(Engine(workers=1).execute(ucq, instance))
    engine = Engine(workers=4)
    # a relation-renamed plan hit: the build that runs on the shard pool
    engine.plan(parse_ucq("Q(x, y) <- R0(x, y), S0(y, z), T0(z, w)"))
    try:
        assert set(engine.execute(ucq, instance)) == serial
    finally:
        engine.close()
    assert not live_segments()


def test_session_manager_sizes_default_engine_from_workers():
    manager = SessionManager(workers=3)
    assert manager.engine.workers == 3
    assert manager.engine.backend == select_backend(3)
    # an explicit engine wins over the workers hint
    engine = Engine(workers=1)
    assert SessionManager(engine=engine, workers=5).engine is engine


# --------------------------------------------------------------------- #
# Engine.close() leaves no executor threads/processes or shm segments


def test_engine_close_releases_workers_and_segments_after_faulted_build():
    """After a *faulted* parallel build (worker crashes riding the full
    recovery ladder), ``Engine.close()`` must leave zero live shard-pool
    threads, zero child processes, and zero ``/dev/shm`` segments — the
    leak surface the serving layer relies on when it cycles engines."""
    import multiprocessing
    import threading

    from repro.faultinject import FaultPlan
    from repro.query import parse_ucq

    def shard_threads():
        return [
            t
            for t in threading.enumerate()
            if t.is_alive()
            and t.name.startswith(("repro-engine-shard", "repro-shard"))
        ]

    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)")
    instance = random_instance_for(cq, n_tuples=400, seed=13)
    engine = Engine(workers=2, pool="thread")
    # a relation-renamed plan hit: the build that runs on the shard pool
    engine.plan(parse_ucq("Q(x, y) <- R0(x, y), S0(y, z)"))
    plan = FaultPlan(seed=5).crash(site="shard", worker=0)
    try:
        with plan.installed():
            answers = set(engine.execute(parse_ucq(str(cq)), instance))
        assert answers == set(
            CDYEnumerator(cq, instance, pipeline="fused")
        )
        assert engine.stats.shard_retries > 0
    finally:
        engine.close()
    assert shard_threads() == []
    assert multiprocessing.active_children() == []
    assert not live_segments()
    assert system_segments() == []
    # close() is idempotent and the engine stays usable: a later build
    # lazily recreates (and close() again reaps) the pool
    engine.close()
    assert set(engine.execute(parse_ucq(str(cq)), instance)) == answers
    engine.close()
    assert shard_threads() == []
