"""The concurrency suite: thread-safe engine core, parallel sharded
preprocessing, and the serving layer's fine-grained locks.

Four families:

* **cache regressions** — focused tests that fail on the seed code's
  unlocked caches: duplicate stores inflating ``_count`` and evicting
  live plans, concurrent misses racing past lookup-or-store;
* **shard-merge differentials** — ``pipeline="parallel"`` with
  ``k ∈ {1, 2, 4}`` against the reference pipeline on 50+ seeded queries
  (answers, membership, node states);
* **the multithreaded hammer** — threads of mixed
  ``execute``/``prepare``/``fetch``/token ``resume``/``apply_delta`` over
  one shared engine + manager, asserting differential correctness against
  single-threaded answers, cache ``_count`` invariants and unique session
  ids across 200+ mixed operations, plus per-page cursor steps that do
  not change under 8 background clients;
* **lock behaviour** — RWLock semantics, keyed-lock pruning, and the
  "stats respond during a slow open" guarantee (the old global-RLock
  design blocked introspection behind in-flight preprocessing).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from types import SimpleNamespace

import pytest

from repro.concurrency import KeyedLocks, LockedCounters, RWLock
from repro.database import Instance, Relation, random_instance_for
from repro.engine import Engine
from repro.engine.cache import PlanCache
from repro.engine.signature import structural_signature
from repro.exceptions import (
    CursorFencedError,
    EnumerationError,
    ReproError,
    SessionNotFoundError,
)
from repro.naive.evaluate import evaluate_ucq
from repro.query import parse_cq, parse_ucq
from repro.serving import SessionManager, submit_many
from repro.yannakakis import CDYEnumerator

# --------------------------------------------------------------------- #
# cache regressions (fail on the seed's unlocked caches)


def _plan_stub(query: str):
    ucq = parse_ucq(query)
    return SimpleNamespace(
        signature=structural_signature(ucq), ucq=ucq, hits=0
    )


def test_plan_cache_store_dedupes_equal_plans():
    """Storing the same logical plan twice (the concurrent double-miss
    shape) must not inflate ``_count`` or evict live plans."""
    cache = PlanCache(maxsize=2)
    first = _plan_stub("Q(x, y) <- R(x, y), S(y, z)")
    duplicate = _plan_stub("Q(x, y) <- R(x, y), S(y, z)")
    other = _plan_stub("Q(x) <- T(x, y)")
    assert cache.store(first) == 0
    assert cache.store(other) == 0
    # seed code: _count jumps to 3 here and evicts the LRU bucket
    assert cache.store(duplicate) == 0
    assert len(cache) == 2
    hit = cache.lookup(first.ucq, first.signature)
    assert hit is not None and hit[0] is first  # the winner stays canonical
    assert cache.lookup(other.ucq, other.signature) is not None


def test_plan_cache_add_or_get_returns_canonical_plan():
    cache = PlanCache(maxsize=4)
    first = _plan_stub("Q(x, y) <- R(x, y), S(y, z)")
    duplicate = _plan_stub("Q(x, y) <- R(x, y), S(y, z)")
    plan, evicted = cache.add_or_get(first)
    assert plan is first and evicted == 0
    plan, evicted = cache.add_or_get(duplicate)
    assert plan is first and evicted == 0
    assert len(cache) == 1


def test_plan_cache_concurrent_misses_share_one_plan():
    """Racing add_or_get calls for one query converge on one cached plan."""
    cache = PlanCache(maxsize=8)
    winners: list = []
    barrier = threading.Barrier(8)

    def miss() -> None:
        stub = _plan_stub("Q(x, y) <- R(x, y), S(y, z), T(z, w)")
        barrier.wait()
        winners.append(cache.add_or_get(stub)[0])

    threads = [threading.Thread(target=miss) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cache) == 1
    assert len({id(w) for w in winners}) == 1


def test_plan_cache_hammer_count_invariant():
    """Mixed concurrent lookup/store traffic keeps ``_count`` equal to the
    actual bucket occupancy and within maxsize."""
    cache = PlanCache(maxsize=5)
    shapes = [
        "Q(x, y) <- R(x, y), S(y, z)",
        "Q(x) <- T(x, y)",
        "Q(x, y) <- R(x, y), S(y, z), T(z, w)",
        "Q(a) <- U(a, b), V(b, c)",
        "Q(x) <- R1(x, y1), R2(x, y2), R3(x, y3)",
        "Q(u, v) <- W(u, v)",
        "Q(x, z) <- A(x, y), B(y, z)",
    ]

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(120):
            stub = _plan_stub(rng.choice(shapes))
            if rng.random() < 0.5:
                cache.lookup(stub.ucq, stub.signature)
            else:
                cache.add_or_get(stub)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    with cache._lock:
        actual = sum(len(b) for b in cache._buckets.values())
        assert cache._count == actual
    assert len(cache) <= 5


def test_locked_counters_do_not_lose_updates():
    class Stats(LockedCounters):
        _fields = ("ticks",)

    stats = Stats()

    def bump() -> None:
        for _ in range(2000):
            stats.add(ticks=1)

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert stats.ticks == 16000
    assert stats.as_dict() == {"ticks": 16000}


def test_engine_concurrent_prepared_misses_build_once():
    """Eight threads racing a cold (plan, instance) preprocess it once."""
    engine = Engine()
    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z)")
    instance = random_instance_for(
        parse_cq("Q(x, y) <- R(x, y), S(y, z)"), n_tuples=300,
        domain_size=40, seed=3,
    )
    engine.plan(ucq)  # isolate the prepared-cache race from planning
    expected = evaluate_ucq(ucq, instance)
    barrier = threading.Barrier(8)
    results: list[set] = []
    errors: list[BaseException] = []

    def run() -> None:
        try:
            barrier.wait()
            results.append(set(engine.execute(ucq, instance)))
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == expected for r in results)
    assert engine.stats.prep_misses == 1
    assert engine.stats.prep_hits == 7


def test_contains_during_the_first_delta_sees_one_state(monkeypatch):
    """The first apply_deltas swaps value-space membership probes for the
    reducer's id-space ones. A reader at any step of the swap — probed
    here from inside it, once the reducer is built and once the walk and
    probes are recompiled — sees one state whole: value answers are
    never probed against id rows."""
    import repro.yannakakis.cdy as cdy

    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z), T(z, w)")
    ints = random_instance_for(ucq, n_tuples=300, domain_size=30, seed=4)
    # string values: small ints could coincide with their interned ids
    instance = Instance.from_dict(
        {
            symbol: [tuple(f"v{x}" for x in t) for t in rel.tuples]
            for symbol, rel in ints.relations.items()
        }
    )
    answers = sorted(evaluate_ucq(ucq, instance))
    absent = ("absent", "row")
    enum = CDYEnumerator(ucq.cqs[0], instance, incremental=True)
    steps: list[str] = []

    def check(step: str) -> None:
        steps.append(step)
        assert all(enum.contains(a) for a in answers), step
        assert not enum.contains(absent), step

    real_reducer = cdy.IncrementalReducer
    real_compile = enum._compile

    def reducer(*args, **kwargs):
        built = real_reducer(*args, **kwargs)
        check("reducer built")
        return built

    def compile_(*args, **kwargs):
        real_compile(*args, **kwargs)
        check("recompiled")

    monkeypatch.setattr(cdy, "IncrementalReducer", reducer)
    monkeypatch.setattr(enum, "_compile", compile_)
    # a dangling R row: the base changes, the answers do not
    enum.apply_deltas({"R": ({absent}, set())})
    assert steps == ["reducer built", "recompiled"]
    assert enum._reducer is not None
    check("published")


def test_union_count_racing_a_patch_waits_for_it(monkeypatch):
    """A count arriving while another count patches the shared
    intersection term waits for that patch instead of applying the same
    delta a second time."""
    ucq = parse_ucq(
        "Q1(x, y) <- R(x, y), S(y, z) ; Q2(x, y) <- R(x, y), T(y, w)"
    )
    instance = random_instance_for(ucq, n_tuples=300, domain_size=30, seed=5)
    engine = Engine()
    engine.count(ucq, instance)
    _hit, terms = engine._count_terms.fetch(engine.plan(ucq), instance)
    term = terms[(0, 1)]
    real_apply = term.apply_deltas
    applies: list = []
    results: list[int] = []
    racers: list[threading.Thread] = []

    def apply_deltas(deltas) -> None:
        applies.append(deltas)
        if not racers:
            racer = threading.Thread(
                target=lambda: results.append(engine.count(ucq, instance))
            )
            racers.append(racer)
            racer.start()
            time.sleep(0.05)  # long enough for the racer to reach the term
        real_apply(deltas)

    monkeypatch.setattr(term, "apply_deltas", apply_deltas)
    instance.get("R").apply_batch([(31, 32), (32, 33)], [])
    instance.get("S").apply_batch([(32, 1)], [])
    expected = len(evaluate_ucq(ucq, instance))
    results.append(engine.count(ucq, instance))
    racers[0].join(timeout=30)
    assert not racers[0].is_alive()
    assert results == [expected, expected]
    assert len(applies) == 1


# --------------------------------------------------------------------- #
# shard-merge differentials


#: query shapes for the shard-merge differential (constants, repeated
#: variables, self-joins, projections and wide heads included)
DIFFERENTIAL_QUERIES = (
    "Q(x, y) <- R(x, y), S(y, z)",
    "Q(x, y) <- R(x, y), S(y, z), T(z, w)",
    "Q(x) <- R1(x, y1), R2(x, y2), R3(x, y3)",
    "Q(x, y, z) <- R(x, y), S(y, z), T(z, w), U(w, u)",
    "Q(x, y) <- R(x, x), S(x, y)",
    "Q(x) <- R(x, 1), S(x, y)",
    "Q(x, y) <- R(x, y), R(y, x)",
    "Q() <- R(x, y), S(y, z)",
    "Q(x1, x2) <- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5)",
    "Q(a, b) <- E(a, b)",
    "Q(x, y) <- R(x, y), S(y, 2)",
    "Q(v) <- A(v, v)",
    "Q(x, y) <- R(x, y), S(x, y)",
)


def test_parallel_pipeline_matches_reference_on_seeded_queries():
    """``parallel`` with k ∈ {1, 2, 4} equals the reference pipeline on
    50+ seeded (query, instance) cases: answers, membership and per-node
    reduced states."""
    cases = 0
    for seed in (11, 23, 47, 81):
        for text in DIFFERENTIAL_QUERIES:
            cq = parse_cq(text)
            instance = random_instance_for(
                cq, n_tuples=90, domain_size=12, seed=seed
            )
            reference = CDYEnumerator(cq, instance, pipeline="reference")
            expected = set(reference)
            for k in (1, 2, 4):
                par = CDYEnumerator(
                    cq, instance, pipeline="parallel", workers=k
                )
                assert set(par) == expected, (text, seed, k)
                for answer in itertools.islice(expected, 5):
                    assert par.contains(answer), (text, seed, k, answer)
                for nid in par.tree.nodes:
                    assert par.node_rows(nid) == reference.node_rows(nid), (
                        text, seed, k, nid,
                    )
            cases += 1
    assert cases >= 50


def test_parallel_pipeline_empty_and_missing_relations():
    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)")
    empty = Instance({"R": Relation.empty(2), "S": Relation.empty(2)})
    assert set(CDYEnumerator(cq, empty, pipeline="parallel", workers=3)) == set()
    half = Instance({"R": Relation.from_iterable(2, [(1, 2)]),
                     "S": Relation.empty(2)})
    assert set(CDYEnumerator(cq, half, pipeline="parallel", workers=2)) == set()


def test_parallel_pipeline_rejects_bad_configuration():
    cq = parse_cq("Q(x, y) <- R(x, y)")
    instance = Instance({"R": Relation.from_iterable(2, [(1, 2)])})
    with pytest.raises(ValueError):
        CDYEnumerator(cq, instance, pipeline="parallel", workers=0)
    with pytest.raises(ValueError):
        CDYEnumerator(
            cq, instance, pipeline="parallel", workers=2, pool="fiber"
        )
    with pytest.raises(ValueError):
        CDYEnumerator(cq, instance, pipeline="sharded")


def test_engine_workers_builds_sessions_serially_without_a_pool():
    """Sessions page prepared (incremental) builds, which ground serially
    at any worker count: an ``Engine(workers=2)`` under a session manager
    opens, pages and resumes exactly like a ``workers=1`` one, and never
    builds its shard pool."""
    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z), T(z, w)")
    instance = random_instance_for(ucq, n_tuples=400, domain_size=40, seed=3)

    def pages(engine):
        manager = SessionManager(engine=engine)
        manager.register(instance, "db")
        session = manager.open(ucq, "db", page_size=25)
        first = manager.fetch(session.session_id)
        second = manager.fetch(session.session_id)
        manager.close(session.session_id)
        resumed = manager.resume(second.cursor)
        rest = manager.fetch(resumed.session_id, 10_000)
        return [first.answers, second.answers, rest.answers]

    engine = Engine(workers=2, pool="thread")
    try:
        got = pages(engine)
        assert engine._shard_pool is None
    finally:
        engine.close()
    expected = pages(Engine(workers=1))
    assert got == expected
    assert set(itertools.chain(*got)) == evaluate_ucq(ucq, instance)


def test_engine_workers_routes_cold_builds_through_parallel_pipeline():
    """An Engine with workers>1 builds a relation-renamed plan hit of a
    tractable union on its shard pool and answers identically to a
    serial engine."""
    ucq = parse_ucq(
        "Q1(x, y) <- R(x, y), S(y, z) ; Q2(x, y) <- R(x, y), T(y, w)"
    )
    instance = random_instance_for(
        parse_cq("Q(x, y) <- R(x, y), S(y, z), T(z, w)"),
        n_tuples=120, domain_size=15, seed=5,
    )
    serial = set(Engine().execute(ucq, instance))
    parallel_engine = Engine(workers=3, pool="thread")
    parallel_engine.plan(parse_ucq(
        "Q1(x, y) <- A(x, y), B(y, z) ; Q2(x, y) <- A(x, y), C(y, w)"
    ))
    try:
        assert set(parallel_engine.execute(ucq, instance)) == serial
        assert parallel_engine._shard_pool is not None
    finally:
        parallel_engine.close()
    assert serial == evaluate_ucq(ucq, instance)
    with pytest.raises(ValueError):
        Engine(workers=0)


# --------------------------------------------------------------------- #
# the multithreaded hammer


HAMMER_THREADS = 6
HAMMER_ITERATIONS = 40  # x threads = 240 mixed ops > the 200 gate

#: static-instance queries (never mutated: reads must match exactly)
STATIC_QUERIES = (
    "Q(x, y) <- R(x, y), S(y, z)",
    "Q(y, x) <- R(x, y), S(y, z)",       # isomorphic renaming of the above
    "Q(x) <- R(x, y), S(y, z), T(z, w)",
    "Q(a) <- R1(a, b1), R2(a, b2)",
)

#: the dynamic instance toggles between two known states
DYNAMIC_QUERY = "Q(x, y) <- D(x, y), E(y, z)"


def _static_instance() -> Instance:
    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z), T(z, w)")
    inst = random_instance_for(cq, n_tuples=120, domain_size=15, seed=21)
    extra = parse_cq("Q(a) <- R1(a, b1), R2(a, b2)")
    for symbol, rel in random_instance_for(
        extra, n_tuples=80, domain_size=12, seed=22
    ).relations.items():
        inst.relations[symbol] = rel
    return inst


def _dynamic_instance() -> tuple[Instance, dict, set, set]:
    cq = parse_cq(DYNAMIC_QUERY)
    inst = random_instance_for(cq, n_tuples=100, domain_size=12, seed=33)
    ucq = parse_ucq(DYNAMIC_QUERY)
    answers_a = evaluate_ucq(ucq, inst)
    delta = {"D": ([(97, 98), (98, 99)], []), "E": ([(98, 1), (99, 2)], [])}
    snapshot = inst.snapshot()
    for symbol, (adds, removes) in delta.items():
        snapshot.get(symbol).apply_batch(adds, removes)
    answers_b = evaluate_ucq(ucq, snapshot)
    assert answers_a != answers_b  # the toggle must be observable
    return inst, delta, answers_a, answers_b


class _HammerState:
    """Shared bookkeeping for the hammer threads."""

    def __init__(self) -> None:
        self.mismatches: list = []
        self.errors: list = []
        self.session_ids: list[str] = []
        self.fenced = 0
        self.ops = 0
        self.toggle_lock = threading.Lock()
        self.dynamic_state = "a"
        self.record_lock = threading.Lock()


def _drain_session(manager: SessionManager, session, use_resume, rng):
    """Page a session to exhaustion (optionally hopping through a token
    resume mid-stream); returns the collected answer set."""
    answers: list[tuple] = []
    sid = session.session_id
    token = None
    while True:
        page = manager.fetch(sid, rng.choice((7, 16, 31)))
        answers.extend(page.answers)
        token = page.cursor
        if page.done:
            return set(answers)
        if use_resume and rng.random() < 0.3:
            resumed = manager.resume(token)
            sid = resumed.session_id


def test_hammer_mixed_ops_zero_differential_mismatches():
    """N threads of mixed execute/prepare/fetch/resume/apply_delta over a
    shared engine + manager: static reads match single-threaded answers
    exactly, dynamic reads match one of the two toggle states (or fence),
    session ids stay unique and cache counts stay consistent."""
    engine = Engine(cache_size=16, prep_cache_size=16)
    manager = SessionManager(engine=engine, max_sessions=512, page_size=10)
    static_inst = _static_instance()
    dynamic_inst, delta, answers_a, answers_b = _dynamic_instance()
    manager.register(static_inst, "static")
    manager.register(dynamic_inst, "dynamic")

    static_expected = {
        q: evaluate_ucq(parse_ucq(q), static_inst) for q in STATIC_QUERIES
    }
    inverse_delta = {
        sym: (removes, adds) for sym, (adds, removes) in delta.items()
    }
    state = _HammerState()
    barrier = threading.Barrier(HAMMER_THREADS)

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        barrier.wait()
        for _ in range(HAMMER_ITERATIONS):
            op = rng.random()
            query = rng.choice(STATIC_QUERIES)
            try:
                if op < 0.30:  # engine-level execute on the static instance
                    got = set(engine.execute(parse_ucq(query), static_inst))
                    if got != static_expected[query]:
                        state.mismatches.append(("execute", query))
                elif op < 0.45:  # engine-level prepare + full drain
                    prepared = engine.prepare(parse_ucq(query), static_inst)
                    if prepared.resumable:
                        cursor = prepared.enumerator.cursor()
                        got = set(cursor)
                        if prepared.permutation is not None:
                            got = {
                                tuple(t[p] for p in prepared.permutation)
                                for t in got
                            }
                        if got != static_expected[query]:
                            state.mismatches.append(("prepare", query))
                elif op < 0.80:  # session paging (+ token resume hops)
                    session = manager.open(query, "static")
                    with state.record_lock:
                        state.session_ids.append(session.session_id)
                    got = _drain_session(
                        manager, session, use_resume=op < 0.60, rng=rng
                    )
                    if got != static_expected[query]:
                        state.mismatches.append(("session", query))
                elif op < 0.90:  # dynamic reader: either toggle state is fine
                    session = manager.open(DYNAMIC_QUERY, "dynamic")
                    with state.record_lock:
                        state.session_ids.append(session.session_id)
                    got = _drain_session(
                        manager, session, use_resume=False, rng=rng
                    )
                    if got not in (answers_a, answers_b):
                        state.mismatches.append(("dynamic", sorted(got)[:3]))
                else:  # writer: toggle the dynamic instance
                    with state.toggle_lock:
                        if state.dynamic_state == "a":
                            manager.apply_delta("dynamic", delta)
                            state.dynamic_state = "b"
                        else:
                            manager.apply_delta("dynamic", inverse_delta)
                            state.dynamic_state = "a"
            except (
                CursorFencedError,
                SessionNotFoundError,
                EnumerationError,
            ):
                with state.record_lock:
                    state.fenced += 1
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                state.errors.append(exc)
            finally:
                with state.record_lock:
                    state.ops += 1

    threads = [
        threading.Thread(target=worker, args=(1000 + i,))
        for i in range(HAMMER_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not state.errors, state.errors[:3]
    assert not state.mismatches, state.mismatches[:5]
    assert state.ops == HAMMER_THREADS * HAMMER_ITERATIONS >= 200
    assert len(state.session_ids) == len(set(state.session_ids))
    with engine._cache._lock:
        actual = sum(len(b) for b in engine._cache._buckets.values())
        assert engine._cache._count == actual
    assert len(engine._cache) <= 16
    assert len(engine._prepared) <= 16
    # the serving counters kept up with every page served
    assert manager.stats.pages_served > 0
    assert manager.stats.sessions_opened == len(state.session_ids)


#: the measured walk of the delay-under-load test and its neighbours
LOAD_QUERY = "Q(x, y) <- R(x, y), S(y, z), T(z, w)"
LOAD_NEIGHBOURS = (
    LOAD_QUERY,
    "Q(x, y) <- R(x, y), S(y, z)",
    "Q(a, b) <- R(a, b), S(b, c)",
    "Q(x) <- R(x, y), S(y, z), T(z, w)",
)
LOAD_CLIENTS = 8
LOAD_PAGES = 10


def test_cursor_steps_per_page_are_identical_under_load():
    """Constant delay is a step count, not a wall-clock figure: a warm
    session's cursor steps per page are the same with and without 8
    background clients opening and paging other sessions on the same
    manager. After each loaded page the test waits for 8 more background
    fetches, so the loaded pages really interleave with the clients."""
    cq = parse_cq(LOAD_QUERY)
    instance = random_instance_for(
        cq, n_tuples=5_000, domain_size=625, seed=13
    )
    manager = SessionManager(page_size=50)
    manager.register(instance, "db")
    manager.open(LOAD_QUERY, "db")  # warm: the walk below is prepared

    progress = threading.Condition()
    fetched = [0]
    errors: list = []
    stop = threading.Event()

    def steps_per_page(wait_for_clients: bool) -> list[int]:
        session = manager.open(LOAD_QUERY, "db")
        cursor = session._cursor
        assert cursor is not None  # a resumable CDY walk
        out = []
        for _ in range(LOAD_PAGES):
            with progress:
                seen = fetched[0]
            before = cursor.steps
            page = manager.fetch(session.session_id)
            out.append(cursor.steps - before)
            if wait_for_clients:
                with progress:
                    progress.wait_for(
                        lambda: errors or fetched[0] >= seen + LOAD_CLIENTS
                    )
            if page.done:
                break
        return out

    def client(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                session = manager.open(rng.choice(LOAD_NEIGHBOURS), "db")
                for size in (7, 40):
                    page = manager.fetch(session.session_id, size)
                    with progress:
                        fetched[0] += 1
                        progress.notify_all()
                    if page.done:
                        break
                manager.close(session.session_id)
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            with progress:
                errors.append(exc)
                progress.notify_all()

    unloaded = steps_per_page(wait_for_clients=False)
    threads = [
        threading.Thread(target=client, args=(700 + i,))
        for i in range(LOAD_CLIENTS)
    ]
    for t in threads:
        t.start()
    try:
        loaded = steps_per_page(wait_for_clients=True)
    finally:
        stop.set()
        for t in threads:
            t.join()

    assert not errors, errors[:3]
    assert len(unloaded) == LOAD_PAGES and sum(unloaded) > 0
    assert fetched[0] >= LOAD_PAGES * LOAD_CLIENTS
    assert loaded == unloaded


# --------------------------------------------------------------------- #
# lock behaviour


def test_rwlock_readers_share_writers_exclude():
    lock = RWLock()
    active: list[str] = []
    overlap = {"readers": 0, "writer_saw_reader": False}
    gate = threading.Barrier(3)

    def reader() -> None:
        gate.wait()
        with lock.read():
            active.append("r")
            overlap["readers"] = max(
                overlap["readers"], active.count("r")
            )
            time.sleep(0.05)
            active.remove("r")

    def writer() -> None:
        gate.wait()
        time.sleep(0.01)  # let the readers in first
        with lock.write():
            overlap["writer_saw_reader"] = bool(active)
            active.append("w")
            time.sleep(0.01)
            active.remove("w")

    threads = [
        threading.Thread(target=reader),
        threading.Thread(target=reader),
        threading.Thread(target=writer),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert overlap["readers"] == 2  # both readers held the lock together
    assert overlap["writer_saw_reader"] is False  # writer ran alone


def test_keyed_locks_serialize_per_key_and_prune():
    locks = KeyedLocks()
    order: list[int] = []

    def task(i: int) -> None:
        with locks.acquire("shared"):
            order.append(i)
            time.sleep(0.01)
            order.append(i)

    threads = [threading.Thread(target=task, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # entries/exits never interleave for one key...
    assert all(order[i] == order[i + 1] for i in range(0, len(order), 2))
    # ...and the registry prunes itself back to empty
    assert len(locks) == 0


def test_keyed_locks_late_contender_shares_the_same_lock():
    """A contender arriving while another still holds the key must join
    the same lock object — exact mutual exclusion, no prune race."""
    locks = KeyedLocks()
    concurrent = {"now": 0, "max": 0}
    gauge = threading.Lock()

    def task() -> None:
        with locks.acquire("k"):
            with gauge:
                concurrent["now"] += 1
                concurrent["max"] = max(concurrent["max"], concurrent["now"])
            time.sleep(0.002)
            with gauge:
                concurrent["now"] -= 1

    threads = [threading.Thread(target=task) for _ in range(12)]
    for t in threads:
        t.start()
        time.sleep(0.001)  # stagger arrivals across release/prune windows
    for t in threads:
        t.join()
    assert concurrent["max"] == 1
    assert len(locks) == 0


class _SlowSet(set):
    """A tuple set whose iteration sleeps — a synthetic slow relation that
    stretches cold preprocessing out long enough to race against."""

    delay = 0.02

    def __iter__(self):
        for t in list(super().__iter__()):
            time.sleep(self.delay)
            yield t


def test_stats_respond_during_slow_open():
    """Introspection endpoints must answer while a cold open is in flight
    (the seed design held one global RLock across the whole engine call)."""
    manager = SessionManager()
    rows = [(i, i + 1) for i in range(30)]
    slow = Instance(
        {
            "R": Relation(2, _SlowSet(rows)),
            "S": Relation(2, _SlowSet(rows)),
        }
    )
    manager.register(slow, "slow")
    opened = threading.Event()

    def slow_open() -> None:
        manager.open("Q(x, y) <- R(x, y), S(y, z)", "slow")
        opened.set()

    thread = threading.Thread(target=slow_open)
    thread.start()
    time.sleep(0.05)  # the open is now mid-preprocessing
    assert not opened.is_set(), "slow instance did not slow the open down"
    start = time.perf_counter()
    info = manager.cache_info()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.3, f"cache_info blocked for {elapsed:.2f}s"
    assert info["live_sessions"] == 0  # the open has not been admitted yet
    assert len(manager) == 0
    thread.join()
    assert opened.is_set()
    assert manager.cache_info()["live_sessions"] == 1


def test_apply_delta_excludes_concurrent_opens():
    """A delta application runs exclusively with opens over the same
    instance (no torn grounding passes), and traffic resumes after."""
    manager = SessionManager()
    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)")
    inst = random_instance_for(cq, n_tuples=150, domain_size=20, seed=8)
    manager.register(inst, "inst")
    errors: list[BaseException] = []
    stop = threading.Event()

    def churn() -> None:
        try:
            while not stop.is_set():
                session = manager.open("Q(x, y) <- R(x, y), S(y, z)", "inst")
                try:
                    while True:
                        if manager.fetch(session.session_id, 50).done:
                            break
                except (CursorFencedError, SessionNotFoundError):
                    pass
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=churn) for _ in range(3)]
    for t in threads:
        t.start()
    for i in range(10):
        manager.apply_delta("inst", {"R": ([(500 + i, 501 + i)], [])})
        time.sleep(0.005)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    # every delta landed exactly once
    assert (509, 510) in inst.get("R").tuples


def test_submit_many_fans_out_groups_across_workers():
    """A pooled batch produces the same grouped results as a serial one."""
    manager = SessionManager(workers=4)
    cq = parse_cq("Q(x, y) <- R(x, y), S(y, z)")
    inst = random_instance_for(cq, n_tuples=80, domain_size=10, seed=4)
    manager.register(inst, "inst")
    requests = [
        ("Q(x, y) <- R(x, y), S(y, z)", "inst"),
        ("Q(a, b) <- R(a, b), S(b, c)", "inst"),     # isomorphic: same group
        ("Q(x) <- R(x, y)", "inst"),
        ("Q(y) <- S(x, y)", "inst"),
        ("broken query ((", "inst"),
        ("Q(x) <- R(x, y)", "missing-instance"),
    ]
    items = submit_many(manager, requests, first_page=True)
    assert [item.index for item in items] == list(range(6))
    assert items[0].group == items[1].group != items[2].group
    assert items[4].error is not None and items[4].session is None
    assert items[5].error is not None
    expected = evaluate_ucq(parse_ucq(requests[0][0]), inst)
    drained = set(items[0].page.answers)
    sid = items[0].session.session_id
    while not items[0].page.done:
        page = manager.fetch(sid)
        drained.update(page.answers)
        if page.done:
            break
    assert drained == expected
    # isomorphic pair planned once, preprocessed once
    assert manager.engine.stats.classifications <= 3
    assert manager.stats.batches == 1
    # the isomorphic pair shares one group; the two failed requests
    # (parse error, unknown instance) never join one
    assert manager.stats.batch_groups == 3
