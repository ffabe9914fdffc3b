"""Property tests for the versioned storage layer and incremental maintenance.

Seeded ``random`` only (no new dependencies). The central property, checked
across 200+ generated cases: after any random mutation sequence driven
through the versioned relation mutators, the incrementally maintained state
(delta logs, indexes, reducer liveness, engine answers) equals the state
rebuilt from scratch on the mutated data.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.database import (
    CountedGroupIndex,
    GroupIndex,
    Instance,
    Relation,
    random_instance_for,
)
from repro.database.indexes import tuple_selector
from repro.engine import Engine
from repro.naive.evaluate import evaluate_ucq
from repro.query import parse_ucq
from repro.yannakakis.cdy import CDYEnumerator

# free-connex shapes covering: projection chains, a projection-free top,
# a star (two projection nodes), and constants + repeated variables
CDY_QUERIES = (
    "Q(x, y) <- R(x, y), S(y, z), T(z, w)",
    "Q(x, y, z) <- R(x, y), S(y, z)",
    "Q(x) <- R(x, y), S(x, z)",
    "Q(x) <- R(x, 5), S(x, x)",
)
CDY_SEEDS = 10
CDY_ROUNDS = 4

ENGINE_QUERIES = (
    "Q(x, y) <- R(x, y), S(y, z), T(z, w)",
    "Q1(x, y) <- R(x, y), S(y, z) ; Q2(x, y) <- T(x, y), U(y, w)",
)
ENGINE_SEEDS = 5
ENGINE_ROUNDS = 6

RELATION_SEQUENCES = 30
INDEX_SEQUENCES = 30


def test_case_count_meets_floor():
    """The suite's generated case count stays at or above the spec's 200."""
    total = (
        len(CDY_QUERIES) * CDY_SEEDS * CDY_ROUNDS
        + len(ENGINE_QUERIES) * ENGINE_SEEDS * ENGINE_ROUNDS
        + RELATION_SEQUENCES
        + 2 * INDEX_SEQUENCES
    )
    assert total >= 200


# --------------------------------------------------------------------- #
# relation delta log


def _random_mutation(rel: Relation, rng: random.Random, domain: int) -> None:
    roll = rng.random()
    if roll < 0.55 or not rel.tuples:
        rel.add(tuple(rng.randrange(domain) for _ in range(rel.arity)))
    elif roll < 0.9:
        rel.discard(rng.choice(sorted(rel.tuples)))
    else:  # add-then-remove churn on the same tuple (nets out in the log)
        t = tuple(rng.randrange(domain) for _ in range(rel.arity))
        rel.add(t)
        rel.discard(t)


@pytest.mark.parametrize("seed", range(RELATION_SEQUENCES))
def test_delta_log_replays_to_set_difference(seed):
    rng = random.Random(seed)
    rel = Relation.from_iterable(
        2, {(rng.randrange(8), rng.randrange(8)) for _ in range(10)}
    )
    before = set(rel.tuples)
    v0 = rel.version
    for _ in range(rng.randrange(1, 30)):
        _random_mutation(rel, rng, domain=8)
    delta = rel.delta_since(v0)
    assert delta is not None
    adds, removes = delta
    assert adds == rel.tuples - before
    assert removes == before - rel.tuples
    # versions are monotone and the no-op window is empty
    assert rel.delta_since(rel.version) == (set(), set())


def test_delta_log_overflow_forces_rebase(monkeypatch):
    monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 4)
    rel = Relation.empty(1)
    for i in range(10):
        rel.add((i,))
    assert rel.version == 10
    assert rel.log_floor == 6
    assert rel.delta_since(0) is None  # truncated: rebase required
    assert rel.delta_since(11) is None  # future version: rebase required
    assert rel.delta_since(7) == ({(7,), (8,), (9,)}, set())


def test_mutators_report_effective_changes_only():
    rel = Relation.empty(2)
    assert rel.add((1, 2)) and not rel.add((1, 2))
    assert rel.version == 1
    assert not rel.discard((9, 9))
    assert rel.discard((1, 2))
    assert rel.apply_batch(adds=[(1, 2), (3, 4)], removes=[(1, 2)]) == 2
    assert rel.tuples == {(1, 2), (3, 4)}


def test_copy_is_independent():
    rel = Relation.from_iterable(2, [(1, 2)])
    dup = rel.copy()
    assert dup.tuples == rel.tuples and dup.tuples is not rel.tuples
    assert dup.uid != rel.uid and dup.version == 0


def test_instance_snapshot_is_independent():
    inst = Instance.from_dict({"R": [(1, 2)], "S": [(2, 3)]})
    snap = inst.snapshot()
    inst.get("R").add((7, 8))
    assert (7, 8) not in snap.get("R").tuples
    assert snap.get("R").uid != inst.get("R").uid


def test_version_vector_and_diff_since():
    inst = Instance.from_dict({"R": [(1, 2)], "S": [(2, 3)]})
    vector = inst.version_vector()
    assert inst.diff_since(vector) == {}
    inst.get("R").add((5, 6))
    inst.get("R").discard((1, 2))
    assert inst.diff_since(vector) == {"R": ({(5, 6)}, {(1, 2)})}
    # wholesale replacement has no shared history
    inst.set("S", Relation.from_iterable(2, [(2, 3)]))
    assert inst.diff_since(vector) is None


# --------------------------------------------------------------------- #
# index delta maintenance


@pytest.mark.parametrize("seed", range(INDEX_SEQUENCES))
def test_counted_group_index_matches_rebuild(seed):
    """Colliding projections: incremental CountedGroupIndex == rebuilt."""
    rng = random.Random(1000 + seed)
    rows = {
        (rng.randrange(4), rng.randrange(4), rng.randrange(4))
        for _ in range(25)
    }
    index = CountedGroupIndex(rows, [0], [1])  # position 2 projected away
    for _ in range(4):
        adds = {
            t
            for t in (
                (rng.randrange(4), rng.randrange(4), rng.randrange(4))
                for _ in range(4)
            )
            if t not in rows
        }
        removes = set(rng.sample(sorted(rows), k=min(3, len(rows))))
        rows = (rows - removes) | adds
        index.apply_delta(adds, removes)
        rebuilt = CountedGroupIndex(rows, [0], [1])
        assert {k: set(g) for k, g in index.groups.items()} == {
            k: set(g) for k, g in rebuilt.groups.items()
        }
        assert index._counts == rebuilt._counts


@pytest.mark.parametrize("seed", range(INDEX_SEQUENCES))
def test_covering_group_index_delta_matches_rebuild(seed):
    """Covering positions (the CDY plan shape): plain GroupIndex delta."""
    rng = random.Random(2000 + seed)
    rows = {
        (rng.randrange(5), rng.randrange(5), rng.randrange(5))
        for _ in range(25)
    }
    index = GroupIndex(rows, [0], [1, 2])  # key + values cover the row
    for _ in range(4):
        adds = {
            t
            for t in (
                (rng.randrange(5), rng.randrange(5), rng.randrange(5))
                for _ in range(4)
            )
            if t not in rows
        }
        removes = set(rng.sample(sorted(rows), k=min(3, len(rows))))
        rows = (rows - removes) | adds
        index.apply_delta(adds, removes)
        rebuilt = GroupIndex(rows, [0], [1, 2])
        assert {k: set(g) for k, g in index.groups.items()} == {
            k: set(g) for k, g in rebuilt.groups.items()
        }


# large groups: the swap-remove path through the lazy position maps
LARGE_GROUP_SEEDS = 3
# random batch, remove the tail value, empty, refill (re-adding removed rows)
LARGE_GROUP_STEPS = (
    "random", "tail", "random", "empty", "refill",
    "tail", "random", "random", "empty", "refill", "random", "tail",
)


def _check_against_rebuild(index, rebuilt):
    assert {k: set(g) for k, g in index.groups.items()} == {
        k: set(g) for k, g in rebuilt.groups.items()
    }
    for group in index.groups.values():
        assert len(group) == len(set(group))
    if isinstance(index, CountedGroupIndex):
        assert index._counts == rebuilt._counts
    # a position map exists only for a live group, and agrees with it
    assert set(index._positions) <= set(index.groups)
    for key, positions in index._positions.items():
        assert positions == {v: i for i, v in enumerate(index.groups[key])}


def _drive_large_group(make, universe, initial, seed):
    """Random add/remove steps over one group of ≥ 500 values, checked
    against a rebuild after every step; returns whether a position map
    was ever built."""
    rng = random.Random(seed)
    rows = set(rng.sample(universe, initial))
    index = make(rows)
    val_of = tuple_selector(index.value_positions)
    assert len(index.groups) == 1
    assert len(next(iter(index.groups.values()))) >= 500
    mapped = False
    for step in LARGE_GROUP_STEPS:
        if step == "empty":
            adds, removes = set(), set(rows)
        elif step == "refill":
            adds, removes = set(rng.sample(universe, initial)), set()
        else:
            absent = [t for t in universe if t not in rows]
            adds = set(rng.sample(absent, min(40, len(absent))))
            removes = set(rng.sample(sorted(rows), min(60, len(rows))))
            if step == "tail" and index.groups:
                tail = next(iter(index.groups.values()))[-1]
                removes |= {t for t in rows if val_of(t) == tail}
        rows = (rows - removes) | adds
        index.apply_delta(adds, removes)
        mapped = mapped or bool(index._positions)
        _check_against_rebuild(index, make(rows))
        if not rows:
            assert index.groups == {} and index._positions == {}
    return mapped


@pytest.mark.parametrize("key_positions", [[], [0]])
@pytest.mark.parametrize("seed", range(LARGE_GROUP_SEEDS))
def test_large_group_index_delta_matches_rebuild(key_positions, seed):
    universe = [(0, a, b) for a in range(40) for b in range(40)]
    assert _drive_large_group(
        lambda rows: GroupIndex(rows, key_positions, [1, 2]),
        universe,
        700,
        3000 + seed,
    )


@pytest.mark.parametrize("key_positions", [[], [0]])
@pytest.mark.parametrize("seed", range(LARGE_GROUP_SEEDS))
def test_large_counted_group_index_delta_matches_rebuild(key_positions, seed):
    """Colliding projections (position 2 projected away) in one group."""
    universe = [(0, a, c) for a in range(700) for c in range(3)]
    assert _drive_large_group(
        lambda rows: CountedGroupIndex(rows, key_positions, [1]),
        universe,
        1500,
        4000 + seed,
    )


@pytest.mark.parametrize("size", [5, 500])
def test_group_index_absent_removal_raises(size):
    """Small (scanned) and large (position-mapped) groups alike."""
    rows = [(0, i) for i in range(size)]
    index = GroupIndex(rows, [0], [1])
    with pytest.raises(ValueError):
        index.apply_delta((), [(0, size)])
    index.apply_delta((), [(0, 0)])  # builds the map of a large group
    assert bool(index._positions) == (size == 500)  # 5 values: a scan
    with pytest.raises(ValueError):
        index.apply_delta((), [(0, 0)])
    with pytest.raises(KeyError):
        index.apply_delta((), [(1, 0)])
    counted = CountedGroupIndex(rows, [0], [1])
    with pytest.raises(KeyError):
        counted.apply_delta((), [(0, size)])
    _check_against_rebuild(index, GroupIndex(rows[1:], [0], [1]))


class _CountingValue:
    """A value that counts how often it is compared for equality."""

    eq_calls = 0
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __hash__(self):
        return hash(self.v)

    def __eq__(self, other):
        _CountingValue.eq_calls += 1
        return isinstance(other, _CountingValue) and self.v == other.v


@pytest.mark.parametrize("cls", [GroupIndex, CountedGroupIndex])
def test_large_group_removal_is_constant_time(cls):
    """Deterministic O(1) witness: removing 100 values from a 10 000-value
    group compares a bounded number of values per removal (a list scan
    would compare ~5 000 each). Removals use equal, non-identical values,
    so no identity shortcut hides the comparisons."""
    index = cls([(_CountingValue(i),) for i in range(10_000)], [], [0])
    removes = [(_CountingValue(i),) for i in range(5_000, 5_100)]
    _CountingValue.eq_calls = 0
    index.apply_delta((), removes)
    assert _CountingValue.eq_calls <= 5 * len(removes)
    assert len(index.groups[()]) == 9_900


def test_chain3_hub_removal_through_engine():
    """One T tuple supports every reduced R row of chain3 (the root group
    of key ``()``): removing and re-adding it stays on the DELTA rung and
    matches a fresh engine over a snapshot."""
    n = 5_000
    ucq = parse_ucq("Q(x,y) <- R(x,y),S(y,z),T(z,w)")
    instance = Instance.from_dict(
        {
            "R": [(x, 0) for x in range(n)] + [(x, 1) for x in range(50)],
            "S": [(0, 0), (1, 1)],
            "T": [(0, 0), (1, 2)],
        }
    )
    engine = Engine()
    assert engine.count(ucq, instance) == n + 50

    def check(expected):
        answers = list(engine.execute(ucq, instance))
        fresh = Engine()
        snapshot = instance.snapshot()
        assert len(answers) == len(set(answers)) == expected
        assert set(answers) == set(fresh.execute(ucq, snapshot))
        assert engine.count(ucq, instance) == fresh.count(ucq, snapshot)

    instance.get("T").discard((0, 0))
    check(50)
    instance.get("T").add((0, 0))
    check(n + 50)
    assert engine.stats.delta_applies == 2
    assert engine.stats.rebases == 0
    assert engine.stats.prep_misses == 1


# --------------------------------------------------------------------- #
# incremental reducer / CDY state


def _mutate_instance(instance, symbols, rng, domain):
    """Random effective mutations through the versioned mutators; returns
    the per-symbol net deltas actually applied."""
    deltas = {}
    for sym in symbols:
        rel = instance.get(sym)
        adds, removes = set(), set()
        for _ in range(rng.randrange(4)):
            t = tuple(rng.randrange(domain) for _ in range(rel.arity))
            if t not in rel.tuples:
                adds.add(t)
        pool = sorted(rel.tuples - adds)
        for _ in range(rng.randrange(3)):
            if pool:
                removes.add(pool.pop(rng.randrange(len(pool))))
        rel.apply_batch(adds, removes)
        if adds or removes:
            deltas[sym] = (adds, removes)
    return deltas


@pytest.mark.parametrize("query", CDY_QUERIES)
@pytest.mark.parametrize("seed", range(CDY_SEEDS))
def test_cdy_incremental_state_equals_rebuild(query, seed):
    """After every mutation round, the incrementally maintained enumerator
    (reduced node relations, enumeration indexes, membership) matches a
    from-scratch rebuild on the mutated instance."""
    rng = random.Random(f"{query}#{seed}")  # str seeding is deterministic
    ucq = parse_ucq(query)
    cq = ucq.cqs[0]
    symbols = sorted(cq.schema)
    instance = random_instance_for(ucq, n_tuples=60, domain_size=9, seed=seed)
    enum = CDYEnumerator(cq, instance, incremental=True)
    for _ in range(CDY_ROUNDS):
        deltas = _mutate_instance(instance, symbols, rng, domain=9)
        enum.apply_deltas(deltas)
        fresh = CDYEnumerator(cq, instance)
        assert enum.nonempty == fresh.nonempty
        # reducer state: every node's reduced relation matches the rebuild
        # (compared in value space: the incremental reducer holds interned
        # id rows, and two interners need not assign the same ids)
        for nid in fresh.relations:
            assert enum.node_rows(nid) == fresh.node_rows(nid)
        # enumeration indexes: answers and membership agree
        answers = set(enum)
        assert answers == set(fresh)
        for answer in list(answers)[:5]:
            assert enum.contains(answer)
            full = enum.extend(dict(zip(enum.output_order, answer)))
            assert all(full[v] == val for v, val in zip(enum.output_order, answer))


def test_in_flight_iterator_fails_loudly_after_apply_deltas():
    """An iterator started before a delta must raise, not silently mix
    pre- and post-update state (compiled and reference walks alike)."""
    ucq = parse_ucq(CDY_QUERIES[0])
    instance = random_instance_for(ucq, n_tuples=60, domain_size=6, seed=3)
    enum = CDYEnumerator(ucq.cqs[0], instance, incremental=True)
    it = iter(enum)
    ref = enum.iter_answers_reference()
    next(it)
    next(ref)
    instance.get("R").add((99, 98))
    enum.apply_deltas({"R": ({(99, 98)}, set())})
    with pytest.raises(Exception, match="mutated"):
        list(it)
    with pytest.raises(Exception, match="mutated"):
        list(ref)
    # a fresh iterator serves the updated state fine
    assert set(enum) == set(CDYEnumerator(ucq.cqs[0], instance))


def test_apply_deltas_drops_sorted_level_caches():
    """The sorted walk levels of an ordered cursor die with their epoch
    instead of lingering until the cache bound evicts them."""
    ucq = parse_ucq(CDY_QUERIES[0])
    instance = random_instance_for(ucq, n_tuples=60, domain_size=6, seed=3)
    enum = CDYEnumerator(ucq.cqs[0], instance, incremental=True)
    order_by = ucq.cqs[0].head[:1]
    list(enum.cursor(order_by=order_by))
    assert len(enum._ordered_cache) == 1
    instance.get("R").add((99, 98))
    enum.apply_deltas({"R": ({(99, 98)}, set())})
    assert enum._ordered_cache == {}
    answers = list(enum.cursor(order_by=order_by))
    assert set(answers) == set(CDYEnumerator(ucq.cqs[0], instance))


def test_failed_apply_deltas_poisons_in_flight_iterators():
    """A delta application that raises midway may leave the enumerator
    half-patched; in-flight iterators must then raise, not serve it."""
    ucq = parse_ucq(CDY_QUERIES[0])
    instance = random_instance_for(ucq, n_tuples=60, domain_size=6, seed=5)
    enum = CDYEnumerator(ucq.cqs[0], instance, incremental=True)
    it = iter(enum)
    next(it)
    with pytest.raises(Exception):
        # removing a row the enumerator never ingested fails inside apply
        enum.apply_deltas({"R": (set(), {(123456, 654321)})})
    with pytest.raises(Exception, match="mutated"):
        list(it)


def test_cold_incremental_build_defers_the_reducer():
    """incremental=True serves the fused build; the counting reducer only
    appears with the first delta that touches the query."""
    ucq = parse_ucq(CDY_QUERIES[0])
    cq = ucq.cqs[0]
    instance = random_instance_for(ucq, n_tuples=60, domain_size=9, seed=4)
    enum = CDYEnumerator(cq, instance, incremental=True)
    assert enum.incremental and enum._reducer is None
    assert enum._grounded is not None
    assert set(enum) == set(CDYEnumerator(cq, instance))
    enum.apply_deltas({"Unrelated": ({(1,)}, set())})
    assert enum._reducer is None  # no delta for this query: nothing built
    enum.apply_deltas({"R": ({(91, 92)}, set())})
    assert enum._reducer is not None and enum._grounded is None


def _non_members(answers, arity, domain, rng):
    """Probe tuples that are not answers, including a never-seen value."""
    out = [(-1,) * arity]
    for _ in range(50):
        t = tuple(rng.randrange(domain) for _ in range(arity))
        if t not in answers:
            out.append(t)
    return out


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("query", CDY_QUERIES)
@pytest.mark.parametrize("seed", range(3))
def test_first_deltas_match_a_fresh_build(query, seed, workers):
    """After the first delta (which builds the reducer from the kept
    columns) and after the second (a plain patch), node rows, answers,
    count and membership equal a fresh build over the current data."""
    rng = random.Random(f"first-deltas#{query}#{seed}")
    ucq = parse_ucq(query)
    cq = ucq.cqs[0]
    symbols = sorted(cq.schema)
    instance = random_instance_for(ucq, n_tuples=60, domain_size=9, seed=seed)
    enum = CDYEnumerator(
        cq, instance, incremental=True, workers=workers, pool="thread"
    )
    for _ in range(2):
        deltas = {}
        while not deltas:
            deltas = _mutate_instance(instance, symbols, rng, domain=9)
        enum.apply_deltas(deltas)
        assert enum._reducer is not None
        fresh = CDYEnumerator(cq, instance)
        assert enum.nonempty == fresh.nonempty
        for nid in fresh.relations:
            assert enum.node_rows(nid) == fresh.node_rows(nid)
        answers = set(enum)
        assert answers == set(fresh)
        assert enum.count_answers() == fresh.count_answers() == len(answers)
        assert all(enum.contains(a) for a in answers)
        for probe in _non_members(answers, len(cq.head), 9, rng):
            assert not enum.contains(probe)


def test_failed_materialization_bumps_epoch_and_engine_rebases(monkeypatch):
    """A reducer build that raises on the first delta still fences
    in-flight iterators, and the engine rebases instead of serving it."""
    import repro.yannakakis.cdy as cdy

    class BrokenReducer:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("reducer build failed")

    ucq = parse_ucq(CDY_QUERIES[0])
    instance = random_instance_for(ucq, n_tuples=60, domain_size=6, seed=8)
    engine = Engine()
    assert set(engine.execute(ucq, instance)) == evaluate_ucq(ucq, instance)
    enum = CDYEnumerator(ucq.cqs[0], instance, incremental=True)
    it = iter(enum)
    next(it)
    epoch = enum._epoch
    monkeypatch.setattr(cdy, "IncrementalReducer", BrokenReducer)
    with pytest.raises(RuntimeError):
        enum.apply_deltas({"R": ({(99, 98)}, set())})
    assert enum._epoch == epoch + 1
    assert enum._reducer is None and enum._grounded is not None
    with pytest.raises(Exception, match="mutated"):
        list(it)

    instance.get("R").add((99, 98))
    instance.get("S").add((98, 97))
    assert set(engine.execute(ucq, instance)) == evaluate_ucq(ucq, instance)
    assert engine.stats.rebases == 1
    assert engine.stats.delta_applies == 0
    assert engine.stats.prep_misses == 2


def test_union_count_patches_intersection_terms():
    """Theorem-4 union counts stay exact under a delta sequence, and the
    intersection term is delta-patched in place, never rebuilt."""
    rng = random.Random("union-count-terms")
    ucq = parse_ucq(
        "Q1(x, y) <- R(x, y), S(y, z) ; Q2(x, y) <- R(x, y), T(y, w)"
    )
    symbols = sorted(ucq.schema)
    instance = random_instance_for(ucq, n_tuples=80, domain_size=10, seed=6)
    engine = Engine()
    assert engine.plan(ucq).kind.name == "UNION_TRACTABLE"
    assert engine.count(ucq, instance) == len(evaluate_ucq(ucq, instance))
    term = _union_terms(engine, ucq, instance)[(0, 1)]
    assert isinstance(term, CDYEnumerator) and term._reducer is None
    for _ in range(ENGINE_ROUNDS):
        _mutate_instance(instance, symbols, rng, domain=10)
        assert engine.count(ucq, instance) == len(evaluate_ucq(ucq, instance))
        assert _union_terms(engine, ucq, instance)[(0, 1)] is term
    assert term._reducer is not None  # patched, not rebuilt
    assert engine.stats.rebases == 0
    assert engine.stats.prep_misses == 1


def _union_terms(engine, ucq, instance):
    """The engine's current intersection terms for *ucq* over *instance*
    (a query whose relation names address *instance* directly)."""
    outcome, terms = engine._count_terms.fetch(engine.plan(ucq), instance)
    assert outcome == "hit"
    return terms


UNION_QUERY = "Q1(x, y) <- R(x, y), S(y, z) ; Q2(x, y) <- R(x, y), T(y, w)"


def test_union_count_terms_follow_invalidate():
    """invalidate() is the remedy for an out-of-band edit that keeps
    every cardinality; it must drop the union's intersection terms too,
    or the next versioned delta patches a stale term for good."""
    ucq = parse_ucq(UNION_QUERY)
    instance = Instance.from_dict(
        {"R": [(1, 2), (3, 4)], "S": [(2, 5), (4, 5)], "T": [(2, 6)]}
    )
    engine = Engine()
    assert engine.count(ucq, instance) == 2
    # out-of-band, same cardinality: no version vector can see it
    instance.get("R").tuples.discard((1, 2))
    instance.get("R").tuples.add((7, 8))
    engine.invalidate(instance)
    assert engine.count(ucq, instance) == len(evaluate_ucq(ucq, instance))
    instance.get("R").add((9, 2))
    assert engine.count(ucq, instance) == len(evaluate_ucq(ucq, instance))

    # invalidate() with no instance drops every term
    engine.invalidate()
    assert len(engine._count_terms) == 0


def test_union_count_terms_are_bounded_and_die_with_the_instance():
    """The term cache has the prepared cache's LRU bound, and an entry
    goes away with its instance."""
    ucq = parse_ucq(UNION_QUERY)
    engine = Engine(prep_cache_size=2)
    instances = [
        random_instance_for(ucq, n_tuples=40, domain_size=8, seed=s)
        for s in range(3)
    ]
    for instance in instances:
        assert engine.count(ucq, instance) == len(evaluate_ucq(ucq, instance))
    assert len(engine._count_terms) == 2
    del instance
    instances.pop()
    gc.collect()
    assert len(engine._count_terms) == 1
    engine.clear_cache()
    assert len(engine._count_terms) == 0


def test_relation_renamed_union_count_patches_its_terms(monkeypatch):
    """A union counted through a relation renaming (a readdressed view
    of the instance) keeps and patches its terms like a direct one."""
    built = []
    conjunction_term = Engine._conjunction_term

    def counting_term(*args):
        built.append(args)
        return conjunction_term(*args)

    monkeypatch.setattr(Engine, "_conjunction_term", staticmethod(counting_term))
    rng = random.Random("renamed-union-count")
    ucq = parse_ucq(UNION_QUERY)
    renamed = parse_ucq(
        "P1(a, b) <- A(a, b), B(b, c) ; P2(a, b) <- A(a, b), C(b, d)"
    )
    engine = Engine()
    engine.count(ucq, random_instance_for(ucq, n_tuples=20, seed=1))
    instance = random_instance_for(renamed, n_tuples=80, domain_size=10, seed=2)
    for _ in range(ENGINE_ROUNDS):
        count = engine.count(renamed, instance)
        assert count == len(evaluate_ucq(renamed, instance))
        _mutate_instance(instance, ["A", "B", "C"], rng, domain=10)
    assert engine.stats.plan_misses == 1  # the renamed query replays the plan
    assert len(built) == 2  # one term per instance, patched ever after


def test_engine_rebases_on_out_of_band_size_change():
    """Editing Relation.tuples directly bypasses the log; the cardinality
    entry in the version vector must force a rebase, not stale answers."""
    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z)")
    instance = Instance.from_dict({"R": [(1, 2)], "S": [(2, 3)]})
    engine = Engine()
    assert set(engine.execute(ucq, instance)) == {(1, 2)}
    instance.get("R").tuples.add((4, 2))  # out-of-band: no version bump
    assert set(engine.execute(ucq, instance)) == {(1, 2), (4, 2)}
    assert engine.stats.rebases == 1
    # a versioned mutation racing an out-of-band one is equally untrusted
    instance.get("R").add((5, 2))
    instance.get("R").tuples.discard((4, 2))
    assert set(engine.execute(ucq, instance)) == evaluate_ucq(ucq, instance)
    assert engine.stats.rebases == 2


def test_apply_deltas_requires_incremental_mode():
    ucq = parse_ucq(CDY_QUERIES[0])
    instance = random_instance_for(ucq, n_tuples=20, domain_size=5, seed=0)
    enum = CDYEnumerator(ucq.cqs[0], instance)
    with pytest.raises(Exception, match="incremental"):
        enum.apply_deltas({"R": ({(1, 2)}, set())})


# --------------------------------------------------------------------- #
# engine: the exact-hit -> delta-apply -> rebase ladder


@pytest.mark.parametrize("query", ENGINE_QUERIES)
@pytest.mark.parametrize("seed", range(ENGINE_SEEDS))
def test_engine_delta_path_differential(query, seed):
    """Warm answers after mutations equal naive re-evaluation, with zero
    re-classification/tree work and every warm call served by delta-apply."""
    rng = random.Random(f"{query}#{seed}")  # str seeding is deterministic
    ucq = parse_ucq(query)
    symbols = sorted(ucq.schema)
    engine = Engine()
    instance = random_instance_for(ucq, n_tuples=80, domain_size=10, seed=seed)
    assert set(engine.execute(ucq, instance)) == evaluate_ucq(ucq, instance)
    classifications = engine.stats.classifications
    trees = engine.stats.trees_built
    for _ in range(ENGINE_ROUNDS):
        _mutate_instance(instance, symbols, rng, domain=10)
        emitted = list(engine.execute(ucq, instance))
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == evaluate_ucq(ucq, instance)
    assert engine.stats.classifications == classifications
    assert engine.stats.trees_built == trees
    assert engine.stats.delta_applies == ENGINE_ROUNDS
    assert engine.stats.prep_misses == 1
    assert engine.stats.rebases == 0


def test_engine_sees_same_cardinality_in_place_swap():
    """The fingerprint's documented blind spot (PR 1) is now covered: a
    swap that keeps a relation's cardinality is just another delta."""
    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z)")
    instance = Instance.from_dict({"R": [(1, 2), (3, 4)], "S": [(2, 5), (4, 6)]})
    engine = Engine()
    assert set(engine.execute(ucq, instance)) == {(1, 2), (3, 4)}
    rel = instance.get("R")
    rel.discard((3, 4))
    rel.add((7, 4))  # same cardinality, different content
    assert len(rel) == 2
    answers = set(engine.execute(ucq, instance))
    assert answers == {(1, 2), (7, 4)} == evaluate_ucq(ucq, instance)
    assert engine.stats.delta_applies == 1
    assert engine.stats.prep_misses == 1  # no rebuild happened


def test_engine_rebases_on_wholesale_replacement():
    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z)")
    instance = Instance.from_dict({"R": [(1, 2)], "S": [(2, 3)]})
    engine = Engine()
    assert set(engine.execute(ucq, instance)) == {(1, 2)}
    instance.set("R", Relation.from_iterable(2, [(9, 2)]))
    assert set(engine.execute(ucq, instance)) == {(9, 2)}
    assert engine.stats.rebases == 1
    assert engine.stats.delta_applies == 0
    assert engine.stats.prep_misses == 2


def test_engine_rebases_on_delta_log_overflow(monkeypatch):
    monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 4)
    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z)")
    instance = Instance.from_dict(
        {"R": [(1, 2)], "S": [(2, 3)]}
    ).snapshot()  # snapshot so relations pick up the patched limit
    engine = Engine()
    assert set(engine.execute(ucq, instance)) == {(1, 2)}
    rel = instance.get("R")
    for i in range(10, 20):  # far past the 4-entry log window
        rel.add((i, 2))
    answers = set(engine.execute(ucq, instance))
    assert answers == evaluate_ucq(ucq, instance)
    assert engine.stats.rebases == 1
    assert engine.stats.prep_misses == 2


def test_engine_delta_apply_preserves_iso_replay():
    """Delta maintenance must not disturb the isomorphic-replay path, which
    readdresses a *different* instance through the cached plan."""
    engine = Engine()
    ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z)")
    instance = random_instance_for(ucq, n_tuples=40, domain_size=8, seed=1)
    set(engine.execute(ucq, instance))
    instance.get("R").add((91, 92))
    instance.get("S").add((92, 93))
    set(engine.execute(ucq, instance))
    iso = parse_ucq("Q(a, b) <- E(a, b), F(b, c)")
    iso_instance = random_instance_for(iso, n_tuples=40, domain_size=8, seed=2)
    assert set(engine.execute(iso, iso_instance)) == evaluate_ucq(
        iso, iso_instance
    )
    assert engine.stats.iso_hits == 1
    assert engine.stats.classifications == 1
