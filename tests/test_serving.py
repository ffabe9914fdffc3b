"""Differential and behavioural suite for the serving layer.

Covers the ISSUE-4 contract:

* paged union of pages == ``Engine.answers`` == the naive oracle, across
  all four dispatch branches (resumable cursors for CDY/Algorithm 1,
  materialized paging for Theorem 12/naive), page sizes, and
  token-resume round trips between every page;
* cursor resume after LRU eviction (transparent rehydration) and after
  the engine's prepared cache was dropped (rebuild + seek);
* incremental updates: stale cursors fence, new sessions are served from
  delta-applied preprocessing;
* per-page cursor work is bounded independently of instance size, and a
  resume costs O(query size), not O(offset);
* batched opens plan once and preprocess once per isomorphism group;
* a cursor cut in blocks (``take``) walks exactly as one advanced answer
  by answer, and the HTTP front end sends each response in one write on
  a TCP_NODELAY socket.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from itertools import cycle, islice

import pytest

from repro.database import Instance, random_instance_for
from repro.engine import Engine, PlanKind
from repro.exceptions import (
    CursorError,
    CursorFencedError,
    ReproError,
    ServingError,
    SessionNotFoundError,
)
from repro.naive import evaluate_ucq
from repro.query import parse_ucq
from repro.serving import (
    CursorToken,
    ServingHTTPServer,
    SessionManager,
    submit_many,
)
from repro.serving.server import ServingRequestHandler
from repro.yannakakis.cdy import CDYEnumerator

# one template per dispatch branch; the first two page on resumable
# cursors, the last two on materialized snapshots
TEMPLATES = [
    ("cdy", "Q(x, y) <- R(x, y), S(y, z), T(z, w)", PlanKind.CDY),
    (
        "algorithm1",
        "Q1(x, y) <- R(x, y), S(y, z) ; Q2(x, y) <- T(x, y) ; "
        "Q3(x, y) <- R(x, y), T(y, w)",
        PlanKind.UNION_TRACTABLE,
    ),
    (
        "theorem12",
        "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w) ; "
        "Q2(x, y, w) <- R1(x, y), R2(y, w)",
        PlanKind.UNION_EXTENSION,
    ),
    ("naive", "Q(x, y) <- R(x, z), S(z, y)", PlanKind.NAIVE),
]


def drain_with_token_roundtrip(manager, session, page_size=None):
    """Collect a session's full stream, resuming from the opaque token
    between every page (the hardest path: every page crosses an
    encode/decode/rehydrate cycle)."""
    answers = []
    current = session
    while True:
        page = manager.fetch(current.session_id, page_size)
        answers.extend(page.answers)
        if page.done:
            return answers
        current = manager.resume(page.cursor)


@pytest.mark.parametrize("name,query,kind", TEMPLATES, ids=lambda v: str(v))
@pytest.mark.parametrize("page_size", [1, 7, 64])
def test_paged_union_equals_engine_answers(name, query, kind, page_size):
    ucq = parse_ucq(query)
    instance = random_instance_for(ucq, 120, 8, seed=42)
    manager = SessionManager(page_size=page_size)
    manager.register(instance, "db")

    session = manager.open(query, "db")
    assert session.prepared.plan.kind is kind
    assert session.resumable == (
        kind in (PlanKind.CDY, PlanKind.UNION_TRACTABLE)
    )
    paged = drain_with_token_roundtrip(manager, session)
    assert len(paged) == len(set(paged)), "a page re-delivered an answer"
    assert set(paged) == evaluate_ucq(ucq, instance)
    assert set(paged) == manager.engine.answers(ucq, instance)


@pytest.mark.parametrize("name,query,kind", TEMPLATES, ids=lambda v: str(v))
def test_paging_preserves_streaming_order(name, query, kind):
    """Pages concatenate to exactly the engine's one-shot stream."""
    ucq = parse_ucq(query)
    instance = random_instance_for(ucq, 100, 8, seed=7)
    manager = SessionManager(page_size=9)
    manager.register(instance, "db")
    reference = list(manager.engine.execute(ucq, instance))
    session = manager.open(query, "db")
    paged = []
    while True:
        page = manager.fetch(session.session_id)
        assert page.offset == len(paged)
        paged.extend(page.answers)
        if page.done:
            break
    assert paged == reference


def test_interleaved_sessions_are_independent():
    query = TEMPLATES[0][1]
    ucq = parse_ucq(query)
    instance = random_instance_for(ucq, 200, 9, seed=11)
    manager = SessionManager(page_size=5)
    manager.register(instance, "db")
    reference = list(manager.engine.execute(ucq, instance))

    sessions = [manager.open(query, "db") for _ in range(3)]
    streams: dict[str, list] = {s.session_id: [] for s in sessions}
    done = {s.session_id: False for s in sessions}
    step = 0
    while not all(done.values()):
        session = sessions[step % 3]
        step += 1
        if done[session.session_id]:
            continue
        page = manager.fetch(session.session_id)
        streams[session.session_id].extend(page.answers)
        done[session.session_id] = page.done
    for collected in streams.values():
        assert collected == reference
    # the three sessions shared one plan and one preprocessing pass
    assert manager.engine.stats.prep_misses == 1
    assert manager.engine.stats.classifications == 1


def test_resume_after_lru_eviction():
    query = TEMPLATES[0][1]
    ucq = parse_ucq(query)
    instance = random_instance_for(ucq, 150, 8, seed=3)
    manager = SessionManager(max_sessions=2, page_size=6)
    manager.register(instance, "db")
    reference = list(manager.engine.execute(ucq, instance))

    session = manager.open(query, "db")
    first = manager.fetch(session.session_id)
    token = first.cursor
    for _ in range(3):  # overflow the 2-session LRU
        manager.open(query, "db")
    with pytest.raises(SessionNotFoundError):
        manager.fetch(session.session_id)
    assert manager.stats.evictions >= 1

    revived = manager.resume(token)
    rest = []
    while True:
        page = manager.fetch(revived.session_id)
        rest.extend(page.answers)
        if page.done:
            break
    assert first.answers + rest == reference
    assert manager.stats.rehydrations == 1


def test_resume_preserves_custom_page_size():
    query = TEMPLATES[0][1]
    ucq = parse_ucq(query)
    instance = random_instance_for(ucq, 120, 8, seed=21)
    manager = SessionManager(page_size=100)
    manager.register(instance, "db")
    session = manager.open(query, "db", page_size=4)
    page = manager.fetch(session.session_id)
    assert len(page.answers) == 4
    revived = manager.resume(page.cursor)
    assert revived.page_size == 4
    assert len(manager.fetch(revived.session_id).answers) == 4


def test_resume_after_prepared_cache_drop_rebuilds_and_continues():
    """Even when the engine's prepared cache lost the enumerator, a token
    rehydrates: preprocessing is rebuilt and the cursor seeks — the pages
    still concatenate to the full stream."""
    query = TEMPLATES[0][1]
    ucq = parse_ucq(query)
    instance = random_instance_for(ucq, 150, 8, seed=13)
    manager = SessionManager(page_size=10)
    manager.register(instance, "db")
    reference = list(manager.engine.execute(ucq, instance))

    session = manager.open(query, "db")
    first = manager.fetch(session.session_id)
    manager.engine.invalidate(instance)
    misses_before = manager.engine.stats.prep_misses
    revived = manager.resume(first.cursor)
    assert manager.engine.stats.prep_misses == misses_before + 1
    rest = []
    while True:
        page = manager.fetch(revived.session_id)
        rest.extend(page.answers)
        if page.done:
            break
    assert first.answers + rest == reference


class TestIncrementalUpdates:
    def _setup(self):
        query = TEMPLATES[0][1]
        ucq = parse_ucq(query)
        instance = random_instance_for(ucq, 150, 8, seed=5)
        manager = SessionManager(page_size=8)
        manager.register(instance, "db")
        return query, ucq, instance, manager

    def test_stale_cursor_fences_lazily(self):
        query, ucq, instance, manager = self._setup()
        session = manager.open(query, "db")
        page = manager.fetch(session.session_id)
        instance.get("R").add((991, 992))  # versioned mutator, no sweep
        with pytest.raises(CursorFencedError):
            manager.fetch(session.session_id)
        assert manager.stats.fences == 1
        # the fenced session is dropped, its token fences too
        with pytest.raises(SessionNotFoundError):
            manager.fetch(session.session_id)
        with pytest.raises(CursorFencedError):
            manager.resume(page.cursor)

    def test_apply_delta_sweeps_proactively(self):
        query, ucq, instance, manager = self._setup()
        session = manager.open(query, "db")
        manager.fetch(session.session_id)
        outcome = manager.apply_delta(
            "db", {"R": ([(991, 992)], []), "S": ([], [])}
        )
        assert outcome["changed"] == 1
        assert outcome["fenced"] == 1
        with pytest.raises(SessionNotFoundError):
            manager.fetch(session.session_id)

    def test_new_session_is_served_by_delta_apply_not_rebuild(self):
        query, ucq, instance, manager = self._setup()
        session = manager.open(query, "db")
        manager.fetch(session.session_id)
        manager.apply_delta("db", {"R": ([(3, 4), (991, 2)], [])})
        delta_applies = manager.engine.stats.delta_applies
        misses = manager.engine.stats.prep_misses
        fresh = manager.open(query, "db")
        assert manager.engine.stats.delta_applies == delta_applies + 1
        assert manager.engine.stats.prep_misses == misses
        paged = drain_with_token_roundtrip(manager, fresh)
        assert set(paged) == evaluate_ucq(ucq, instance)

    def test_apply_delta_is_atomic(self):
        """A delta that fails validation (unknown symbol, bad arity, bad
        row shape) must leave the instance — and the sessions pinned to
        it — completely untouched."""
        query, ucq, instance, manager = self._setup()
        session = manager.open(query, "db")
        manager.fetch(session.session_id)
        before = instance.version_vector()
        for bad in [
            {"R": ([(1, 2)], []), "Nope": ([(3, 4)], [])},
            {"R": ([(1, 2)], []), "S": ([(1, 2, 3)], [])},
            {"R": ([3], [])},
            # unhashable value inside a well-shaped row: must be caught
            # in validation, before any sibling relation mutates
            {"S": ([(9, 9)], []), "R": ([([1, 2], 3)], [])},
        ]:
            with pytest.raises(ReproError):
                manager.apply_delta("db", bad)
            assert instance.version_vector() == before
        # the session was never fenced: the failed deltas changed nothing
        manager.fetch(session.session_id)

    def test_fence_then_reopen_round_trip(self):
        """The documented client protocol: fetch → fence → reopen →
        re-page; the re-paged stream reflects the update exactly."""
        query, ucq, instance, manager = self._setup()
        session = manager.open(query, "db")
        manager.fetch(session.session_id)
        removed = next(iter(instance.get("R").tuples))
        manager.apply_delta("db", {"R": ([], [removed])})
        with pytest.raises(SessionNotFoundError):
            manager.fetch(session.session_id)
        reopened = manager.open(query, "db")
        paged = drain_with_token_roundtrip(manager, reopened)
        assert set(paged) == evaluate_ucq(ucq, instance)


class TestDelayBounds:
    """Cursor work per page must not depend on the instance size."""

    QUERY = "Q(x, y) <- R(x, y), S(y, z), T(z, w)"

    def _max_steps_per_page(self, n: int, page: int) -> int:
        ucq = parse_ucq(self.QUERY)
        instance = random_instance_for(ucq, n, max(4, n // 10), seed=1)
        enum = CDYEnumerator(ucq.cqs[0], instance)
        worst = 0
        state = None
        while True:
            cursor = enum.cursor(state)
            before = cursor.steps
            got = 0
            for _ in range(page):
                try:
                    next(cursor)
                    got += 1
                except StopIteration:
                    break
            worst = max(worst, cursor.steps - before)
            state = cursor.checkpoint()
            if state == "done" or got == 0:
                return worst

    def test_per_page_steps_independent_of_instance_size(self):
        small = self._max_steps_per_page(100, 10)
        large = self._max_steps_per_page(10_000, 10)
        assert large <= small, (small, large)

    def test_resume_cost_is_query_sized_not_offset_sized(self):
        ucq = parse_ucq(self.QUERY)
        instance = random_instance_for(ucq, 5_000, 300, seed=2)
        enum = CDYEnumerator(ucq.cqs[0], instance)
        cursor = enum.cursor()
        for _ in range(2_000):  # deep into the stream
            next(cursor)
        state = cursor.checkpoint()
        resumed = enum.cursor(state)
        # rehydration walks one group list entry per level — nothing else
        assert resumed.steps <= len(enum.plans)


class TestTakeMatchesNext:
    """``cursor.take(n)`` returns what *n* ``next`` calls return, with the
    same step count and the same checkpoint after every block."""

    CHAIN = "Q(x, y, z) <- R(x, y), S(y, z), T(z, w)"
    UNION = (
        "Q1(x, y) <- R(x, y), S(y, z) ; Q2(x, y) <- T(x, y) ; "
        "Q3(x, y) <- R(x, y), T(y, w)"
    )
    BLOCKS = [1, 7, 100, 10**6]  # 10**6: more than what is left

    @staticmethod
    def _assert_lockstep(make_cursor, block):
        by_take, by_next = make_cursor(), make_cursor()
        while True:
            got = by_take.take(block)
            want = list(islice(by_next, block))
            assert got == want
            assert getattr(by_take, "steps", None) == getattr(
                by_next, "steps", None
            )
            assert by_take.checkpoint() == by_next.checkpoint()
            if len(got) < block:
                assert by_take.take(block) == []
                assert by_take.checkpoint() == "done"
                return

    def _chain(self):
        ucq = parse_ucq(self.CHAIN)
        instance = random_instance_for(ucq, 200, 12, seed=5)
        return CDYEnumerator(ucq.cqs[0], instance)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_natural_walk(self, block):
        enum = self._chain()
        self._assert_lockstep(enum.cursor, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_sorted_group_walk(self, block):
        enum = self._chain()
        head = enum.output_order
        order = next(
            (a, b) for a in head for b in head
            if a != b and enum.order_achievable((a, b))
        )
        self._assert_lockstep(lambda: enum.cursor(order_by=order), block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_rehydrated_cursor(self, block):
        enum = self._chain()
        cursor = enum.cursor()
        list(islice(cursor, 37))
        state = cursor.checkpoint()
        self._assert_lockstep(lambda: enum.cursor(state), block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_union_cursor(self, block):
        ucq = parse_ucq(self.UNION)
        instance = random_instance_for(ucq, 120, 8, seed=42)
        union = Engine().prepare(ucq, instance).enumerator
        self._assert_lockstep(union.cursor, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_one_row_runs(self, block):
        """Every group holds one row, so every innermost run is a single
        row, emitted without the block maps."""
        ucq = parse_ucq("Q(x, y, z) <- R(x, y), S(y, z)")
        instance = Instance.from_dict({
            "R": [(i, i + 1) for i in range(300)],
            "S": [(i, i + 2) for i in range(300)],
        })
        enum = CDYEnumerator(ucq.cqs[0], instance)
        self._assert_lockstep(enum.cursor, block)

    def test_take_and_next_interleave(self):
        """Blocks and single steps mix on one cursor: a block leaves the
        cursor where ``next`` continues, and the other way round."""
        enum = self._chain()
        want = list(enum.cursor())
        cursor, got = enum.cursor(), []
        for k in cycle([3, 0, 1, 8, 2]):
            block = cursor.take(k) + list(islice(cursor, 1))
            if not block:
                break
            got += block
        assert got == want
        assert cursor.take(5) == [] and cursor.checkpoint() == "done"

    @pytest.mark.parametrize("query", [CHAIN, UNION], ids=["cdy", "union"])
    def test_delta_between_blocks_fences(self, query):
        ucq = parse_ucq(query)
        instance = random_instance_for(ucq, 120, 8, seed=3)
        engine = Engine()
        cursor = engine.prepare(ucq, instance).enumerator.cursor()
        assert cursor.take(5)
        instance.get("R").add((10**6, 10**6 + 1))
        engine.prepare(ucq, instance)  # patches the shared enumerator
        with pytest.raises(CursorFencedError):
            cursor.take(5)


def test_head_reordered_isomorphic_session_pages_through_resume():
    """An isomorphic plan hit whose head order differs pages through the
    representative's walk, reordering every answer; the reorder must
    hold across a close and a token resume."""
    q1 = "Q(x, y) <- R(x, y), S(y, z), T(z, w)"
    q2 = "Q(y, x) <- R(x, y), S(y, z), T(z, w)"
    instance = random_instance_for(parse_ucq(q1), 150, 8, seed=11)
    manager = SessionManager(page_size=7)
    manager.register(instance, "db")
    manager.open(q1, "db")
    session = manager.open(q2, "db")
    assert session.prepared.permutation is not None
    first = manager.fetch(session.session_id)
    assert not first.done
    manager.close(session.session_id)
    revived = manager.resume(first.cursor)
    assert revived.prepared.permutation is not None
    paged = first.answers + drain_with_token_roundtrip(manager, revived)
    assert len(paged) == len(set(paged))
    assert set(paged) == evaluate_ucq(parse_ucq(q2), instance)


def test_resume_fences_when_plan_representative_changed():
    """A token's walk positions are only meaningful against the plan
    structure that issued them. If the plan cache evicts that plan and a
    *renamed* isomorphic query re-populates the shape, the rebuilt walk
    orders levels/groups differently — resume must fence, not silently
    skip and duplicate answers."""
    q1 = "Q(x, y) <- R(x, y), S(y, z), T(z, w)"
    q2 = "Q(b, a) <- R(b, a), S(a, c), T(c, d)"  # variable renaming of q1
    unrelated = "Q(x) <- R(x, y)"
    ucq = parse_ucq(q1)
    instance = random_instance_for(ucq, 150, 8, seed=31)
    manager = SessionManager(engine=Engine(cache_size=1), page_size=10)
    manager.register(instance, "db")

    manager.open(q1, "db")  # plan representative: q1's variables
    session = manager.open(q2, "db")  # iso-hit, pages through q1's walk
    page = manager.fetch(session.session_id)
    manager.open(unrelated, "db")  # evicts the q1-representative plan
    manager.close(session.session_id)
    with pytest.raises(CursorFencedError):
        # prepare(q2) now builds a fresh plan from q2's own variables:
        # same data version, different walk structure
        manager.resume(page.cursor)

    # the recovery path stays correct: a fresh session over the new plan
    fresh = manager.open(q2, "db")
    paged = drain_with_token_roundtrip(manager, fresh)
    assert set(paged) == evaluate_ucq(parse_ucq(q2), instance)


def test_open_rejects_bad_page_size():
    ucq = parse_ucq("Q(x) <- R(x, y)")
    instance = random_instance_for(ucq, 20, 5, seed=1)
    manager = SessionManager()
    manager.register(instance, "db")
    for bad in ("abc", 0, -3, 2.5):
        with pytest.raises(ServingError):
            manager.open(ucq, "db", page_size=bad)


def test_batch_groups_plan_once_per_shape():
    chain = "Q(a{i}, b{i}) <- R(a{i}, b{i}), S(b{i}, c{i}), T(c{i}, d{i})"
    other = "Q(x) <- R(x, y)"
    queries = [chain.format(i=i) for i in range(5)] + [other]
    ucq = parse_ucq(queries[0])
    instance = random_instance_for(ucq, 200, 9, seed=8)
    manager = SessionManager()
    manager.register(instance, "db")

    items = submit_many(
        manager, [(q, "db") for q in queries], page_size=10, first_page=True
    )
    assert all(item.ok for item in items)
    assert len({item.group for item in items[:5]}) == 1
    assert items[5].group != items[0].group
    assert manager.engine.stats.classifications == 2
    assert manager.engine.stats.prep_misses == 2
    for item, query in zip(items, queries):
        q = parse_ucq(query)
        paged = item.page.answers + drain_with_token_roundtrip(
            manager, manager.resume(item.page.cursor)
        ) if not item.page.done else item.page.answers
        assert set(paged) == evaluate_ucq(q, instance)


def test_batch_isolates_per_item_failures():
    ucq = parse_ucq("Q(x) <- R(x, y)")
    instance = random_instance_for(ucq, 20, 5, seed=1)
    manager = SessionManager()
    manager.register(instance, "db")
    items = submit_many(
        manager,
        [
            ("Q(x) <- R(x, y)", "db"),
            ("this is not a query", "db"),
            ("Q(x) <- R(x, y)", "nonexistent-instance"),
        ],
    )
    assert items[0].ok
    assert not items[1].ok and items[1].error
    assert not items[2].ok and items[2].error


class TestCursorTokens:
    def test_round_trip(self):
        token = CursorToken(
            session_id="s1",
            query="Q(x) <- R(x, y)",
            instance_id="db",
            fingerprint="abc",
            state=[3, 1, 4],
            served=9,
        )
        assert CursorToken.decode(token.encode()) == token

    @pytest.mark.parametrize(
        "garbage", ["", "not-base64!!", "aGVsbG8", "e30", 42]
    )
    def test_garbage_rejected(self, garbage):
        with pytest.raises(CursorError):
            CursorToken.decode(garbage)

    def test_walk_state_must_fit_preprocessing(self):
        ucq = parse_ucq("Q(x, y) <- R(x, y), S(y, z)")
        instance = random_instance_for(ucq, 50, 6, seed=4)
        enum = CDYEnumerator(ucq.cqs[0], instance)
        with pytest.raises(CursorError):
            enum.cursor([10**9])


def test_manager_validation_errors():
    manager = SessionManager(page_size=4)
    ucq = parse_ucq("Q(x) <- R(x, y)")
    instance = random_instance_for(ucq, 20, 5, seed=1)
    with pytest.raises(ServingError):
        manager.open("Q(x) <- R(x, y)", "never-registered")
    name = manager.register(instance)
    with pytest.raises(ServingError):
        manager.register(random_instance_for(ucq, 5, 3, seed=2), name)
    with pytest.raises(SessionNotFoundError):
        manager.fetch("no-such-session")
    with pytest.raises(ServingError):
        SessionManager(max_sessions=0)
    session = manager.open(ucq, instance)
    with pytest.raises(ServingError):
        session.fetch(0)


def test_http_server_end_to_end():
    server = ServingHTTPServer(("127.0.0.1", 0), verbose=False)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def call(method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    try:
        code, _ = call(
            "POST",
            "/instances",
            {
                "name": "db",
                "relations": {
                    "R": [[1, 2], [2, 3], [3, 4]],
                    "S": [[2, 9], [3, 9], [4, 9]],
                },
            },
        )
        assert code == 201
        code, opened = call(
            "POST",
            "/sessions",
            {
                "query": "Q(x, y) <- R(x, y), S(y, z)",
                "instance": "db",
                "page_size": 2,
            },
        )
        assert code == 201 and opened["resumable"]
        sid = opened["session"]
        # enumeration order is unspecified: compare the pages as sets
        code, page = call("GET", f"/sessions/{sid}/page")
        assert code == 200 and len(page["answers"]) == 2
        code, page2 = call("GET", f"/sessions/{sid}/page?size=10")
        assert code == 200 and page2["done"]
        assert len(page2["answers"]) == 1
        assert {tuple(a) for a in page["answers"] + page2["answers"]} == {
            (1, 2), (2, 3), (3, 4)
        }

        # resume from the mid-stream token replays the tail exactly
        code, revived = call("POST", "/resume", {"cursor": page["cursor"]})
        assert code == 200
        code, tail = call("GET", f"/sessions/{revived['session']}/page?size=10")
        assert code == 200 and tail["answers"] == page2["answers"]

        # batch: two isomorphic queries share one plan group
        code, batch = call(
            "POST",
            "/sessions/batch",
            {
                "requests": [
                    {"query": "Q(a, b) <- R(a, b), S(b, c)", "instance": "db"},
                    {"query": "Q(u, v) <- R(u, v), S(v, w)", "instance": "db"},
                ],
                "first_page": True,
                "page_size": 10,
            },
        )
        assert code == 200
        groups = {r["group"] for r in batch["results"]}
        assert groups == {0}

        # delta fences the live session and its tokens
        code, outcome = call(
            "POST",
            "/instances/db/delta",
            {"R": {"adds": [[7, 2]], "removes": []}},
        )
        assert code == 200 and outcome["changed"] == 1
        code, _ = call("GET", f"/sessions/{sid}/page")
        assert code == 404  # swept
        code, fenced = call("POST", "/resume", {"cursor": page2["cursor"]})
        assert code == 409 and fenced["fenced"]

        code, stats = call("GET", "/stats")
        assert code == 200 and stats["pages_served"] >= 3

        # error surfaces
        assert call("POST", "/sessions", {"query": "Q(x) <-"})[0] == 400
        assert call("GET", "/nope")[0] == 404
        assert call("POST", "/resume", {"cursor": "garbage"})[0] == 400
        code, body = call(
            "POST",
            "/sessions",
            {"query": "Q(x) <- R(x, y)", "instance": "never-registered"},
        )
        assert code == 404, body  # unknown instance id, not a 400
        code, body = call(
            "POST", "/instances/db/delta", {"R": {"adds": [3]}}
        )
        assert code == 400, body  # malformed rows answered, not dropped
        code, body = call(
            "POST",
            "/instances/db/delta",
            {"R": {"adds": [[1, 2]]}, "Nope": {"adds": [[3, 4]]}},
        )
        assert code == 400, body  # atomic: R unchanged despite valid part
        code, stats2 = call("GET", "/stats")
        assert code == 200
    finally:
        server.shutdown()
        server.server_close()


class _CountingWriter:
    """A handler's socket writer that records the size of every write."""

    def __init__(self, inner, writes: list) -> None:
        self._inner = inner
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSocketPath:
    """The reply path, checked through the socket API instead of a clock:
    one write per response, TCP_NODELAY on every accepted connection."""

    @pytest.fixture
    def server(self):
        writes: list = []
        nodelay: list = []

        class Recording(ServingRequestHandler):
            def setup(self) -> None:
                super().setup()
                nodelay.append(
                    self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                )
                self.wfile = _CountingWriter(self.wfile, writes)

        server = ServingHTTPServer(("127.0.0.1", 0), verbose=False)
        server.RequestHandlerClass = Recording
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        try:
            yield conn, writes, nodelay
        finally:
            conn.close()
            server.shutdown()
            server.server_close()

    @staticmethod
    def _call(conn, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data)
        response = conn.getresponse()
        return response.status, response.read()

    def test_each_response_is_one_write(self, server):
        conn, writes, _ = server
        relations = {"R": [[i, i + 1] for i in range(50)], "S": [[1, 2]]}
        calls = [
            ("POST", "/instances", {"name": "db", "relations": relations}),
            ("POST", "/sessions", {"query": "Q(x, y) <- R(x, y)",
                                   "instance": "db", "page_size": 40}),
            ("GET", None, None),  # the session's first page
            ("POST", "/count", {"query": "Q(x) <- R(x, y)",
                                "instance": "db"}),
            ("GET", "/no-such-route", None),
        ]
        session = None
        for i, (method, path, body) in enumerate(calls):
            if path is None:
                path = f"/sessions/{session}/page"
            status, raw = self._call(conn, method, path, body)
            if path == "/sessions":
                session = json.loads(raw)["session"]
            assert status in (200, 201, 404)
            assert len(writes) == i + 1, writes
            assert writes[-1] > len(raw)  # the head rode with the body

    def test_accepted_connection_sets_tcp_nodelay(self, server):
        conn, _, nodelay = server
        assert self._call(conn, "GET", "/healthz")[0] == 200
        assert nodelay and all(nodelay)

    def test_http09_request_gets_the_bare_body(self, server):
        """An HTTP/0.9 request queues no status line or headers; the one
        write then carries the body alone."""
        conn, writes, _ = server
        with socket.create_connection(("127.0.0.1", conn.port)) as raw:
            raw.settimeout(10)
            raw.sendall(b"GET /healthz\r\n\r\n")
            data = b""
            while chunk := raw.recv(65536):
                data += chunk
        assert json.loads(data)["status"] == "ok"
        assert writes == [len(data)]
