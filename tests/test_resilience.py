"""Fault-tolerance suite: chaos differential matrix, deadlines, admission.

Covers the ISSUE-8 contract:

* a seeded :class:`~repro.faultinject.FaultPlan` matrix — fault kind
  (crash / raise / delay) × backend (serial / thread / process) × worker
  count — under which the parallel cold pipeline's answers stay
  *identical* to the fused reference, caches stay consistent, and zero
  ``/dev/shm`` segments leak;
* the degradation ladder's last rung: an always-firing fault (every
  attempt) forces per-shard serial fallback, still with exact answers;
* worker-crash recovery through the engine's sharded build (the cold
  build of a relation-renamed plan hit), with the ``degraded`` flag and
  recovery counters;
* deadline propagation: expired budgets raise
  :class:`~repro.exceptions.DeadlineExceededError` out of builds and
  page fetches *before* anything is cached or consumed, and the engine
  stays fully usable afterwards;
* admission control: saturated managers shed with
  :class:`~repro.exceptions.AdmissionError` (HTTP 503 + ``Retry-After``),
  warm opens pass a full cold gate, and ``/healthz`` reports the ladder;
* the HTTP front end's protective surfaces: 413 (body cap), 408 (socket
  timeout), 504 (per-request deadline);
* ``Engine.close()`` racing an in-flight parallel build never leaks
  shared-memory segments.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.database import random_instance_for, system_segments
from repro.engine import Engine
from repro.exceptions import AdmissionError, DeadlineExceededError
from repro.faultinject import (
    CRASH,
    DELAY,
    RAISE,
    FaultInjected,
    FaultPlan,
    WorkerCrashError,
)
from repro.query import parse_cq, parse_ucq
from repro.resilience import Deadline, DeadlineCounter, RetryPolicy
from repro.serving import ServingHTTPServer, SessionManager
from repro.yannakakis import CDYEnumerator
from repro.yannakakis.parallel import parallel_reduce
from repro.database import Interner

CHAOS_QUERY = "Q(x, y) <- R(x, y), S(y, z)"


def _plan_renamed(engine: Engine) -> None:
    """Plan CHAOS_QUERY's shape over other relation names, so executing
    CHAOS_QUERY next is a relation-renamed plan hit: the one build an
    engine with ``workers > 1`` runs on the sharded pipeline."""
    engine.plan(parse_ucq("Q(x, y) <- R0(x, y), S0(y, z)"))


def _chaos_instance(seed: int = 11, n: int = 300):
    cq = parse_cq(CHAOS_QUERY)
    return cq, random_instance_for(cq, n_tuples=n, seed=seed)


# --------------------------------------------------------------------- #
# resilience primitives


def test_deadline_budget_and_phase():
    d = Deadline(60.0)
    assert not d.expired()
    assert 0 < d.remaining() <= 60.0
    d.check("anywhere")  # far from expiry: no raise
    expired = Deadline(0.0)
    assert expired.expired()
    with pytest.raises(DeadlineExceededError) as err:
        expired.check("cold-build")
    assert err.value.phase == "cold-build"
    with pytest.raises(ValueError):
        Deadline(-1.0)
    assert Deadline.after_ms(60_000).budget_s == pytest.approx(60.0)


def test_deadline_counter_ticks_and_forwards():
    from repro.enumeration import StepCounter

    inner = StepCounter()
    counted = DeadlineCounter(Deadline(60.0), inner)
    counted.tick(3)
    assert counted.count == 3 and inner.count == 3
    dead = DeadlineCounter(Deadline(0.0))
    with pytest.raises(DeadlineExceededError) as err:
        dead.tick()
    assert err.value.phase == "step"
    assert dead.count == 1  # the step is counted even when it trips


def test_retry_policy_is_deterministic_and_capped():
    policy = RetryPolicy(retries=3, base_delay_s=0.05, factor=2.0,
                         max_delay_s=0.08)
    assert policy.delay(0) == 0.0
    assert policy.delay(1) == pytest.approx(0.05)
    assert policy.delay(2) == pytest.approx(0.08)  # capped, not 0.10
    assert policy.delay(3) == pytest.approx(0.08)


def test_fault_plan_from_seed_is_deterministic_and_picklable():
    import pickle

    a = FaultPlan.from_seed(7, workers=4, sites=("shard", "merge"))
    b = FaultPlan.from_seed(7, workers=4, sites=("shard", "merge"))
    assert a.specs == b.specs
    clone = pickle.loads(pickle.dumps(a))
    assert clone.specs == tuple(a.specs) or list(clone.specs) == a.specs
    assert clone.origin_pid == a.origin_pid  # survives the trip


def test_fault_plan_fires_by_kind():
    raising = FaultPlan().raise_in("shard", worker=1)
    raising.fire("shard", worker=0)  # wrong worker: no-op
    raising.fire("other", worker=1)  # wrong site: no-op
    with pytest.raises(FaultInjected):
        raising.fire("shard", worker=1)
    crashing = FaultPlan().crash(site="shard")
    # in the installing process a crash raises instead of killing pytest
    with pytest.raises(WorkerCrashError):
        crashing.fire("shard", worker=0)
    slow = FaultPlan().delay(1.0, site="merge", worker=None)
    slow.fire("merge")  # sleeps ~1ms, returns
    assert ("merge", None, 0, DELAY) in slow.fired


# --------------------------------------------------------------------- #
# chaos differential matrix


@pytest.mark.parametrize("kind", [CRASH, RAISE, DELAY])
@pytest.mark.parametrize("pool,workers", [
    ("serial", 1),
    ("thread", 2),
    ("thread", 4),
    ("process", 2),
    ("process", 4),
])
def test_chaos_matrix_answers_match_fused(kind, pool, workers):
    """One injected fault per cell; answers must equal the fused
    reference exactly, with nothing left in /dev/shm."""
    cq, instance = _chaos_instance()
    reference = sorted(CDYEnumerator(cq, instance, pipeline="fused"))
    plan = FaultPlan(seed=workers)
    if kind == CRASH:
        plan.crash(site="shard", worker=0)
    elif kind == RAISE:
        plan.raise_in("shard", worker=0)
    else:
        plan.delay(10.0, site="shard", worker=0)
    with plan.installed():
        got = sorted(
            CDYEnumerator(
                cq, instance, pipeline="parallel",
                workers=workers, pool=pool,
            )
        )
    assert got == reference, (kind, pool, workers)
    assert system_segments() == []


@pytest.mark.parametrize("seed", range(6))
def test_chaos_seeded_plans_match_fused(seed):
    """Seed-generated single-fault plans (the harness's own generator)
    over the threaded backend: same invariants, randomised placement."""
    cq, instance = _chaos_instance(seed=seed + 1)
    reference = sorted(CDYEnumerator(cq, instance, pipeline="fused"))
    plan = FaultPlan.from_seed(seed, workers=2, sites=("shard",))
    with plan.installed():
        got = sorted(
            CDYEnumerator(
                cq, instance, pipeline="parallel", workers=2, pool="thread"
            )
        )
    assert got == reference, (seed, plan.specs)
    assert system_segments() == []


def test_every_attempt_fault_forces_serial_fallback():
    """attempt=None fires on every retry round, so the ladder must run
    all the way down to in-parent serial shards — and still be exact."""
    cq, instance = _chaos_instance()
    probe = CDYEnumerator(cq, instance, pipeline="fused")
    plan = FaultPlan().raise_in("shard", worker=None, attempt=None)
    stats: dict = {}
    parallel_reduce(
        probe.tree,
        cq,
        instance,
        Interner(),
        workers=2,
        decode_top=probe.ext.top_ids,
        pool="thread",
        stats_out=stats,
        faults=plan,
    )
    assert stats["degraded"] is True
    assert stats["fallbacks"] == 2
    assert stats["shard_retries"] >= 2
    assert system_segments() == []


def test_engine_recovers_from_shard_site_crash():
    """A worker crash in the engine's sharded build (a relation-renamed
    plan hit) must be retried on a rebuilt pool, answers intact, with
    the degradation surfaced through cache_info()."""
    cq, instance = _chaos_instance()
    reference = sorted(CDYEnumerator(cq, instance, pipeline="fused"))
    engine = Engine(workers=2, pool="process")
    _plan_renamed(engine)
    try:
        plan = FaultPlan().crash(site="shard", worker=0)
        with plan.installed():
            got = sorted(engine.execute(parse_ucq(CHAOS_QUERY), instance))
        assert got == reference
        info = engine.cache_info()
        assert info["degraded"] is True
        assert (
            engine.stats.shard_retries
            + engine.stats.pool_rebuilds
            + engine.stats.fallbacks
        ) > 0
        # the engine stays healthy for clean traffic afterwards
        again = sorted(engine.execute(parse_ucq(CHAOS_QUERY), instance))
        assert again == reference
    finally:
        engine.close()
    assert system_segments() == []


def test_engine_close_during_inflight_build_leaks_nothing():
    """Closing the engine while a parallel cold build is in flight must
    cancel cleanly: no hang, no leaked /dev/shm segments, and the engine
    is closable twice."""
    cq, instance = _chaos_instance(n=500)
    engine = Engine(workers=2, pool="process")
    _plan_renamed(engine)
    plan = FaultPlan().delay(300.0, site="shard", worker=None, attempt=None)
    outcome: list = []

    def build():
        try:
            with plan.installed():
                outcome.append(
                    len(list(engine.execute(parse_ucq(CHAOS_QUERY), instance)))
                )
        except Exception as exc:  # a cancelled build may surface anything
            outcome.append(exc)

    thread = threading.Thread(target=build)
    thread.start()
    limit = time.monotonic() + 10.0
    while engine._shard_pool is None and time.monotonic() < limit:
        time.sleep(0.01)
    # the build must really be on the pool, or close() has nothing to race
    assert engine._shard_pool is not None, "build never reached the shard pool"
    time.sleep(0.1)  # let the build reach the pool dispatch
    engine.close()
    thread.join(timeout=30)
    assert not thread.is_alive(), "build thread hung after close()"
    engine.close()  # idempotent
    assert system_segments() == []
    # whatever the race decided, it decided *something*: either the build
    # completed (possibly via the serial fallback) or it raised
    assert len(outcome) == 1


# --------------------------------------------------------------------- #
# deadlines through the engine and serving layers


def test_expired_deadline_fails_build_and_leaves_engine_reusable():
    cq, instance = _chaos_instance()
    reference = sorted(CDYEnumerator(cq, instance, pipeline="fused"))
    engine = Engine()
    ucq = parse_ucq(CHAOS_QUERY)
    with pytest.raises(DeadlineExceededError):
        engine.execute(ucq, instance, deadline=Deadline(0.0))
    # nothing half-built was cached: the very next call rebuilds cleanly
    assert sorted(engine.execute(ucq, instance)) == reference
    assert system_segments() == []


def test_expired_deadline_fails_prepare_without_caching():
    cq, instance = _chaos_instance()
    engine = Engine()
    ucq = parse_ucq(CHAOS_QUERY)
    with pytest.raises(DeadlineExceededError):
        engine.prepare(ucq, instance, deadline=Deadline(0.0))
    assert engine.cache_info()["prepared_enumerators"] == 0
    prepared = engine.prepare(ucq, instance)  # clean retry works
    assert prepared.enumerator is not None


def test_session_fetch_deadline_consumes_no_answers():
    cq, instance = _chaos_instance()
    manager = SessionManager()
    manager.register(instance, "db")
    session = manager.open(CHAOS_QUERY, "db", page_size=5)
    with pytest.raises(DeadlineExceededError):
        manager.fetch(session.session_id, deadline=Deadline(0.0))
    # the timed-out fetch consumed nothing: page 1 still starts at 0
    page = manager.fetch(session.session_id)
    assert page.offset == 0 and len(page.answers) == 5


# --------------------------------------------------------------------- #
# admission control


def test_saturated_manager_sheds_with_admission_error():
    _cq, instance = _chaos_instance()
    manager = SessionManager(max_inflight=0)
    manager.register(instance, "db")
    with pytest.raises(AdmissionError) as err:
        manager.open(CHAOS_QUERY, "db")
    assert err.value.retry_after > 0
    assert manager.stats.sheds == 1
    health = manager.health()
    assert health["status"] == "saturated"
    assert health["sheds"] == 1
    assert health["limits"]["max_inflight"] == 0


def test_cold_open_gate_still_admits_warm_opens():
    _cq, instance = _chaos_instance()
    engine = Engine()
    ucq = parse_ucq(CHAOS_QUERY)
    engine.prepare(ucq, instance)  # warm the prepared cache
    manager = SessionManager(engine=engine, max_cold_opens=0)
    manager.register(instance, "db")
    session = manager.open(ucq, "db")  # warm: passes the full cold gate
    assert session is not None
    with pytest.raises(AdmissionError):
        manager.open("Q(x) <- R(x, y), S(y, z)", "db")  # cold: shed
    assert manager.stats.sheds == 1


def test_admission_gate_releases_after_each_request():
    _cq, instance = _chaos_instance()
    manager = SessionManager(max_inflight=1)
    manager.register(instance, "db")
    for _ in range(3):  # sequential opens each enter and leave the gate
        manager.open(CHAOS_QUERY, "db")
    assert manager.stats.sheds == 0
    assert manager.cache_info()["in_flight"] == 0


def test_manager_health_reports_ok_then_degraded():
    cq, instance = _chaos_instance()
    engine = Engine(workers=2, pool="process")
    try:
        manager = SessionManager(engine=engine)
        manager.register(instance, "db")
        assert manager.health()["status"] == "ok"
        _plan_renamed(engine)
        plan = FaultPlan().crash(site="shard", worker=0)
        with plan.installed():
            list(engine.execute(parse_ucq(CHAOS_QUERY), instance))
        health = manager.health()
        assert health["status"] == "degraded"
        assert health["degraded"] is True
    finally:
        engine.close()


# --------------------------------------------------------------------- #
# HTTP front end protections


def _start_server(**kwargs):
    server = ServingHTTPServer(("127.0.0.1", 0), verbose=False, **kwargs)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, server.server_address[1]


def _call(port, method, path, body=None, timeout=10):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def test_http_resilience_surfaces():
    server, port = _start_server(
        max_body_bytes=2_048, socket_timeout=1.0
    )
    try:
        code, _body, _h = _call(
            port,
            "POST",
            "/instances",
            {
                "name": "db",
                "relations": {
                    "R": [[1, 2], [2, 3]],
                    "S": [[2, 9], [3, 9]],
                },
            },
        )
        assert code == 201

        # healthz: fresh server is ok, with the full shape
        code, health, _h = _call(port, "GET", "/healthz")
        assert code == 200 and health["status"] == "ok"
        assert set(health) >= {
            "backend", "workers", "degraded", "in_flight",
            "cold_opens_in_flight", "live_sessions", "limits", "sheds",
        }

        # 413: a body over the cap is refused before it is read
        big = {"relations": {"R": [[i, i + 1] for i in range(1_000)]}}
        code, body, _h = _call(port, "POST", "/instances", big)
        assert code == 413 and "cap" in body["error"]

        # 503 + Retry-After: saturate the admission gate
        server.manager._inflight.limit = 0
        code, body, headers = _call(
            port, "POST", "/sessions",
            {"query": CHAOS_QUERY, "instance": "db"},
        )
        assert code == 503 and body.get("shed") is True
        assert int(headers["Retry-After"]) >= 1
        server.manager._inflight.limit = None

        # 504: a zero deadline times every request out, caches untouched
        server.deadline_ms = 0.0
        code, body, _h = _call(
            port, "POST", "/sessions",
            {"query": CHAOS_QUERY, "instance": "db"},
        )
        assert code == 504 and body.get("deadline") is True
        server.deadline_ms = None

        # ...and the very same open succeeds once the deadline is lifted
        code, opened, _h = _call(
            port, "POST", "/sessions",
            {"query": CHAOS_QUERY, "instance": "db"},
        )
        assert code == 201
        code, page, _h = _call(
            port, "GET", f"/sessions/{opened['session']}/page?size=10"
        )
        assert code == 200 and page["answers"]
    finally:
        server.shutdown()
        server.server_close()


def test_http_stalled_body_times_out_with_408():
    server, port = _start_server(socket_timeout=0.3)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Host: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n"
                b"\r\n"
            )  # promise a body, never send it
            sock.settimeout(5)
            response = sock.recv(4_096).decode("utf-8", "replace")
        assert "408" in response.splitlines()[0]
    finally:
        server.shutdown()
        server.server_close()


def test_http_stalled_headers_time_out_with_408():
    """A client that sends the request line and stalls inside the headers
    gets 408 and a closed connection; a keep-alive connection that sends
    nothing at all is still closed without a reply."""
    server, port = _start_server(socket_timeout=0.3)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            sock.settimeout(5)
            response = b""
            while chunk := sock.recv(4_096):  # until the server hangs up
                response += chunk
        head, _, body = response.decode("utf-8", "replace").partition(
            "\r\n\r\n"
        )
        assert "408" in head.splitlines()[0]
        assert "timed out" in json.loads(body)["error"]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.settimeout(5)
            assert sock.recv(4_096) == b""
    finally:
        server.shutdown()
        server.server_close()


# --------------------------------------------------------------------- #
# retry backoff capped by the request deadline


@pytest.mark.parametrize("pool,workers", [("thread", 2), ("serial", 1)])
def test_crashing_shard_backoff_capped_by_deadline(pool, workers):
    """A shard that crashes on every attempt must not let its retry
    backoff sleep past the request's deadline: the 30 s/round policy
    here would blow any 504 budget uncapped, so the capped backoff has
    to surface DeadlineExceededError within the budget's order of
    magnitude instead."""
    from repro.resilience import ShardRecovery

    cq, instance = _chaos_instance(n=120)
    probe = CDYEnumerator(cq, instance, pipeline="fused")
    plan = FaultPlan().crash(site="shard", worker=None, attempt=None)
    glacial = RetryPolicy(
        retries=3, base_delay_s=30.0, factor=1.0, max_delay_s=30.0
    )
    started = time.monotonic()
    with plan.installed():
        with pytest.raises(DeadlineExceededError):
            parallel_reduce(
                probe.tree,
                cq,
                instance,
                Interner(),
                workers=workers,
                decode_top=probe.ext.top_ids,
                pool=pool,
                recovery=ShardRecovery(retry=glacial),
                deadline=Deadline(0.3),
            )
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"backoff overshot the deadline: {elapsed:.1f}s"


def test_ground_columnar_deadline_threads_from_enumerator():
    """CDYEnumerator's incremental build grounds under the build
    deadline (an expired budget fails the build instead of being
    ignored)."""
    cq, instance = _chaos_instance(n=120)
    with pytest.raises(DeadlineExceededError):
        CDYEnumerator(cq, instance, incremental=True, deadline=Deadline(0.0))
