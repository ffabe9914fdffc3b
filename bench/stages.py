"""The three timed stages every workload runs, measured from outside
through the system's public entry points.

* **cold** — fresh ``Engine`` per query: text -> first answer -> drain
  (-> ``order_by`` drain), then one ``execute_many`` batch.
* **serve** — a ``python -m repro serve`` child, two closed-loop
  keep-alive ``http.client`` connections with plain socket defaults.
* **update** — an in-process ``SessionManager``: delta -> open -> first
  page, a count, and an expected fence.

Each stage loops until its share of the measured window is used and
returns raw samples; ``run.py`` turns them into the named metrics.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.engine import Engine
from repro.exceptions import CursorFencedError
from repro.query import parse_ucq

from spans import ROOT

#: closed-loop clients: a single load-generating process, at most nproc
CLIENTS = max(1, min(2, os.cpu_count() or 1))
PAGES_PER_SESSION = 20
#: every 5th page fetch drops the session and resumes from its last token
RESUME_EVERY = 5
#: update stage: count on every 4th iteration, expected fence on every 10th
COUNT_EVERY = 4
FENCE_EVERY = 10
UPDATE_WARMUP_ITERS = 10
#: cold stage: ordered drains and batches run twice, shorter ones more
MIN_OP_S = 0.3
MAX_REPEATS = 5
_END = object()


# ---------------------------------------------------------------------- #
# cold stage


@dataclass
class ColdRound:
    """One pass over the workload's cold items plus its batch."""

    ttfa_s: float = 0.0
    answers: int = 0
    drain_s: float = 0.0
    ordered_answers: int = 0
    ordered_s: float = 0.0
    batch_queries: int = 0
    batch_s: float = 0.0
    #: per-item ``(ttfa_s, answers, drain_s)`` for the report and the trace
    items: dict = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        """Time in timed operations (a first round also runs the checks)."""
        return self.ttfa_s + self.drain_s + self.ordered_s + self.batch_s


def _repeat(op, tracer, name: str, **counts) -> tuple[float, int]:
    """Run ``op() -> work done`` twice, then until ``MIN_OP_S`` of it is
    timed (at most ``MAX_REPEATS`` times) -> ``(total seconds, total
    work)``. An operation is hit or missed by whole GC passes; summing
    repeats averages them in, so the throughput is the amortized one."""
    seconds, work = 0.0, 0
    for repeat in range(MAX_REPEATS):
        t0 = time.perf_counter()
        done = op()
        t1 = time.perf_counter()
        seconds += t1 - t0
        work += done
        if tracer.enabled:
            tracer.record(name, t0, t1, work=done, **counts)
        if repeat and seconds >= MIN_OP_S:
            break
    return seconds, work


def _cold_round(profile, checker, tracer, check: bool) -> ColdRound:
    out = ColdRound()
    for item in profile.cold:
        gc.collect()  # untimed: each query pays for its own garbage only
        t0 = time.perf_counter()
        engine = Engine()
        ucq = parse_ucq(item.text)
        stream = engine.execute(ucq, item.instance)
        first = next(stream, _END)
        t1 = time.perf_counter()
        natural = list(stream)
        t2 = time.perf_counter()
        if first is not _END:
            natural.insert(0, first)
        out.ttfa_s += t1 - t0
        out.answers += len(natural)
        out.drain_s += t2 - t1
        out.items[item.label] = (t1 - t0, len(natural), t2 - t1)
        ordered = None
        if item.order_by is not None:
            def ordered_drain():
                nonlocal ordered
                ordered = list(
                    engine.execute(ucq, item.instance, order_by=item.order_by)
                )
                return len(ordered)

            seconds, answers = _repeat(
                ordered_drain, tracer, "ordered_drain", item=item.label)
            out.ordered_answers += answers
            out.ordered_s += seconds
        if tracer.enabled:
            op = tracer.record("ttfa", t0, t1, item=item.label)
            tracer.record("drain", t1, t2, op_id=op, item=item.label,
                          answers=len(natural))
        if check:
            checker.cold_item(item, ucq, engine, natural, ordered)
        else:
            checker.ops(2 if ordered is None else 3)
        del natural, ordered

    del engine
    gc.collect()
    streams: list = []

    def batch():
        nonlocal streams
        engine = Engine()
        ucqs = [parse_ucq(text) for text in profile.batch_texts]
        streams = [
            list(s) for s in engine.execute_many(ucqs, profile.batch_instance)
        ]
        return len(ucqs)

    out.batch_s, out.batch_queries = _repeat(batch, tracer, "batch")
    if check:
        checker.batch_sample(
            profile.batch_texts, profile.batch_instance, streams,
            sample=4 if checker.tiny else 2,
        )
    else:
        checker.ops()
    return out


def cold_stage(profile, budget_s: float, checker, tracer) -> list[ColdRound]:
    """Rounds until the next one would not fit in *budget_s* (at least
    one). With three or more rounds the first is a discarded warm-up."""
    start = time.perf_counter()
    rounds: list[ColdRound] = []
    while True:
        rounds.append(_cold_round(profile, checker, tracer, check=not rounds))
        if time.perf_counter() - start + rounds[-1].timed_s > budget_s:
            break
    return rounds[1:] if len(rounds) >= 3 else rounds


# ---------------------------------------------------------------------- #
# serve stage


class ServerChild:
    """``python -u -m repro serve --data db=<file> --port 0`` as a child
    process; the URL is parsed from its stdout."""

    def __init__(self, data_path, timeout_s: float = 120.0) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else src
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--data", f"db={data_path}", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=str(ROOT),
        )
        self.host, self.port = "", 0
        self._listening = threading.Event()
        # keeps draining after the URL line so the child never blocks on
        # a full pipe; ends at the child's EOF
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._listening.wait(timeout_s) or not self.port:
            self.stop()
            raise RuntimeError("repro serve did not report a listening URL")

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            match = re.search(r"listening on http://([^:/\s]+):(\d+)", line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                self._listening.set()
        self._listening.set()  # EOF without a URL: unblock the waiter

    def connect(self) -> http.client.HTTPConnection:
        # plain defaults on purpose: no TCP_NODELAY / TCP_QUICKACK, the
        # system's socket write pattern must stay visible to the client
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(10)
        self.proc.stdout.close()


def http_json(conn, method: str, path: str, body: dict | None = None):
    """One request on a keep-alive connection -> ``(status, payload,
    t_written, t_read)``; the clock stops when the body is fully read,
    before it is parsed."""
    data = None if body is None else json.dumps(body).encode()
    t0 = time.perf_counter()
    conn.request(method, path, body=data,
                 headers={"Content-Type": "application/json"} if data else {})
    response = conn.getresponse()
    raw = response.read()
    t1 = time.perf_counter()
    return response.status, json.loads(raw), t0, t1


@dataclass
class ServeSamples:
    page_s: list = field(default_factory=list)
    resume_s: list = field(default_factory=list)
    count_s: list = field(default_factory=list)
    pages: int = 0
    window_s: float = 0.0


def _client_loop(server, text, page_size, oracle, checker, tracer,
                 warm_until, deadline, out: ServeSamples, lock) -> None:
    conn = server.connect()
    page_s, resume_s, count_s, open_s = [], [], [], []
    pages = 0
    last_end = warm_until

    def call(method, path, body=None, expect=200):
        status, payload, t0, t1 = http_json(conn, method, path, body)
        if status != expect:
            checker.fail(f"serve: {method} {path} -> {status}")
            return None, t0, t1
        checker.ops()
        return payload, t0, t1

    def timed(samples, name, t0, t1, **counts):
        nonlocal last_end
        if t0 >= warm_until:
            samples.append(t1 - t0)
            last_end = max(last_end, t1)
            if tracer.enabled:
                tracer.record(name, t0, t1, **counts)
            return True
        return False

    def over() -> bool:
        # a client never stops before it has a measured page and resume
        return bool(time.perf_counter() >= deadline and page_s and resume_s)

    try:
        while not over():
            opened, t0, t1 = call(
                "POST", "/sessions", {"query": text, "instance": "db"}, 201
            )
            if opened is None:
                break
            timed(open_s, "open_warm", t0, t1)
            sid, token, offset = opened["session"], None, 0
            for i in range(1, PAGES_PER_SESSION + 1):
                if over():
                    break
                path = f"/sessions/{sid}/page?size={page_size}"
                if i % RESUME_EVERY == 0 and token is not None:
                    # drop the live session, rebuild it from the token
                    call("POST", f"/sessions/{sid}/close")
                    resumed, t0, _ = call("POST", "/resume", {"cursor": token})
                    if resumed is None:
                        break
                    sid = resumed["session"]
                    page, _, t1 = call(
                        "GET", f"/sessions/{sid}/page?size={page_size}")
                    samples, name = resume_s, "resume"
                else:
                    page, t0, t1 = call("GET", path)
                    samples, name = page_s, "page"
                if page is None:
                    break
                if timed(samples, name, t0, t1, answers=len(page["answers"])):
                    pages += 1
                oracle.verify(page, offset)
                token, offset = page["cursor"], offset + len(page["answers"])
                if page["done"]:
                    break
            counted, t0, t1 = call(
                "POST", "/count", {"query": text, "instance": "db"})
            if counted is not None:
                timed(count_s, "count_http", t0, t1)
            call("POST", f"/sessions/{sid}/close")  # no body: none is read
    except (OSError, http.client.HTTPException, ValueError) as exc:
        checker.fail(f"serve: client loop died: {exc!r}")
    finally:
        conn.close()
    with lock:
        out.page_s += page_s
        out.resume_s += resume_s
        out.count_s += count_s
        out.pages += pages
        out.window_s = max(out.window_s, last_end - warm_until)


def serve_stage(server, text, page_size, budget_s, oracle, checker,
                tracer) -> ServeSamples:
    """Closed loop on ``CLIENTS`` connections; the first 15% of the
    budget is warm-up and is not measured."""
    out, lock = ServeSamples(), threading.Lock()
    start = time.perf_counter()
    args = (server, text, page_size, oracle, checker, tracer,
            start + 0.15 * budget_s, start + budget_s, out, lock)
    threads = [
        threading.Thread(target=_client_loop, args=args)
        for _ in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


# ---------------------------------------------------------------------- #
# update stage


@dataclass
class UpdateSamples:
    visible_s: list = field(default_factory=list)
    count_s: list = field(default_factory=list)
    delta_tuples: int = 0
    ladder: dict = field(default_factory=dict)


def ladder_counts(stats_before: dict, stats_after: dict) -> dict:
    """Cache-ladder outcomes between two ``engine.cache_info()`` reads."""
    d = {k: stats_after[k] - stats_before[k]
         for k in ("prep_hits", "prep_misses", "delta_applies", "rebases")}
    return {
        "hit": d["prep_hits"] - d["delta_applies"],
        "delta": d["delta_applies"],
        "rebase": d["rebases"],
        "miss": d["prep_misses"] - d["rebases"],
    }


def update_stage(manager, instance_id, text, deltas, page, budget_s,
                 checker, tracer) -> UpdateSamples:
    """Delta -> open -> first page until *budget_s* is used; the first
    iterations are a discarded warm-up."""
    out = UpdateSamples()
    before = manager.engine.cache_info()
    deadline = time.perf_counter() + budget_s
    iteration = 0
    # never stops before a few measured iterations and one measured count
    while (time.perf_counter() < deadline
           or iteration < UPDATE_WARMUP_ITERS + 2 * COUNT_EVERY):
        batch, size = deltas.next_batch()
        stale = None
        if iteration % FENCE_EVERY == 0:
            session = manager.open(text, instance_id)
            stale = manager.fetch(session.session_id, page).cursor
        t0 = time.perf_counter()
        applied = manager.apply_delta(instance_id, batch)
        session = manager.open(text, instance_id)
        manager.fetch(session.session_id, page)
        t1 = time.perf_counter()
        measured = iteration >= UPDATE_WARMUP_ITERS
        if measured:
            out.visible_s.append(t1 - t0)
            out.delta_tuples += size
            if tracer.enabled:
                tracer.record("update_visible", t0, t1, delta=size)
        checker.expect(applied["changed"] == size,
                       "update: batch did not fully take effect")
        if iteration % COUNT_EVERY == 0:
            t2 = time.perf_counter()
            manager.count(text, instance_id)
            t3 = time.perf_counter()
            checker.ops()
            if measured:
                out.count_s.append(t3 - t2)
                if tracer.enabled:
                    tracer.record("count", t2, t3)
        if stale is not None:
            try:
                manager.resume(stale)
            except CursorFencedError:
                checker.ops()  # the expected outcome
            else:
                checker.fail("update: pre-delta token was not fenced")
        iteration += 1
    out.ladder = ladder_counts(before, manager.engine.cache_info())
    return out
