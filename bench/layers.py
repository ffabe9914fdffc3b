"""Per-layer metrics of the traced run.

The layers are nested inside ``Engine.execute`` / ``SessionManager``
calls, so from outside they can only be timed by *replaying* them: each
probe below calls one layer's public function on the inputs the workload
just ran end to end, and records a span whose parent is the end-to-end
operation it explains. Names are the repo's packages; a later ``obs``
module inside ``src/repro`` must reuse them.
"""

from __future__ import annotations

import json
import random
import re
import time
import tracemalloc
from statistics import median

from repro.core import UCQEnumerator, classify
from repro.database.interner import Interner
from repro.engine import Engine
from repro.engine.signature import structural_signature
from repro.enumeration.delay import profile_steps
from repro.enumeration.union_all import enumerate_union_of_tractable
from repro.hypergraph import Hypergraph, build_ext_connex_tree
from repro.query import parse_ucq
from repro.serving import CursorToken, SessionManager
from repro.yannakakis import CDYEnumerator, fused_reduce, ground_atoms_columnar

import workloads
from spans import calib_loop_ms

#: answers walked by the per-answer probes (or the whole stream if shorter)
WALK_ANSWERS = 200_000
#: answers profiled step by step for ``yannakakis.max_delay_steps``
STEP_ANSWERS = 20_000


def _timed(fn, reps: int = 1):
    """``(median seconds, last result)`` of *reps* calls."""
    times, result = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return median(times), result


def _rename_variables(text: str) -> str:
    """An isomorphic copy: every variable (lower-case identifier) renamed."""
    return re.sub(r"\b([a-z]\w*)\b", r"\1_r", text)


def _walk(iterator, limit: int = 10**12) -> int:
    """Step *iterator* through ``__next__`` up to *limit* answers."""
    n = 0
    for _ in iterator:
        n += 1
        if n >= limit:
            break
    return n


class _Probe:
    """Collects metrics and records one replay span per probe."""

    def __init__(self, tracer, checker) -> None:
        self.tracer = tracer
        self.checker = checker
        self.metrics: dict[str, dict] = {}
        #: per-item breakdowns printed in the report, not in the result line
        self.detail: dict[str, float] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def root(self, name: str, **match):
        """The first end-to-end span called *name* whose counts match."""
        for span in self.tracer.spans:
            if span["name"] == name and all(
                span.get(k) == v for k, v in match.items()
            ):
                return span
        return None

    def replay(self, layer: str, fn, parent=None, reps: int = 1):
        """Time ``fn`` as a child span of the end-to-end span *parent*."""
        t0 = time.perf_counter()
        seconds, result = _timed(fn, reps)
        self.tracer.record(
            layer, t0, t0 + seconds,
            parent=parent and parent["id"], op_id=parent and parent["op_id"],
            replay=True,
        )
        return seconds, result


def _cold_layers(p: _Probe, profile, rounds) -> None:
    """query / core / engine.plan layers on every cold item; grounding,
    interning and the builds on the CQs the engine builds CDY state for."""
    parse_s = classify_s = plan_cold_s = plan_hit_s = plan_iso_s = 0.0
    ground_tuples = ground_s = intern_values = intern_s = 0.0
    reduce_tuples = reduce_s = fused_s = incremental_s = 0.0
    unattributed = 0.0
    cq_items = []
    for item in profile.cold:
        root = p.root("ttfa", item=item.label)
        parsed, ucq = p.replay(
            "query.parse", lambda: parse_ucq(item.text), root, 20)
        parse_s += parsed
        s, _ = p.replay("core.classify", lambda: classify(ucq), root)
        classify_s += s
        engine = Engine()
        cold, _ = p.replay("engine.plan_cold", lambda: engine.plan(ucq), root)
        plan_cold_s += cold
        s, _ = _timed(lambda: engine.plan(ucq), 50)
        plan_hit_s += s
        renamed = parse_ucq(_rename_variables(item.text))
        s, _ = _timed(lambda: engine.plan(renamed), 50)
        plan_iso_s += s
        if engine.plan(ucq).kind.value not in ("cdy", "algorithm1"):
            continue  # Theorem 12 / naive: no CDY build to replay
        built_s = first_s = 0.0
        inst = item.instance
        for cq in ucq.cqs:  # the members the engine builds for this plan
            if len(ucq.cqs) == 1:
                cq_items.append((item, cq))
            tuples = sum(len(inst.get(a.relation)) for a in cq.atoms)

            columns = [
                col for sym in sorted(cq.schema)
                for col in zip(*inst.get(sym).tuples)
            ]
            interner = Interner()
            s, _ = p.replay(
                "database.intern",
                lambda: [interner.intern_column(c) for c in columns], root)
            intern_s += s
            intern_values += sum(len(c) for c in columns)

            interner = Interner()
            s, grounded = p.replay(
                "yannakakis.ground",
                lambda: ground_atoms_columnar(cq, inst, interner), root)
            ground_s += s
            ground_tuples += tuples
            ext = build_ext_connex_tree(
                Hypergraph.from_edges(g.variable_set for g in grounded),
                cq.free)
            s, _ = p.replay(
                "yannakakis.fused_reduce",
                lambda: fused_reduce(ext.tree, grounded, interner,
                                     decode_top=ext.top_ids), root)
            reduce_s += s
            reduce_tuples += tuples
            del grounded, interner, columns

            s, _ = p.replay(
                "yannakakis.build_fused",
                lambda: CDYEnumerator(cq, inst, output_order=ucq.head,
                                      pipeline="fused"), root)
            fused_s += s
            p.detail[f"yannakakis.build_fused_s.{item.label}"] = (
                p.detail.get(f"yannakakis.build_fused_s.{item.label}", 0) + s)
            s, enum = p.replay(
                "yannakakis.build_incremental",
                lambda: CDYEnumerator(cq, inst, output_order=ucq.head,
                                      incremental=True), root)
            built_s += s
            s, _ = p.replay("yannakakis.first_answer",
                            lambda: next(iter(enum), None), root)
            first_s += s
            del enum
        incremental_s += built_s
        p.detail[f"yannakakis.build_incremental_s.{item.label}"] = built_s
        ttfa = median(r.items[item.label][0] for r in rounds)
        unattributed += ttfa - (parsed + cold + built_s + first_s)

    p.put("query.parse_us", parse_s / len(profile.cold) * 1e6, "us")
    p.put("core.classify_ms", classify_s * 1e3, "ms")
    p.put("engine.plan_cold_ms", plan_cold_s * 1e3, "ms")
    p.put("engine.plan_hit_us", plan_hit_s / len(profile.cold) * 1e6, "us")
    p.put("engine.plan_iso_hit_us", plan_iso_s / len(profile.cold) * 1e6, "us")
    p.put("yannakakis.ground_tuples_per_s", ground_tuples / ground_s, "1/s")
    p.put("database.intern_values_per_s", intern_values / intern_s, "1/s")
    p.put("yannakakis.fused_reduce_tuples_per_s", reduce_tuples / reduce_s,
          "1/s")
    p.put("yannakakis.build_fused_s", fused_s, "s")
    p.put("yannakakis.build_incremental_s", incremental_s, "s")
    p.put("engine.unattributed_s", unattributed, "s")

    # the remaining build probes run on the first single-CQ item only
    item, cq = cq_items[0]
    inst = item.instance
    tuples = sum(len(inst.get(a.relation)) for a in cq.atoms)
    root = p.root("ttfa", item=item.label)
    s, enum = p.replay(
        "yannakakis.build_parallel2",
        lambda: CDYEnumerator(cq, inst, pipeline="parallel", workers=2), root)
    p.put("yannakakis.build_parallel2_s", s, "s")
    del enum
    backend = Engine(workers=2).backend
    p.detail["engine.backend_kind"] = backend.kind
    p.put("engine.backend_workers", backend.workers, "count")

    tracemalloc.start()
    enum = CDYEnumerator(cq, inst, incremental=True)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del enum
    p.put("yannakakis.build_peak_bytes_per_tuple", peak / tuples, "B")

    profile_ = profile_steps(
        lambda counter: CDYEnumerator(cq, inst, counter=counter),
        keep_results=False, limit=STEP_ANSWERS)
    p.put("yannakakis.preprocess_steps_per_tuple",
          profile_.preprocessing / tuples, "count")
    p.put("yannakakis.max_delay_steps", profile_.max_delay, "count")

    # the unordered walk, on the single-CQ item with the most answers
    item, cq = max(cq_items, key=lambda ic: rounds[0].items[ic[0].label][1])
    enum = CDYEnumerator(cq, item.instance, incremental=True)
    seconds, n = p.replay(
        "yannakakis.walk", lambda: _walk(iter(enum), WALK_ANSWERS),
        p.root("drain", item=item.label))
    p.put("yannakakis.walk_ns_per_answer", seconds / max(1, n) * 1e9, "ns")

    # the sorted-group walk, on the first ordered item, through the
    # enumerator (and join tree) the engine itself prepares
    item = next(i for i in profile.cold if i.order_by is not None)
    prepared = Engine().prepare(
        parse_ucq(item.text), item.instance, order_by=item.order_by)
    enum, order = prepared.enumerator, prepared.order_by
    root = p.root("ordered_drain", item=item.label)
    first, n = p.replay(
        "yannakakis.ordered_walk_first",
        lambda: _walk(enum.cursor(order_by=order), WALK_ANSWERS), root)
    second, n = p.replay(
        "yannakakis.ordered_walk",
        lambda: _walk(enum.cursor(order_by=order), WALK_ANSWERS), root)
    p.put("yannakakis.ordered_ns_per_answer", second / max(1, n) * 1e9, "ns")
    p.put("yannakakis.sorted_levels_first_touch_ms",
          max(0.0, first - second) * 1e3, "ms")


def _union_layers(p: _Probe, profile) -> None:
    """enumeration.union_all on the Theorem-4 union, core.ucq_enum on the
    Theorem-12 one."""
    item = profile.thm4
    ucq = parse_ucq(item.text)
    union = enumerate_union_of_tractable(ucq, item.instance)
    drain = p.root("drain", item=item.label)
    seconds, answers = p.replay("enumeration.union", lambda: list(union), drain)
    p.put("enumeration.union_ns_per_answer",
          seconds / max(1, len(answers)) * 1e9, "ns")
    rng = random.Random(len(answers))
    known = set(answers)
    domain = 1 + max(v for t in item.instance.get("R").tuples for v in t)
    probes = rng.sample(answers, min(1000, len(answers)))
    while len(probes) < 2000:
        t = (rng.randrange(domain), rng.randrange(domain))
        if t not in known:
            probes.append(t)
    seconds, hits = p.replay(
        "enumeration.union_contains",
        lambda: sum(union.contains(t) for t in probes), drain)
    p.checker.expect(hits == min(1000, len(answers)),
                     "union contains() disagrees with its own stream")
    p.put("enumeration.union_contains_ns", seconds / len(probes) * 1e9, "ns")

    item = profile.thm12
    ucq = parse_ucq(item.text)
    seconds, n = p.replay(
        "core.ucq_enum", lambda: _walk(iter(UCQEnumerator(ucq, item.instance))),
        p.root("drain", item=item.label))
    p.put("core.ucq_enum_ns_per_answer", seconds / max(1, n) * 1e9, "ns")


def _batch_layers(p: _Probe, profile) -> None:
    ucqs = [parse_ucq(text) for text in profile.batch_texts]
    engine = Engine()
    seconds, _ = p.replay(
        "engine.prepare_many",
        lambda: engine.prepare_many(ucqs, profile.batch_instance),
        p.root("batch"))
    info = engine.cache_info()
    touched = info["fragment_hits"] + info["fragment_builds"]
    p.put("engine.fragment_build_ms", seconds * 1e3, "ms")
    p.put("engine.fragment_hit_ratio",
          info["fragment_hits"] / touched if touched else 0.0, "ratio")


def _serve_layers(p: _Probe, profile, serve) -> None:
    """engine warm paths, the cursor walk and the serving layer in-process,
    on the state the HTTP child serves."""
    text, inst = profile.serve_text, profile.serve_instance
    page_size = profile.scale["page_size"]
    ucq = parse_ucq(text)
    root = p.root("page")
    s, _ = _timed(lambda: structural_signature(ucq), 200)
    p.put("engine.signature_us", s * 1e6, "us")

    manager = SessionManager()
    manager.register(inst, "db")
    manager.open(text, "db")  # the one cold open
    s, _ = _timed(lambda: manager.engine.prepare(ucq, inst), 200)
    p.put("engine.prepared_hit_us", s * 1e6, "us")
    s, session = p.replay(
        "serving.open_warm", lambda: manager.open(text, "db"),
        p.root("open_warm"), 50)
    p.put("serving.open_warm_us", s * 1e6, "us")
    s, page = p.replay(
        "serving.fetch_inproc",
        lambda: manager.fetch(session.session_id, page_size), root, 30)
    fetch_s = s
    p.put("serving.fetch_inproc_us", s * 1e6, "us")
    s, _ = p.replay(
        "serving.page_json", lambda: json.dumps(page.as_dict()), root, 30)
    json_s = s
    p.put("serving.page_json_us", s * 1e6, "us")

    def resume_and_fetch():
        revived = manager.resume(page.cursor)
        return manager.fetch(revived.session_id, page_size)

    s, _ = p.replay("serving.resume_inproc", resume_and_fetch,
                    p.root("resume"), 30)
    p.put("serving.resume_inproc_us", s * 1e6, "us")
    s, token = _timed(lambda: CursorToken.decode(page.cursor), 200)
    p.put("serving.token_decode_us", s * 1e6, "us")
    s, _ = _timed(token.encode, 200)
    p.put("serving.token_encode_us", s * 1e6, "us")
    p.put("serving.http_overhead_ms",
          (median(serve.page_s) - fetch_s - json_s) * 1e3, "ms")
    p.put("serving.count_http_ms", median(serve.count_s) * 1e3, "ms")

    enum = manager.engine.prepare(ucq, inst).enumerator
    cursor = enum.cursor()
    seconds, n = p.replay(
        "yannakakis.cursor_walk", lambda: _walk(cursor, WALK_ANSWERS), root)
    p.put("yannakakis.cursor_ns_per_answer", seconds / max(1, n) * 1e9, "ns")
    state = cursor.checkpoint()
    s, _ = _timed(lambda: enum.cursor(state), 200)
    p.put("yannakakis.cursor_rehydrate_us", s * 1e6, "us")


def _update_layers(p: _Probe, profile, state, seed: int) -> None:
    """database / yannakakis delta layers on a private copy of the update
    stage's instance; the engine's count right after a delta on the real one."""
    ucq = parse_ucq(profile.update_text)
    cq = ucq.cqs[0]
    inst = profile.update_instance.snapshot()
    enum = CDYEnumerator(cq, inst, incremental=True)
    root = p.root("update_visible")
    s, _ = p.replay("yannakakis.count",
                    lambda: enum.count_answers(refresh=True), p.root("count"), 5)
    p.put("yannakakis.count_us", s * 1e6, "us")

    deltas = workloads.DeltaStream(
        workloads.rng_for(seed, profile.name, "layer-deltas"), inst, "RST",
        profile.update_domain)
    batch_s = batch_tuples = 0.0
    for large in (False, True):
        apply_times = []
        for _ in range(20):
            batch, size = deltas.next_batch(large)
            vector = inst.version_vector(cq.schema)
            t0 = time.perf_counter()
            for sym, (adds, removes) in batch.items():
                inst.get(sym).apply_batch(adds, removes)
            diff = inst.diff_since(vector)
            t1 = time.perf_counter()
            enum.apply_deltas(diff)
            t2 = time.perf_counter()
            batch_s += t1 - t0
            batch_tuples += size
            apply_times.append(t2 - t1)
            p.tracer.record(
                "yannakakis.apply_deltas", t1, t2, parent=root and root["id"],
                op_id=root and root["op_id"], replay=True, delta=size)
        p.put("yannakakis.apply_deltas_us_per_tuple."
              + ("large" if large else "small"),
              median(apply_times) / size * 1e6, "us")
    p.put("database.apply_batch_us_per_tuple", batch_s / batch_tuples * 1e6,
          "us")

    live = workloads.DeltaStream(
        workloads.rng_for(seed, profile.name, "count-deltas"),
        profile.update_instance, "RST", profile.update_domain)
    times = []
    for _ in range(5):
        batch, _ = live.next_batch(large=False)
        state.manager.apply_delta("db", batch)
        t0 = time.perf_counter()
        state.manager.engine.count(ucq, profile.update_instance)
        times.append(time.perf_counter() - t0)
    p.put("engine.count_ms", median(times) * 1e3, "ms")


def probe(state, seed, rounds, serve, counts, window_s, tracer,
          checker) -> _Probe:
    """Run every per-layer probe on *state*'s inputs."""
    profile = state.profile
    p = _Probe(tracer, checker)
    window_spans = len(tracer.spans)
    _cold_layers(p, profile, rounds)
    _union_layers(p, profile)
    _batch_layers(p, profile)
    _serve_layers(p, profile, serve)
    _update_layers(p, profile, state, seed)
    for name, value in counts.items():
        p.put(name, value, "count")
    p.put("env.calib_loop_ms", calib_loop_ms(), "ms")
    # spans are two clock reads and a list append recorded after the
    # fact; their cost relative to the window is the tracing overhead
    scratch = type(tracer)(True)
    record_s, _ = _timed(lambda: scratch.record("x", 0.0, 0.0, answers=1), 2000)
    p.put("trace.overhead_ratio", 1 + window_spans * record_s / window_s,
          "ratio")
    return p
