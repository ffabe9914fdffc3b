"""The layered benchmark: one command, four workloads, named metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--scale full|tiny] [--out FILE]

Prints every metric by name with its unit and sample count, checks the
outputs for correctness, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` (the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``). Exits non-zero when any operation or check failed. See
``bench/README.md`` for what each metric means and how it is measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.serving import SessionManager  # noqa: E402

import layers  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402
from check import Checker, PageOracle  # noqa: E402
from spans import (  # noqa: E402
    OUT_DIR, ROOT, Tracer, calib_loop_ms, env_block, percentile, samples_beyond,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: set-ups per run (median reported); one at tiny scale and when tracing,
#: where ``setup_s`` is not the point
SETUP_ROUNDS = 3


@dataclass
class State:
    """What one set-up leaves behind for the timed stages."""

    profile: workloads.Profile
    data_path: Path
    server: stages.ServerChild
    manager: SessionManager

    def tear_down(self) -> None:
        self.server.stop()


def set_up(name: str, seed: int, scale: str, tmp: Path) -> State:
    """Everything before the first timed operation: generate the inputs,
    dump the served instance, start the server child and pay its one cold
    open, prepare the update stage's state in-process."""
    profile = workloads.build(name, seed, scale)
    data_path = tmp / "serve.json"
    with open(data_path, "w") as out:
        json.dump(
            {sym: list(rel.tuples)
             for sym, rel in profile.serve_instance.relations.items()},
            out,
        )
    server = stages.ServerChild(data_path)
    try:
        conn = server.connect()
        status, opened, _, _ = stages.http_json(
            conn, "POST", "/sessions",
            {"query": profile.serve_text, "instance": "db"},
        )
        if status != 201:
            raise RuntimeError(f"cold open over HTTP failed: {status} {opened}")
        stages.http_json(conn, "GET", f"/sessions/{opened['session']}/page")
        conn.close()
        manager = SessionManager()
        manager.register(profile.update_instance, "db")
        session = manager.open(profile.update_text, "db")
        manager.fetch(session.session_id, profile.scale["update_page"])
    except BaseException:
        server.stop()
        raise
    return State(profile, data_path, server, manager)


def _children() -> list[int]:
    """Pids whose parent is this process (live or not yet reaped)."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = stat.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue  # gone between the listing and the read
        if ppid == me:
            found.append(int(entry))
    return found


def stop_children(checker: Checker) -> list[int]:
    """No process a run started may outlive it -> the pids stopped here.

    ``multiprocessing``'s resource tracker (spawned by the shared-memory
    segments of the traced run's parallel-build probe) ends only once its
    pipe closes, which by default is after this process has exited: close
    it and wait. Any other child still around is a leak: it is killed,
    waited for, and fails the run."""
    stopped = []
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        stopped.append(tracker._pid)
        tracker._stop()  # closes the pipe, then waitpid
    for pid in _children():
        checker.fail(f"child process {pid} was still running at the end")
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
        stopped.append(pid)
    return stopped


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(setups, rounds, serve, update, state) -> dict:
    """The named end-to-end metrics from the stages' raw samples."""
    ms = 1e3
    rss = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        + state.server.peak_rss_mb()
    )
    visible_total = sum(update.visible_s)
    return {
        "setup_s": _metric(median(setups), "s", len(setups)),
        "ttfa_p50_s": _metric(
            median(r.ttfa_s for r in rounds), "s", len(rounds)),
        "answers_per_s": _metric(
            median(r.answers / r.drain_s for r in rounds), "1/s", len(rounds)),
        "ordered_answers_per_s": _metric(
            median(r.ordered_answers / r.ordered_s for r in rounds),
            "1/s", len(rounds)),
        "batch_queries_per_s": _metric(
            median(r.batch_queries / r.batch_s for r in rounds),
            "1/s", len(rounds)),
        "page_p50_ms": _metric(
            median(serve.page_s) * ms, "ms", len(serve.page_s)),
        "page_p90_ms": _metric(
            percentile(serve.page_s, 90) * ms, "ms", len(serve.page_s)),
        "pages_per_s": _metric(serve.pages / serve.window_s, "1/s", serve.pages),
        "resume_p50_ms": _metric(
            median(serve.resume_s) * ms, "ms", len(serve.resume_s)),
        "update_visible_p50_ms": _metric(
            median(update.visible_s) * ms, "ms", len(update.visible_s)),
        "update_visible_p95_ms": _metric(
            percentile(update.visible_s, 95) * ms, "ms", len(update.visible_s)),
        "delta_tuples_per_s": _metric(
            update.delta_tuples / visible_total, "1/s", update.delta_tuples),
        "count_p50_ms": _metric(
            median(update.count_s) * ms, "ms", len(update.count_s)),
        "peak_rss_mb": _metric(rss, "MB", 1),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    tiny = scale == "tiny"
    checker = Checker(tiny)
    tracer = Tracer(trace)
    tmp = OUT_DIR / f"tmp-{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    state = None
    stopped: list[int] = []
    try:
        setups = []
        for _ in range(1 if tiny or trace else SETUP_ROUNDS):
            if state is not None:
                state.tear_down()
                state = None
                gc.collect()
            t0 = time.perf_counter()
            state = set_up(name, seed, scale, tmp)
            setups.append(time.perf_counter() - t0)
        profile = state.profile
        page_size = profile.scale["page_size"]
        oracle = PageOracle(
            checker, profile.serve_text, state.data_path,
            limit=(stages.PAGES_PER_SESSION + 1) * page_size,
        )
        deltas = workloads.DeltaStream(
            workloads.rng_for(seed, name, "deltas"), profile.update_instance,
            "RST", profile.update_domain,
        )
        gc.collect()
        gc.freeze()

        shares = profile.shares
        window_start = time.perf_counter()
        rounds = stages.cold_stage(
            profile, seconds * shares["cold"], checker, tracer)
        gc.collect()  # untimed: a stage starts from its own garbage only
        serve = stages.serve_stage(
            state.server, profile.serve_text, page_size,
            seconds * shares["serve"], oracle, checker, tracer)
        gc.collect()
        update = stages.update_stage(
            state.manager, "db", profile.update_text, deltas,
            profile.scale["update_page"], seconds * shares["update"],
            checker, tracer)
        window_s = time.perf_counter() - window_start
        checker.update_final(
            state.manager, "db", profile.update_text, profile.update_instance,
            update.ladder["rebase"] + update.ladder["miss"],
            profile.scale["update_page"])

        metrics = end_to_end(setups, rounds, serve, update, state)
        info = state.manager.cache_info()
        counts = {
            "engine.ladder." + k: v for k, v in update.ladder.items()
        }
        counts["serving.fences"] = info["fences"]
        counts["serving.sheds"] = info["sheds"]
        per_layer = detail = None
        if trace:
            probed = layers.probe(
                state, seed, rounds, serve, counts, window_s, tracer, checker)
            per_layer, detail = probed.metrics, probed.detail
            tracer.write(OUT_DIR / f"trace-{name}.jsonl")
        server_info = {"pid": state.server.proc.pid, "port": state.server.port}
    finally:
        if state is not None:
            state.tear_down()
        stopped = stop_children(checker)
        gc.unfreeze()
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "seconds": seconds,
        "window_s": window_s,
        "env": {**env_block(seed, scale), "calib_loop_ms": calib_loop_ms()},
        "metrics": metrics,
        "per_layer": per_layer,
        "per_layer_detail": detail,
        "counts": counts,
        "cold_items": {
            label: {"ttfa_s": median(r.items[label][0] for r in rounds),
                    "answers": rounds[0].items[label][1],
                    "drain_s": median(r.items[label][2] for r in rounds)}
            for label in rounds[0].items
        },
        "answers_checksum": f"{checker.checksum:016x}",
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "server": server_info,
        "stopped_pids": stopped,
    }


def report(record: dict) -> None:
    """Every metric by name, with unit and sample count."""
    name = record["workload"]
    print(f"== {name} seed={record['seed']} scale={record['scale']} "
          f"trace={int(record['trace'])} window={record['window_s']:.1f}s")
    for key, value in record["env"].items():
        print(f"  env.{key} = {value}")
    label = "end-to-end (traced: not comparable)" if record["trace"] \
        else "end-to-end"
    print(f"  -- {label}")
    for metric, m in record["metrics"].items():
        note = ""
        tail = re.search(r"_p(9\d)_", metric)
        if tail and samples_beyond(m["n"], int(tail.group(1))) < 10:
            note = "  (fewer than 10 samples beyond the percentile)"
        print(f"  {metric:28s} {m['value']:14.4f} {m['unit']:5s} n={m['n']}{note}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'failed_ops_ratio':28s} {ratio:14.6f} ratio "
          f"n={record['attempted']}")
    print("  -- cold items (median over rounds)")
    for label, item in record["cold_items"].items():
        print(f"  {label:20s} ttfa={item['ttfa_s']:.4f}s "
              f"answers={item['answers']} drain={item['drain_s']:.4f}s")
    print("  -- counts")
    for key, value in record["counts"].items():
        print(f"  {key:28s} {value}")
    if record["per_layer"] is not None:
        print("  -- per-layer (traced run)")
        for metric, m in record["per_layer"].items():
            print(f"  {metric:44s} {m['value']:16.4f} {m['unit']}")
        for key, value in record["per_layer_detail"].items():
            print(f"  {key:44s} {value}")
    print(f"  answers_checksum = {record['answers_checksum']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def result_line(record: dict) -> str:
    """The contract's last line: exactly the declared metric names."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    source = record["per_layer"] if record["trace"] else record["metrics"]
    metrics = {}
    for spec in SPEC[kind]:
        m = source[spec["name"]]
        if m["unit"] != spec["unit"]:
            raise SystemExit(f"unit drift on {spec['name']}")
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measured window per workload")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="1: traced run, per-layer metrics and a trace file")
    parser.add_argument("--scale", choices=tuple(workloads.SCALES),
                        default="full")
    parser.add_argument("--out", help="append one JSON record per workload")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    failed = 0
    line = ""
    for name in names:
        record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.scale)
        report(record)
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")
        failed += record["failed"]
        line = result_line(record)
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
