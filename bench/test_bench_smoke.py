"""Smoke test of the layered benchmark (collected by the tier-1 pytest run).

Runs ``bench/run.py --scale tiny`` for all four workloads plus a traced
run, and checks the output against ``BENCHMARK.json``: the result line
carries exactly the declared metrics, names and counts respect the
contract's limits, exact-count metrics repeat across two equal-seed runs,
and the server child, its port and the helper processes are gone
afterwards. Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: per-layer metrics that are exact counts: they must repeat exactly
EXACT = ("yannakakis.preprocess_steps_per_tuple", "yannakakis.max_delay_steps",
         "engine.ladder.rebase", "engine.ladder.miss", "serving.sheds")


def _start(workload: str, out: Path, trace: int) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--scale", "tiny", "--seconds", "1", "--seed", "7",
         "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def _finish(proc: subprocess.Popen, out: Path) -> tuple[dict, dict]:
    """``(result line, full record)`` of a finished run; asserts exit 0."""
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr[-2000:] + stdout[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text().strip().splitlines()[-1])
    return result, record


def test_benchmark_json_respects_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tiny_runs_validate_against_benchmark_json(tmp_path):
    untraced = {w: _start(w, tmp_path / f"{w}.jsonl", 0) for w in WORKLOADS}
    traced_out = tmp_path / "traced.jsonl"
    first = _finish(_start("update_mix", traced_out, 1), traced_out)
    second = _finish(_start("update_mix", traced_out, 1), traced_out)

    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    records = []
    for workload, proc in untraced.items():
        result, record = _finish(proc, tmp_path / f"{workload}.jsonl")
        records.append(record)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert record["workload"] == workload and record["seed"] == 7
        assert re.fullmatch(r"[0-9a-f]{16}", record["answers_checksum"])

    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result, record in (first, second):
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
        records.append(record)
    for name in EXACT:
        assert first[0]["metrics"][name] == second[0]["metrics"][name], name
    assert first[1]["answers_checksum"] == second[1]["answers_checksum"]

    spans = [json.loads(line) for line in
             (BENCH / "out" / "trace-update_mix.jsonl").read_text().splitlines()]
    assert spans and all(
        {"id", "name", "start", "end", "parent", "op_id"} <= set(s)
        for s in spans)
    assert any(s.get("replay") and s["parent"] is not None for s in spans)

    # the server child, its port and every helper process (the traced
    # run's multiprocessing resource tracker) are gone
    assert first[1]["stopped_pids"]
    for record in records:
        port = record["server"]["port"]
        for pid in [record["server"]["pid"], *record["stopped_pids"]]:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                pass
            else:
                raise AssertionError(f"child process {pid} is still alive")
        with socket.socket() as probe:
            assert probe.connect_ex(("127.0.0.1", port)) != 0
