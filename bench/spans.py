"""Harness plumbing: spans kept in memory, sample statistics, the
environment block and the cross-machine calibration loop."""

from __future__ import annotations

import itertools
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.runtime import runtime_info

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

class Tracer:
    """Spans around end-to-end operations and the layer replays under them.

    A span is ``{id, name, start, end, parent, op_id}`` plus any counts
    recorded at the same boundary. Spans of one operation share ``op_id``.
    Nothing is written until :meth:`write`; when disabled, ``record`` is
    never called (stages guard on :attr:`enabled`), so the untraced run
    pays one attribute read per operation.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, op_id: int | None = None,
               **counts) -> int:
        span_id = next(self._ids)
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op_id": span_id if op_id is None else op_id,
            **counts,
        })
        return span_id

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of *samples* (``q`` in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]

def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the ``q``-th percentile."""
    return int(n * (100 - q) / 100)

def calib_loop_ms() -> float:
    """A fixed pure-Python loop, so runs on different machines compare."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3

def git_commit() -> str:
    """The checkout's commit, read without spawning git (the driver's
    checkout is not a repository: report that instead of failing)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "not-a-git-checkout"

def env_block(seed: int, scale: str) -> dict:
    info = runtime_info()
    return {
        "python": info.python,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "gil_enabled": info.gil_enabled,
        "free_threaded_build": info.free_threaded_build,
        "gc_policy": "gc.collect(); gc.freeze() after set-up; "
                     "GC enabled while timing",
        "clock": "time.perf_counter",
        "seed": seed,
        "scale": scale,
        "git_commit": git_commit(),
        "argv": sys.argv[1:],
    }
