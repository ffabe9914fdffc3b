"""Compare two sets of benchmark runs, or show one set's own spread.

    python3 bench/compare.py A.jsonl            # spread of one set
    python3 bench/compare.py A.jsonl B.jsonl    # B against base A

Inputs are the files ``run.py --out`` appends to (one JSON record per
run). Per workload and end-to-end metric this prints both medians, the
ratio ``B/A`` (base: A's median), the bound ``BENCHMARK.json`` declares,
and a verdict: ``ok``, ``regressed`` (B's median is worse than A's by more
than the bound) or ``unresolved`` (either input's own spread — the
distance between its first and third quartile as a share of its median,
``statistics.quantiles(values, n=4)`` — exceeds the bound, so the
comparison cannot tell). With one input the verdict is about the spread
alone. Traced records are skipped: end-to-end numbers come from untraced
runs only. Exit code 1 when anything is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def load(path: str) -> dict:
    """``{workload: {metric: [values]}}`` plus exact counts under ``"="``."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            per = runs[record["workload"]]
            for name, metric in record["metrics"].items():
                per[name].append(metric["value"])
            per["="].append((record["seed"], record["answers_checksum"]))
    return runs


def spread(values) -> float | None:
    """IQR as a share of the median; ``None`` below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _pct(share: float | None) -> str:
    return "   n/a" if share is None else f"{share * 100:5.1f}%"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    base = load(argv[0])
    other = load(argv[1]) if len(argv) == 2 else None
    bad = 0
    header = f"{'workload':18s} {'metric':24s} {'median A':>14s} {'spread A':>8s}"
    if other is not None:
        header += f" {'median B':>14s} {'spread B':>8s} {'B/A':>7s}"
    print(header + f" {'bound':>6s}  verdict")
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in base or (other is not None and workload not in other):
            continue
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a = base[workload][name]
            med_a, spread_a = statistics.median(a), spread(a)
            row = f"{workload:18s} {name:24s} {med_a:14.4f} {_pct(spread_a)}"
            noisy = spread_a is not None and spread_a > bound
            verdict = "ok"
            if other is not None:
                b = other[workload][name]
                med_b, spread_b = statistics.median(b), spread(b)
                ratio = med_b / med_a
                row += f" {med_b:14.4f} {_pct(spread_b)} {ratio:7.3f}"
                noisy = noisy or (spread_b is not None and spread_b > bound)
                worse = (
                    ratio - 1 if spec["better"] == "lower" else 1 - ratio
                )
                if worse > bound:
                    verdict = "regressed"
            # set-up time is exempt from the spread rule (its bound still
            # applies to the medians)
            if noisy and name != "setup_s" and verdict == "ok":
                verdict = "unresolved"
            bad += verdict != "ok"
            print(row + f" {bound * 100:5.0f}%  {verdict}")
        if other is not None:
            sums_a, sums_b = dict(base[workload]["="]), dict(other[workload]["="])
            shared = sums_a.keys() & sums_b.keys()
            same = all(sums_a[seed] == sums_b[seed] for seed in shared)
            bad += not same
            print(f"{workload:18s} answers_checksum on {len(shared)} shared "
                  f"seed(s): {'identical' if same else 'DIFFERENT'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
