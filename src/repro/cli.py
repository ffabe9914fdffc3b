"""Command-line interface: classify and evaluate UCQs from the shell.

Usage::

    python -m repro classify "Q1(x,y) <- R(x,z), S(z,y) ; Q2(x,y) <- R(x,y)"
    python -m repro explain  "Q(x,y) <- R(x,z), S(z,y)"
    python -m repro enumerate QUERY --data instance.json [--limit 20]
    python -m repro run QUERY --data instance.json [--no-engine] [--explain]
    python -m repro run QUERY --data instance.json --count [--fds fds.json]
    python -m repro run QUERY --data instance.json --order-by x,y
    python -m repro catalog [--key example_2]
    python -m repro serve --data instance.json --port 8077

``serve`` starts the JSON-over-HTTP serving front end
(:mod:`repro.serving.server`): stateful sessions with opaque resumable
cursors, batched opens, delta application with cursor fencing.

``run`` answers any UCQ through the :class:`~repro.engine.Engine` facade
(plan caching + evaluator dispatch, falling back to the naive join for
queries outside the proven tractable classes); ``enumerate`` is the older
Theorem-12-only entry point and fails on queries it cannot handle.

The instance JSON format maps relation names to lists of rows::

    {"R": [[1, 2], [2, 3]], "S": [[3, 4]]}

``--fds`` declares functional dependencies from a JSON file (a list of
``{"relation": "R", "lhs": [0], "rhs": [1]}`` objects); the engine then
rescues classifier-rejected queries whose FD-extension is tractable.
``--count`` prints the exact answer count without enumerating;
``--order-by x,y`` sorts the printed answers by those variables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .catalog import all_examples, example
from .core import Status, UCQEnumerator, classify
from .engine import Engine
from .database.instance import Instance
from .query import parse_ucq


def _load_instance(path: str) -> Instance:
    with open(path) as handle:
        data = json.load(handle)
    return Instance.from_dict(
        {name: [tuple(row) for row in rows] for name, rows in data.items()}
    )


def cmd_classify(args: argparse.Namespace) -> int:
    ucq = parse_ucq(args.query)
    verdict = classify(ucq, consult_catalog=not args.no_catalog)
    print(verdict.describe())
    return 0 if verdict.status is not Status.UNKNOWN else 2


def cmd_explain(args: argparse.Namespace) -> int:
    ucq = parse_ucq(args.query)
    verdict = classify(ucq, consult_catalog=not args.no_catalog)
    print("union:", " UNION ".join(str(cq) for cq in verdict.normalized.cqs))
    print()
    print("per-CQ structure (Theorem 3):")
    for cls in verdict.cq_classes:
        paths = ", ".join(
            "(" + ",".join(map(str, p)) + ")" for p in cls.cq.free_paths
        )
        print(
            f"  {cls.cq.name}: {cls.structure.value}"
            + (f"; free-paths: {paths}" if paths else "")
        )
    print()
    print(verdict.describe())
    certificate = verdict.certificate
    from .core import FreeConnexUCQCertificate

    if isinstance(certificate, FreeConnexUCQCertificate):
        print("\nunion extension plans:")
        for plan in certificate.plans:
            if plan.is_trivial:
                print(f"  Q{plan.target + 1}: already free-connex")
            for va in plan.virtual_atoms:
                print(
                    f"  Q{plan.target + 1}+ gains P("
                    + ", ".join(map(str, va.vars))
                    + f") provided by Q{va.witness.provider + 1}"
                )
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    ucq = parse_ucq(args.query)
    instance = _load_instance(args.data)
    try:
        enumerator = UCQEnumerator(ucq, instance)
    except Exception as exc:  # ClassificationError, etc.
        print(f"cannot enumerate: {exc}", file=sys.stderr)
        return 1
    count = 0
    for answer in enumerator:
        if args.limit is not None and count >= args.limit:
            break
        print("\t".join(map(repr, answer)))
        count += 1
    print(f"-- {count} answers", file=sys.stderr)
    return 0


def _load_fds(path: str) -> list:
    """Parse a JSON FD declaration file (see the module docstring)."""
    from .fd.fds import FunctionalDependency

    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ValueError("FD file must hold a JSON list")
    return [
        FunctionalDependency(
            spec["relation"],
            tuple(int(p) for p in spec["lhs"]),
            tuple(int(p) for p in spec["rhs"]),
        )
        for spec in data
    ]


def cmd_run(args: argparse.Namespace) -> int:
    if not args.engine:
        return cmd_enumerate(args)
    ucq = parse_ucq(args.query)
    instance = _load_instance(args.data)
    if getattr(args, "fds", None):
        instance.declare_fds(_load_fds(args.fds))
    engine = Engine()
    if args.explain:
        print(engine.explain(ucq))
        print()
    plan = engine.plan(ucq)
    if getattr(args, "count", False):
        for _ in range(max(0, args.repeat - 1)):
            engine.count(ucq, instance)
        total = engine.count(ucq, instance)
        print(total)
        print(
            f"-- exact count via {plan.kind.value}"
            + (" (FD-rescued)" if engine.stats.fd_rescues else ""),
            file=sys.stderr,
        )
        return 0
    order_by = None
    if getattr(args, "order_by", None):
        order_by = [v.strip() for v in args.order_by.split(",") if v.strip()]
    for _ in range(max(0, args.repeat - 1)):
        # warm the plan/preprocessing caches; execute() does all cacheable
        # work eagerly, so the returned iterator need not be drained
        engine.execute(ucq, instance)
    count = 0
    for answer in engine.execute(ucq, instance, order_by=order_by):
        if args.limit is not None and count >= args.limit:
            break
        print("\t".join(map(repr, answer)))
        count += 1
    print(
        f"-- {count} answers via {plan.kind.value} "
        f"(plan hits: {engine.stats.plan_hits}, misses: {engine.stats.plan_misses})",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the HTTP serving front end over the given instance files.

    Each ``--data NAME=FILE`` (or bare ``--data FILE``, registered as
    ``default``) becomes a named instance; further instances can be
    registered at runtime via ``POST /instances``.
    """
    from .runtime import runtime_info
    from .serving import SessionManager, serve

    if args.workers == "auto":
        workers = runtime_info().cpu_count
    else:
        workers = int(args.workers)
    engine = Engine(workers=workers)
    print(
        f"parallel backend: {engine.backend.kind} "
        f"(workers={engine.backend.workers}; {engine.backend.reason})"
    )
    manager = SessionManager(
        engine=engine,
        max_sessions=args.max_sessions,
        page_size=args.page_size,
        workers=workers,
        max_inflight=args.max_inflight,
        max_cold_opens=args.max_cold_opens,
    )
    for spec in args.data or []:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = "default", spec
        manager.register(_load_instance(path), name)
        print(f"registered instance {name!r} from {path}")
    serve(
        host=args.host,
        port=args.port,
        manager=manager,
        deadline_ms=args.deadline_ms,
    )
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.key:
        entry = example(args.key)
        print(entry.reference)
        print(entry.ucq)
        print("expected:", entry.expected)
        print(entry.notes)
        return 0
    for entry in all_examples():
        print(f"{entry.key:14s} {entry.expected:12s} {entry.reference}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import DEFAULT_BASELINE, run_lint

    root = Path(args.root).resolve()
    targets = list(args.paths) if args.paths else None
    if args.changed:
        import subprocess

        out = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=False,
        )
        changed = [
            line
            for line in out.stdout.splitlines()
            if line.endswith(".py") and (root / line).exists()
        ]
        if not changed:
            print("repro lint: no changed python files")
            return 0
        targets = changed
    baseline = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
    report = run_lint(root, targets=targets, baseline_path=baseline)
    if args.json:
        print(report.render_json())
    else:
        print(report.render_human())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Enumeration complexity of UCQs (Carmeli & Kröll, PODS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a UCQ w.r.t. DelayClin")
    p.add_argument("query")
    p.add_argument("--no-catalog", action="store_true",
                   help="disable ad-hoc verdict transfer from the paper's examples")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("explain", help="classification with structure details")
    p.add_argument("query")
    p.add_argument("--no-catalog", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("enumerate", help="enumerate a tractable UCQ's answers")
    p.add_argument("query")
    p.add_argument("--data", required=True, help="instance JSON file")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "run", help="answer any UCQ through the engine (plan cache + dispatch)"
    )
    p.add_argument("query")
    p.add_argument("--data", required=True, help="instance JSON file")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument(
        "--engine",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="use the plan-caching engine (--no-engine falls back to the "
        "Theorem-12 enumerator)",
    )
    p.add_argument(
        "--explain", action="store_true", help="print the plan before answers"
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="execute N times (extra runs exercise the warm plan cache)",
    )
    p.add_argument(
        "--count",
        action="store_true",
        help="print the exact answer count instead of the answers "
        "(tractable plans count from index supports, no enumeration)",
    )
    p.add_argument(
        "--order-by",
        default=None,
        metavar="VARS",
        help="comma-separated free variables to sort the answers by "
        "(walk-ordered when the plan allows, sorted otherwise)",
    )
    p.add_argument(
        "--fds",
        default=None,
        metavar="FILE",
        help="JSON file declaring functional dependencies "
        '([{"relation": "R", "lhs": [0], "rhs": [1]}, ...]); enables '
        "FD-aware plan rescue for classifier-rejected queries",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "serve",
        help="start the JSON-over-HTTP serving front end "
        "(sessions, cursors, batches, deltas)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077)
    p.add_argument(
        "--data",
        action="append",
        metavar="[NAME=]FILE",
        help="instance JSON to register (repeatable; bare FILE becomes "
        "'default')",
    )
    p.add_argument(
        "--max-sessions",
        type=int,
        default=256,
        help="live-session LRU bound (evicted sessions stay resumable "
        "from their cursor tokens)",
    )
    p.add_argument("--page-size", type=int, default=100)
    p.add_argument(
        "--workers",
        default="1",
        help="worker count (or 'auto' for one per CPU core): >1 fans "
        "batch opens across a pool, shards the grounding of serving cold "
        "opens, and runs fresh non-incremental cold preprocessing on the "
        "zero-copy parallel pipeline with an auto-selected backend "
        "(threads on free-threaded builds, shared-memory processes on "
        "multi-core GIL builds, serial otherwise)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request time budget in milliseconds: opens/resumes/"
        "pages that outrun it answer 504 with caches left consistent "
        "(default: no deadline)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="bound on concurrent opens/resumes; beyond it requests are "
        "shed with 503 + Retry-After instead of queueing (default: "
        "unlimited)",
    )
    p.add_argument(
        "--max-cold-opens",
        type=int,
        default=None,
        help="separate bound on concurrent *cold* opens (those that "
        "preprocess from scratch); default: unlimited",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("catalog", help="list the paper's examples")
    p.add_argument("--key", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser(
        "lint",
        help="check the repo's concurrency/determinism invariants "
        "(lock ranks, stable hashing, shm hygiene, exception taxonomy)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument("--root", default=".", help="repo root (default: cwd)")
    p.add_argument(
        "--baseline",
        default=None,
        help="suppression baseline JSON (default: <root>/lint_baseline.json)",
    )
    p.add_argument(
        "--changed",
        action="store_true",
        help="lint only python files changed vs HEAD (git diff)",
    )
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
