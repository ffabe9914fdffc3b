"""The lint framework's self-tests: every rule fires on its seeded
corpus file, the clean file stays silent, suppression machinery works,
and — the enforced invariant — the repo itself lints clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    lint_paths,
    load_baseline,
    run_lint,
)

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "lint_corpus"


def corpus_rules(name: str) -> set[str]:
    """Rule ids the named corpus file produces."""
    report = lint_paths([CORPUS / name], root=REPO)
    assert report.checked_files == 1
    return {f.rule for f in report.findings}


# ------------------------------------------------------------------ #
# every rule demonstrated by at least one seeded violation


def test_corpus_lock_order():
    assert "lock-order" in corpus_rules("corpus_lock_order.py")


def test_corpus_lock_cycle():
    rules = corpus_rules("corpus_lock_cycle.py")
    assert "lock-cycle" in rules
    # a cycle in a totally ranked hierarchy always contains a
    # descending edge, so lock-order fires too
    assert "lock-order" in rules


def test_corpus_lock_blocking():
    report = lint_paths([CORPUS / "corpus_lock_blocking.py"], root=REPO)
    blocking = [f for f in report.findings if f.rule == "lock-blocking"]
    # both time.sleep and .result() under the counters lock
    assert len(blocking) == 2


def test_corpus_lock_unknown():
    report = lint_paths([CORPUS / "corpus_lock_unknown.py"], root=REPO)
    unknown = [f for f in report.findings if f.rule == "lock-unknown"]
    assert len(unknown) == 2  # raw threading.Lock + unresolvable mutex


def test_corpus_wall_clock():
    assert "wall-clock" in corpus_rules("corpus_wall_clock.py")


def test_corpus_unseeded_random():
    report = lint_paths(
        [CORPUS / "corpus_unseeded_random.py"], root=REPO
    )
    hits = [f for f in report.findings if f.rule == "unseeded-random"]
    assert len(hits) == 2  # Random() without seed + random.random()


def test_corpus_builtin_hash():
    assert "builtin-hash" in corpus_rules("corpus_builtin_hash.py")


def test_corpus_shm_unguarded():
    assert "shm-unguarded" in corpus_rules("corpus_shm_unguarded.py")


def test_corpus_bare_except():
    assert corpus_rules("corpus_bare_except.py") == {"bare-except"}


def test_corpus_silent_except():
    assert corpus_rules("corpus_silent_except.py") == {"silent-except"}


def test_corpus_http_mapping():
    assert "http-mapping" in corpus_rules("corpus_http_mapping.py")


def test_corpus_clean_is_clean():
    assert corpus_rules("corpus_clean.py") == set()


def test_every_corpus_file_has_a_test():
    """No seeded-violation file silently drops out of the suite."""
    covered = {
        "corpus_lock_order.py",
        "corpus_lock_cycle.py",
        "corpus_lock_blocking.py",
        "corpus_lock_unknown.py",
        "corpus_wall_clock.py",
        "corpus_unseeded_random.py",
        "corpus_builtin_hash.py",
        "corpus_shm_unguarded.py",
        "corpus_bare_except.py",
        "corpus_silent_except.py",
        "corpus_http_mapping.py",
        "corpus_clean.py",
    }
    on_disk = {p.name for p in CORPUS.glob("corpus_*.py")}
    assert on_disk == covered


# ------------------------------------------------------------------ #
# suppression machinery


def test_inline_suppression(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "# lint-as: src/repro/_corpus/x.py\n"
        "import time\n"
        "t = time.time()  # lint: disable=wall-clock\n"
    )
    report = lint_paths([bad], root=tmp_path)
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["wall-clock"]


def test_baseline_matching_survives_line_drift(tmp_path):
    src_v1 = (
        "# lint-as: src/repro/_corpus/x.py\n"
        "import time\n"
        "t = time.time()\n"
    )
    bad = tmp_path / "bad.py"
    bad.write_text(src_v1)
    report = lint_paths([bad], root=tmp_path)
    assert len(report.findings) == 1
    fp = report.findings[0].fingerprint

    baseline_file = tmp_path / "lint_baseline.json"
    baseline_file.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {"fingerprint": fp, "reason": "pre-existing, tracked"}
                ],
            }
        )
    )
    baseline = load_baseline(baseline_file)

    # shift the offending line down: fingerprint must still match
    bad.write_text(
        "# lint-as: src/repro/_corpus/x.py\n"
        "import time\n\n\n\n"
        "t = time.time()\n"
    )
    report = lint_paths([bad], root=tmp_path, baseline=baseline)
    assert report.ok
    assert [f.rule for f in report.baselined] == ["wall-clock"]


def test_baseline_entries_require_reasons(tmp_path):
    baseline_file = tmp_path / "lint_baseline.json"
    baseline_file.write_text(
        json.dumps({"version": 1, "entries": [{"fingerprint": "abc"}]})
    )
    with pytest.raises(ValueError, match="justification"):
        load_baseline(baseline_file)


def test_fingerprint_is_line_free():
    a = Finding("r", "p.py", 3, "m", "x = 1")
    b = Finding("r", "p.py", 99, "m", "x  =  1")
    assert a.fingerprint == b.fingerprint


def test_syntax_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = lint_paths([bad], root=tmp_path)
    assert [f.rule for f in report.findings] == ["syntax-error"]


# ------------------------------------------------------------------ #
# the enforced invariant: the repo lints clean


def test_repo_lints_clean():
    report = run_lint(REPO)
    assert report.ok, "\n" + report.render_human()
    assert report.checked_files > 50


def test_repo_baseline_is_loadable():
    baseline = load_baseline(REPO / "lint_baseline.json")
    assert isinstance(baseline, dict)


# ------------------------------------------------------------------ #
# repo hygiene enforced locally too (CI mirrors these)


def test_no_tracked_compiled_artifacts():
    """`.gitignore` keeps __pycache__/*.pyc out; nothing compiled may
    ever be committed (it pollutes grep and ships stale bytecode).

    Skipped only outside a git work tree (an exported copy of the
    sources), where there is no index to inspect."""
    import subprocess

    inside = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if inside.returncode != 0:
        pytest.skip("not a git work tree: no tracked files to check")
    out = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    )
    tracked = [
        line
        for line in out.stdout.splitlines()
        if line.endswith(".pyc") or "__pycache__" in line
    ]
    assert tracked == []


def test_gitignore_covers_compiled_artifacts():
    gitignore = (REPO / ".gitignore").read_text()
    assert "__pycache__/" in gitignore
    assert "*.pyc" in gitignore
