"""The correctness layer of the benchmark.

Every timed operation and every check counts as *attempted*; one that
raised, returned an unexpected HTTP status or failed a check counts as
*failed* (``failed_ops_ratio`` = failed / attempted, and a non-zero
numerator makes ``run.py`` exit non-zero).

At ``--scale tiny`` every answer set is compared with the naive oracle
``repro.naive.evaluate_ucq``. At full scale naive evaluation is minutes,
so the checks are self-consistency ones — no duplicates, ``count`` equals
the drained cardinality, the ordered stream is ``sorted(natural)``, pages
equal the prefix of an in-process drain, the delta-maintained answers
equal a fresh engine over ``instance.snapshot()`` — plus an
order-independent ``answers_checksum`` so two commits can be diffed.
"""

from __future__ import annotations

import json
import threading

from repro.database import Instance
from repro.engine import Engine
from repro.naive import evaluate_ucq
from repro.query import parse_ucq

_MASK = (1 << 64) - 1
#: plan kinds whose ``Engine.count`` does not enumerate (the others
#: materialize: checking them would just drain the stream a second time)
COUNTING_PLANS = ("cdy", "algorithm1")


class Checker:
    """Accumulates attempted/failed operations and the answers checksum."""

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checksum = 0
        self._lock = threading.Lock()  # the two HTTP client threads share it

    def ops(self, count: int = 1) -> None:
        """*count* timed operations completed without error."""
        with self._lock:
            self.attempted += count

    def fail(self, what: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def expect(self, ok: bool, what: str) -> bool:
        if ok:
            self.ops()
        else:
            self.fail(what)
        return bool(ok)

    def fold(self, answers, value_id=None) -> None:
        """Fold *answers* into the order-independent checksum. Values that
        are not ints go through *value_id* first (``hash(str)`` is
        per-process)."""
        if value_id is not None:
            answers = (tuple(value_id(v) for v in t) for t in answers)
        self.checksum = (self.checksum + sum(hash(t) for t in answers)) & _MASK

    # ------------------------------------------------------------------ #

    def cold_item(self, item, ucq, engine: Engine, natural: list,
                  ordered: list | None) -> None:
        """Checks on one cold item's drained streams (first round only)."""
        label = item.label
        distinct = set(natural)
        self.expect(len(distinct) == len(natural), f"{label}: duplicate answers")
        if engine.plan(ucq).kind.value in COUNTING_PLANS:
            self.expect(
                engine.count(ucq, item.instance) == len(natural),
                f"{label}: count != drained",
            )
        if ordered is not None:
            # sorted by the order_by columns, ties by the remaining ones
            head = [str(v) for v in ucq.head]
            first = [head.index(name) for name in item.order_by]
            columns = first + [i for i in range(len(head)) if i not in first]
            self.expect(
                ordered == sorted(
                    natural, key=lambda t: tuple(t[i] for i in columns)),
                f"{label}: ordered stream is not sorted(natural)")
        if self.tiny:
            self.expect(distinct == evaluate_ucq(ucq, item.instance),
                        f"{label}: answers differ from the naive oracle")
        self.fold(natural, item.value_id)

    def batch_sample(self, texts, instance: Instance, streams: list,
                     sample: int) -> None:
        """Batch streams equal per-query fresh-engine streams on a sample
        spread over the family (both templates)."""
        step = max(1, len(texts) // sample)
        for i in list(range(0, len(texts), step))[:sample]:
            ucq = parse_ucq(texts[i])
            fresh = sorted(Engine().execute(ucq, instance))
            self.expect(sorted(streams[i]) == fresh,
                        f"batch member {i}: differs from a fresh engine")
            if self.tiny:
                self.expect(set(fresh) == evaluate_ucq(ucq, instance),
                            f"batch member {i}: differs from the naive oracle")
        for stream in streams:
            self.fold(stream)

    def update_final(self, manager, instance_id: str, text: str,
                     instance: Instance, rebases: int, page: int) -> None:
        """After the update window: what the manager serves equals a fresh
        engine over a snapshot, and the ladder never rebased."""
        session = manager.open(text, instance_id)
        served: list[tuple] = []
        while True:
            got = manager.fetch(session.session_id, 50 * page)
            served.extend(got.answers)
            if got.done:
                break
        ucq = parse_ucq(text)
        snapshot = instance.snapshot()
        fresh = set(Engine().execute(ucq, snapshot))
        self.expect(len(served) == len(fresh) and set(served) == fresh,
                    "update: served answers differ from a fresh engine")
        self.expect(rebases == 0, f"update: {rebases} rebases (expected DELTA)")
        if self.tiny:
            self.expect(fresh == evaluate_ucq(ucq, snapshot),
                        "update: fresh engine differs from the naive oracle")
        # not folded into the checksum: how many batches the window held
        # depends on the machine, and the checksum must not


def load_instance(path) -> Instance:
    """Load an instance JSON exactly the way ``repro serve --data`` does,
    so an in-process engine enumerates in the server's order."""
    with open(path) as handle:
        data = json.load(handle)
    return Instance.from_dict(
        {name: [tuple(row) for row in rows] for name, rows in data.items()}
    )


class PageOracle:
    """The prefix of an in-process drain that served pages must equal."""

    def __init__(self, checker: Checker, text: str, data_path,
                 limit: int) -> None:
        self.checker = checker
        instance = load_instance(data_path)
        ucq = parse_ucq(text)
        stream = Engine().execute(ucq, instance)
        self.prefix = [t for _, t in zip(range(limit), stream)]
        if checker.tiny:
            full = set(self.prefix) | set(stream)
            checker.expect(full == evaluate_ucq(ucq, instance),
                           "serve: drain differs from the naive oracle")
        checker.fold(self.prefix)

    def verify(self, page: dict, expected_offset: int) -> None:
        """One served page sits exactly where the session (or the token it
        was resumed from) left off and matches the in-process drain."""
        offset, answers = page["offset"], page["answers"]
        ok = (
            offset == expected_offset
            and [tuple(a) for a in answers]
            == self.prefix[offset:offset + len(answers)]
        )
        self.checker.expect(ok, f"serve: page at offset {offset} differs")
