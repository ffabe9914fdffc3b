"""Batch-path race/error suite: version demotion, failure isolation,
unified first-page accounting, and the tier-2 fragment prewarm.

These tests pin the three ``submit_many`` fixes:

* grouping fingerprints are snapshotted under the instance read guard and
  re-checked at open time — a delta racing the batch demotes the members
  that opened against the newer version into their own groups instead of
  silently sharing the stale group's warmth bookkeeping;
* a non-``ReproError`` escaping one member (engine bug, torn-down pool)
  is contained in that member's :class:`BatchItem` — sibling groups
  complete, and no session leaks into the manager LRU unrecorded;
* eager first pages route through the same accounting helper as
  :meth:`SessionManager.fetch`, so ``pages_served``/``answers_served``
  cannot drift between the batch and per-call APIs.
"""

from __future__ import annotations

import pytest

from repro.database import random_instance_for
from repro.naive import evaluate_ucq
from repro.query import parse_ucq
from repro.serving import SessionManager, submit_many

CHAIN = "Q(a{i}, b{i}) <- R(a{i}, b{i}), S(b{i}, c{i}), T(c{i}, d{i})"
OTHER = "Q(x) <- R(x, y)"


def _manager(seed=8, n_tuples=120):
    ucq = parse_ucq(CHAIN.format(i=0))
    instance = random_instance_for(ucq, n_tuples, 9, seed=seed)
    manager = SessionManager()
    manager.register(instance, "db")
    return manager, instance


# ---------------------------------------------------------------------- #
# race: delta between grouping and opening


def test_mid_batch_delta_demotes_new_version_members():
    manager, instance = _manager()
    queries = [CHAIN.format(i=i) for i in range(4)] + [OTHER]

    # fire a delta from inside the first open: the grouping loop has
    # already snapshotted the old fingerprints, every actual open lands
    # on the new version
    original_open = manager.open
    fired = []

    def open_with_racing_delta(ucq, instance_id, page_size=None):
        if not fired:
            fired.append(True)
            manager.apply_delta("db", {"R": ([(993, 994)], [])})
        return original_open(ucq, instance_id, page_size)

    manager.open = open_with_racing_delta
    try:
        items = submit_many(
            manager, [(q, "db") for q in queries], first_page=True
        )
    finally:
        manager.open = original_open

    assert all(item.ok for item in items)
    # two groups were formed pre-delta; every member opened post-delta,
    # so every member was demoted to a fresh group id of its own
    assert all(item.group >= 2 for item in items)
    assert len({item.group for item in items}) == len(items)
    # no torn sharing: every session is pinned to the *post-delta* vector
    # (fingerprints are per query schema, so compare shape by shape)
    from repro.serving import CursorToken  # noqa: F401 - import check only
    from repro.serving.cursor import vector_fingerprint

    for item, query in zip(items, queries):
        ucq = parse_ucq(query)
        assert item.session.fingerprint == vector_fingerprint(
            instance.version_vector(ucq.schema)
        )
    for item, query in zip(items, queries):
        expected = evaluate_ucq(parse_ucq(query), instance)
        got = set(item.page.answers)
        while not item.page.done and len(got) < len(expected):
            page = manager.fetch(item.session.session_id)
            got |= set(page.answers)
            if page.done:
                break
        assert got == expected


def test_unraced_batch_keeps_group_ids_stable():
    manager, _ = _manager()
    queries = [CHAIN.format(i=i) for i in range(4)] + [OTHER]
    items = submit_many(manager, [(q, "db") for q in queries])
    assert all(item.ok for item in items)
    assert len({item.group for item in items[:4]}) == 1
    assert items[4].group != items[0].group
    assert all(item.group < 2 for item in items)  # nobody demoted


# ---------------------------------------------------------------------- #
# isolation: non-ReproError in one group


@pytest.mark.parametrize("workers", [1, 3])
def test_injected_non_repro_error_is_contained(workers):
    manager, instance = _manager()
    queries = [CHAIN.format(i=i) for i in range(3)] + [OTHER, OTHER]

    original_prepare = manager.engine.prepare

    def exploding_prepare(ucq, inst):
        if len(ucq.head) == 1:  # the OTHER group
            raise RuntimeError("engine bug injected by test")
        return original_prepare(ucq, inst)

    manager.engine.prepare = exploding_prepare
    try:
        items = submit_many(
            manager,
            [(q, "db") for q in queries],
            first_page=True,
            workers=workers,
        )
    finally:
        manager.engine.prepare = original_prepare

    chain_items, other_items = items[:3], items[3:]
    assert all(item.ok for item in chain_items)
    for item in other_items:
        assert not item.ok
        assert item.session is None
        assert "RuntimeError" in item.error
    # sibling group results intact and correct
    expected = evaluate_ucq(parse_ucq(CHAIN.format(i=0)), instance)
    assert set(chain_items[0].page.answers) <= expected
    # no leaked sessions: the LRU holds exactly the successful opens
    assert len(manager) == len(chain_items)


def test_error_during_first_page_closes_the_session():
    manager, _ = _manager()

    original_serve = manager._serve_page

    def exploding_serve(session, page_size=None):
        if len(session.ucq.head) == 1:
            raise RuntimeError("page cutter exploded")
        return original_serve(session, page_size)

    manager._serve_page = exploding_serve
    try:
        items = submit_many(
            manager,
            [(CHAIN.format(i=0), "db"), (OTHER, "db")],
            first_page=True,
        )
    finally:
        manager._serve_page = original_serve

    assert items[0].ok and items[0].page is not None
    assert not items[1].ok
    assert "RuntimeError" in items[1].error
    # the failed member's session was closed, not leaked into the LRU
    assert len(manager) == 1


# ---------------------------------------------------------------------- #
# accounting: one shared first-page helper


def test_batch_first_pages_account_like_fetch():
    manager, _ = _manager()
    queries = [CHAIN.format(i=i) for i in range(3)] + [OTHER]
    items = submit_many(
        manager, [(q, "db") for q in queries], page_size=5, first_page=True
    )
    assert all(item.ok for item in items)
    info = manager.cache_info()
    assert info["pages_served"] == len(items)
    assert info["answers_served"] == sum(
        len(item.page.answers) for item in items
    )
    # the per-call API keeps counting on the same ledger
    page = manager.fetch(items[0].session.session_id)
    info2 = manager.cache_info()
    assert info2["pages_served"] == len(items) + 1
    assert info2["answers_served"] == info["answers_served"] + len(
        page.answers
    )


def test_fenced_first_page_is_counted_once_and_item_fails_cleanly():
    manager, _ = _manager()

    original_open = manager.open

    def open_then_invalidate(ucq, instance_id, page_size=None):
        session = original_open(ucq, instance_id, page_size)
        # move the instance past the session's snapshot so the eager
        # first page hits the fence inside _serve_page
        manager.apply_delta("db", {"R": ([(881, 882)], [])})
        return session

    manager.open = open_then_invalidate
    try:
        items = submit_many(
            manager, [(CHAIN.format(i=0), "db")], first_page=True
        )
    finally:
        manager.open = original_open

    assert not items[0].ok
    assert items[0].error
    assert len(manager) == 0
    # exactly the fences the sweep + the fenced page recorded; the batch
    # path added no double counts
    assert manager.cache_info()["pages_served"] == 0


# ---------------------------------------------------------------------- #
# tier-2: cross-shape fragment prewarm


def test_multi_shape_batch_prewarms_fragments():
    shapes = [
        "Q(x) <- A{i}(x), R(x, y), S(y, z), T(z, w)".format(i=i)
        for i in range(3)
    ]
    cover = parse_ucq(
        "Q(x) <- A0(x), A1(x), A2(x), R(x, y), S(y, z), T(z, w)"
    )
    instance = random_instance_for(cover, 100, 9, seed=4)
    manager = SessionManager()
    manager.register(instance, "db")
    items = submit_many(
        manager, [(q, "db") for q in shapes], first_page=True
    )
    assert all(item.ok for item in items)
    info = manager.cache_info()
    assert info["batch_fragment_prewarms"] == 1
    assert info["engine"]["fragment_builds"] > 0
    for item, query in zip(items, shapes):
        expected = evaluate_ucq(parse_ucq(query), instance)
        got = set(item.page.answers)
        sid = item.session.session_id
        while not item.page.done and len(got) < len(expected):
            page = manager.fetch(sid)
            got |= set(page.answers)
            if page.done:
                break
        assert got == expected


def test_single_shape_batch_skips_prewarm():
    manager, _ = _manager()
    items = submit_many(
        manager, [(CHAIN.format(i=i), "db") for i in range(4)]
    )
    assert all(item.ok for item in items)
    assert manager.cache_info()["batch_fragment_prewarms"] == 0


# ---------------------------------------------------------------------- #
# documented gap: fragment-adopted enumerators degrade DELTA -> REBASE


def test_fragment_adopted_enumerators_rebase_instead_of_delta():
    """Regression pin for the MQO warm-batch gap (see prepare_many docs).

    Enumerators assembled from shared fragments (the
    ``prebuilt_reduction`` seam) are non-incremental by construction:
    ``apply_deltas`` refuses, and the engine's invalidation ladder
    degrades the first post-batch mutation to a REBASE instead of a
    delta patch — while a conventionally prepared enumerator on the same
    engine takes the O(|delta|) patch. If fragment adoption ever learns
    incremental maintenance, this test should start failing on the
    ``delta_applies`` assertions and be updated to pin the new behavior.
    """
    from repro.engine import Engine
    from repro.exceptions import EnumerationError

    shapes = [
        parse_ucq("Q(x) <- A{i}(x), R(x, y), S(y, z), T(z, w)".format(i=i))
        for i in range(3)
    ]
    cover = parse_ucq(
        "Q(x) <- A0(x), A1(x), A2(x), R(x, y), S(y, z), T(z, w)"
    )
    instance = random_instance_for(cover, 120, 9, seed=21)
    engine = Engine()
    prepared = engine.prepare_many(shapes, instance)
    assert engine.stats.fragment_builds > 0
    # every prepared enumerator is incremental except the ones built
    # through the prebuilt_reduction seam (which forces incremental=False)
    adopted = [
        p
        for p in prepared
        if p.resumable and not getattr(p.enumerator, "incremental", True)
    ]
    assert adopted, "batch produced no fragment-adopted enumerators"
    # the seam itself refuses delta maintenance...
    with pytest.raises(EnumerationError):
        adopted[0].enumerator.apply_deltas({"R": ([(1, 2)], [])})
    # ...so a post-batch mutation degrades those entries to a rebase
    oracles = [evaluate_ucq(u, instance) for u in shapes]
    for prep, oracle in zip(prepared, oracles):
        assert set(engine.execute(prep.plan.ucq, instance)) == oracle
    instance.relations["R"].apply_batch([(99, 98)], [])
    rebases = engine.stats.rebases
    deltas = engine.stats.delta_applies
    oracles = [evaluate_ucq(u, instance) for u in shapes]
    for ucq, oracle in zip(shapes, oracles):
        assert set(engine.execute(ucq, instance)) == oracle
    assert engine.stats.rebases > rebases, (
        "fragment-adopted entries should have rebased after the delta"
    )
    assert engine.stats.delta_applies == deltas, (
        "non-incremental adopted enumerators cannot take delta patches"
    )
    # a conventionally prepared (incremental) entry on the same engine
    # still takes the patch, pinning that the degradation is scoped to
    # fragment adoption rather than a global regression
    solo = parse_ucq("Q(p, q) <- R(p, q), S(q, r)")
    assert set(engine.execute(solo, instance)) == evaluate_ucq(
        solo, instance
    )
    instance.relations["S"].apply_batch([(97, 96)], [])
    deltas = engine.stats.delta_applies
    assert set(engine.execute(solo, instance)) == evaluate_ucq(
        solo, instance
    )
    assert engine.stats.delta_applies > deltas
