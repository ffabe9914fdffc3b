"""The engine facade: classify once, plan once, execute many times.

:class:`Engine` is the one-stop entry point the ROADMAP's production story
needs: ``execute(ucq, instance)`` classifies the query (Theorems 3, 4 and
12), selects the right evaluator, and memoizes the resulting
:class:`~repro.engine.plan.Plan` in an LRU keyed by the query's
isomorphism-invariant structural signature. A repeated — or merely
*isomorphic* — query skips classification, certificate search and
ext-connex-tree construction entirely; the paper's point that preprocessing
is data-dependent but planning is purely structural is what makes this
cache sound.

Dispatch ladder (mirroring :func:`repro.core.classify`):

* single free-connex CQ            → :class:`CDYEnumerator` (Theorem 3(1)),
* union of free-connex CQs         → Algorithm 1 (Theorem 4),
* free-connex union extension      → :class:`UCQEnumerator` (Theorem 12),
* anything else (hard or UNKNOWN)  → the naive join (still correct, no
  delay guarantee).

On an isomorphic cache hit the cached plan is *replayed* rather than
rebuilt: the instance's relations are re-addressed through the relation
renaming (sharing the underlying row sets — no copies) and answers are
emitted in the new query's head order through the free-variable renaming.

Cold preprocessing — grounding, the Yannakakis semijoin sweeps, index
construction — runs on the fused interned columnar pipeline
(:mod:`repro.yannakakis.fused`) behind :class:`CDYEnumerator`'s existing
API: values are interned to dense ids, grounded relations are stored
column-wise, and each join-tree node's shared-key grouping is computed once
and reused across both sweeps and the final index build (the seed per-row
pipeline stays available as ``pipeline="reference"``; ``bench/run.py``
records the fused build as ``yannakakis.build_fused_s``).

A second, smaller cache covers the *repeated workload* case (same query,
same database — the serving pattern): for the CDY and Algorithm-1 branches
the preprocessed enumerator (grounded, reduced and indexed by the fused
build, with the grounded columns kept so the first delta can build the
counting reducer) is memoized per ``(plan, instance)``. Staleness
is decided by exact per-relation version vectors (``(uid, version)``, see
:mod:`repro.database.relation`) through the invalidation ladder of
:class:`~repro.engine.cache.PreparedCache`:

* **exact hit** — the instance is untouched: a warm call is pure
  constant-delay enumeration;
* **delta apply** — the instance was mutated through the versioned relation
  mutators: the net deltas are replayed into the cached enumerator's
  preprocessing (grounding filter → incremental reducer → index patches) in
  O(|Δ|-affected state), not a rebuild (the first delta after a cold build
  also pays, once, for building the counting reducer). This closes the old
  fingerprint's blind spot: a same-cardinality in-place swap is just
  another delta;
* **rebase** — a relation was replaced wholesale or outran its bounded delta
  log: preprocessing is rebuilt from scratch.

Version vectors also record cardinalities, so even mutations that bypass
the versioned mutators (editing ``Relation.tuples`` directly) are caught
whenever they change a relation's size. The one remaining blind spot is a
direct, same-cardinality content swap of the tuple set itself —
:meth:`Engine.invalidate` exists for exactly that.

**Concurrency.** One :class:`Engine` may be shared across threads: the
plan and prepared caches carry internal locks with atomic lookup-or-store
(concurrent misses for one query share a single cached plan),
:class:`EngineStats` increments atomically, and per-``(plan, instance)``
keyed build locks make sure cold preprocessing and delta application run
at most once at a time per key while unrelated keys proceed in parallel.
What the engine does *not* arbitrate is mutation of the instances
themselves — callers mutating relations while other threads execute over
them need an external reader/writer discipline, which the serving layer
provides (see :class:`~repro.serving.manager.SessionManager`). With
``workers > 1`` the fresh non-incremental builds — the private build of
a relation-renamed plan hit — shard across a worker pool
(:mod:`repro.yannakakis.parallel`). Incremental (prepared/serving)
builds keep their grounded columns for the counting reducer and ground
serially at any worker count.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence, Union

from ..concurrency import KeyedLocks, LockedCounters, make_lock
from ..core.certificates import FreeConnexUCQCertificate
from ..core.classify import Classification, classify
from ..core.search import SearchBudget
from ..core.ucq_enum import UCQEnumerator
from ..database.instance import Instance
from ..enumeration.steps import StepCounter
from ..enumeration.union_all import UnionEnumerator
from ..exceptions import EnumerationError, QueryError
from ..fd.extension import rescue_extension
from ..fd.fds import satisfies
from ..hypergraph import Hypergraph, build_ext_connex_tree
from ..naive.evaluate import evaluate_cq, evaluate_ucq
from ..query.cq import CQ
from ..query.qig import QIG
from ..query.terms import Var
from ..query.ucq import UCQ
from ..resilience import Deadline, ShardRecovery
from ..runtime import PROCESS, SERIAL, resolve_pool
from ..yannakakis.cdy import CDYEnumerator
from .cache import DELTA, HIT, REBASE, PlanCache, PreparedCache
from .fragments import FragmentCache, fragment_candidates, fragment_reduce
from .plan import Plan, PlanKind
from .signature import structural_signature


@dataclass
class PreparedQuery:
    """Everything the serving layer needs to page a query's answers.

    Produced by :meth:`Engine.prepare`: the (cached) plan, a resumable
    preprocessed enumerator when the dispatch branch supports one (the CDY
    and Algorithm-1 branches — ``None`` for the Theorem-12 and naive
    branches, whose evaluators cannot checkpoint their walk), and the
    output permutation mapping the enumerator's emission order (the cached
    plan's head order) to the submitted query's head order.
    """

    #: the cached, instance-independent plan answering this query shape
    plan: Plan
    #: resumable preprocessed enumerator, or ``None`` when the dispatch
    #: branch has no checkpointable walk
    enumerator: Union[CDYEnumerator, UnionEnumerator, None]
    #: per-answer position permutation into the submitted query's head
    #: order (``None`` means identity)
    permutation: Optional[tuple[int, ...]] = None
    #: whether the enumerator came from (and stays in) the engine's
    #: prepared cache — shared with other sessions over the same
    #: (plan, instance) and maintained under deltas — or was built
    #: privately for a relation-renamed isomorphic hit
    shared: bool = False
    #: when the query was prepared with an order (see
    #: :meth:`Engine.prepare`): the requested order translated into the
    #: *plan's* variable names, ready to pass to
    #: :meth:`~repro.yannakakis.cdy.CDYEnumerator.cursor` — ``None`` for
    #: unordered preparation or when the walk cannot realize the order
    #: (the serving layer then materializes and sorts instead)
    order_by: Optional[tuple[Var, ...]] = None

    @property
    def resumable(self) -> bool:
        """True when paging can use checkpointable cursors (O(page) resume)."""
        return self.enumerator is not None


class EngineStats(LockedCounters):
    """Counters for cache behaviour and the work the engine performed.

    ``classifications`` and ``trees_built`` only move on cache misses; the
    delay-regression suite asserts they stay flat across warm calls.
    ``delta_applies`` counts warm calls served by patching cached
    preprocessing with version-vector deltas; ``rebases`` counts warm calls
    that had to rebuild because the delta history was unusable.
    ``fragment_hits`` / ``fragment_builds`` count shared join-subtree
    adoptions and first builds on the batch (:meth:`Engine.prepare_many`)
    cold path. ``shard_retries`` / ``pool_rebuilds`` / ``fallbacks``
    record the parallel cold path's degradation ladder (see
    :mod:`repro.resilience`): shards re-dispatched after a failure, shard
    pools replaced after breaking, and builds (or shards) that degraded
    to the serial fused pipeline — any of them nonzero makes
    ``Engine.cache_info()["degraded"]`` true. ``counts`` tallies
    :meth:`Engine.count` calls; ``fd_rescues`` counts executions (or
    counts) that dispatched through an FD-extension after the classifier
    rejected the query as submitted.

    Increments are atomic (see
    :class:`~repro.concurrency.LockedCounters`), so a multi-threaded
    workload over one shared engine never loses updates; individual
    attribute reads stay lock-free.
    """

    _fields = (
        "executions",
        "plan_hits",
        "exact_hits",
        "iso_hits",
        "plan_misses",
        "evictions",
        "classifications",
        "trees_built",
        "prep_hits",
        "prep_misses",
        "delta_applies",
        "rebases",
        "fragment_hits",
        "fragment_builds",
        "shard_retries",
        "pool_rebuilds",
        "fallbacks",
        "counts",
        "fd_rescues",
    )


def _permuted_stream(
    enum, perm: Optional[tuple[int, ...]]
) -> Iterator[tuple]:
    """Iterate *enum*, permuting each answer by *perm* (identity = None).

    A real function (not a loop-local generator expression) so each batch
    member's stream closes over its *own* permutation — a genexp built in
    a loop would late-bind the loop variable and permute every stream by
    the last member's head order.
    """
    if perm is None:
        return iter(enum)
    return (tuple(t[p] for p in perm) for t in iter(enum))


def _project_distinct(stream: Iterator[tuple], k: int) -> Iterator[tuple]:
    """Project each answer onto its first *k* positions, dropping repeats.

    The FD-rescue path for a *multi-member* union needs this: distinct
    extension answers from different members may collapse onto one
    original answer once the FD-determined extras are projected away
    (within a single member the projection is injective over
    FD-satisfying instances, so the single-CQ rescue skips the set).
    """
    seen: set[tuple] = set()
    for t in stream:
        p = t[:k]
        if p not in seen:
            seen.add(p)
            yield p


#: sentinel distinguishing "not memoized yet" from a memoized ``None``
_UNSET = object()


def _conjoin(cqs: "Iterable[CQ]", head: tuple[Var, ...]) -> CQ:
    """The conjunction of *cqs* as one CQ with head *head*.

    Every member's existential (non-free) variables are renamed apart so
    the only variables shared across members are the free ones — exactly
    the intersection semantics inclusion-exclusion needs.
    """
    cqs = list(cqs)
    taken = {v.name for cq in cqs for v in cq.variables}
    atoms = []
    for i, cq in enumerate(cqs):
        mapping: dict[Var, Var] = {}
        for v in sorted(cq.variables - cq.free, key=str):
            fresh = Var(f"{v.name}__c{i}")
            while fresh.name in taken:
                fresh = Var(fresh.name + "_")
            taken.add(fresh.name)
            mapping[v] = fresh
        atoms.extend(cq.rename(mapping).atoms if mapping else cq.atoms)
    name = "&".join(cq.name for cq in cqs)
    return CQ(tuple(head), tuple(atoms), name=name)


class _CountTerms(dict):
    """A union plan's inclusion-exclusion intersection terms over one
    instance, ``{member subset: CDYEnumerator | int}``: the engine's
    term cache stores it like a prepared enumerator, and the cache's
    delta rung patches it through :meth:`apply_deltas`."""

    def apply_deltas(self, deltas) -> None:
        """Patch every enumerator term with the net *deltas*; terms that
        cannot follow are dropped, so the next count rebuilds them."""
        for subset, term in list(self.items()):
            if isinstance(term, int):
                del self[subset]  # a naive count: recounted on demand
                continue
            try:
                term.apply_deltas(deltas)
            except Exception:
                # a failed patch leaves the term half-applied (and
                # poisoned); dropping it rebuilds it from the current data
                del self[subset]


class Engine:
    """A thread-safe query engine with an isomorphism-keyed plan cache."""

    def __init__(
        self,
        cache_size: int = 128,
        search_budget: SearchBudget | None = None,
        consult_catalog: bool = True,
        prep_cache_size: int = 32,
        workers: int = 1,
        pool: str = "auto",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.search_budget = search_budget
        self.consult_catalog = consult_catalog
        #: shard count for fresh (non-incremental) cold preprocessing;
        #: ``workers > 1`` routes it through the sharded parallel pipeline
        #: (:mod:`repro.yannakakis.parallel`)
        self.workers = workers
        #: the parallel backend for this interpreter and hardware:
        #: ``pool="auto"`` (default) probes via
        #: :func:`~repro.runtime.select_backend` — serial on one core,
        #: threads on free-threaded builds, shared-memory processes on
        #: multi-core GIL builds — while an explicit ``pool`` kind is
        #: honored verbatim (the resilience suites force ``"process"`` on
        #: any hardware)
        self.backend = resolve_pool(pool, workers)
        self.stats = EngineStats()
        #: the recovery context every parallel build runs under: retries
        #: mirror into :attr:`stats` and a broken engine-owned shard pool
        #: is transparently replaced (see :mod:`repro.resilience`)
        self._recovery = ShardRecovery(
            counters=self.stats, executor_factory=self._rebuild_pool
        )
        self._cache = PlanCache(cache_size)
        self._prepared = PreparedCache(prep_cache_size)
        # shared join-subtree state for batch (multi-query) cold builds:
        # per-instance spaces of version-fenced fragment entries
        self._fragments = FragmentCache()
        # one build lock per (plan, instance): concurrent misses preprocess
        # once, while different keys build in parallel
        self._prep_locks = KeyedLocks()
        # FD plan rescue memos: (ucq, fds) -> accepted extension UCQ or
        # None, and per-instance FD-satisfaction verdicts fenced by the
        # version vector of the FD-constrained relations. Races are
        # benign (worst case: a duplicate check), entries are immutable.
        self._fd_rescues: dict = {}
        self._fd_checks: dict = {}
        # union counting state: the inclusion-exclusion intersection
        # terms per (plan, instance), on the same ladder and LRU bound as
        # the prepared enumerators but outside engine.stats; see
        # Engine._union_count
        self._count_terms = PreparedCache(prep_cache_size)
        # the engine-owned shard pool, created lazily on the first
        # parallel build and reused for every one after (pool construction
        # per cold open would dominate small builds)
        self._shard_pool = None
        self._shard_pool_lock = make_lock("engine.pool")

    # ------------------------------------------------------------------ #
    # planning

    def plan(self, ucq: UCQ) -> Plan:
        """The (possibly cached) plan for *ucq*; builds and caches on miss."""
        return self._plan_for(ucq)[0]

    def _plan_for(
        self, ucq: UCQ
    ) -> tuple[Plan, Optional[dict[Var, Var]], Optional[dict[str, str]]]:
        signature = structural_signature(ucq)
        found = self._cache.lookup(ucq, signature)
        if found is not None:
            plan, free_map, rel_map = found
            if free_map is None:
                self.stats.add(plan_hits=1, exact_hits=1)
            else:
                self.stats.add(plan_hits=1, iso_hits=1)
            return plan, free_map, rel_map
        self.stats.add(plan_misses=1)
        plan = self._build_plan(ucq, signature)
        # atomic lookup-or-store: if a concurrent miss raced us to the
        # bucket, adopt its plan so every caller shares one cached object
        plan, evicted = self._cache.add_or_get(plan)
        self.stats.add(evictions=evicted)
        return plan, None, None

    def _build_plan(self, ucq: UCQ, signature: tuple) -> Plan:
        self.stats.add(classifications=1)
        verdict: Classification = classify(
            ucq, budget=self.search_budget, consult_catalog=self.consult_catalog
        )
        normalized = verdict.normalized
        if len(normalized.cqs) == 1 and normalized.cqs[0].is_free_connex:
            kind = PlanKind.CDY
        elif normalized.all_free_connex_cqs:
            kind = PlanKind.UNION_TRACTABLE
        elif verdict.tractable and isinstance(
            verdict.certificate, FreeConnexUCQCertificate
        ):
            kind = PlanKind.UNION_EXTENSION
        else:
            kind = PlanKind.NAIVE

        ext_trees = None
        if kind in (PlanKind.CDY, PlanKind.UNION_TRACTABLE):
            trees = []
            for cq in normalized.cqs:
                tree = build_ext_connex_tree(self._atom_hypergraph(cq), cq.free)
                if tree is None:  # pragma: no cover - classification disagrees
                    trees = None
                    break
                trees.append(tree)
                self.stats.add(trees_built=1)
            ext_trees = tuple(trees) if trees is not None else None

        return Plan(
            ucq=ucq,
            signature=signature,
            classification=verdict,
            kind=kind,
            ext_trees=ext_trees,
        )

    @staticmethod
    def _atom_hypergraph(cq: CQ) -> Hypergraph:
        """H(Q) with one edge per atom *in atom order*.

        Grounding preserves each atom's variable set, so this is exactly the
        hypergraph :class:`CDYEnumerator` would build from the grounded
        atoms — which keeps the tree's atom indices valid for any instance.
        """
        return Hypergraph.from_edges(a.variable_set for a in cq.atoms)

    # ------------------------------------------------------------------ #
    # execution

    def execute(
        self,
        ucq: UCQ,
        instance: Instance,
        counter: StepCounter | None = None,
        deadline: "Deadline | None" = None,
        order_by: "Sequence[Var | str] | None" = None,
    ) -> Iterator[tuple]:
        """Enumerate the answers of *ucq* over *instance*, without duplicates.

        Answers are tuples ordered by ``ucq.head``. Preprocessing (grounding,
        reduction, index building) happens during this call; the returned
        iterator then enumerates with the dispatched evaluator's delay
        guarantee. *deadline*, when given, bounds the preprocessing: a
        cold build that runs past it raises
        :class:`~repro.exceptions.DeadlineExceededError` and stores
        nothing (the caches never hold half-built entries); the returned
        iterator itself is not deadline-checked — it outlives the request
        that built it.

        *order_by* — a sequence of distinct free variables (or their
        names) — requests answers sorted ascending by those positions,
        ties broken by the remaining columns so the output order is a
        deterministic total order. On the CDY branch the engine first
        tries the sorted-group variant of the compiled walk
        (:meth:`~repro.yannakakis.cdy.CDYEnumerator.cursor` with
        ``order_by``), which keeps the per-answer delay guarantee; when
        the join tree cannot realize the order — and on every other
        branch — it falls back to materializing the stream and sorting,
        which is always correct but pays O(n log n) after preprocessing.

        When the classifier rejects the query (naive branch) but the
        instance declares functional dependencies that it currently
        satisfies, the engine *rescues* the plan: it dispatches the
        query's FD-extension (tractable by the ICDT 2018 dichotomy
        whenever the extension is free-connex) and projects each answer
        back onto the original head. See :meth:`count` for the same seam
        on the counting side; ``stats.fd_rescues`` counts uses.
        """
        if order_by is not None:
            return self._execute_ordered(
                ucq,
                instance,
                counter,
                deadline,
                self._validate_order(ucq, order_by),
            )
        plan, rel_map, identity_rels, order, perm = self._route(ucq)
        if plan.kind is PlanKind.NAIVE:
            rescued = self._fd_rescue(ucq, instance)
            if rescued is not None:
                extension, bijective = rescued
                self.stats.add(fd_rescues=1)
                k = len(ucq.head)
                stream = self.execute(
                    extension, instance, counter=counter, deadline=deadline
                )
                if bijective:
                    return (t[:k] for t in stream)
                return _project_distinct(stream, k)
        self.stats.add(executions=1)

        normalized = plan.normalized
        inst = (
            instance
            if identity_rels
            else self._readdress(plan, instance, rel_map)
        )

        if plan.kind in (PlanKind.CDY, PlanKind.UNION_TRACTABLE):
            # repeated-workload fast path: reuse the preprocessed enumerator
            # when this (plan, instance) pair was served before and the data
            # is demonstrably unchanged. Isomorphic hits that rename only
            # variables share it too — the cached enumerator emits in the
            # plan's head order and the answers are permuted per call.
            # Step-counted runs always build fresh so delay measurements see
            # real preprocessing.
            if identity_rels and counter is None:
                enum = self._prepared_enumerator(plan, instance, deadline)
                if perm is None:
                    return iter(enum)
                return (tuple(t[p] for p in perm) for t in iter(enum))
            return iter(
                self._build_enumerator(plan, inst, order, counter, deadline=deadline)
            )

        # the remaining evaluators emit in the normalized head order
        if plan.kind is PlanKind.UNION_EXTENSION:
            stream: Iterator[tuple] = iter(
                UCQEnumerator(
                    normalized,
                    inst,
                    certificate=plan.classification.certificate,
                    counter=counter,
                )
            )
        else:
            stream = iter(evaluate_ucq(normalized, inst))
        perm = tuple(normalized.head.index(v) for v in order)
        if perm == tuple(range(len(perm))):
            return stream
        return (tuple(t[p] for p in perm) for t in stream)

    def _execute_ordered(
        self,
        ucq: UCQ,
        instance: Instance,
        counter: StepCounter | None,
        deadline: "Deadline | None",
        order_by: tuple[Var, ...],
    ) -> Iterator[tuple]:
        """The ordered half of :meth:`execute` (*order_by* pre-validated).

        CDY plans whose compiled walk can bind the requested variables
        first stream from a sorted-group cursor (same delay class, no
        materialization); everything else materializes the unordered
        stream and sorts it with the order columns as the primary key and
        the full tuple as the tie-break — both paths emit the identical
        deterministic total order.
        """
        plan, rel_map, identity_rels, order, perm = self._route(ucq)
        stream: Iterator[tuple]
        if plan.kind is PlanKind.CDY:
            self.stats.add(executions=1)
            # order_by is in submitted-head variables; `order` is the same
            # head positionally in plan-space variables
            plan_ob = tuple(order[ucq.head.index(v)] for v in order_by)
            warm = identity_rels and counter is None
            if warm:
                enum = self._prepared_enumerator(plan, instance, deadline)
                use_perm = perm
            else:
                inst = (
                    instance
                    if identity_rels
                    else self._readdress(plan, instance, rel_map)
                )
                enum = self._build_enumerator(
                    plan, inst, order, counter, deadline=deadline
                )
                use_perm = None
            if enum.order_achievable(plan_ob):
                return _permuted_stream(enum.cursor(order_by=plan_ob), use_perm)
            stream = _permuted_stream(enum, use_perm)
        else:
            # non-CDY branches (and FD rescues) go through the normal
            # unordered dispatch, then sort
            stream = self.execute(
                ucq, instance, counter=counter, deadline=deadline
            )
        positions = tuple(ucq.head.index(v) for v in order_by)
        try:
            answers = sorted(
                stream, key=lambda t: (tuple(t[p] for p in positions), t)
            )
        except TypeError as exc:
            raise EnumerationError(
                "ordered enumeration requires mutually comparable values "
                "in every ordered column"
            ) from exc
        return iter(answers)

    @staticmethod
    def _validate_order(
        ucq: UCQ, order_by: "Sequence[Var | str]"
    ) -> tuple[Var, ...]:
        """Normalize *order_by* to distinct free :class:`Var`s of *ucq*."""
        vars_ = tuple(
            v if isinstance(v, Var) else Var(v) for v in order_by
        )
        if len(set(vars_)) != len(vars_):
            raise QueryError("order_by variables must be distinct")
        head = set(ucq.head)
        for v in vars_:
            if v not in head:
                raise QueryError(
                    f"order_by variable {v} is not a free variable of "
                    f"{ucq.name}"
                )
        return vars_

    # ------------------------------------------------------------------ #
    # counting

    def count(
        self,
        ucq: UCQ,
        instance: Instance,
        deadline: "Deadline | None" = None,
    ) -> int:
        """``|ucq(instance)|`` — exact, without enumerating any answers.

        On the CDY branch this is a dynamic program over the prepared
        index's group supports
        (:meth:`~repro.yannakakis.cdy.CDYEnumerator.count_answers`):
        O(preprocessing) once warm, zero enumeration ticks, and
        delta-maintained through the same prepared-cache ladder as
        :meth:`execute`. Unions of free-connex CQs combine the members'
        counts by inclusion-exclusion — each intersection is a
        conjunction CQ (members' existentials renamed apart) counted by
        CDY when free-connex, naively otherwise — with the intersection
        terms kept per ``(plan, instance)`` and delta-patched when the
        version vector moves. The Theorem-12 and naive branches
        materialize (there is no known counting shortcut for them), and
        the naive branch first tries the same FD-aware plan rescue as
        :meth:`execute`.
        """
        plan, rel_map, identity_rels, order, perm = self._route(ucq)
        self.stats.add(counts=1)
        if plan.kind is PlanKind.NAIVE:
            rescued = self._fd_rescue(ucq, instance)
            if rescued is not None:
                extension, bijective = rescued
                self.stats.add(fd_rescues=1)
                if bijective:
                    return self._count_dispatch(extension, instance, deadline)
                k = len(ucq.head)
                return sum(
                    1
                    for _ in _project_distinct(
                        self.execute(extension, instance, deadline=deadline),
                        k,
                    )
                )
        return self._count_dispatch(ucq, instance, deadline)

    def _count_dispatch(
        self,
        ucq: UCQ,
        instance: Instance,
        deadline: "Deadline | None",
    ) -> int:
        """Count *ucq* along its own plan branch (no rescue re-entry)."""
        plan, rel_map, identity_rels, order, perm = self._route(ucq)
        inst = (
            instance
            if identity_rels
            else self._readdress(plan, instance, rel_map)
        )
        if plan.kind not in (PlanKind.CDY, PlanKind.UNION_TRACTABLE):
            return len(evaluate_ucq(plan.normalized, inst))
        if identity_rels:
            enum = self._prepared_enumerator(plan, instance, deadline)
        else:
            enum = self._build_enumerator(
                plan, inst, order, None, deadline=deadline
            )
        if plan.kind is PlanKind.CDY:
            return enum.count_answers()
        return self._union_count(plan, inst, instance, enum.members)

    def _union_count(
        self, plan: Plan, inst: Instance, instance: Instance, members
    ) -> int:
        """Inclusion-exclusion over an Algorithm-1 union's members.

        Member counts come from each member's CDY counting DP; every
        subset intersection of two or more members is a conjunction CQ
        whose term (:meth:`_conjunction_term`) is kept in the engine's
        term cache per ``(plan, instance)``, fenced by the version vector
        of the readdressed *inst* (which shares relation objects with the
        submitted *instance*). When the vector moves, the cache's delta
        rung patches every enumerator term (:class:`_CountTerms`); a term
        is rebuilt only when that history is unusable or its patch
        raises. The term cache is a :class:`PreparedCache` of its own, so
        a count never registers in the prepared cache or in
        :attr:`stats` as a miss or a rebase.
        """
        cqs = plan.normalized.cqs
        total = sum(m.count_answers() for m in members)
        if len(cqs) < 2:
            return total
        head = plan.normalized.head
        # one caller per key at a time: patching a term twice with the
        # same delta would corrupt it
        with self._prep_locks.acquire(("count", id(plan), id(instance))):
            _outcome, terms = self._count_terms.fetch(plan, instance, inst)
            if terms is None:
                terms = _CountTerms()
                self._count_terms.store(plan, instance, terms, inst)
            for r in range(2, len(cqs) + 1):
                sign = 1 if r % 2 else -1
                for subset in combinations(range(len(cqs)), r):
                    term = terms.get(subset)
                    if term is None:
                        term = self._conjunction_term(
                            [cqs[i] for i in subset], head, inst
                        )
                        terms[subset] = term
                    if not isinstance(term, int):
                        term = term.count_answers()
                    total += sign * term
        return total

    @staticmethod
    def _conjunction_term(
        cqs: "list[CQ]", head: tuple[Var, ...], inst: Instance
    ) -> "CDYEnumerator | int":
        """The inclusion-exclusion term for the conjunction of *cqs*
        (identical free-variable sets).

        The members' existentials are renamed apart, so an assignment of
        the shared free variables satisfies the conjunction iff it is an
        answer of every member. A free-connex conjunction becomes an
        incremental CDY enumerator (counted by its DP, patched under
        deltas by :class:`_CountTerms`). Any other conjunction is counted
        by :func:`~repro.naive.evaluate.evaluate_cq`, with no deadline;
        :class:`_CountTerms` drops that count on every delta, so the next
        count evaluates the conjunction again. For a cyclic conjunction
        that can cost more than draining the whole union.
        """
        conj = _conjoin(cqs, head)
        if conj.is_free_connex:
            return CDYEnumerator(conj, inst, incremental=True)
        return len(evaluate_cq(conj, inst))

    # ------------------------------------------------------------------ #
    # FD-aware plan rescue

    def _fd_rescue(
        self, ucq: UCQ, instance: Instance
    ) -> "tuple[UCQ, bool] | None":
        """The accepted FD-extension for a classifier-rejected query.

        Returns ``(extension, bijective)`` — *bijective* meaning each
        original answer extends to exactly one extension answer, so a
        plain head-prefix projection suffices (always true for
        single-member extensions; multi-member unions may collapse
        answers across members and need a distinct-projection) — or
        ``None`` when the instance declares no FDs, the extension does
        not exist / does not help (still intractable), or the data
        currently violates the declared FDs (a declaration is a promise;
        a broken one just disables the rescue, never wrong answers).
        Extension acceptance is memoized per ``(query, fds)`` and the
        satisfaction check per instance behind its version vector.
        """
        fds = tuple(instance.fds)
        if not fds:
            return None
        key = (ucq, fds)
        cached = self._fd_rescues.get(key, _UNSET)
        if cached is _UNSET:
            extension = rescue_extension(ucq, fds)
            if extension is not None:
                kind = self.plan(extension).kind
                if kind not in (PlanKind.CDY, PlanKind.UNION_TRACTABLE):
                    extension = None
            if len(self._fd_rescues) >= 256:
                self._fd_rescues.clear()
            self._fd_rescues[key] = cached = extension
        if cached is None:
            return None
        if not self._fds_hold(instance, fds):
            return None
        return cached, len(cached.cqs) == 1

    def _fds_hold(self, instance: Instance, fds: tuple) -> bool:
        """Whether *instance* currently satisfies its declared FDs,
        memoized on the version vector of the FD-constrained relations
        (the uid entries make a recycled ``id(instance)`` harmless)."""
        symbols = sorted({f.relation for f in fds})
        vector = instance.version_vector(symbols)
        cached = self._fd_checks.get(id(instance))
        if cached is not None and cached[0] == (fds, vector):
            return cached[1]
        verdict = satisfies(instance, fds)
        if len(self._fd_checks) >= 256:
            self._fd_checks.clear()
        self._fd_checks[id(instance)] = ((fds, vector), verdict)
        return verdict

    def _build_enumerator(
        self,
        plan: Plan,
        inst: Instance,
        order: tuple[Var, ...],
        counter: StepCounter | None,
        incremental: bool = False,
        deadline: "Deadline | None" = None,
    ) -> Union[CDYEnumerator, UnionEnumerator]:
        """Fresh preprocessing for the CDY / Algorithm-1 branches.

        Runs the fused interned cold pipeline (the :class:`CDYEnumerator`
        default). In incremental mode (the prepared cache's builds) the
        cold build is the same fused one, and the grounded columns are
        kept: the first delta builds the counting reducer from them, so
        a query that is never updated never pays for it.
        With ``workers > 1`` on a parallel backend, a fresh build that is
        neither incremental nor step-counted runs the sharded pipeline
        on the engine's shard pool, under its recovery context
        (retry/rebuild/fallback bookkeeping); every other build is serial
        and builds no pool. The caller's *deadline* rides the build's
        tick seam only — the enumerator itself outlives it.
        """
        normalized = plan.normalized
        trees = plan.ext_trees or (None,) * len(normalized.cqs)
        # incremental builds keep their grounded columns for the counting
        # reducer, and step-counted runs measure the canonical fused tick
        # pattern: both run the serial fused pipeline
        sharded = {}
        if (
            self.workers > 1
            and self.backend.kind != SERIAL
            and not incremental
            and counter is None
        ):
            sharded = dict(
                pipeline="parallel",
                workers=self.backend.workers,
                pool=self.backend.kind,
                executor=self._executor(),
                recovery=self._recovery,
            )
        members = [
            CDYEnumerator(
                cq,
                inst,
                output_order=order,
                counter=counter,
                prebuilt_ext=tree,
                incremental=incremental,
                deadline=deadline,
                **sharded,
            )
            for cq, tree in zip(normalized.cqs, trees)
        ]
        if plan.kind is PlanKind.CDY:
            return members[0]
        return UnionEnumerator(members)

    def _executor(self) -> Optional[Executor]:
        """The shared shard pool matching the selected backend (None when
        the backend is serial), created on first use; builds pass it down
        so no cold open pays pool setup."""
        if self.backend.workers <= 1 or self.backend.kind == SERIAL:
            return None
        if self._shard_pool is None:
            with self._shard_pool_lock:
                if self._shard_pool is None:
                    if self.backend.kind == PROCESS:
                        self._shard_pool = ProcessPoolExecutor(
                            max_workers=self.backend.workers,
                        )
                    else:
                        self._shard_pool = ThreadPoolExecutor(
                            max_workers=self.backend.workers,
                            thread_name_prefix="repro-engine-shard",
                        )
        return self._shard_pool

    def _rebuild_pool(self) -> Optional[Executor]:
        """Recovery factory: a usable shard pool after the current one broke.

        Called by the parallel reducer (through :class:`ShardRecovery`)
        when the engine-supplied executor stops accepting or completing
        work. If another build already swapped in a healthy replacement,
        that one is returned; otherwise the broken pool is discarded
        (without waiting — its workers may be dead) and the lazy
        constructor builds a fresh backend-matched one. Queued builds
        never notice beyond their own shard retries.
        """
        if self.backend.workers <= 1 or self.backend.kind == SERIAL:
            return None
        with self._shard_pool_lock:
            pool = self._shard_pool
            if pool is not None and not self._pool_unusable(pool):
                return pool
            self._shard_pool = None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken pools may refuse
                pass
        return self._executor()

    @staticmethod
    def _pool_unusable(pool: Executor) -> bool:
        """Best-effort probe for a pool that cannot take new work (broken
        by a dead worker, or already shut down)."""
        return bool(
            getattr(pool, "_broken", False)
            or getattr(pool, "_shutdown", False)
            or getattr(pool, "_shutdown_thread", False)
        )

    def close(self) -> None:
        """Shut down the engine-owned shard pool, if one was created.

        Idempotent, and safe against in-flight parallel builds: pending
        shard tasks are cancelled (``cancel_futures=True``) rather than
        drained, a build that loses its shards recovers through the
        degradation ladder (rebuilding a pool or falling back to serial),
        and shared-memory arenas unwind in the builds' own ``finally``
        blocks — closing mid-build can never leak ``/dev/shm`` segments.
        The engine stays usable afterwards: a later parallel build lazily
        recreates the pool.
        """
        with self._shard_pool_lock:
            pool, self._shard_pool = self._shard_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _prepared_enumerator(
        self,
        plan: Plan,
        instance: Instance,
        deadline: "Deadline | None" = None,
    ) -> Union[CDYEnumerator, UnionEnumerator]:
        # per-(plan, instance) mutual exclusion: a miss preprocesses once
        # while concurrent same-key callers wait for the stored entry, and
        # delta application (inside fetch) never runs twice concurrently
        # on the shared enumerator. Different keys proceed in parallel.
        with self._prep_locks.acquire((id(plan), id(instance))):
            outcome, enum = self._prepared.fetch(plan, instance)
            if outcome is HIT:
                self.stats.add(prep_hits=1)
                return enum
            if outcome is DELTA:
                self.stats.add(prep_hits=1, delta_applies=1)
                return enum
            if outcome is REBASE:
                self.stats.add(rebases=1)
            self.stats.add(prep_misses=1)
            # the store only happens after a successful build: a deadline
            # miss raises out of _build_enumerator and the cache keeps no
            # trace of the abandoned entry
            enum = self._build_enumerator(
                plan, instance, plan.ucq.head, None, incremental=True,
                deadline=deadline,
            )
            self._prepared.store(plan, instance, enum)
            return enum

    def prepare(
        self,
        ucq: UCQ,
        instance: Instance,
        deadline: "Deadline | None" = None,
        order_by: "Sequence[Var | str] | None" = None,
    ) -> PreparedQuery:
        """Plan and preprocess *(ucq, instance)* for repeated paging.

        This is the serving layer's entry point (see
        :mod:`repro.serving`): it walks the same plan-cache /
        prepared-cache ladder as :meth:`execute` but hands back the
        preprocessed enumerator itself instead of a one-shot iterator, so
        a session can open resumable cursors over it
        (:meth:`~repro.yannakakis.cdy.CDYEnumerator.cursor`).

        For the CDY and Algorithm-1 branches the result is resumable; for
        an exact or variable-renaming (identity relation map) hit the
        enumerator additionally comes from the shared prepared cache —
        isomorphic queries in a batch plan once *and* preprocess once,
        each session applying its own output permutation. The Theorem-12
        and naive branches return ``enumerator=None``; callers fall back
        to materializing :meth:`execute`'s stream.

        *order_by* requests ordered paging: when the plan is CDY and the
        compiled walk can realize the order, the result carries the
        plan-space order in :attr:`PreparedQuery.order_by` and cursors
        opened with it page the sorted stream resumably; otherwise
        ``enumerator=None`` is returned and the caller materializes
        ``execute(order_by=...)`` (sorted pages, no O(page) resume).
        """
        if order_by is not None:
            order_by = self._validate_order(ucq, order_by)
        plan, rel_map, identity_rels, order, perm = self._route(ucq)
        if plan.kind not in (PlanKind.CDY, PlanKind.UNION_TRACTABLE):
            return PreparedQuery(plan, None)
        plan_ob: Optional[tuple[Var, ...]] = None
        if order_by is not None:
            if plan.kind is not PlanKind.CDY:
                # Algorithm-1 interleaves member walks round-robin; there
                # is no sorted variant — materialize instead
                return PreparedQuery(plan, None)
            plan_ob = tuple(order[ucq.head.index(v)] for v in order_by)
        if identity_rels:
            enum = self._prepared_enumerator(plan, instance, deadline)
            if plan_ob is not None and not enum.order_achievable(plan_ob):
                return PreparedQuery(plan, None)
            return PreparedQuery(
                plan, enum, perm, shared=True, order_by=plan_ob
            )
        inst = self._readdress(plan, instance, rel_map)
        if plan_ob is not None:
            enum = self._build_enumerator(
                plan, inst, order, None, deadline=deadline
            )
            if not enum.order_achievable(plan_ob):
                return PreparedQuery(plan, None)
            return PreparedQuery(plan, enum, order_by=plan_ob)
        # relation-renamed builds are private, but when an earlier batch
        # (prepare_many, or a serving prewarm) left matching fragments in
        # this instance's space, the expensive subtrees are adopted
        # instead of rebuilt — the identity-mapped relations carry the
        # same uids through the readdressing, so the per-entry fence
        # admits exactly the shareable state
        if plan.ext_trees is not None:
            space = self._fragments.space(instance)
            if set(self._plan_fragment_signatures(plan)) & space.signatures():
                with space.lock:  # lock-rank: engine.fragments
                    return PreparedQuery(
                        plan,
                        self._build_fragment_enumerator(
                            plan, inst, space, frozenset(), order
                        ),
                    )
        return PreparedQuery(
            plan,
            self._build_enumerator(plan, inst, order, None, deadline=deadline),
        )

    def prepared_hot(self, ucq: UCQ, instance: Instance) -> bool:
        """Whether :meth:`prepare` would be served from cached preprocessing.

        The serving layer's admission control uses this as its warm/cold
        probe: a cold open (this returns False) is the expensive kind of
        request worth bounding separately. Planning happens (and caches)
        but no instance data is touched, so the probe is cheap relative
        to the preprocessing it predicts.
        """
        plan, _rel_map, identity_rels, _order, _perm = self._route(ucq)
        if plan.kind not in (PlanKind.CDY, PlanKind.UNION_TRACTABLE):
            return False
        return bool(identity_rels) and self._prepared.peek(plan, instance)

    # ------------------------------------------------------------------ #
    # batches (multi-query optimization)

    def prepare_many(
        self,
        ucqs: "list[UCQ] | tuple[UCQ, ...]",
        instance: Instance,
        deadline: "Deadline | None" = None,
    ) -> list[PreparedQuery]:
        """Plan and preprocess a batch, sharing work below isomorphism.

        The first sharing tier is :meth:`prepare`'s: members with
        isomorphic queries collapse onto one plan and one prepared
        enumerator. This method adds the second tier the plan cache cannot
        see — distinct plans whose ext-connex trees contain *isomorphic
        join subtrees over the same relations*. Cold plan groups are
        vertices of a :class:`~repro.query.qig.QIG` (one candidate
        fragment signature per below-top subtree, with multiplicity);
        its maximal cliques (Bron–Kerbosch with pivoting) order the
        builds so the largest sharing groups seed the
        :class:`~repro.engine.fragments.FragmentCache` first, and every
        signature the QIG marks as shared is grounded/reduced **once**,
        then adopted into each remaining member's
        :class:`~repro.yannakakis.cdy.CDYEnumerator` through the
        ``prebuilt_reduction`` seam (``fragment_builds`` /
        ``fragment_hits`` count the two sides).

        Fragment-shared enumerators live in the prepared cache like any
        other entry — exact hits serve them untouched — but they are
        non-incremental, so the first delta to the instance degrades them
        to a rebase instead of a patch. Groups with no shareable fragment
        keep today's incremental build; members that are not
        shared-cache eligible (non-CDY branches, relation-renamed hits)
        fall back to exactly what :meth:`prepare` would do. Results are
        positionally aligned with *ucqs*.
        """
        routes = [self._route(u) for u in ucqs]
        results: list[Optional[PreparedQuery]] = [None] * len(ucqs)
        grouped: dict[int, tuple[Plan, list[int]]] = {}
        private: list[int] = []
        for i, (plan, rel_map, identity_rels, order, perm) in enumerate(
            routes
        ):
            if plan.kind not in (PlanKind.CDY, PlanKind.UNION_TRACTABLE):
                results[i] = PreparedQuery(plan, None)
            elif plan.ext_trees is None:  # pragma: no cover - defensive
                if identity_rels:
                    enum = self._prepared_enumerator(plan, instance)
                    results[i] = PreparedQuery(plan, enum, perm, shared=True)
                else:
                    inst = self._readdress(plan, instance, rel_map)
                    results[i] = PreparedQuery(
                        plan,
                        self._build_enumerator(
                            plan, inst, order, None, deadline=deadline
                        ),
                    )
            elif not identity_rels:
                # relation-renamed isomorphic hit: builds a private
                # enumerator (its readdressed instance is ephemeral), but
                # still a QIG vertex — its identity-mapped relations can
                # share fragments with every other member
                private.append(i)
            else:
                grouped.setdefault(id(plan), (plan, []))[1].append(i)

        # warm/cold split: groups already prepared go through the normal
        # ladder (one fetch per group — HIT, or DELTA/REBASE maintenance)
        cold: dict[int, tuple[Plan, list[int]]] = {}
        for pid, (plan, idxs) in grouped.items():
            if self._prepared.peek(plan, instance):
                self._finish_group(
                    results, routes, plan, idxs, instance, deadline=deadline
                )
            else:
                cold[pid] = (plan, idxs)

        if cold or private:
            # one space per *submitted* instance: readdressed members
            # share it too (row sets are shared objects, and the per-entry
            # uid fence keeps same-symbol/different-relation state apart)
            space = self._fragments.space(instance)
            qig = QIG()
            vertex_sigs: dict = {}
            for pid, (plan, _idxs) in cold.items():
                sigs = self._plan_fragment_signatures(plan)
                vertex_sigs[pid] = sigs
                qig.add_vertex(pid, sigs)
            for i in private:
                sigs = self._plan_fragment_signatures(routes[i][0])
                vertex_sigs[i] = sigs
                qig.add_vertex(("private", i), sigs)
            shared = qig.shared_signatures()
            # biggest sharing groups first: their builds populate the
            # fragment cache that later (smaller/isolated) groups adopt from
            build_order: list = []
            for clique in qig.maximal_cliques():
                for vertex in sorted(clique, key=repr):
                    if vertex not in build_order:
                        build_order.append(vertex)
            worthwhile = shared | space.signatures()
            for vertex in build_order:
                if isinstance(vertex, tuple):  # ("private", i)
                    i = vertex[1]
                    plan, rel_map, _ident, order, _perm = routes[i]
                    inst = self._readdress(plan, instance, rel_map)
                    if set(vertex_sigs[i]) & worthwhile:
                        with space.lock:  # lock-rank: engine.fragments
                            enum = self._build_fragment_enumerator(
                                plan, inst, space, shared, order
                            )
                    else:
                        enum = self._build_enumerator(
                            plan, inst, order, None, deadline=deadline
                        )
                    results[i] = PreparedQuery(plan, enum)
                else:
                    plan, idxs = cold[vertex]
                    use_fragments = bool(set(vertex_sigs[vertex]) & worthwhile)
                    self._finish_group(
                        results,
                        routes,
                        plan,
                        idxs,
                        instance,
                        space=space if use_fragments else None,
                        shared=shared,
                        deadline=deadline,
                    )
        return results

    @staticmethod
    def _plan_fragment_signatures(plan: Plan) -> list[tuple]:
        """Every fragment-candidate signature of *plan*'s trees, with
        multiplicity (self-overlaps inside one plan count as sharing)."""
        return [
            cand.signature
            for cq, ext in zip(plan.normalized.cqs, plan.ext_trees)
            for cand in fragment_candidates(ext, cq)
        ]

    def _finish_group(
        self,
        results: list,
        routes: list,
        plan: Plan,
        idxs: list[int],
        instance: Instance,
        space=None,
        shared: "set | frozenset" = frozenset(),
        deadline: "Deadline | None" = None,
    ) -> None:
        """Prepare one same-plan batch group and fill its members' slots.

        One walk of the prepared ladder per group (extra members count as
        ``prep_hits``, mirroring what serving's isomorphism tier reports);
        a miss builds either the fragment-aware way (*space* given) or the
        standard incremental way.
        """
        with self._prep_locks.acquire((id(plan), id(instance))):
            outcome, enum = self._prepared.fetch(plan, instance)
            if outcome is HIT:
                self.stats.add(prep_hits=1)
            elif outcome is DELTA:
                self.stats.add(prep_hits=1, delta_applies=1)
            else:
                if outcome is REBASE:
                    self.stats.add(rebases=1)
                self.stats.add(prep_misses=1)
                if space is not None:
                    with space.lock:  # lock-rank: engine.fragments
                        enum = self._build_fragment_enumerator(
                            plan, instance, space, shared
                        )
                else:
                    enum = self._build_enumerator(
                        plan, instance, plan.ucq.head, None,
                        incremental=True, deadline=deadline,
                    )
                self._prepared.store(plan, instance, enum)
        if len(idxs) > 1:
            self.stats.add(prep_hits=len(idxs) - 1)
        for i in idxs:
            results[i] = PreparedQuery(plan, enum, routes[i][4], shared=True)

    def _build_fragment_enumerator(
        self,
        plan: Plan,
        instance: Instance,
        space,
        shared,
        order: "tuple[Var, ...] | None" = None,
    ) -> Union[CDYEnumerator, UnionEnumerator]:
        """Fragment-aware cold build: adopt cached subtrees, cache shared
        ones, hand each member CQ its reduction through the
        ``prebuilt_reduction`` seam. Caller holds the group's build lock
        (shared entries) or owns the enumerator (private readdressed
        builds, which pass their member head *order*), and ``space.lock``
        in both cases."""
        members = []
        for cq, ext in zip(plan.normalized.cqs, plan.ext_trees):
            reduction = fragment_reduce(
                ext, cq, instance, space, shared, self.stats
            )
            members.append(
                CDYEnumerator(
                    cq,
                    instance,
                    output_order=order if order is not None else plan.ucq.head,
                    prebuilt_ext=ext,
                    prebuilt_reduction=reduction,
                    interner=space.interner,
                )
            )
        if plan.kind is PlanKind.CDY:
            return members[0]
        return UnionEnumerator(members)

    def execute_many(
        self,
        ucqs: "list[UCQ] | tuple[UCQ, ...]",
        instance: Instance,
        deadline: "Deadline | None" = None,
    ) -> list[Iterator[tuple]]:
        """Answer streams for a batch, positionally aligned with *ucqs*.

        :meth:`prepare_many` does the shared planning/preprocessing; each
        member's stream then enumerates from its (possibly shared)
        prepared enumerator, permuted into that member's own head order.
        Members with no resumable enumerator (Theorem-12 / naive
        branches) fall back to an independent :meth:`execute`.
        """
        prepared = self.prepare_many(ucqs, instance, deadline=deadline)
        streams: list[Iterator[tuple]] = []
        for ucq, pq in zip(ucqs, prepared):
            if pq.enumerator is None:
                streams.append(self.execute(ucq, instance))
            else:
                self.stats.add(executions=1)
                streams.append(_permuted_stream(pq.enumerator, pq.permutation))
        return streams

    def _route(
        self, ucq: UCQ
    ) -> tuple[
        Plan,
        Optional[dict[str, str]],
        bool,
        tuple[Var, ...],
        Optional[tuple[int, ...]],
    ]:
        """Plan *ucq* and derive the routing shared by :meth:`execute` and
        :meth:`prepare`: ``(plan, relation map, identity-relations flag,
        output order in plan variables, head permutation)``.

        The permutation maps the plan's head order to the submitted
        query's head order (``None`` for identity) and is what lets an
        isomorphic variable renaming share the plan-head-ordered prepared
        enumerator.
        """
        plan, free_map, rel_map = self._plan_for(ucq)
        identity_rels = rel_map is None or all(
            rep == sym for rep, sym in rel_map.items()
        )
        if free_map is None:
            order = ucq.head
        else:
            inverse = {w: v for v, w in free_map.items()}
            order = tuple(inverse[w] for w in ucq.head)
        perm: Optional[tuple[int, ...]] = tuple(
            plan.ucq.head.index(v) for v in order
        )
        if perm == tuple(range(len(perm))):
            perm = None
        return plan, rel_map, identity_rels, order, perm

    @staticmethod
    def _readdress(
        plan: Plan, instance: Instance, rel_map: dict[str, str]
    ) -> Instance:
        """The instance seen through the plan's relation renaming; row
        sets are shared with the caller's instance, never copied."""
        return Instance(
            {
                rep_symbol: instance.get(rel_map[rep_symbol], arity)
                for rep_symbol, arity in plan.ucq.schema.items()
            }
        )

    def invalidate(self, instance: Instance | None = None) -> None:
        """Drop cached preprocessing (for *instance*, or all of it).

        Required only after mutations the version vectors cannot see:
        editing ``Relation.tuples`` directly (bypassing
        ``add``/``discard``/``apply_batch``) *without* changing the
        relation's cardinality — size changes are caught by the vector's
        cardinality entry even without a version bump. Drops the union
        counts' intersection terms with the prepared enumerators.
        """
        self._prepared.invalidate(instance)
        self._count_terms.invalidate(instance)

    def answers(self, ucq: UCQ, instance: Instance) -> set[tuple]:
        """Convenience: the full answer set (canonical ``ucq.head`` order)."""
        return set(self.execute(ucq, instance))

    # ------------------------------------------------------------------ #
    # introspection

    def explain(self, ucq: UCQ) -> str:
        """Human-readable account of how the engine would answer *ucq*.

        Plans the query (a cache miss populates the cache, like
        :meth:`execute`) but touches no instance data.
        """
        misses_before = self.stats.plan_misses
        plan, free_map, _rel_map = self._plan_for(ucq)
        hit = self.stats.plan_misses == misses_before
        lines = ["engine plan " + ("(cache hit)" if hit else "(cache miss)")]
        lines.append(plan.describe())
        if free_map is not None:
            renaming = ", ".join(
                f"{v}->{w}" for v, w in sorted(free_map.items(), key=str)
            )
            lines.append(f"replayed through renaming: {renaming}")
        lines.append(plan.classification.describe())
        return "\n".join(lines)

    def cache_info(self) -> dict:
        """Execution counters plus current plan/prepared cache occupancy."""
        out = self.stats.as_dict()
        out["cached_plans"] = len(self._cache)
        out["cache_size"] = self._cache.maxsize
        out["prepared_enumerators"] = len(self._prepared)
        out["parallel_backend"] = self.backend.kind
        out["parallel_workers"] = self.backend.workers
        out["fragment_spaces"] = len(self._fragments)
        out["cached_fragments"] = self._fragments.fragment_count()
        # any rung of the degradation ladder below "clean parallel build"
        # has been exercised since this engine was created
        out["degraded"] = bool(
            self.stats.shard_retries
            or self.stats.pool_rebuilds
            or self.stats.fallbacks
        )
        return out

    def clear_cache(self) -> None:
        """Drop all cached plans, prepared enumerators, union-count terms
        and fragments (stats survive)."""
        self._cache.clear()
        self._prepared.clear()
        self._count_terms.clear()
        self._fragments.clear()
