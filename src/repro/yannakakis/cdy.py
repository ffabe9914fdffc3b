"""The Constant-Delay Yannakakis (CDY) evaluator for free-connex CQs.

Implements the positive side of Theorem 3 exactly as the paper sketches it:

1. build an ext-S-connex tree for ``H(Q)`` (``S`` defaults to ``free(Q)``),
2. assign each tree node a relation (ground atoms for atom nodes, projections
   for the virtual subset nodes), and run the classical Yannakakis full
   reducer so every remaining tuple participates in some answer,
3. enumerate the join of the *top* subtree — whose nodes cover exactly S —
   by an indexed DFS with no dead ends: linear preprocessing, constant delay.

**Preprocessing pipelines.** The default cold path (``pipeline="fused"``)
interns values to dense ids, grounds atoms column-wise and runs grounding,
both semijoin sweeps and the index build as one fused pass
(:mod:`repro.yannakakis.fused`): each node's shared-key grouping is computed
once and reused for the up-sweep, the down-sweep and the final enumeration /
extension indexes. Only the top-subtree walk indexes and membership sets are
decoded back to values (so answers, ``contains`` and the compiled walk speak
raw values at full speed); extension indexes below the top stay in id space
and :meth:`CDYEnumerator.extend` translates at its boundary. The seed
pipeline (per-row value tuples, separate
:func:`~repro.yannakakis.reducer.full_reduce` sweeps, per-index build
passes) stays callable as ``pipeline="reference"`` for differential tests
and as the benchmark baseline, mirroring the
:meth:`CDYEnumerator.iter_answers_reference` pattern.

The enumeration walk is *compiled* at preprocessing time: every S-variable
gets a fixed slot in a flat array, every top node gets an
:func:`operator.itemgetter`-style selector from already-filled slots to its
index key, and iteration runs an explicit cursor stack over the per-group
candidate lists. Per answer this costs a handful of list indexings instead of
the seed implementation's per-tuple dict writes and a ``yield from`` chain
through one generator frame per tree node (kept as
:meth:`CDYEnumerator.iter_answers_reference` for differential testing and
benchmarking).

Beyond iteration, the evaluator supports two operations the paper's
algorithms rely on:

* :meth:`CDYEnumerator.contains` — O(1) membership of an S-tuple (used by
  Algorithm 1's ``a not in Q2(I)`` test);
* :meth:`CDYEnumerator.extend` — extend an S-assignment to a full
  homomorphism by walking below the top subtree (the extension step inside
  Lemma 8).

With ``incremental=True`` the enumerator gains
:meth:`CDYEnumerator.apply_deltas`. The cold build is still the fused one —
a query that is never updated never pays for counting state — but the
grounded id columns are kept. The *first* :meth:`~CDYEnumerator.apply_deltas`
builds :class:`~repro.yannakakis.reducer.IncrementalReducer` from those
columns (the base exactly as it was at build time), rebuilds the walk and
extension indexes and the membership probes from the reducer's final rows,
drops the columns, and only then applies the delta. From then on
base-relation ``(adds, removes)`` are mapped through grounding, interned at
the boundary (the whole reduction state lives in id space), propagated
through the reduction state, and patched into the enumeration and extension
indexes — O(|Δ| + affected groups) instead of a rebuild, answering the
dynamic-setting requirement that preprocessing survive updates. Membership
probes share the reducer's final row sets directly, so they need no
maintenance at all. The reducer build is a one-off cost of the first delta,
a few times the fused build itself.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from ..database.indexes import GroupIndex, tuple_selector
from ..database.instance import Instance
from ..database.interner import Interner
from ..enumeration.steps import (
    NullCounter,
    StepCounter,
    counter_or_null,
    tick_or_none,
)
from ..exceptions import (
    CursorError,
    CursorFencedError,
    DeadlineExceededError,
    EnumerationError,
    NotFreeConnexError,
    NotSConnexError,
)
from ..hypergraph import Hypergraph, build_ext_connex_tree
from ..hypergraph.connex import ExtConnexTree
from ..hypergraph.jointree import ATOM
from ..query.cq import CQ
from ..query.terms import Var
from ..resilience import deadline_counter
from .fused import FusedNode, FusedReduction, fused_reduce
from .grounding import (
    atom_row_mapper,
    ground_atoms,
    ground_atoms_columnar,
)
from .reducer import IncrementalReducer, NodeRelation, full_reduce

_EMPTY_GROUP: list = []

#: accepted values for :class:`CDYEnumerator`'s ``pipeline`` argument
PIPELINES = ("fused", "reference", "parallel")

#: checkpoint sentinel for an exhausted cursor (JSON-safe on purpose)
CURSOR_DONE = "done"


class CDYCursor:
    """A resumable iterator over the compiled top-subtree walk.

    Where :meth:`CDYEnumerator.__iter__` is a generator whose cursor-stack
    state dies with its frame, this class keeps that state (the per-level
    candidate-list positions) in plain attributes, so it can be
    *checkpointed* after any answer and *rehydrated* later — against the
    same enumerator, or against an equivalent rebuild of it — in
    O(#levels) time, independent of how many answers were already emitted.
    This is what makes O(page)-cost pagination possible in the serving
    layer: fetching page *k+1* never replays the first *k* pages.

    :meth:`checkpoint` returns a JSON-safe state: ``None`` before the
    first answer, the string ``"done"`` after exhaustion, otherwise the
    list of per-level cursor positions (each ≥ 1, pointing just past the
    row occupied by the last emitted answer). Passing that state to
    :meth:`CDYEnumerator.cursor` resumes enumeration right after the last
    emitted answer.

    A checkpoint is only valid against preprocessing in the *same* state
    as the one that issued it: the cursor fences itself (raises
    :class:`~repro.exceptions.CursorFencedError`) when the enumerator is
    delta-patched underneath it, and rehydration rejects states that do
    not fit the current group lists. Callers resuming across rebuilds
    (the serving layer) must additionally pin the instance's version
    vector — see :mod:`repro.serving.cursor`.

    ``steps`` counts cursor-stack movements — the unit the delay suites
    bound; it includes the O(#levels) rehydration work of a resume, so
    "resume + one page" is measurably O(page), not O(offset).

    :meth:`take` cuts a whole block at once: it returns exactly what that
    many :meth:`__next__` calls would, with the same ``steps`` and the
    same checkpoint afterwards, but emits each run of the innermost level
    with C-level ``map`` instead of one Python call per answer.

    An explicit *levels* structure substitutes for the enumerator's
    compiled levels: this is how :meth:`CDYEnumerator.cursor` runs the
    *sorted-group* walk for ordered enumeration — same cursor mechanics,
    same checkpoint format, only the per-group candidate lists differ.
    """

    __slots__ = (
        "enum",
        "steps",
        "_levels",
        "_out_fn",
        "_run_fn",
        "_slots",
        "_lists",
        "_pos",
        "_depth",
        "_epoch",
        "_done",
    )

    def __init__(self, enum: "CDYEnumerator", state=None, levels=None) -> None:
        self.enum = enum
        self.steps = 0
        self._levels = enum._levels if levels is None else levels
        self._out_fn = enum._out_fn
        self._run_fn = enum._run_fn
        self._epoch = enum._epoch
        n = len(self._levels)
        self._slots: list = [None] * len(enum._slot_vars)
        self._lists: list = [None] * n
        self._pos: list[int] = [0] * n
        self._depth = 0
        self._done = False
        if state == CURSOR_DONE or not enum.nonempty:
            self._done = True
            return
        if state is None:
            if n:
                key_fn0, _, groups0 = self._levels[0]
                key0 = key_fn0(self._slots) if key_fn0 is not None else ()
                self._lists[0] = groups0.get(key0, _EMPTY_GROUP)
            return
        self._rehydrate(state)

    def _rehydrate(self, state) -> None:
        """Rebuild slots/lists/positions from a checkpoint in O(#levels)."""
        levels = self._levels
        n = len(levels)
        if (
            not isinstance(state, (list, tuple))
            or len(state) != n
            or not all(isinstance(i, int) and i >= 1 for i in state)
        ):
            raise CursorError(f"malformed walk state {state!r}")
        slots = self._slots
        for d, (key_fn, targets, groups) in enumerate(levels):
            key = key_fn(slots) if key_fn is not None else ()
            rows = groups.get(key, _EMPTY_GROUP)
            i = state[d]
            if i > len(rows):
                raise CursorError(
                    "walk state does not fit this preprocessing "
                    f"(level {d}: position {i} of {len(rows)})"
                )
            self._lists[d] = rows
            self._pos[d] = i
            for t, v in zip(targets, rows[i - 1]):
                slots[t] = v
            self.steps += 1
        self._depth = n - 1

    def __iter__(self) -> "CDYCursor":
        return self

    def _fence(self) -> CursorFencedError:
        return CursorFencedError(
            "preprocessing was delta-patched under this cursor; "
            "re-open the session / restart enumeration"
        )

    def __next__(self) -> tuple:
        if self._done:
            raise StopIteration
        if self._epoch != self.enum._epoch:
            raise self._fence()
        levels = self._levels
        n = len(levels)
        if n == 0:  # degenerate: no top nodes — a single empty answer
            self._done = True
            return self._out_fn(self._slots)
        slots, lists, pos = self._slots, self._lists, self._pos
        depth = self._depth
        last = n - 1
        while depth >= 0:
            rows = lists[depth]
            i = pos[depth]
            self.steps += 1
            if i == len(rows):
                depth -= 1
                continue
            pos[depth] = i + 1
            for t, v in zip(levels[depth][1], rows[i]):
                slots[t] = v
            if depth == last:
                self._depth = depth
                return self._out_fn(slots)
            depth += 1
            key_fn, _, groups = levels[depth]
            key = key_fn(slots) if key_fn is not None else ()
            lists[depth] = groups.get(key, _EMPTY_GROUP)
            pos[depth] = 0
        self._done = True
        raise StopIteration

    def take(self, n: int) -> list[tuple]:
        """The next *n* answers (fewer once the walk runs out) as a list.

        Equivalent to ``list(islice(self, n))`` — same answers, same
        ``steps``, same :meth:`checkpoint` afterwards — but a run of the
        innermost level is emitted as one block: ``_run_fn`` reads each
        answer off ``tuple(slots) + row``, so the rows of the run are
        mapped to answers without a Python-level step per answer. What
        this saves grows with the run length (the innermost group
        sizes); a one-row run takes one concatenation instead, so short
        runs cost no more than per-answer :meth:`__next__`. The epoch is
        checked on entry and before every descent, as :meth:`__next__`
        checks it per call.
        """
        if self._done or n < 1:
            return []
        enum = self.enum
        epoch = self._epoch
        if epoch != enum._epoch:
            raise self._fence()
        levels = self._levels
        last = len(levels) - 1
        if last < 0:
            return list(islice(self, n))
        out: list = []
        append, extend = out.append, out.extend
        run_fn = self._run_fn
        slots, lists, pos = self._slots, self._lists, self._pos
        depth = self._depth
        steps = self.steps
        while depth >= 0:
            rows = lists[depth]
            i = pos[depth]
            if depth == last:
                # the run leaves the innermost slots stale: __next__
                # writes them before it reads them, and no key reads them
                k = len(rows) - i
                if k > n:
                    k = n
                if k == 1:  # one row: skip the two maps and the slice
                    append(run_fn(tuple(slots) + rows[i]))
                elif k:
                    prefix = tuple(slots).__add__
                    extend(map(run_fn, map(prefix, rows[i : i + k])))
                pos[depth] = i + k
                steps += k
                n -= k
                if not n:
                    self._depth = depth
                    self.steps = steps
                    return out
                # the run is spent: this is __next__'s pop step
                steps += 1
                depth -= 1
                continue
            steps += 1
            if i == len(rows):
                depth -= 1
                continue
            if epoch != enum._epoch:
                raise self._fence()
            pos[depth] = i + 1
            for t, v in zip(levels[depth][1], rows[i]):
                slots[t] = v
            depth += 1
            key_fn, _, groups = levels[depth]
            key = key_fn(slots) if key_fn is not None else ()
            lists[depth] = groups.get(key, _EMPTY_GROUP)
            pos[depth] = 0
        self._done = True
        self.steps = steps
        return out

    def checkpoint(self):
        """The resumable state as of the last emitted answer (JSON-safe).

        ``None`` if nothing was emitted yet, ``"done"`` after exhaustion,
        else the per-level position list accepted by
        :meth:`CDYEnumerator.cursor`.
        """
        if self._done:
            return CURSOR_DONE
        if not self._pos or self._pos[-1] == 0:
            return None
        return list(self._pos)


class _TopNodePlan:
    """Enumeration plan for one top node: index keyed by already-bound vars."""

    __slots__ = ("node_id", "bound_vars", "new_vars", "index")

    def __init__(
        self,
        node_id: int,
        bound_vars: tuple[Var, ...],
        new_vars: tuple[Var, ...],
        index: GroupIndex,
    ) -> None:
        self.node_id = node_id
        self.bound_vars = bound_vars
        self.new_vars = new_vars
        self.index = index


class CDYEnumerator:
    """Linear-preprocessing, constant-delay enumeration of a free-connex CQ.

    ``s`` may be any variable set for which the query is S-connex; it
    defaults to the free variables (requiring free-connexity). Answers are
    emitted as tuples ordered by *output_order* (default: the S variables in
    sorted order if ``s`` was given, else the head of the query).

    ``prebuilt_ext`` lets a caller (the :class:`~repro.engine.Engine` plan
    cache) pass a previously built ext-S-connex tree for this query and S,
    skipping tree construction; the tree is purely query-structural, so it is
    valid for any instance.

    ``pipeline`` selects the cold preprocessing implementation: ``"fused"``
    (default — interned columnar grounding + the fused single-pass reducer
    and index build), ``"reference"`` (the seed per-row pipeline, kept for
    differential testing and benchmarking) or ``"parallel"`` (range-sharded
    fused materialization over zero-copy shard channels with ``workers``
    shards, see :mod:`repro.yannakakis.parallel`; ``pool`` selects the
    backend — ``"auto"`` (default) probes the interpreter and hardware
    (:func:`~repro.runtime.select_backend`), or force ``"thread"``,
    ``"process"`` (shared-memory segments) or ``"serial"``). All pipelines
    produce identical answers, membership and extensions; internal row
    representation differs, so cross-pipeline state comparisons go through
    :meth:`node_rows`.

    ``incremental`` lets later :meth:`apply_deltas` calls maintain the
    preprocessed state in place. The cold build runs the serial fused
    pipeline (``pipeline``, ``workers``, ``pool`` and ``executor`` are
    ignored) and keeps the grounded id columns; the first
    :meth:`apply_deltas` builds the
    :class:`~repro.yannakakis.reducer.IncrementalReducer` from them. Applying
    deltas invalidates any in-flight iterator over this enumerator.
    ``executor`` lets a long-lived caller (the engine) supply the parallel
    pipeline a reusable worker pool instead of paying pool construction
    per build; it is never shut down here.

    ``deadline`` and ``recovery`` (see :mod:`repro.resilience`) thread
    fault tolerance through the parallel cold build: the deadline is
    checked at the reducer's phase boundaries, and a parallel build that
    fails for any non-deadline reason degrades to the serial fused
    pipeline — the outermost rung of the degradation ladder, producing
    identical answers and recorded as a ``fallbacks`` event.
    """

    def __init__(
        self,
        cq: CQ,
        instance: Instance,
        s: Sequence[Var] | frozenset[Var] | None = None,
        output_order: Sequence[Var] | None = None,
        counter: StepCounter | None = None,
        prebuilt_ext: ExtConnexTree | None = None,
        incremental: bool = False,
        pipeline: str = "fused",
        workers: int = 1,
        pool: str = "auto",
        executor=None,
        prebuilt_reduction: FusedReduction | None = None,
        interner: Interner | None = None,
        deadline=None,
        recovery=None,
    ) -> None:
        self.cq = cq
        self.counter = counter_or_null(counter)
        if pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {pipeline!r}; expected one of {PIPELINES}"
            )
        if s is None:
            self.s = cq.free
            default_order: tuple[Var, ...] = cq.head
        else:
            self.s = frozenset(s)
            if not self.s <= cq.variables:
                raise NotSConnexError("S must be a subset of var(Q)")
            default_order = tuple(sorted(self.s, key=str))
        self.output_order: tuple[Var, ...] = (
            tuple(output_order) if output_order is not None else default_order
        )
        if set(self.output_order) != set(self.s):
            raise NotSConnexError("output_order must be a permutation of S")

        # ---- preprocessing (linear) ---------------------------------- #
        # the deadline rides the *build's* tick seam only: the enumerator
        # (and any cursors over it) outlives the request that built it,
        # so self.counter must never inherit a request-scoped deadline
        build_counter = (
            counter
            if deadline is None
            else deadline_counter(deadline, counter)
        )
        parallel = pipeline == "parallel" and not incremental
        interned = incremental or pipeline == "fused" or parallel
        if prebuilt_reduction is not None:
            # fragment-shared cold build: the reduction was materialized
            # outside (the engine's batch planner, possibly reusing cached
            # subtree groups across members) and is adopted verbatim. The
            # interner must be the one its groups were interned through —
            # ids are only comparable within a single interner — and the
            # build is necessarily non-incremental: the counting reducer
            # needs unreduced bases, which shared fragments don't keep.
            if incremental:
                raise ValueError(
                    "prebuilt_reduction is incompatible with incremental=True"
                )
            if prebuilt_ext is None or interner is None:
                raise ValueError(
                    "prebuilt_reduction requires prebuilt_ext and the "
                    "interner its groups were built against"
                )
            parallel = False
            interned = True
            self.interner: Interner | None = interner
            grounded = None
        elif parallel:
            # parallel_reduce grounds later, inside the sharded build;
            # grounding preserves each atom's variable set, so the tree
            # builds from the atoms alone
            self.interner: Interner | None = Interner()
            grounded = None
        elif interned:
            self.interner = Interner()
            grounded = ground_atoms_columnar(
                cq, instance, self.interner, build_counter
            )
        else:
            self.interner = None
            grounded = ground_atoms(cq, instance, self.counter)
        if prebuilt_ext is not None:
            ext = prebuilt_ext
        else:
            if grounded is None:
                hg = Hypergraph.from_edges(a.variable_set for a in cq.atoms)
            else:
                hg = Hypergraph.from_edges(g.variable_set for g in grounded)
            ext = build_ext_connex_tree(hg, self.s)
            if ext is None:
                label = "free-connex" if s is None else "S-connex"
                raise NotFreeConnexError(
                    f"{cq.name} is not {label} for S={set(self.s)}"
                )
        self.ext = ext
        self.tree = ext.tree
        self.top_order = ext.top_subtree_order()

        #: bumped by apply_deltas so stale in-flight iterators fail loudly
        self._epoch = 0
        #: (epoch, |Q(I)|S|) memo for count_answers; dies with the epoch
        self._count_cache: tuple[int, int] | None = None
        #: per-order sorted-group walk structures, keyed by the per-level
        #: column permutations; entries are (epoch, levels), emptied by
        #: apply_deltas (stale entries after poison() are dropped lazily)
        self._ordered_cache: dict[tuple, tuple[int, list]] = {}
        #: whether :meth:`apply_deltas` is supported (``incremental=True``)
        self.incremental = incremental
        #: the counting reducer, built by the first :meth:`apply_deltas`
        self._reducer: IncrementalReducer | None = None
        #: an incremental build's grounded id columns, kept until the
        #: first :meth:`apply_deltas` builds the reducer from them
        self._grounded: list | None = None
        self.relations: dict[int, NodeRelation] = {}
        self.plans: list[_TopNodePlan] = []
        self._extension_plan: list[
            tuple[int, tuple[Var, ...], tuple[Var, ...], GroupIndex]
        ] = []
        # per top node: (variable order of the probed rows, row set); the
        # membership structures contains() checks. Reference mode and the
        # reducer alias node rows (value / id space); fused mode builds
        # decoded key+residual rows
        self._membership_info: list[tuple[tuple[Var, ...], set]] = []

        if prebuilt_reduction is not None:
            self._adopt_reduction(prebuilt_reduction, build_counter)
        elif parallel:
            self._build_parallel(
                instance, workers, pool, executor, build_counter,
                deadline, recovery,
            )
        elif interned:
            self._build_fused(grounded, build_counter)
            if incremental:
                self._grounded = grounded
        else:
            self._build_reference(grounded)
        self._compile()

    def _compile(self, id_space: bool = False) -> None:
        """Compile the walk and the membership probes from :attr:`plans`
        and ``_membership_info``.

        Runs at the end of every build, and again when the first delta
        replaces the fused state with the reducer's (*id_space*: the
        membership rows are then interned ids, so :meth:`contains` interns
        answers first). The probes and their space are published as one
        attribute, so a concurrent :meth:`contains` sees either state whole.
        """
        # one slot per S-variable, in order of first introduction
        slot_of: dict[Var, int] = {}
        for plan in self.plans:
            for v in plan.new_vars:
                slot_of[v] = len(slot_of)
        # per level: (key selector from slots | None, target slots, groups)
        levels: list[tuple] = []
        for plan in self.plans:
            bound_slots = tuple(slot_of[v] for v in plan.bound_vars)
            target_slots = tuple(slot_of[v] for v in plan.new_vars)
            key_fn = tuple_selector(bound_slots) if bound_slots else None
            levels.append((key_fn, target_slots, plan.index.groups))
        self._slot_vars: tuple[Var, ...] = tuple(slot_of)
        out_slots = tuple(slot_of[v] for v in self.output_order)
        self._out_fn = tuple_selector(out_slots)
        # CDYCursor.take's block emission: the answer read off
        # ``tuple(slots) + row`` for a row of the innermost level, whose
        # target slots are taken from the row (take leaves those slots
        # stale; nothing reads them before __next__ writes them again)
        row_at = {
            t: len(slot_of) + j
            for j, t in enumerate(levels[-1][1] if levels else ())
        }
        self._run_fn = tuple_selector(
            tuple(row_at.get(p, p) for p in out_slots)
        )
        self._levels = levels

        # membership selectors for contains(): answer tuple -> probed row
        answer_pos = {v: i for i, v in enumerate(self.output_order)}
        probes = [
            (
                tuple_selector(tuple(answer_pos[v] for v in row_order)),
                rows,
            )
            for row_order, rows in self._membership_info
        ]
        self._membership = (
            self.interner.ids.get if id_space else None,
            probes,
        )

    # ------------------------------------------------------------------ #
    # build paths

    def _plan_splits(self) -> Iterator[tuple[int, tuple, tuple]]:
        """``(node id, bound vars, new vars)`` per top node in walk order."""
        seen: set[Var] = set()
        for nid in self.top_order:
            node_vars = self.relations[nid].vars
            bound = tuple(v for v in node_vars if v in seen)
            new = tuple(v for v in node_vars if v not in seen)
            seen.update(node_vars)
            yield nid, bound, new

    def _extension_splits(self) -> Iterator[tuple[int, tuple, tuple]]:
        """``(node id, bound vars, new vars)`` per below-top node, topdown."""
        top_set = set(self.ext.top_ids)
        assigned: set[Var] = set(self.s)
        for nid in self.tree.topdown_order():
            if nid in top_set:
                continue
            node_vars = self.relations[nid].vars
            bound = tuple(v for v in node_vars if v in assigned)
            new = tuple(v for v in node_vars if v not in assigned)
            assigned.update(node_vars)
            yield nid, bound, new

    @staticmethod
    def _check_bound(bound: tuple, fn: FusedNode, nid: int) -> None:
        if bound != fn.key_vars:  # pragma: no cover - structural invariant
            raise EnumerationError(
                f"fused grouping key {fn.key_vars} of node {nid} does not "
                f"match the plan's bound variables {bound}; the join tree "
                "violates the running-intersection property"
            )

    def _build_reference(self, grounded: list) -> None:
        """The seed pipeline: value-tuple node relations, separate
        :func:`full_reduce` sweeps, then per-index build passes."""
        # node relations: atom nodes from ground atoms; projection nodes
        # from their source child (node ids ascend along creation order, so
        # a single ascending pass resolves all sources)
        for nid in sorted(self.tree.nodes):
            node = self.tree.nodes[nid]
            node_vars = tuple(sorted(node.vars, key=str))
            if node.kind == ATOM:
                g = grounded[node.atom_index]
                project = tuple_selector(
                    tuple(g.vars.index(v) for v in node_vars)
                )
                rows = {project(t) for t in g.rows}
                self.counter.tick(len(g.rows))
            else:
                src = self.relations[node.source]
                positions = src.positions_of(node_vars)
                rows = src.project_rows(positions)
                self.counter.tick(len(src.rows))
            self.relations[nid] = NodeRelation(node_vars, rows)
        self.nonempty = full_reduce(self.tree, self.relations, self.counter)

        for nid, bound, new in self._plan_splits():
            rel = self.relations[nid]
            index = GroupIndex(
                rel.rows, rel.positions_of(bound), rel.positions_of(new)
            )
            self.plans.append(_TopNodePlan(nid, bound, new, index))
            self._membership_info.append((rel.vars, rel.rows))
            self.counter.tick(len(rel.rows))
        for nid, bound, new in self._extension_splits():
            rel = self.relations[nid]
            index = GroupIndex(
                rel.rows, rel.positions_of(bound), rel.positions_of(new)
            )
            self._extension_plan.append((nid, bound, new, index))

    def _build_fused(self, grounded: list, counter) -> None:
        """The fused pipeline: one bottom-up materialize+reduce+group pass,
        a group-granular down-sweep, and adoption of each node's (already
        correctly keyed) grouping as its final index — top-subtree nodes
        come out of the pass in value space, the rest stay in id space."""
        fused = fused_reduce(
            self.tree,
            grounded,
            self.interner,
            counter,
            decode_top=self.ext.top_ids,
        )
        self._adopt_reduction(fused, counter)

    def _build_parallel(
        self,
        instance: Instance,
        workers: int,
        pool: str,
        executor,
        counter,
        deadline=None,
        recovery=None,
    ) -> None:
        """The sharded pipeline: global grounding, per-shard fused
        materialization in a worker pool, a remap-free merge, then the
        group-level sweeps — adopted through the same path as the fused
        pipeline (see :func:`~repro.yannakakis.parallel.parallel_reduce`).

        A parallel build that fails for any non-deadline reason — the
        reducer's own per-shard ladder has already retried and
        serial-fallback'd what it could — degrades to a whole-build run
        of the serial fused pipeline against a fresh interner: the
        outermost degradation rung, differentially identical by the same
        invariant the pipeline suites assert. Deadline misses propagate:
        the caller asked for an answer *by a time*, not at any cost.
        """
        from ..runtime import resolve_pool
        from .parallel import parallel_reduce

        # a bad configuration is a caller bug, not a fault to degrade
        # around: validate eagerly so ValueError propagates untouched
        resolve_pool(pool, workers)
        try:
            fused = parallel_reduce(
                self.tree,
                self.cq,
                instance,
                self.interner,
                workers=workers,
                counter=counter,
                decode_top=self.ext.top_ids,
                pool=pool,
                executor=executor,
                deadline=deadline,
                recovery=recovery,
            )
        except DeadlineExceededError:
            raise
        except Exception:
            if recovery is not None:
                recovery.note(fallbacks=1)
            # nothing was adopted yet (failure precedes _adopt_reduction);
            # rebuild from scratch on the serial fused pipeline
            self.interner = Interner()
            grounded = ground_atoms_columnar(
                self.cq, instance, self.interner, counter
            )
            self._build_fused(grounded, counter)
            return
        self._adopt_reduction(fused, counter)

    def _adopt_reduction(self, fused, counter) -> None:
        """Adopt a :class:`~repro.yannakakis.fused.FusedReduction`'s
        groupings as the final enumeration/extension indexes and
        membership structures."""
        self.nonempty = fused.nonempty
        for nid, fn in fused.nodes.items():
            # value-space row sets are reconstructed on demand by
            # node_rows(); the plan indexes below hold the actual data
            self.relations[nid] = NodeRelation(fn.vars, set())
        tick = tick_or_none(counter)
        for nid, bound, new in self._plan_splits():
            fn = fused.nodes[nid]
            self._check_bound(bound, fn, nid)
            membership: set[tuple] = set()
            for key, rows in fn.groups.items():
                if key:
                    membership.update(map(key.__add__, rows))
                else:
                    membership.update(rows)
            if tick is not None:
                tick(fn.row_count)
            index = GroupIndex.from_groups(
                fn.key_positions, fn.res_positions, fn.groups
            )
            self.plans.append(_TopNodePlan(nid, bound, new, index))
            self._membership_info.append((bound + new, membership))
        for nid, bound, new in self._extension_splits():
            fn = fused.nodes[nid]
            self._check_bound(bound, fn, nid)
            index = GroupIndex.from_groups(
                fn.key_positions, fn.res_positions, fn.groups
            )
            self._extension_plan.append((nid, bound, new, index))

    def _materialize_reducer(self) -> None:
        """Swap the fused state for the counting reducer's (first delta).

        The reducer needs the *unreduced* atom bases (deltas can revive
        rows the batch sweeps discarded), so it is built from the kept
        grounded columns — the base exactly as it was at build time — and
        the whole reduction state lives in id space: deltas are interned
        at the boundary (:meth:`apply_deltas`). The walk and extension
        indexes are rebuilt from the reducer's final rows rather than
        adopted from the fused groups, whose residual-free groups share
        one immutable residual tuple and so cannot be patched in place.
        Everything is built aside and published at the end; a failure
        leaves the fused state and the kept columns untouched.
        """
        grounded = self._grounded
        relations: dict[int, NodeRelation] = {}
        for nid in sorted(self.tree.nodes):
            node = self.tree.nodes[nid]
            node_vars = self.relations[nid].vars
            if node.kind == ATOM:
                g = grounded[node.atom_index]
                if g.vars:
                    cols = [g.columns[g.vars.index(v)] for v in node_vars]
                    rows = set(zip(*cols))
                else:
                    rows = {()} if g.row_count else set()
            else:
                # the reducer derives projection-node bases itself (it
                # needs the per-projection support counts anyway)
                rows = set()
            relations[nid] = NodeRelation(node_vars, rows)
        reducer = IncrementalReducer(self.tree, relations, self.counter)
        # alias each node relation to the reducer's reduced rows: delta
        # application then keeps relations (and membership) current in place
        for nid, rel in relations.items():
            rel.rows = reducer.final[nid]
        atom_node = {
            node.atom_index: nid
            for nid, node in self.tree.nodes.items()
            if node.kind == ATOM
        }
        delta_mappers = []
        for index, (atom, g) in enumerate(zip(self.cq.atoms, grounded)):
            node_rel = relations[atom_node[index]]
            permute = tuple_selector(
                tuple(g.vars.index(v) for v in node_rel.vars)
            )
            delta_mappers.append((atom_row_mapper(atom)[0], permute))

        values = self.interner.values
        plans: list[_TopNodePlan] = []
        extension_plan: list = []
        membership_info: list[tuple[tuple[Var, ...], set]] = []
        for nid, bound, new in self._plan_splits():
            rel = relations[nid]
            index = self._decode_grouped(rel, bound, new, values)
            # membership probes the reducer's final rows themselves (id
            # space, answer interned at the boundary): no maintenance
            membership_info.append((rel.vars, rel.rows))
            plans.append(_TopNodePlan(nid, bound, new, index))
        for nid, bound, new in self._extension_splits():
            rel = relations[nid]
            index = GroupIndex(
                rel.rows, rel.positions_of(bound), rel.positions_of(new)
            )
            extension_plan.append((nid, bound, new, index))

        # publish: each attribute swap is atomic, and _compile publishes
        # the walk and the membership probes (with their space) whole
        self.relations = relations
        self.plans = plans
        self._extension_plan = extension_plan
        self._membership_info = membership_info
        self._compile(id_space=True)
        self.nonempty = reducer.nonempty
        self._atom_node = atom_node
        self._delta_mappers = delta_mappers
        self._reducer = reducer
        self._grounded = None

    @staticmethod
    def _decode_grouped(
        rel: NodeRelation,
        bound: tuple[Var, ...],
        new: tuple[Var, ...],
        values: list,
    ) -> GroupIndex:
        """Group a flat interned row set into a decoded GroupIndex."""
        key_positions = rel.positions_of(bound)
        val_positions = rel.positions_of(new)
        key_sel = tuple_selector(key_positions)
        val_sel = tuple_selector(val_positions)
        dgroups: dict[tuple, list[tuple]] = {}
        get = dgroups.get
        for row in rel.rows:
            drow = tuple(map(values.__getitem__, row))
            k = key_sel(drow)
            vals = get(k)
            if vals is None:
                dgroups[k] = [val_sel(drow)]
            else:
                vals.append(val_sel(drow))
        return GroupIndex.from_groups(key_positions, val_positions, dgroups)

    # ------------------------------------------------------------------ #
    # introspection

    def node_rows(self, nid: int) -> set[tuple]:
        """A node's fully reduced rows in *value* space, over the node's
        sorted variable order.

        Mode-independent: the fused and incremental pipelines keep interned
        id rows internally (and the fused pipeline stores them key-split
        inside the plan indexes); this accessor reconstructs plain value
        rows, so states built by different pipelines — or by delta
        maintenance vs a rebuild, whose interners assign different ids —
        compare equal.
        """
        rel = self.relations[nid]
        if self._reducer is not None:
            values = self.interner.values
            return {
                tuple(map(values.__getitem__, row)) for row in rel.rows
            }
        if self.interner is None:
            return set(rel.rows)
        # fused: reassemble rows from the node's (key, residual) index
        for plan in self.plans:
            if plan.node_id == nid:
                index, bound, new, decoded = (
                    plan.index, plan.bound_vars, plan.new_vars, True,
                )
                break
        else:
            for xnid, bound, new, index in self._extension_plan:
                if xnid == nid:
                    decoded = False
                    break
            else:  # pragma: no cover - every node is top or below-top
                raise KeyError(nid)
        order = bound + new
        perm = tuple(order.index(v) for v in rel.vars)
        values = self.interner.values
        rows: set[tuple] = set()
        for key, vals in index.groups.items():
            for val in vals:
                row = key + val
                row = tuple(row[p] for p in perm)
                if not decoded:
                    row = tuple(map(values.__getitem__, row))
                rows.add(row)
        return rows

    # ------------------------------------------------------------------ #
    # enumeration

    def _walk_slots(self) -> Iterator[list]:
        """Iterative cursor-stack walk over the compiled levels.

        Yields the (reused) flat slot list once per S-assignment. Full
        reduction guarantees there are no dead ends, so between two yields
        the cursor moves at most once per level: constant delay.
        """
        levels = self._levels
        n = len(levels)
        slots: list = [None] * len(self._slot_vars)
        if n == 0:  # degenerate: no top nodes (cannot happen in practice)
            yield slots
            return
        counter = self.counter
        tick = None if isinstance(counter, NullCounter) else counter.tick
        epoch = self._epoch
        lists: list = [None] * n
        pos = [0] * n
        last = n - 1
        key_fn0, _, groups0 = levels[0]
        key0 = key_fn0(slots) if key_fn0 is not None else ()
        lists[0] = groups0.get(key0, _EMPTY_GROUP)
        depth = 0
        while depth >= 0:
            if epoch != self._epoch:
                raise EnumerationError(
                    "preprocessing was mutated (apply_deltas) during "
                    "enumeration; restart the iterator"
                )
            rows = lists[depth]
            i = pos[depth]
            if i == len(rows):
                depth -= 1
                continue
            pos[depth] = i + 1
            values = rows[i]
            if tick is not None:
                tick()
            for t, v in zip(levels[depth][1], values):
                slots[t] = v
            if depth == last:
                yield slots
            else:
                depth += 1
                key_fn, _, groups = levels[depth]
                key = key_fn(slots) if key_fn is not None else ()
                lists[depth] = groups.get(key, _EMPTY_GROUP)
                pos[depth] = 0

    def assignments(self) -> Iterator[dict[Var, object]]:
        """Enumerate S-assignments (constant delay after preprocessing).

        Each yielded dict is fresh (safe to retain across iterations).
        """
        if not self.nonempty:
            return
        svars = self._slot_vars
        for slots in self._walk_slots():
            yield dict(zip(svars, slots))

    def __iter__(self) -> Iterator[tuple]:
        if not self.nonempty:
            return
        out_fn = self._out_fn
        counter = self.counter
        if isinstance(counter, NullCounter):
            for slots in self._walk_slots():
                yield out_fn(slots)
        else:
            tick = counter.tick
            for slots in self._walk_slots():
                tick()
                yield out_fn(slots)

    def cursor(self, state=None, order_by: Sequence[Var] | None = None) -> CDYCursor:
        """A resumable iterator over the compiled walk (see :class:`CDYCursor`).

        With ``state=None`` enumeration starts from the first answer; with a
        state previously returned by :meth:`CDYCursor.checkpoint` it resumes
        right after the answer the checkpoint was taken at, in O(#levels) —
        never by replaying the already-delivered prefix.

        With *order_by* (a sequence of S-variables) the cursor runs the
        *sorted-group* walk: each level's candidate lists are sorted by a
        column permutation that makes ``order_by`` a prefix of the walk's
        slot-binding sequence, so answers come out sorted by the requested
        variables (ties broken by the remaining binding columns — a
        deterministic total order). Requires
        :meth:`order_achievable`; raises
        :class:`~repro.exceptions.EnumerationError` otherwise. Checkpoints
        are position lists exactly as in the unordered walk and resume
        against the same ``order_by``. The sorted structures are built once
        per (order, epoch) — O(preprocessing · log) — and shared by all
        cursors over this enumerator.
        """
        if order_by is None:
            return CDYCursor(self, state)
        perms = self._order_perms(tuple(order_by))
        if perms is None:
            raise EnumerationError(
                f"order {[str(v) for v in order_by]} is not achievable by "
                "the compiled walk for this join tree; materialize and sort "
                "instead"
            )
        return CDYCursor(self, state, levels=self._sorted_levels(perms))

    def iter_answers_reference(self) -> Iterator[tuple]:
        """The seed (pre-compilation) walk: recursive, dict-mutating.

        Kept as a correctness reference for differential tests and as the
        baseline the engine benchmark measures the compiled walk against.
        """
        if not self.nonempty:
            return
        plans = self.plans
        counter = self.counter
        output_order = self.output_order
        epoch = self._epoch
        assignment: dict[Var, object] = {}

        def walk(depth: int) -> Iterator[dict[Var, object]]:
            if depth == len(plans):
                yield assignment
                return
            plan = plans[depth]
            key = tuple(assignment[v] for v in plan.bound_vars)
            for values in plan.index.lookup(key):
                counter.tick()
                for var, val in zip(plan.new_vars, values):
                    assignment[var] = val
                yield from walk(depth + 1)
            for var in plan.new_vars:
                assignment.pop(var, None)

        for a in walk(0):
            if epoch != self._epoch:
                raise EnumerationError(
                    "preprocessing was mutated (apply_deltas) during "
                    "enumeration; restart the iterator"
                )
            counter.tick()
            yield tuple(a[v] for v in output_order)

    # ------------------------------------------------------------------ #
    # constant-time membership

    def contains(self, answer: tuple) -> bool:
        """O(1) test whether *answer* (in output order) is in Q(I)|S."""
        if not self.nonempty or len(answer) != len(self.output_order):
            return False
        # one read: the probes and the space they live in come together
        id_of, probes = self._membership
        if id_of is not None:
            # the reducer's state probes id rows: intern at the boundary (a
            # value the interner never saw occurs in no relation)
            ids = []
            for v in answer:
                i = id_of(v)
                if i is None:
                    return False
                ids.append(i)
            answer = tuple(ids)
        tick = self.counter.tick
        for key_fn, rows in probes:
            tick()
            if key_fn(answer) not in rows:
                return False
        return True

    def __contains__(self, answer: tuple) -> bool:
        return self.contains(answer)

    # ------------------------------------------------------------------ #
    # Lemma 8's extension step

    def extend(self, assignment: dict[Var, object]) -> dict[Var, object]:
        """Extend an S-assignment to a full homomorphism of the body.

        Walks the tree below the top subtree, taking for each node *some*
        matching tuple (the full reducer guarantees one exists). Constant
        time per query (data-independent number of nodes). In the interned
        pipelines the extension indexes live in id space; the assignment is
        translated on the way in and matches decoded on the way out.
        """
        full = dict(assignment)
        tick = self.counter.tick
        if self.interner is None:
            for _nid, bound, new, index in self._extension_plan:
                tick()
                key = tuple(full[v] for v in bound)
                matches = index.lookup(key)
                if not matches:
                    raise NotFreeConnexError(
                        "extension failed: relation not fully reduced "
                        "(internal error)"
                    )
                for var, val in zip(new, matches[0]):
                    full[var] = val
            return full
        id_of = self.interner.ids.get
        values = self.interner.values
        decoded: dict[Var, object] = {}
        for _nid, bound, new, index in self._extension_plan:
            tick()
            key = tuple(
                decoded[v] if v in decoded else id_of(full[v]) for v in bound
            )
            matches = index.lookup(key)
            if not matches:
                raise NotFreeConnexError(
                    "extension failed: relation not fully reduced "
                    "(internal error)"
                )
            for var, val in zip(new, matches[0]):
                decoded[var] = val
                full[var] = values[val]
        return full

    # ------------------------------------------------------------------ #
    # incremental maintenance

    def apply_deltas(
        self, deltas: Mapping[str, tuple[Iterable[tuple], Iterable[tuple]]]
    ) -> None:
        """Maintain the preprocessed state under base-relation changes.

        *deltas* maps relation symbols to net ``(adds, removes)`` of base
        tuples (the shape :meth:`Instance.diff_since` produces). Requires
        ``incremental=True`` at construction.

        The first call that touches one of the query's relations first
        builds the counting reducer from the grounded columns the cold
        build kept, rebuilds the walk indexes, extension indexes and
        membership probes from its final rows, and drops the columns —
        a one-off cost of a few fused builds.
        Then (and on every later call) each delta is grounded per atom
        (constants/repeated variables filter, then the injective
        projection), interned into the enumerator's id space, pushed
        through the incremental reducer, and patched into the enumeration
        indexes (decoded — the walk structures never see ids) and the
        id-space extension indexes. Membership probes alias the reducer's
        final row sets, so they update automatically. In-flight iterators
        over this enumerator are invalidated, even when the call raises:
        their next step raises :class:`EnumerationError` instead of mixing
        pre- and post-update state.
        """
        if not self.incremental:
            raise EnumerationError(
                "CDYEnumerator was built without incremental=True; "
                "rebuild instead of applying deltas"
            )
        try:
            if self._reducer is None:
                if not any(deltas.get(a.relation) for a in self.cq.atoms):
                    return  # nothing for this query: the build stays exact
                self._materialize_reducer()
            self._apply_deltas(deltas)
        finally:
            # bump even on failure: a half-patched enumerator must make
            # in-flight iterators raise, never serve mixed state
            self._epoch += 1
            # the sorted level copies are unreachable once the epoch moves
            self._ordered_cache = {}

    def _apply_deltas(
        self, deltas: Mapping[str, tuple[Iterable[tuple], Iterable[tuple]]]
    ) -> None:
        node_deltas: dict[int, tuple[set[tuple], set[tuple]]] = {}
        intern = self.interner.intern
        for index, atom in enumerate(self.cq.atoms):
            delta = deltas.get(atom.relation)
            if delta is None:
                continue
            mapper, permute = self._delta_mappers[index]
            nid = self._atom_node[index]
            adds, removes = node_deltas.setdefault(nid, (set(), set()))
            for t in delta[0]:
                row = mapper(tuple(t))
                if row is not None:
                    adds.add(permute(tuple(intern(v) for v in row)))
            for t in delta[1]:
                row = mapper(tuple(t))
                if row is not None:
                    removes.add(permute(tuple(intern(v) for v in row)))
        changed = self._reducer.apply(
            {nid: d for nid, d in node_deltas.items() if d[0] or d[1]}
        )
        values = self.interner.values
        getv = values.__getitem__
        for plan in self.plans:
            node_change = changed.get(plan.node_id)
            if node_change is not None:
                plan.index.apply_delta(
                    [tuple(map(getv, r)) for r in node_change[0]],
                    [tuple(map(getv, r)) for r in node_change[1]],
                )
        for nid, _bound, _new, index_ in self._extension_plan:
            node_change = changed.get(nid)
            if node_change is not None:
                index_.apply_delta(node_change[0], node_change[1])
        self.nonempty = self._reducer.nonempty

    def poison(self) -> None:
        """Force in-flight iterators to raise on their next step (used when a
        sibling enumerator's delta application failed midway)."""
        self._epoch += 1

    # ------------------------------------------------------------------ #
    # exact counting (no enumeration)

    def count_answers(self, *, refresh: bool = False) -> int:
        """Exact ``|Q(I)|S|`` without enumerating a single answer.

        A children-first dynamic program over the top subtree: for each top
        node, the number of walk completions below it per index key is the
        sum over the node's candidate rows of the product of its top
        children's counts at the keys those rows induce — the same
        recursion the cursor-stack walk unfolds answer by answer, collapsed
        into per-group integers. The full reducer guarantees every group a
        row references exists, so the DP visits each stored row exactly
        once: O(preprocessing-size) time, and it never touches the step
        counter (counting is *not* enumeration; the zero-tick suites
        assert this).

        The result is memoized against the delta epoch: repeated counts on
        unchanged state are O(1), and :meth:`apply_deltas` invalidates the
        memo along with in-flight cursors, so counts stay consistent with
        the delta-maintained indexes. ``refresh=True`` forces a recompute
        (the benchmark harness uses it to time the DP itself).
        """
        cached = self._count_cache
        if not refresh and cached is not None and cached[0] == self._epoch:
            return cached[1]
        total = self._count()
        self._count_cache = (self._epoch, total)
        return total

    def _count(self) -> int:
        if not self.nonempty:
            return 0
        plans = self.plans
        if not plans:  # degenerate: no top nodes — the single empty answer
            return 1
        plan_of = {p.node_id: p for p in plans}
        children = self.tree.children
        counts: dict[int, dict[tuple, int]] = {}
        for nid in reversed(self.top_order):
            plan = plan_of[nid]
            pos = {
                v: i
                for i, v in enumerate(plan.bound_vars + plan.new_vars)
            }
            child_info = [
                (
                    tuple_selector(
                        tuple(pos[v] for v in plan_of[c].bound_vars)
                    ),
                    counts[c],
                )
                for c in children.get(nid, ())
                if c in plan_of
            ]
            node_counts: dict[tuple, int] = {}
            if not child_info:
                for key, rows in plan.index.groups.items():
                    node_counts[key] = len(rows)
            else:
                for key, rows in plan.index.groups.items():
                    total = 0
                    for row in rows:
                        full = key + row
                        prod = 1
                        for sel, ccounts in child_info:
                            prod *= ccounts.get(sel(full), 0)
                            if not prod:
                                break
                        total += prod
                    node_counts[key] = total
            counts[nid] = node_counts
        return counts[self.top_order[0]].get((), 0)

    # ------------------------------------------------------------------ #
    # ordered enumeration (sorted-group walk)

    def order_achievable(self, order_by: Sequence[Var]) -> bool:
        """Whether the compiled walk can emit answers sorted by *order_by*.

        True iff ``order_by`` can be made a prefix of the walk's
        slot-binding sequence by permuting columns *within* each level —
        i.e. the order variables fill whole levels in walk order, with at
        most one partially-constrained final level. Orders that interleave
        variables across levels need a materialize-and-sort fallback
        (the engine provides one).
        """
        return self._order_perms(tuple(order_by)) is not None

    def _order_perms(
        self, order_by: tuple[Var, ...]
    ) -> tuple[tuple[int, ...], ...] | None:
        """Per-level full column permutations realizing *order_by*, or None."""
        svars = set(self._slot_vars)
        if len(set(order_by)) != len(order_by):
            raise EnumerationError("duplicate variable in order_by")
        for v in order_by:
            if v not in svars:
                raise EnumerationError(
                    f"order_by variable {v} is not an S-variable of {self.cq.name}"
                )
        m = len(order_by)
        pos = 0
        perms: list[tuple[int, ...]] = []
        for plan in self.plans:
            new = plan.new_vars
            if pos >= m:
                perms.append(tuple(range(len(new))))
                continue
            take = order_by[pos : pos + len(new)]
            if not set(take) <= set(new):
                return None
            rest = [v for v in new if v not in set(take)]
            perms.append(tuple(new.index(v) for v in (*take, *rest)))
            pos += len(take)
        return tuple(perms) if pos >= m else None

    def _sorted_levels(self, perms: tuple[tuple[int, ...], ...]) -> list:
        """Walk levels with each group's rows sorted by the given per-level
        column permutations; cached per (perms, epoch) and shared across
        cursors."""
        cached = self._ordered_cache.get(perms)
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        levels: list = []
        try:
            for (key_fn, targets, groups), perm in zip(self._levels, perms):
                sel = tuple_selector(perm)
                levels.append(
                    (
                        key_fn,
                        targets,
                        {k: sorted(rows, key=sel) for k, rows in groups.items()},
                    )
                )
        except TypeError as exc:
            raise EnumerationError(
                "ordered enumeration requires mutually comparable values "
                "in every ordered column"
            ) from exc
        if len(self._ordered_cache) >= 8:  # bound growth; stale epochs first
            self._ordered_cache = {
                k: v for k, v in self._ordered_cache.items()
                if v[0] == self._epoch
            }
        self._ordered_cache[perms] = (self._epoch, levels)
        return levels

    # ------------------------------------------------------------------ #

    def answer_count_upper_bound(self) -> int:
        """Product of top-node sizes (a cheap upper bound on |Q(I)|S|).

        For the exact count use :meth:`count_answers`; this bound costs
        O(#nodes) once the counting reducer exists (it tracks final sizes)
        and never allocates.
        """
        bound = 1
        if self._reducer is not None:
            sizes = self._reducer.final_sizes()
            for plan in self.plans:
                bound *= max(1, sizes[plan.node_id])
            return bound
        for plan in self.plans:
            size = sum(len(g) for g in plan.index.groups.values())
            bound *= max(1, size)
        return bound


def enumerate_cq(
    cq: CQ,
    instance: Instance,
    counter: StepCounter | None = None,
) -> Iterator[tuple]:
    """Convenience: CDY enumeration of a free-connex CQ's answers."""
    yield from CDYEnumerator(cq, instance, counter=counter)
