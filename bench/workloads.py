"""Seeded inputs for the layered benchmark: instances, queries, delta
batches, the selector-family batch, and the four workload profiles.

Every workload runs the same three timed stages (see ``stages.py``) and
differs only in the *inputs* each stage gets and in the share of the
measured window each stage receives — the stage a workload is about runs
at full size with most of the window, the other two on light inputs.
``--seed`` is the only source of randomness: each generator derives its
own ``random.Random`` from ``(seed, workload, purpose)``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.database import Instance
from repro.database.relation import Relation
from repro.engine import Engine
from repro.query import parse_ucq

CHAIN3 = "Q(x,y) <- R(x,y),S(y,z),T(z,w)"
CHAIN5 = (
    "Q(x1,x2) <- R1(x1,x2),R2(x2,x3),R3(x3,x4),R4(x4,x5),R5(x5,x6)"
)
STAR3 = "Q(x) <- R1(x,y1),R2(x,y2),R3(x,y3)"
WIDE_HEAD = "Q(x,y,z) <- R(x,y),S(y,z),T(z,w),U(w,u)"
SELFJOIN_PATH = "Q(x,y,z) <- R(x,y),R(y,z)"
#: the paging query: three head variables over a dense domain, so the
#: answer set is ~20x the input and no paging session exhausts it
CHAIN3_WIDE = "Q(x,y,z) <- R(x,y),S(y,z),T(z,w)"
#: Theorem 4: a union of free-connex CQs (Algorithm 1, inclusion-exclusion count)
THM4_UNION = "Q1(x,y) <- R(x,y),S(y,z) ; Q2(x,y) <- R(x,y),T(y,w)"
#: Theorem 12: the paper's Example 2 (union extension through UCQEnumerator)
THM12_UNION = (
    "Q1(x,y,w) <- R1(x,z),R2(z,y),R3(y,w) ; Q2(x,y,w) <- R1(x,y),R2(y,w)"
)
#: batch family (bench_mqo's): every member selects through its own tiny
#: unary relation over shared large relations, so subtrees are shared
BATCH_CHAIN = "Q(x) <- A{i}(x),R(x,y),S(y,z),T(z,w)"
BATCH_STAR = "Q(x) <- B{i}(x),U(x,y),V(y,z),U(x,u),W(u,w)"

#: sizes per relation. ``n`` is the focus size, ``light`` what the
#: stages a workload is *not* about run on; the domain is ``n // fanout``
#: unless a query states its own.
SCALES = {
    "full": dict(n=100_000, light=10_000, fanout=8, batch_members=24,
                 light_members=6, selector_rows=200, page_size=1000,
                 update_page=100),
    # fanout 3 keeps the naive oracle's intermediate joins small
    "tiny": dict(n=2_000, light=500, fanout=3, batch_members=6,
                 light_members=4, selector_rows=20, page_size=100,
                 update_page=20),
}

#: share of ``--seconds`` each stage gets, per workload
SHARES = {
    "cold_shapes": dict(cold=0.6, serve=0.2, update=0.2),
    "serve_paging": dict(cold=0.2, serve=0.6, update=0.2),
    "update_mix": dict(cold=0.2, serve=0.2, update=0.6),
    "union_modalities": dict(cold=0.6, serve=0.2, update=0.2),
}

WORKLOADS = tuple(SHARES)


def _string_key(i: int) -> str:
    return f"user:{i:08d}:acct"


def string_key_id(value: str) -> int:
    """Inverse of the string-key format (checksums hash the id, because
    ``hash(str)`` differs between processes)."""
    return int(value[5:13])


def relation(rng: random.Random, n: int, domain: int, arity: int = 2,
             strings: bool = False) -> Relation:
    """Up to *n* uniform random tuples over ``[0, domain)``."""
    columns = [rng.choices(range(domain), k=n) for _ in range(arity)]
    if strings:
        keys = [_string_key(i) for i in range(domain)]
        columns = [[keys[i] for i in col] for col in columns]
    return Relation(arity, set(zip(*columns)))


def instance(rng: random.Random, symbols, n: int, domain: int,
             strings: bool = False) -> Instance:
    return Instance(
        {sym: relation(rng, n, domain, strings=strings) for sym in symbols}
    )


def selector_family(rng: random.Random, n: int, domain: int, members: int,
                    rows: int):
    """``(query texts, instance)``: 60% chain members, 40% star members,
    each with a private *rows*-row selector over shared *n*-row relations."""
    n_chain = max(1, (members * 3) // 5)
    relations = {
        sym: relation(rng, n, domain) for sym in ("R", "S", "T", "U", "V", "W")
    }
    texts = []
    for i in range(members):
        template, prefix = (
            (BATCH_CHAIN, "A") if i < n_chain else (BATCH_STAR, "B")
        )
        relations[f"{prefix}{i}"] = relation(rng, rows, domain, arity=1)
        texts.append(template.format(i=i))
    return texts, Instance(relations)


class DeltaStream:
    """Balanced insert/delete batches against one live instance.

    Every batch spreads evenly over all of *symbols* (half adds, half
    removes per relation), and every fifth batch is large: |delta| is 12
    for 80% of the batches and 204 for 20% (with three relations). The
    schedule is fixed and only the tuples are seeded, so the small and
    the large batches each form one homogeneous latency class — a median
    sits inside a class, not on the boundary between two — and relation
    sizes stay put. One batch never outruns ``Relation.DELTA_LOG_LIMIT``,
    so the engine's steady state is DELTA, never REBASE.
    """

    #: adds (= removes) per relation in a small / large batch
    SMALL, LARGE = 2, 34
    LARGE_EVERY = 5

    def __init__(self, rng: random.Random, inst: Instance, symbols,
                 domain: int) -> None:
        self.rng = rng
        self.domain = domain
        self.relations = {s: inst.get(s) for s in symbols}
        # removal candidates: a list supports O(1) seeded sampling
        self.rows = {s: sorted(rel.tuples) for s, rel in self.relations.items()}
        self.batches = 0

    def size(self, large: bool) -> int:
        """|delta| of a small or large batch."""
        return 2 * (self.LARGE if large else self.SMALL) * len(self.relations)

    def next_batch(self, large: bool | None = None) -> tuple[dict, int]:
        """``({symbol: (adds, removes)}, |delta|)`` — every add is absent
        and every remove present, so the whole batch takes effect."""
        if large is None:
            large = self.batches % self.LARGE_EVERY == self.LARGE_EVERY - 1
        self.batches += 1
        rng, per = self.rng, self.LARGE if large else self.SMALL
        batch = {}
        for sym, rel in self.relations.items():
            rows, live = self.rows[sym], rel.tuples
            removes = []
            for _ in range(per):
                i = rng.randrange(len(rows))
                rows[i], rows[-1] = rows[-1], rows[i]
                removes.append(rows.pop())
            adds: list[tuple] = []
            pending: set[tuple] = set()
            while len(adds) < per:
                t = (rng.randrange(self.domain), rng.randrange(self.domain))
                if t not in live and t not in pending:
                    pending.add(t)
                    adds.append(t)
            rows.extend(adds)
            batch[sym] = (adds, removes)
        return batch, self.size(large)


@dataclass
class ColdItem:
    """One query the cold stage answers from text on a fresh engine."""

    label: str
    text: str
    instance: Instance
    order_by: tuple[str, ...] | None = None
    #: maps an answer value to an int for the checksum (string keys)
    value_id: object = None


@dataclass
class Profile:
    """Everything one workload's three stages run on."""

    name: str
    scale: dict
    cold: list[ColdItem]
    batch_texts: list[str]
    batch_instance: Instance
    serve_text: str
    serve_instance: Instance
    update_text: str
    update_instance: Instance
    update_domain: int
    #: the union-layer probes of the traced run (members of ``cold`` when
    #: the workload has them, light stand-ins otherwise)
    thm4: ColdItem
    thm12: ColdItem

    @property
    def shares(self) -> dict:
        return SHARES[self.name]


def walk_order(text: str) -> tuple[str, ...]:
    """The first head-variable order (lexicographic over permutations)
    that the engine serves from its sorted-group walk rather than by
    materializing and sorting; the head order if there is none. Which
    orders a join tree can realize is the program's business, so it is
    asked — on an empty instance, which costs nothing."""
    ucq = parse_ucq(text)
    empty = Instance(
        {sym: Relation.empty(arity) for sym, arity in ucq.schema.items()}
    )
    head = tuple(str(v) for v in ucq.head)
    for order in itertools.permutations(head):
        if Engine().prepare(ucq, empty, order_by=order).enumerator is not None:
            return order
    return head


def rng_for(seed: int, workload: str, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{purpose}")


def _chain_item(rng, label, text, symbols, n, domain, *, order_by=None,
                strings=False) -> ColdItem:
    return ColdItem(
        label, text,
        instance(rng, symbols, n, domain, strings=strings),
        order_by=order_by,
        value_id=string_key_id if strings else None,
    )


def build(name: str, seed: int, scale_name: str = "full") -> Profile:
    """Generate workload *name*'s inputs from *seed* (same seed, same inputs)."""
    if name not in SHARES:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    scale = SCALES[scale_name]
    n, light = scale["n"], scale["light"]

    def dom(size: int) -> int:
        return max(4, size // scale["fanout"])

    def chain(rng, label, text, symbols, size, **kwargs) -> ColdItem:
        return _chain_item(rng, label, text, symbols, size, dom(size), **kwargs)

    def thm4(rng, size) -> ColdItem:
        return chain(rng, "thm4_union", THM4_UNION, "RST", size)

    def thm12(rng, size) -> ColdItem:
        # Example 2 materializes a join: a tenth of the size is ~7x answers
        return chain(rng, "thm12_union", THM12_UNION, ("R1", "R2", "R3"),
                     max(20, size // 10))

    serve_n = n if name == "serve_paging" else light
    update_n = n if name == "update_mix" else light
    batch_n = n if name == "union_modalities" else light

    rng = rng_for(seed, name, "cold")
    if name == "cold_shapes":
        cold = [
            chain(rng, "chain3", CHAIN3, "RST", n,
                  order_by=walk_order(CHAIN3)),
            chain(rng, "chain5", CHAIN5, [f"R{i}" for i in range(1, 6)], n),
            chain(rng, "star3", STAR3, ("R1", "R2", "R3"), n),
            chain(rng, "wide_head", WIDE_HEAD, "RSTU", n),
            chain(rng, "chain3_strings", CHAIN3, "RST", n, strings=True),
            chain(rng, "selfjoin_path", SELFJOIN_PATH, "R", n),
        ]
        union4, union12 = thm4(rng, light), thm12(rng, light)
    elif name == "union_modalities":
        union4, union12 = thm4(rng, n), thm12(rng, n)
        # a dense chain whose natural and order_by drains are both timed
        m = max(60, (n * 3) // 10)
        cold = [
            union4,
            union12,
            _chain_item(rng, "chain3_ordered", CHAIN3_WIDE, "RST", m,
                        max(6, m // 20), order_by=walk_order(CHAIN3_WIDE)),
        ]
    else:
        union4, union12 = thm4(rng, light), thm12(rng, light)
        cold = [
            chain(rng, "chain3", CHAIN3, "RST", light,
                  order_by=walk_order(CHAIN3)),
            union4,
            union12,
        ]

    batch_texts, batch_instance = selector_family(
        rng_for(seed, name, "batch"), batch_n, dom(batch_n),
        scale["batch_members" if name == "union_modalities"
              else "light_members"],
        scale["selector_rows"],
    )
    return Profile(
        name=name,
        scale=scale,
        cold=cold,
        batch_texts=batch_texts,
        batch_instance=batch_instance,
        serve_text=CHAIN3_WIDE,
        serve_instance=instance(
            rng_for(seed, name, "serve"), "RST", serve_n, max(5, serve_n // 20)
        ),
        update_text=THM4_UNION if name == "union_modalities" else CHAIN3,
        update_instance=instance(
            rng_for(seed, name, "update"), "RST", update_n, dom(update_n)
        ),
        update_domain=dom(update_n),
        thm4=union4,
        thm12=union12,
    )
