"""Yannakakis substrate: grounding, full reducer, fused cold pipeline,
parallel sharded cold pipeline, constant-delay evaluator."""

from .cdy import CDYEnumerator, enumerate_cq
from .decide import decide_cq, decide_ucq
from .fused import FusedNode, FusedReduction, fused_reduce
from .parallel import (
    parallel_ground_columnar,
    parallel_reduce,
    shard_ground,
    shard_materialize_shm,
)
from .grounding import (
    ColumnarAtom,
    GroundAtom,
    ground_atom,
    ground_atom_columnar,
    ground_atoms,
    ground_atoms_columnar,
)
from .reducer import NodeRelation, full_reduce, semijoin

__all__ = [
    "CDYEnumerator",
    "ColumnarAtom",
    "FusedNode",
    "FusedReduction",
    "GroundAtom",
    "NodeRelation",
    "decide_cq",
    "decide_ucq",
    "enumerate_cq",
    "full_reduce",
    "fused_reduce",
    "ground_atom",
    "ground_atom_columnar",
    "ground_atoms",
    "ground_atoms_columnar",
    "parallel_ground_columnar",
    "parallel_reduce",
    "semijoin",
    "shard_ground",
    "shard_materialize_shm",
]
