"""Database substrate: relations, instances, indexes, partitioning,
generators."""

from .generators import (
    boolean_matmul,
    chain_instance,
    edges_to_relation,
    er_graph,
    planted_clique_graph,
    planted_hyperclique,
    random_boolean_matrix,
    random_instance,
    random_instance_for,
    random_relation,
    random_uniform_hypergraph,
    triangles_of,
)
from .columns import (
    AttachedBlock,
    ColumnSegment,
    IdColumn,
    SharedShardArena,
    live_segments,
    system_segments,
)
from .indexes import CountedGroupIndex, GroupIndex
from .instance import Instance
from .interner import Interner
from .partition import shard_bounds
from .relation import Relation

__all__ = [
    "AttachedBlock",
    "ColumnSegment",
    "CountedGroupIndex",
    "GroupIndex",
    "IdColumn",
    "Instance",
    "Interner",
    "Relation",
    "SharedShardArena",
    "boolean_matmul",
    "chain_instance",
    "edges_to_relation",
    "er_graph",
    "planted_clique_graph",
    "planted_hyperclique",
    "random_boolean_matrix",
    "random_instance",
    "random_instance_for",
    "random_relation",
    "live_segments",
    "shard_bounds",
    "system_segments",
    "random_uniform_hypergraph",
    "triangles_of",
]
