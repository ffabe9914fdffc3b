"""Tests for relations, instances, indexes, and generators."""

import pytest

from repro.database import (
    CountedGroupIndex,
    GroupIndex,
    Instance,
    MembershipIndex,
    Relation,
    boolean_matmul,
    chain_instance,
    edges_to_relation,
    er_graph,
    planted_clique_graph,
    planted_hyperclique,
    random_boolean_matrix,
    random_instance,
    random_relation,
    random_uniform_hypergraph,
    triangles_of,
)
from repro.exceptions import SchemaError


class TestRelation:
    def test_construction_and_contains(self):
        r = Relation.from_iterable(2, [(1, 2), (2, 3)])
        assert len(r) == 2
        assert (1, 2) in r
        assert (9, 9) not in r

    def test_arity_enforced(self):
        with pytest.raises(SchemaError):
            Relation(2, {(1, 2, 3)})
        r = Relation.empty(2)
        with pytest.raises(SchemaError):
            r.add((1,))

    def test_project(self):
        r = Relation.from_iterable(2, [(1, 2), (1, 3)])
        assert r.project([0]).tuples == {(1,)}
        assert r.project([1, 0]).tuples == {(2, 1), (3, 1)}

    def test_select_equal_positions(self):
        r = Relation.from_iterable(2, [(1, 1), (1, 2)])
        assert r.select_equal_positions([[0, 1]]).tuples == {(1, 1)}

    def test_select_constants(self):
        r = Relation.from_iterable(2, [(1, 2), (3, 2), (1, 4)])
        assert r.select_constants({0: 1}).tuples == {(1, 2), (1, 4)}

    def test_union(self):
        a = Relation.from_iterable(1, [(1,)])
        b = Relation.from_iterable(1, [(2,)])
        assert a.union(b).tuples == {(1,), (2,)}
        with pytest.raises(SchemaError):
            a.union(Relation.empty(2))

    def test_domain_and_size(self):
        r = Relation.from_iterable(2, [(1, 2), (2, 3)])
        assert r.domain() == {1, 2, 3}
        assert r.size_in_integers() == 4

    def test_nullary_relation(self):
        r = Relation.from_iterable(0, [()])
        assert len(r) == 1
        assert () in r


class TestInstance:
    def test_from_dict_and_get(self):
        inst = Instance.from_dict({"R": [(1, 2)], "S": [(2,)]})
        assert len(inst.get("R")) == 1
        assert inst.get("S").arity == 1

    def test_missing_relation_is_empty(self):
        inst = Instance()
        r = inst.get("R", arity=2)
        assert len(r) == 0 and r.arity == 2

    def test_missing_relation_without_arity_raises(self):
        with pytest.raises(SchemaError):
            Instance().get("R")

    def test_arity_mismatch_raises(self):
        inst = Instance.from_dict({"R": [(1, 2)]})
        with pytest.raises(SchemaError):
            inst.get("R", arity=3)

    def test_empty_relation_needs_explicit_arity(self):
        with pytest.raises(SchemaError):
            Instance.from_dict({"R": []})
        inst = Instance.from_dict({"R": Relation.empty(2)})
        assert inst.get("R").arity == 2

    def test_extended_does_not_mutate(self):
        inst = Instance.from_dict({"R": [(1, 2)]})
        ext = inst.extended({"P": Relation.from_iterable(1, [(5,)])})
        assert "P" in ext and "P" not in inst

    def test_measures(self):
        inst = Instance.from_dict({"R": [(1, 2), (2, 3)], "S": [(7,)]})
        assert inst.total_tuples() == 3
        assert inst.active_domain() == {1, 2, 3, 7}
        assert inst.size_in_integers() == 2 * 2 + 1 + 4


class TestIndexes:
    def test_group_index(self):
        idx = GroupIndex([(1, 2), (1, 3), (2, 4), (1, 2)], [0], [1])
        assert sorted(idx.lookup((1,))) == [(2,), (3,)]
        assert idx.lookup((9,)) == []
        assert idx.contains_key((2,))
        assert len(idx) == 2

    def test_group_index_composite_key(self):
        idx = GroupIndex([(1, 2, 3), (1, 2, 4)], [0, 1], [2])
        assert sorted(idx.lookup((1, 2))) == [(3,), (4,)]

    def test_empty_key(self):
        idx = GroupIndex([(1,), (2,)], [], [0])
        assert sorted(idx.lookup(())) == [(1,), (2,)]

    def test_membership_index(self):
        m = MembershipIndex([(1, 2), (3, 4)], [1])
        assert (2,) in m and (5,) not in m

    def test_group_index_preserves_first_occurrence_order(self):
        idx = GroupIndex([(1, 5), (1, 3), (1, 5), (1, 4)], [0], [1])
        assert idx.lookup((1,)) == [(5,), (3,), (4,)]

    def test_group_index_empty_value_positions(self):
        # projecting away every value position leaves one () per key
        idx = GroupIndex([(1, 2), (1, 3), (2, 9)], [0], [])
        assert idx.lookup((1,)) == [()]
        assert idx.lookup((2,)) == [()]


class TestGroupIndexMemoryShape:
    """The per-group dedup rewrite: no global (key, val) pair set survives
    (or is even allocated), and peak build memory drops accordingly."""

    def test_shape_no_global_pair_bookkeeping(self):
        idx = GroupIndex([(1, 2), (1, 2), (2, 3)], [0], [1])
        # the index stores exactly its positions, the groups mapping and
        # the lazy per-group position maps of apply_delta — no lifetime
        # (key, val) dedup structure
        assert set(GroupIndex.__slots__) == {
            "key_positions",
            "value_positions",
            "groups",
            "_positions",
        }
        # position maps are built by removals only, never by a build
        assert idx._positions == {}
        big = [(0, i) for i in range(200)]
        assert GroupIndex(big, [0], [1])._positions == {}
        assert CountedGroupIndex(big, [0], [1])._positions == {}
        adopted = GroupIndex.from_groups(
            [0], [1], {(0,): [(i,) for (_, i) in big]}
        )
        assert adopted._positions == {}
        assert idx.groups == {(1,): [(2,)], (2,): [(3,)]}
        assert all(isinstance(g, list) for g in idx.groups.values())
        # per-group lists are duplicate-free
        for group in idx.groups.values():
            assert len(group) == len(set(group))

    def test_groups_exposed_for_compiled_walks(self):
        idx = GroupIndex([(1, 2), (1, 3)], [0], [1])
        # lookup() returns the group list itself (no per-call copying): the
        # compiled CDY walk binds idx.groups.get directly
        assert idx.lookup((1,)) is idx.groups[(1,)]

    def test_build_peak_memory_below_legacy_pair_set(self):
        """tracemalloc peak of the new build vs the seed's (key, val) seen-set
        build on the same rows: the pair wrappers + full-size pair set are
        gone, so peak allocation must be strictly lower."""
        import gc
        import tracemalloc

        rows = [(i % 50, i % 4001, (i * 7) % 4001) for i in range(30_000)]
        key_positions, value_positions = [0], [1, 2]

        def legacy_build(rows):
            groups: dict = {}
            seen: set = set()
            for row in rows:
                key = tuple(row[p] for p in key_positions)
                val = tuple(row[p] for p in value_positions)
                if (key, val) in seen:
                    continue
                seen.add((key, val))
                groups.setdefault(key, []).append(val)
            return groups

        gc.collect()
        tracemalloc.start()
        legacy = legacy_build(rows)
        _, legacy_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del legacy
        gc.collect()

        tracemalloc.start()
        idx = GroupIndex(rows, key_positions, value_positions)
        _, new_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert idx.groups == legacy_build(rows)  # same result, cheaper build
        assert new_peak < legacy_peak, (
            f"expected lower build peak, got {new_peak} >= {legacy_peak}"
        )


class TestGenerators:
    def test_random_relation_deterministic(self):
        assert random_relation(2, 30, 5, seed=7).tuples == random_relation(
            2, 30, 5, seed=7
        ).tuples

    def test_random_instance_covers_schema(self):
        inst = random_instance({"R": 2, "S": 3}, n_tuples=10, domain_size=4, seed=1)
        assert inst.get("R").arity == 2
        assert inst.get("S").arity == 3

    def test_chain_instance_joins(self):
        inst = chain_instance(["R1", "R2"], n_values=5, fanout=2, seed=3)
        r1, r2 = inst.get("R1"), inst.get("R2")
        starts = {t[1] for t in r1}
        mids = {t[0] for t in r2}
        assert starts & mids  # the chain actually joins

    def test_er_graph_bounds(self):
        edges = er_graph(10, 0.5, seed=11)
        assert all(0 <= u < v < 10 for u, v in edges)

    def test_planted_clique_present(self):
        edges, clique = planted_clique_graph(12, 0.1, 4, seed=5)
        es = set(edges)
        from itertools import combinations

        assert all(
            (min(a, b), max(a, b)) in es for a, b in combinations(clique, 2)
        )

    def test_edges_to_relation_symmetric(self):
        rel = edges_to_relation([(1, 2)])
        assert rel.tuples == {(1, 2), (2, 1)}

    def test_triangles_of(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        assert triangles_of(edges) == [(0, 1, 2)]

    def test_boolean_matmul_reference(self):
        a = {(0, 1), (1, 0)}
        b = {(1, 5), (0, 7)}
        assert boolean_matmul(a, b) == {(0, 5), (1, 7)}

    def test_boolean_matmul_matches_numpy(self):
        import numpy as np

        n = 12
        a = random_boolean_matrix(n, 0.3, seed=1)
        b = random_boolean_matrix(n, 0.3, seed=2)
        am = np.zeros((n, n), dtype=bool)
        bm = np.zeros((n, n), dtype=bool)
        for i, j in a:
            am[i, j] = True
        for i, j in b:
            bm[i, j] = True
        cm = am @ bm
        assert boolean_matmul(a, b) == {
            (i, j) for i in range(n) for j in range(n) if cm[i, j]
        }

    def test_random_uniform_hypergraph(self):
        edges = random_uniform_hypergraph(8, 3, 0.4, seed=2)
        assert all(len(e) == 3 for e in edges)

    def test_planted_hyperclique(self):
        from itertools import combinations

        edges, clique = planted_hyperclique(9, 2, 0.1, 4, seed=4)
        es = set(edges)
        assert all(frozenset(c) in es for c in combinations(clique, 2))
