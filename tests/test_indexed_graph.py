"""Tests for the CSR IndexedGraph core and its cache on WeightedGraph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRGraph, GraphError, IndexedGraph, WeightedGraph, weighted_erdos_renyi


@pytest.fixture
def labeled_graph() -> WeightedGraph:
    graph = WeightedGraph()
    graph.add_edge("a", "b", 2)
    graph.add_edge("b", "c", 5)
    graph.add_edge("a", "c", 1)
    graph.add_node("d")
    graph.add_edge("d", "a", 3)
    return graph


class TestCSRLayout:
    def test_matches_weighted_graph(self, labeled_graph):
        idx = labeled_graph.indexed()
        assert idx.num_nodes == labeled_graph.num_nodes
        assert idx.num_edges == labeled_graph.num_edges
        for label in labeled_graph.nodes():
            i = idx.index_of(label)
            assert idx.label_of(i) == label
            assert idx.degree(i) == labeled_graph.degree(label)
            # Neighbour order matches the adjacency-map insertion order; the
            # cached sequence is an immutable tuple.
            assert list(idx.neighbor_labels(label)) == labeled_graph.neighbors(label)
            assert isinstance(idx.neighbor_labels(label), tuple)
            assert [idx.labels[j] for j in idx.neighbors(i)] == labeled_graph.neighbors(label)
            for neighbor in labeled_graph.neighbors(label):
                j = idx.index_of(neighbor)
                assert idx.latency_between(i, j) == labeled_graph.latency(label, neighbor)

    def test_indptr_is_consistent(self, labeled_graph):
        idx = labeled_graph.indexed()
        assert idx.indptr[0] == 0
        assert idx.indptr[-1] == len(idx.indices) == len(idx.latencies)
        assert len(idx.indptr) == idx.num_nodes + 1
        # Every undirected edge occupies exactly two directed slots with one id.
        assert len(idx.slot_edge_id) == 2 * idx.num_edges
        assert sorted(set(idx.slot_edge_id)) == list(range(idx.num_edges))

    def test_slot_of_rejects_non_neighbors(self, labeled_graph):
        idx = labeled_graph.indexed()
        with pytest.raises(KeyError):
            idx.slot_of(idx.index_of("b"), idx.index_of("d"))

    def test_random_graph_round_trip(self):
        graph = weighted_erdos_renyi(40, 0.15, seed=2)
        idx = graph.indexed()
        for label in graph.nodes():
            i = idx.index_of(label)
            start, end = idx.neighbor_slice(i)
            slots = list(range(start, end))
            assert [idx.indices[s] for s in slots] == [idx.index_of(v) for v in graph.neighbors(label)]
            assert [idx.latencies[s] for s in slots] == [
                graph.latency(label, v) for v in graph.neighbors(label)
            ]


class TestCaching:
    def test_cache_reuse(self, labeled_graph):
        assert labeled_graph.indexed() is labeled_graph.indexed()

    def test_mutation_invalidates(self, labeled_graph):
        before = labeled_graph.indexed()
        version = labeled_graph.version
        labeled_graph.add_edge("c", "d", 7)
        assert labeled_graph.version > version
        after = labeled_graph.indexed()
        assert after is not before
        assert after.num_edges == before.num_edges + 1

    def test_noop_add_node_keeps_cache(self, labeled_graph):
        before = labeled_graph.indexed()
        labeled_graph.add_node("a")  # already present
        assert labeled_graph.indexed() is before

    def test_set_latency_invalidates(self, labeled_graph):
        before = labeled_graph.indexed()
        labeled_graph.set_latency("a", "b", 9)
        after = labeled_graph.indexed()
        assert after is not before
        assert after.latency_between(after.index_of("a"), after.index_of("b")) == 9

    def test_remove_invalidates(self, labeled_graph):
        labeled_graph.indexed()
        labeled_graph.remove_edge("a", "b")
        assert "b" not in labeled_graph.indexed().neighbor_labels("a")
        labeled_graph.remove_node("d")
        assert labeled_graph.indexed().num_nodes == 3

    def test_direct_construction(self, labeled_graph):
        direct = IndexedGraph(labeled_graph)
        assert direct.num_nodes == labeled_graph.num_nodes


class TestLazySlotEdgeId:
    def test_from_csr_defers_and_matches_dict_build(self):
        graph = weighted_erdos_renyi(40, 0.15, seed=2)
        idx = graph.indexed()
        direct = IndexedGraph.from_csr(idx.labels, idx.indptr, idx.indices, idx.latencies)
        assert direct._slot_edge_id is None  # deferred until first access
        assert direct.num_edges == idx.num_edges
        # The pairing-based lazy build reproduces the dict constructor's
        # first-appearance edge-id order exactly.
        assert np.array_equal(direct.slot_edge_id, idx.slot_edge_id)
        assert direct._slot_edge_id is not None  # memoized

    @pytest.mark.parametrize("seed", [1, 7])
    def test_dict_build_edge_ids_are_first_appearance_numbering(self, seed):
        # Mixed labels (ints, strings, tuples) and isolated nodes, inserted
        # in an order unrelated to the labels' own ordering.
        source = weighted_erdos_renyi(30, 0.12, seed=seed)
        relabel = {
            k: k if k % 3 == 0 else f"s{29 - k}" if k % 3 == 1 else ("t", k) for k in range(30)
        }
        graph = WeightedGraph()
        graph.add_node("isolated-first")
        for k in source.nodes():
            graph.add_node(relabel[k])
            if k == 11:
                graph.add_node(("isolated", k))
        for edge in source.edges():
            graph.add_edge(relabel[edge.u], relabel[edge.v], edge.latency)
        graph.add_node(-1)
        idx = IndexedGraph(graph)
        assert idx._slot_edge_id is None  # deferred on the dict path too
        assert idx.degree(idx.index_of("isolated-first")) == 0
        expected: list[int] = []
        seen: dict[frozenset, int] = {}
        for i in range(idx.num_nodes):
            for j in idx.neighbors(i):
                expected.append(seen.setdefault(frozenset((i, j)), len(seen)))
        assert idx.slot_edge_id.tolist() == expected
        assert idx.num_edges == len(seen) == graph.num_edges
        direct = IndexedGraph.from_csr(idx.labels, idx.indptr, idx.indices, idx.latencies)
        for attr in ("indptr", "indices", "latencies", "slot_edge_id", "slot_pair_keys"):
            ours, theirs = getattr(idx, attr), getattr(direct, attr)
            if callable(ours):
                ours, theirs = ours(), theirs()
            assert ours.dtype == theirs.dtype == np.int64
            assert np.array_equal(ours, theirs)
        assert direct.num_edges == idx.num_edges

    def test_lazy_build_rejects_asymmetric_arrays(self):
        broken = IndexedGraph.from_csr(
            [0, 1],
            np.array([0, 1, 1], dtype=np.int64),
            np.array([1], dtype=np.int64),  # directed 0->1 with no mirror slot
            np.array([1], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="symmetric"):
            broken.slot_edge_id


class TestCSRGraph:
    @pytest.fixture
    def pair(self):
        dict_graph = weighted_erdos_renyi(36, 0.18, seed=4)
        return dict_graph, CSRGraph.from_weighted(dict_graph)

    def test_reads_match_dict_graph(self, pair):
        dict_graph, csr_graph = pair
        assert csr_graph.num_nodes == dict_graph.num_nodes
        assert csr_graph.num_edges == dict_graph.num_edges
        assert csr_graph.nodes() == dict_graph.nodes()
        assert csr_graph.max_degree() == dict_graph.max_degree()
        assert csr_graph.total_volume() == dict_graph.total_volume()
        assert csr_graph.max_latency() == dict_graph.max_latency()
        assert csr_graph.min_latency() == dict_graph.min_latency()
        assert csr_graph.is_connected() == dict_graph.is_connected()
        for node in dict_graph.nodes():
            assert csr_graph.has_node(node)
            assert csr_graph.degree(node) == dict_graph.degree(node)
            assert csr_graph.neighbors(node) == dict_graph.neighbors(node)
            for nbr in dict_graph.neighbors(node):
                assert csr_graph.has_edge(node, nbr)
                assert csr_graph.latency(node, nbr) == dict_graph.latency(node, nbr)
        assert not csr_graph.has_node("ghost")
        assert not csr_graph.has_edge(0, "ghost")
        with pytest.raises(GraphError):
            csr_graph.degree("ghost")
        missing = next(
            (u, v)
            for u in dict_graph.nodes()
            for v in dict_graph.nodes()
            if u != v and not dict_graph.has_edge(u, v)
        )
        with pytest.raises(GraphError):
            csr_graph.latency(*missing)
        assert csr_graph == dict_graph  # materializes the dicts; still equal

    def test_indexed_snapshot_is_prebuilt_and_bit_identical(self, pair):
        dict_graph, csr_graph = pair
        snapshot = csr_graph.indexed()
        assert snapshot is csr_graph.indexed()  # cached, no rebuild
        reference = dict_graph.indexed()
        assert snapshot.labels == reference.labels
        for attr in ("indptr", "indices", "latencies", "slot_edge_id"):
            assert np.array_equal(getattr(snapshot, attr), getattr(reference, attr)), attr

    def test_vectorized_bfs_detects_disconnection(self):
        parts = WeightedGraph()
        parts.add_edge(0, 1, 1)
        parts.add_edge(2, 3, 1)
        split = CSRGraph.from_weighted(parts)
        assert not split.is_connected()
        assert not parts.is_connected()

    def test_lookup_answers_like_the_label_index(self):
        graph = WeightedGraph()
        for u, v in ((3, 1), (1, 2), (2, "x"), (0, 3)):
            graph.add_edge(u, v, 1)
        csr_graph = CSRGraph.from_weighted(graph)
        snapshot = csr_graph.indexed()
        labels = graph.nodes()
        for label in (*labels, 4, -1, "y", 2.0):
            expected = labels.index(label) if label in labels else None
            assert snapshot.lookup(label) == expected
            assert csr_graph.has_node(label) == (expected is not None)

    def test_mutation_materialises_then_behaves_like_dict_graph(self, pair):
        dict_graph, csr_graph = pair
        u, v = next(
            (a, b)
            for a in dict_graph.nodes()
            for b in dict_graph.nodes()
            if a != b and not dict_graph.has_edge(a, b)
        )
        csr_graph.add_edge(u, v, 9)
        dict_graph.add_edge(u, v, 9)
        assert csr_graph.version > 0  # snapshot no longer fresh
        assert csr_graph == dict_graph
        assert csr_graph.num_edges == dict_graph.num_edges
        assert csr_graph.latency(u, v) == 9
        assert csr_graph.is_connected() == dict_graph.is_connected()
        after, reference = csr_graph.indexed(), dict_graph.indexed()
        for attr in ("indptr", "indices", "latencies", "slot_edge_id"):
            assert np.array_equal(getattr(after, attr), getattr(reference, attr)), attr


@st.composite
def small_graphs(draw):
    """Graphs on ``0..n-1`` (n >= 1): random edges over an optional spanning
    tree, plus optional isolated nodes appended after them."""
    n = draw(st.integers(min_value=1, max_value=40))
    graph = WeightedGraph()
    for node in range(n):
        graph.add_node(node)
    if draw(st.booleans()):
        for node in range(1, n):
            graph.add_edge(node, draw(st.integers(0, node - 1)), 1)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    for u, v in pairs:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, 1 + (u * v) % 3)
    for node in range(n, n + draw(st.integers(0, 2))):
        graph.add_node(node)
    return graph


@settings(max_examples=150, deadline=None)
@given(graph=small_graphs())
def test_property_csr_bfs_matches_dict_dfs(graph):
    # The vectorized frontier BFS (narrow frontiers deduplicated by sorting,
    # wide ones by a node mask) decides connectivity exactly like the dict DFS.
    assert CSRGraph.from_weighted(graph).is_connected() == graph.is_connected()
