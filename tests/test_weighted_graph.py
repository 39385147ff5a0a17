"""Unit tests for repro.graphs.weighted_graph."""

from __future__ import annotations

import pytest

from repro.graphs import Edge, GraphError, WeightedGraph


class TestEdge:
    def test_canonical_orders_endpoints(self):
        assert Edge.canonical(2, 1, 3) == Edge.canonical(1, 2, 3)

    def test_other_endpoint(self):
        edge = Edge.canonical(1, 2, 5)
        assert edge.other(1) == 2
        assert edge.other(2) == 1

    def test_other_rejects_non_endpoint(self):
        edge = Edge.canonical(1, 2, 5)
        with pytest.raises(GraphError):
            edge.other(3)

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(GraphError):
            Edge(1, 2, 0)

    def test_endpoints(self):
        assert Edge.canonical(4, 3, 1).endpoints() == (3, 4)


class TestConstruction:
    def test_add_nodes_and_edges(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 3)
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
        assert graph.latency("a", "b") == 3
        assert graph.latency("b", "a") == 3

    def test_add_node_idempotent(self):
        graph = WeightedGraph()
        graph.add_node(1)
        graph.add_node(1)
        assert graph.num_nodes == 1

    def test_self_loop_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1, 1)

    def test_non_integer_latency_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, 1.5)  # type: ignore[arg-type]

    def test_nonpositive_latency_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, 0)

    def test_re_add_same_latency_is_noop(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 1, 2)
        assert graph.num_edges == 1

    def test_re_add_different_latency_rejected(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, 3)

    def test_set_latency(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.set_latency(0, 1, 7)
        assert graph.latency(1, 0) == 7

    def test_set_latency_missing_edge(self):
        graph = WeightedGraph(range(2))
        with pytest.raises(GraphError):
            graph.set_latency(0, 1, 3)

    def test_remove_edge(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.remove_edge(0, 1)
        assert graph.num_edges == 0
        assert not graph.has_edge(0, 1)

    def test_remove_node_removes_incident_edges(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 1)
        graph.remove_node(1)
        assert graph.num_nodes == 2
        assert graph.num_edges == 0

    def test_remove_missing_node(self):
        graph = WeightedGraph()
        with pytest.raises(GraphError):
            graph.remove_node(42)


class TestQueries:
    def test_degrees_and_volume(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.max_degree() == 2
        assert triangle.volume([0, 1]) == 4
        assert triangle.total_volume() == 6

    def test_neighbors(self, triangle):
        assert set(triangle.neighbors(1)) == {0, 2}

    def test_neighbor_latencies(self, triangle):
        assert triangle.neighbor_latencies(0) == {1: 1, 2: 4}

    def test_missing_node_queries_raise(self):
        graph = WeightedGraph()
        with pytest.raises(GraphError):
            graph.neighbors(0)
        with pytest.raises(GraphError):
            graph.degree(0)
        with pytest.raises(GraphError):
            graph.latency(0, 1)

    def test_edges_iterated_once(self, triangle):
        edges = triangle.edge_list()
        assert len(edges) == 3
        assert len(set(edges)) == 3

    def test_latency_extremes(self, triangle):
        assert triangle.max_latency() == 4
        assert triangle.min_latency() == 1
        assert triangle.distinct_latencies() == [1, 2, 4]

    def test_empty_graph_latency_defaults(self):
        graph = WeightedGraph(range(3))
        assert graph.max_latency() == 1
        assert graph.min_latency() == 1

    def test_latency_summaries_follow_mutations_as_python_ints(self, triangle):
        # The summaries read the per-version snapshot, so each mutation
        # must show, and distinct latencies stay plain ints.
        assert all(type(latency) is int for latency in triangle.distinct_latencies())
        triangle.set_latency(0, 2, 9)
        assert (triangle.max_latency(), triangle.distinct_latencies()) == (9, [1, 2, 9])
        triangle.remove_edge(0, 1)
        assert (triangle.min_latency(), triangle.distinct_latencies()) == (2, [2, 9])
        assert WeightedGraph(range(3)).distinct_latencies() == []

    def test_contains_len_iter(self, triangle):
        assert 0 in triangle
        assert 5 not in triangle
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]


class TestDerivedGraphs:
    def test_latency_subgraph_keeps_all_nodes(self, triangle):
        sub = triangle.latency_subgraph(1)
        assert sub.num_nodes == 3
        assert sub.num_edges == 1
        assert sub.has_edge(0, 1)

    def test_latency_subgraph_threshold_inclusive(self, triangle):
        sub = triangle.latency_subgraph(2)
        assert sub.num_edges == 2

    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.set_latency(0, 1, 9)
        assert triangle.latency(0, 1) == 1
        assert clone == clone.copy()

    def test_equality(self, triangle):
        assert triangle == triangle.copy()
        other = triangle.copy()
        other.set_latency(0, 1, 9)
        assert triangle != other

    def test_relabel_to_integers(self):
        graph = WeightedGraph()
        graph.add_edge("x", "y", 2)
        graph.add_edge("y", "z", 3)
        relabeled, mapping = graph.relabel_to_integers()
        assert sorted(relabeled.nodes()) == [0, 1, 2]
        assert relabeled.latency(mapping["x"], mapping["y"]) == 2


class TestInterop:
    def test_networkx_round_trip(self, triangle):
        nx_graph = triangle.to_networkx()
        back = WeightedGraph.from_networkx(nx_graph)
        assert back == triangle

    def test_from_networkx_rounds_float_latencies(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edge(0, 1, latency=2.6)
        nx_graph.add_edge(1, 2)
        graph = WeightedGraph.from_networkx(nx_graph, default_latency=5)
        assert graph.latency(0, 1) == 3
        assert graph.latency(1, 2) == 5


class TestStructure:
    def test_connectivity(self, triangle):
        assert triangle.is_connected()
        disconnected = WeightedGraph(range(4))
        disconnected.add_edge(0, 1, 1)
        assert not disconnected.is_connected()

    def test_empty_graph_not_connected(self):
        assert not WeightedGraph().is_connected()

    def test_connected_components(self):
        graph = WeightedGraph(range(5))
        graph.add_edge(0, 1, 1)
        graph.add_edge(2, 3, 1)
        components = sorted(graph.connected_components(), key=lambda c: min(c))
        assert components == [{0, 1}, {2, 3}, {4}]

    def test_is_regular(self, small_clique, small_star):
        assert small_clique.is_regular()
        assert not small_star.is_regular()
