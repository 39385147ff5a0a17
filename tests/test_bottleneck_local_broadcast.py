"""Unit tests for bottleneck analysis and the local-broadcast wrappers."""

from __future__ import annotations

import math

import pytest

from repro.core import cut_weight_ell_conductance, find_bottleneck, suggest_upgrades
from repro.core.estimation import fiedler_ordering
from repro.gossip import DTGLocalBroadcast, RandomizedLocalBroadcast, Task
from repro.graphs import (
    Cut,
    GraphError,
    WeightedGraph,
    clique,
    path_graph,
    two_cluster_slow_bridge,
    weighted_erdos_renyi,
    weighted_watts_strogatz,
)

# Graphs above the exact limit, where find_bottleneck sweeps a Fiedler ordering.
SWEPT_GRAPHS = {
    "erdos-renyi-30": lambda: weighted_erdos_renyi(30, 0.2, seed=3),
    "erdos-renyi-75": lambda: weighted_erdos_renyi(75, 0.08, seed=8),
    "slow-bridge-24": lambda: two_cluster_slow_bridge(12, fast_latency=1, slow_latency=64),
    "slow-bridge-40": lambda: two_cluster_slow_bridge(20, fast_latency=2, slow_latency=16, bridges=3),
    "watts-strogatz-50": lambda: weighted_watts_strogatz(50, 4, 0.2, seed=5),
    "watts-strogatz-64": lambda: weighted_watts_strogatz(64, 6, 0.3, seed=1),
}


def _first_best_prefix(graph: WeightedGraph, ell: int) -> Cut:
    """The per-prefix loop the vectorized sweep replaced: first least-φ_ℓ prefix."""
    ordering = fiedler_ordering(graph.latency_subgraph(ell))
    best_cut, best_value = None, math.inf
    for size in range(1, len(ordering)):
        cut = Cut(frozenset(ordering[:size]))
        value = cut_weight_ell_conductance(graph, cut, ell)
        if value < best_value:
            best_cut, best_value = cut, value
    return best_cut


class TestFindBottleneck:
    def test_slow_bridge_bottleneck_is_the_bridge(self, slow_bridge):
        report = find_bottleneck(slow_bridge)
        assert report.exact
        assert report.ell_star == 16
        # The bottleneck cut separates the two cliques: exactly one crossing
        # edge, and it is within the critical-latency threshold.
        assert len(report.fast_cut_edges) + len(report.slow_cut_edges) == 1
        assert report.critical_ratio == pytest.approx(report.ell_star / report.phi_star)

    def test_unit_clique_bottleneck(self):
        report = find_bottleneck(clique(8))
        assert report.ell_star == 1
        assert report.phi_star > 0
        assert not report.slow_cut_edges

    def test_large_graph_uses_approximation(self):
        graph = two_cluster_slow_bridge(12, fast_latency=1, slow_latency=64, bridges=1)
        report = find_bottleneck(graph, seed=1)
        assert not report.exact
        assert report.ell_star == 64
        # The sweep cut should isolate (approximately) one clique: few crossing edges.
        assert len(report.fast_cut_edges) + len(report.slow_cut_edges) <= 4

    @pytest.mark.parametrize("make_graph", SWEPT_GRAPHS.values(), ids=SWEPT_GRAPHS.keys())
    def test_swept_cut_matches_per_prefix_loop(self, make_graph):
        graph = make_graph()
        report = find_bottleneck(graph, seed=2)
        assert not report.exact
        assert report.cut == _first_best_prefix(graph, report.ell_star)

    def test_degenerate_graph_rejected(self):
        with pytest.raises(GraphError):
            find_bottleneck(WeightedGraph(range(3)))


class TestSuggestUpgrades:
    def test_upgrading_the_slow_bridge_improves_ratio(self):
        graph = two_cluster_slow_bridge(4, fast_latency=1, slow_latency=64, bridges=2)
        before = find_bottleneck(graph).critical_ratio
        suggestions = suggest_upgrades(graph, budget=1, upgraded_latency=1)
        assert suggestions, "expected at least one upgrade suggestion"
        edge, new_ratio = suggestions[0]
        assert edge.latency == 64
        assert new_ratio < before

    def test_budget_and_validation(self):
        graph = two_cluster_slow_bridge(4, fast_latency=1, slow_latency=32, bridges=2)
        suggestions = suggest_upgrades(graph, budget=2, upgraded_latency=1)
        assert len(suggestions) <= 2
        with pytest.raises(GraphError):
            suggest_upgrades(graph, budget=0)
        with pytest.raises(GraphError):
            suggest_upgrades(graph, budget=1, upgraded_latency=0)

    def test_no_suggestions_on_uniform_graph(self):
        # Nothing to upgrade when every edge already has the target latency.
        assert suggest_upgrades(clique(6), budget=2, upgraded_latency=1) == []


class TestLocalBroadcastWrappers:
    @pytest.mark.parametrize("algorithm_factory", [DTGLocalBroadcast, RandomizedLocalBroadcast])
    def test_solves_local_broadcast(self, algorithm_factory, small_weighted_er):
        result = algorithm_factory().run(small_weighted_er, seed=1)
        assert result.complete
        assert result.task is Task.LOCAL_BROADCAST
        assert result.time > 0

    def test_dtg_wrapper_reports_charged_time(self):
        graph = two_cluster_slow_bridge(3, fast_latency=1, slow_latency=8, bridges=1)
        result = DTGLocalBroadcast().run(graph)
        assert result.complete
        # Charged time is ell_max * DTG rounds, so it is a multiple of 8.
        assert result.time % 8 == 0
        assert result.details["ell"] == 8

    def test_randomized_wrapper_matches_push_pull_semantics(self):
        graph = path_graph(8)
        result = RandomizedLocalBroadcast().run(graph, seed=2)
        assert result.complete
        assert result.algorithm == "push-pull-local-broadcast"

    def test_disconnected_rejected(self):
        graph = WeightedGraph(range(3))
        graph.add_edge(0, 1, 1)
        with pytest.raises(GraphError):
            DTGLocalBroadcast().run(graph)
