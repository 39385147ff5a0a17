"""Property-based tests (hypothesis) for the extension subsystems.

Covers graph serialization round-trips, gossip aggregation correctness,
crash-fault safety, and bottleneck upgrade monotonicity — each an invariant
that should hold for arbitrary (small) weighted graphs, not just the
hand-picked fixtures.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core import find_bottleneck, suggest_upgrades
from repro.gossip import gossip_aggregate
from repro.graphs import (
    WeightedGraph,
    assign_latencies,
    erdos_renyi,
    from_edge_list,
    from_json,
    to_edge_list,
    to_json,
    uniform_latency,
)
from repro.simulation import FaultPlan, GossipEngine, compile_fault_plan, random_crash_plan
from repro.simulation.rng import make_rng

graph_params = st.tuples(
    st.integers(min_value=3, max_value=12),      # n
    st.floats(min_value=0.3, max_value=0.9),     # edge probability
    st.integers(min_value=1, max_value=64),      # max latency
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build_graph(params) -> WeightedGraph:
    n, p, max_latency, seed = params
    base = erdos_renyi(n, p, seed=seed)
    return assign_latencies(base, uniform_latency(1, max_latency), seed=seed)


class TestSerializationProperties:
    @given(graph_params)
    @settings(max_examples=40, deadline=None)
    def test_edge_list_round_trip(self, params):
        graph = build_graph(params)
        assert from_edge_list(to_edge_list(graph)) == graph

    @given(graph_params)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, params):
        graph = build_graph(params)
        assert from_json(to_json(graph)) == graph

    @given(graph_params)
    @settings(max_examples=25, deadline=None)
    def test_formats_agree(self, params):
        graph = build_graph(params)
        assert from_edge_list(to_edge_list(graph)) == from_json(to_json(graph))


class TestAggregationProperties:
    @given(graph_params, st.sampled_from(["min", "max", "sum", "mean"]))
    @settings(max_examples=25, deadline=None)
    def test_aggregate_is_exact_on_every_connected_graph(self, params, aggregate):
        graph = build_graph(params)
        inputs = {node: float((node * 7) % 13) for node in graph.nodes()}
        result = gossip_aggregate(graph, inputs, aggregate=aggregate, seed=params[3])
        assert result.exact
        # All nodes agree, and the consensus matches a direct computation.
        direct = {
            "min": min(inputs.values()),
            "max": max(inputs.values()),
            "sum": sum(inputs.values()),
            "mean": sum(inputs.values()) / len(inputs),
        }[aggregate]
        assert math.isclose(result.consensus_value(), direct)

    @given(graph_params)
    @settings(max_examples=20, deadline=None)
    def test_aggregation_time_at_least_eccentricity(self, params):
        from repro.graphs import dijkstra

        graph = build_graph(params)
        inputs = {node: 1.0 for node in graph.nodes()}
        result = gossip_aggregate(graph, inputs, aggregate="count", seed=params[3])
        eccentricities = [max(dijkstra(graph, node).values()) for node in graph.nodes()]
        # All-to-all needs at least the largest eccentricity (the last pair to meet).
        assert result.time >= max(eccentricities)


class TestFaultProperties:
    @given(
        st.integers(min_value=4, max_value=12),
        st.floats(min_value=0.0, max_value=0.4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_survivors_always_complete_on_a_clique(self, n, crash_fraction, seed):
        from repro.graphs import clique

        graph = clique(n)
        plan = random_crash_plan(graph, crash_fraction, crash_round=2, seed=seed)
        engine = GossipEngine(graph, dynamics=compile_fault_plan(plan))
        engine.seed_all_rumors()
        rng = make_rng(seed, "fault-property")
        metrics = engine.run(
            lambda view: rng.choice(view.neighbors),
            stop_condition=lambda eng: eng.all_to_all_complete(),
            max_rounds=10_000,
        )
        survivors = plan.surviving_nodes(graph, engine.round)
        assert len(survivors) >= n - int(round(crash_fraction * n)) - 1
        for node in survivors:
            assert engine.knowledge[node].origins() >= survivors
        assert metrics.completion_time is not None

    @given(graph_params)
    @settings(max_examples=20, deadline=None)
    def test_empty_fault_plan_changes_nothing(self, params):
        graph = build_graph(params)
        plan = FaultPlan()
        assert plan.surviving_nodes(graph, 100) == set(graph.nodes())
        for edge in graph.edges():
            assert not plan.is_edge_dropped(edge.u, edge.v, 100)


class TestBottleneckProperties:
    @given(graph_params)
    @settings(max_examples=20, deadline=None)
    def test_bottleneck_report_is_consistent(self, params):
        graph = build_graph(params)
        report = find_bottleneck(graph)
        assert 0.0 <= report.phi_star <= 1.0 + 1e-9
        assert report.ell_star in graph.distinct_latencies()
        # The cut edges are partitioned by the critical latency threshold.
        for edge in report.fast_cut_edges:
            assert edge.latency <= report.ell_star
        for edge in report.slow_cut_edges:
            assert edge.latency > report.ell_star

    @given(graph_params)
    @settings(max_examples=12, deadline=None)
    def test_upgrades_never_worsen_the_critical_ratio(self, params):
        graph = build_graph(params)
        before = find_bottleneck(graph).critical_ratio
        suggestions = suggest_upgrades(graph, budget=1, upgraded_latency=1)
        for _edge, new_ratio in suggestions:
            assert new_ratio <= before + 1e-9
