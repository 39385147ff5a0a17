"""Graphs and plans read off the snapshot, against the ``edges()`` loops they replace.

``WeightedGraph.copy`` and ``latency_subgraph`` lay out the snapshot's slots
sorted by ``(source, slot_edge_id)`` instead of re-adding every edge, and
``random_edge_drop_plan`` draws edge positions instead of sampling the edge
list.  Each is checked against the loop it replaced, on hand-built graphs
with mixed int/str/tuple labels, shuffled insertion and removals, as dict
graphs and as ``CSRGraph``s (pristine, after an event round, and after a
direct mutation).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import CSRGraph, WeightedGraph
from repro.simulation import FaultState, TopologyEvent, apply_events
from repro.simulation.faults import random_edge_drop_plan
from repro.simulation.rng import derive_seed, make_rng

LABELS = [0, "a", ("t", 1), 3, "b", ("t", 0), 6, "c", 8, ("u", 2), 10, "d"]


def copy_by_loop(graph: WeightedGraph) -> WeightedGraph:
    clone = WeightedGraph(graph.nodes())
    for edge in graph.edges():
        clone.add_edge(edge.u, edge.v, edge.latency)
    return clone


def subgraph_by_loop(graph: WeightedGraph, max_latency: int) -> WeightedGraph:
    sub = WeightedGraph(graph.nodes())
    for edge in graph.edges():
        if edge.latency <= max_latency:
            sub.add_edge(edge.u, edge.v, edge.latency)
    return sub


def drop_plan_by_sample(graph: WeightedGraph, fraction: float, round_: int, seed: int) -> dict:
    rng = make_rng(derive_seed(seed, "edge-drop-plan"))
    edges = graph.edge_list()
    count = int(round(fraction * len(edges)))
    dropped = rng.sample(edges, min(count, len(edges))) if count else []
    return {frozenset((edge.u, edge.v)): round_ for edge in dropped}


@st.composite
def hand_built(draw) -> WeightedGraph:
    labels = draw(st.permutations(LABELS))[: draw(st.integers(1, len(LABELS)))]
    graph = WeightedGraph(labels)
    pairs = [(u, v) for k, u in enumerate(labels) for v in labels[k + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30, unique=True)) if pairs else []
    for u, v in edges:
        u, v = (v, u) if draw(st.booleans()) else (u, v)
        graph.add_edge(u, v, draw(st.integers(1, 9)))
    for u, v in draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []:
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
    return graph


def states(graph: WeightedGraph, draw) -> list[WeightedGraph]:
    """The graph as a dict graph and as a CSRGraph in each of its states."""
    pristine = CSRGraph.from_weighted(graph)
    evented = CSRGraph.from_weighted(graph)
    nodes = graph.nodes()
    u, v = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
    events = [TopologyEvent("node-leave", u), TopologyEvent("node-join", u, edges=((v, 4),))]
    apply_events(evented, events, FaultState())
    mutated = CSRGraph.from_weighted(graph)
    mutated.add_node("late")
    return [graph, pristine, evented, mutated]


def assert_same_graph(ours: WeightedGraph, oracle: WeightedGraph) -> None:
    mine, spec = ours.indexed(), oracle.indexed()
    assert mine.labels == spec.labels
    for name in ("indptr", "indices", "latencies"):
        assert np.array_equal(getattr(mine, name), getattr(spec, name)), name
    assert ours == oracle


@settings(max_examples=150, deadline=None)
@given(graph=hand_built(), data=st.data(), max_latency=st.integers(0, 10))
def test_copy_and_latency_subgraph_match_the_edge_loops(graph, data, max_latency):
    for state in states(graph, data.draw):
        assert_same_graph(state.copy(), state if state.version == 0 else copy_by_loop(state))
        assert_same_graph(state.latency_subgraph(max_latency), subgraph_by_loop(state, max_latency))


@settings(max_examples=150, deadline=None)
@given(
    graph=hand_built(),
    data=st.data(),
    fraction=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]),
    seed=st.integers(0, 2**20),
)
def test_edge_drop_plan_draws_what_sampling_the_edge_list_draws(graph, data, fraction, seed):
    for state in states(graph, data.draw):
        plan = random_edge_drop_plan(state, fraction, 3, seed=seed).edge_drops
        oracle = drop_plan_by_sample(state, fraction, 3, seed)
        assert list(plan.items()) == list(oracle.items())
