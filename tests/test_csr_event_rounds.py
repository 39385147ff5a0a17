"""Event rounds on a CSRGraph's arrays against the dict applier.

A :class:`CSRGraph` applies each round of topology events to its arrays;
a dict-built :class:`WeightedGraph` applies them to its dicts, and its
snapshot is the spec.  One Hypothesis property draws a small graph with
mixed int/str/tuple labels, takes it as a ``CSRGraph`` and as its dict
twin (``WeightedGraph.from_indexed``), and drives both through several
drawn rounds: additions, removals and latency changes of present and
absent edges, a node leaving (isolated or not), nodes joining (new or
returning, with edges to present nodes, unknown nodes and themselves),
an edge removed and re-added or added and removed in one round, fault
events, and now and then a direct mutation between rounds.  After every
round both sides must have the same snapshot arrays and labels, the same
severed pairs and faults, the same version movement and the same raised
error, and the CSR side's record of where each old slot went must name
the same directed pairs.  No array of an earlier snapshot may change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import CSRGraph, GraphError, WeightedGraph
from repro.simulation import FaultState, TopologyEvent, apply_events

ARRAYS = ("indptr", "indices", "latencies")
#: Labels a graph may start with, and labels that can only ever join.
START = [0, "a", ("t", 1), 3, "b", ("t", 0), 6, "c", 8, ("u", 2)]
NEW = ["joiner", ("n", 0), 11]


@st.composite
def start_graphs(draw) -> WeightedGraph:
    labels = draw(st.permutations(START))[: draw(st.integers(2, len(START)))]
    graph = WeightedGraph(labels)
    pairs = [(u, v) for k, u in enumerate(labels) for v in labels[k + 1 :]]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=18, unique=True)):
        u, v = (v, u) if draw(st.booleans()) else (u, v)
        graph.add_edge(u, v, draw(st.integers(1, 5)))
    return graph


def present_edges(graph: WeightedGraph) -> list[tuple]:
    return [(edge.u, edge.v) for edge in graph.edges()]


def draw_event(draw, graph: WeightedGraph) -> TopologyEvent:
    nodes = graph.nodes()
    pool = nodes + NEW
    edges = present_edges(graph)
    latency = st.integers(1, 5)
    kind = draw(
        st.sampled_from(
            ["add", "remove", "set", "leave", "join", "flap", "crash", "fault", "loop"]
        )
    )
    if kind in ("remove", "set", "flap") and edges and draw(st.booleans()):
        u, v = draw(st.sampled_from(edges))
    else:
        u, v = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    if kind == "add":
        if u == v:
            v = draw(st.sampled_from([label for label in pool if label != u]))
        return TopologyEvent("add-edge", u, v, latency=draw(latency))
    if kind == "remove":
        return TopologyEvent("remove-edge", u, v)
    if kind == "set":
        return TopologyEvent("set-latency", u, v, latency=draw(latency))
    if kind == "leave":
        return TopologyEvent("node-leave", u)
    if kind == "join":
        peers = st.tuples(st.sampled_from(pool + [u]), latency)
        return TopologyEvent("node-join", u, edges=tuple(draw(st.lists(peers, max_size=4))))
    if kind == "flap":  # a remove and re-add (or add and remove) of one pair
        return TopologyEvent("remove-edge", u, v) if u != v else TopologyEvent("node-leave", u)
    if kind == "crash":
        return TopologyEvent("node-crash", draw(st.sampled_from(nodes)))
    if kind == "fault":
        return TopologyEvent("edge-fault", u, v)
    return TopologyEvent("add-edge", u, u, latency=1)  # a self-loop: both sides raise


def draw_round(draw, graph: WeightedGraph) -> list[TopologyEvent]:
    events = [draw_event(draw, graph) for _ in range(draw(st.integers(1, 6)))]
    # Pair every removal with a re-add of the same edge, sometimes before it.
    flaps = [e for e in events if e.kind == "remove-edge" and draw(st.booleans())]
    for event in flaps:
        readd = TopologyEvent("add-edge", event.u, event.v, latency=draw(st.integers(1, 5)))
        position = draw(st.integers(0, len(events)))
        events.insert(position, readd)
    return events


def apply(graph: WeightedGraph, events, faults: FaultState):
    """The round's severed pairs, or the error it raised."""
    try:
        return apply_events(graph, events, faults)
    except GraphError as exc:
        return type(exc)


def assert_same_snapshot(csr: CSRGraph, twin: WeightedGraph) -> None:
    ours, spec = csr.indexed(), twin.indexed()
    assert ours.labels == spec.labels
    for name in ARRAYS:
        assert np.array_equal(getattr(ours, name), getattr(spec, name)), name
    assert ours.index == {label: i for i, label in enumerate(spec.labels)}


def assert_slot_record(old, new) -> None:
    """``new.slots_from(old)`` sends each old slot to its pair's new slot, or -1."""
    kept = new.slots_from(old)
    if kept is None:  # no event changed the graph: the snapshot is the old one
        assert new is old
        return
    old_pairs = list(zip(old.slot_sources().tolist(), old.indices.tolist()))
    new_pairs = list(zip(new.slot_sources().tolist(), new.indices.tolist()))
    where = {pair: slot for slot, pair in enumerate(new_pairs)}
    assert kept.tolist() == [where.get(pair, -1) for pair in old_pairs]


@settings(max_examples=120, deadline=None)
@given(start=start_graphs(), data=st.data())
def test_event_rounds_lay_out_the_dict_paths_slots(start, data):
    csr = CSRGraph.from_weighted(start)
    twin = WeightedGraph.from_indexed(start.indexed())
    first = csr.indexed()
    frozen = {name: getattr(first, name).copy() for name in ARRAYS}
    faults = (FaultState(), FaultState())
    for _ in range(data.draw(st.integers(1, 5))):
        u, v = data.draw(st.sampled_from(twin.nodes())), data.draw(st.sampled_from(NEW))
        if u != v and not twin.has_edge(u, v) and data.draw(st.integers(0, 4)) == 0:
            # A direct mutation between rounds: the CSR side goes dict-backed.
            for graph in (csr, twin):
                graph.add_edge(u, v, 2)
        events = draw_round(data.draw, twin)
        before = (csr.version, twin.version)
        old = csr.indexed()
        outcome = apply(csr, events, faults[0])
        assert outcome == apply(twin, events, faults[1])
        assert csr.version - before[0] == twin.version - before[1]
        assert faults[0].crashed == faults[1].crashed
        assert faults[0].dropped == faults[1].dropped
        assert_same_snapshot(csr, twin)
        if isinstance(outcome, set):
            assert_slot_record(old, csr.indexed())
    # Reads after the rounds rebuild the dicts from the last snapshot.
    assert csr == twin
    assert [csr.neighbors(node) for node in csr.nodes()] == [
        twin.neighbors(node) for node in twin.nodes()
    ]
    for name in ARRAYS:
        assert np.array_equal(getattr(first, name), frozen[name])


def test_a_round_touches_only_its_rows_and_shares_nothing_it_writes():
    graph = WeightedGraph(range(6))
    for u, v, latency in [(0, 1, 1), (1, 2, 2), (2, 0, 3), (3, 4, 1), (4, 5, 2)]:
        graph.add_edge(u, v, latency)
    csr = CSRGraph.from_weighted(graph)
    clone = csr.copy()
    base = csr.indexed()
    apply_events(csr, [TopologyEvent("remove-edge", 1, 0), TopologyEvent("add-edge", 0, 1, 4)])
    new = csr.indexed()
    # Rows 0 and 1 close up and append; rows 2..5 move as blocks.
    assert new.neighbor_labels(0) == (2, 1) and new.neighbor_labels(1) == (2, 0)
    assert new.slots_from(base).tolist() == [1, 0, 3, 2, 4, 5, 6, 7, 8, 9]
    assert clone.indexed() is not new and np.array_equal(clone.indexed().indices, base.indices)
    assert csr._adj_dict is None  # an event round keeps no dicts


def test_an_event_round_after_a_direct_mutation_starts_from_its_dicts():
    graph = WeightedGraph(range(4))
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        graph.add_edge(u, v, 1)
    csr, twin = CSRGraph.from_weighted(graph), WeightedGraph.from_indexed(graph.indexed())
    for side in (csr, twin):
        side.remove_edge(1, 2)  # direct: the CSR side materialises its dicts
    assert csr._adj_dict is not None
    for side in (csr, twin):
        apply_events(side, [TopologyEvent("node-join", 4, edges=((0, 2), (3, 1)))])
    assert_same_snapshot(csr, twin)
    assert csr._adj_dict is None


@pytest.mark.parametrize("late", [False, True])
def test_a_raising_event_keeps_the_events_before_it(late):
    graph = WeightedGraph(["x", "y", "z"])
    graph.add_edge("x", "y", 1)
    events = [TopologyEvent("add-edge", "y", "z", latency=2), TopologyEvent("node-crash", "w")]
    if late:
        events.insert(0, TopologyEvent("remove-edge", "x", "y"))
    csr, twin = CSRGraph.from_weighted(graph), WeightedGraph.from_indexed(graph.indexed())
    for side in (csr, twin):
        with pytest.raises(GraphError, match="not in the graph"):
            apply_events(side, events, FaultState())
    assert_same_snapshot(csr, twin)
