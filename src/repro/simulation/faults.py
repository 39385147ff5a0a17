"""Fault injection for gossip simulations.

Section 6 of the paper observes that "exchanging messages with the help of
the spanner does not have good robustness properties whereas push-pull is
inherently quite robust", and the conclusion lists fault-tolerant variants as
future work.  This module makes that comparison measurable: a
:class:`FaultPlan` describes node crashes and edge drops over time, and
:func:`compile_fault_plan` lowers it onto the topology-dynamics event
pipeline (``node-crash`` / ``edge-fault`` events, see
:mod:`repro.simulation.dynamics`) that **both** simulation backends replay
bit-identically.

The fault model is crash-stop (no recovery) for nodes and permanent removal
for edges; both are scheduled by round so experiments can, e.g., crash 10% of
nodes halfway through dissemination and measure how much longer each
algorithm needs — the E15 robustness benchmark does exactly that, on both
engines.  Crashed nodes stay *in* the graph: neighbours still pick them (and
pay for the wasted activation, counted in
:attr:`~repro.simulation.metrics.SimulationMetrics.suppressed_exchanges`),
which is what keeps seeded random streams identical to a fault-free run of
the same topology.  Pass a plan as ``faults=`` to
:meth:`repro.gossip.base.GossipAlgorithm.run`, or its compiled schedule as
``dynamics=`` to an engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from .dynamics import ScheduleDynamics, TopologyEvent
from .rng import derive_seed, make_rng

__all__ = [
    "FaultPlan",
    "compile_fault_plan",
    "random_crash_plan",
    "random_edge_drop_plan",
]


@dataclass
class FaultPlan:
    """A schedule of crash-stop node failures and permanent edge drops.

    Attributes
    ----------
    node_crashes:
        Mapping from node id to the round at the start of which it crashes.
        A crashed node neither initiates nor responds usefully: exchanges it
        would deliver are suppressed.
    edge_drops:
        Mapping from a frozenset pair of endpoints to the round at the start
        of which the edge disappears.
    """

    node_crashes: dict[NodeId, int] = field(default_factory=dict)
    edge_drops: dict[frozenset, int] = field(default_factory=dict)

    def is_node_crashed(self, node: NodeId, round_number: int) -> bool:
        """Whether ``node`` has crashed by ``round_number``."""
        crash_round = self.node_crashes.get(node)
        return crash_round is not None and round_number >= crash_round

    def is_edge_dropped(self, u: NodeId, v: NodeId, round_number: int) -> bool:
        """Whether the edge ``{u, v}`` has been dropped by ``round_number``."""
        drop_round = self.edge_drops.get(frozenset((u, v)))
        return drop_round is not None and round_number >= drop_round

    def surviving_nodes(self, graph: WeightedGraph, round_number: int) -> set[NodeId]:
        """The nodes that have not crashed by ``round_number``."""
        return {node for node in graph.nodes() if not self.is_node_crashed(node, round_number)}

    @property
    def empty(self) -> bool:
        """Whether the plan schedules no faults at all."""
        return not self.node_crashes and not self.edge_drops

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """Combine two fault plans (earliest failure round wins per element)."""
        crashes = dict(self.node_crashes)
        for node, round_number in other.node_crashes.items():
            crashes[node] = min(round_number, crashes.get(node, round_number))
        drops = dict(self.edge_drops)
        for edge, round_number in other.edge_drops.items():
            drops[edge] = min(round_number, drops.get(edge, round_number))
        return FaultPlan(node_crashes=crashes, edge_drops=drops)


def compile_fault_plan(plan: FaultPlan, name: Optional[str] = None) -> ScheduleDynamics:
    """Compile a :class:`FaultPlan` into a dynamics event schedule.

    Crashes become ``node-crash`` events and drops become ``edge-fault``
    events at the start of their scheduled round (rounds below 1 clamp to
    round 1 — engines only act from round 1, so a "round 0" fault and a
    round-1 fault are indistinguishable).  Events are emitted in a canonical
    order — crashes before drops, each sorted by the ``repr`` of the nodes
    involved — so the compiled schedule is identical across processes even
    though ``edge_drops`` is keyed by frozensets, whose iteration order
    varies under string-hash randomization.

    The returned :class:`ScheduleDynamics` runs on either backend and
    composes with churn/drift schedules via
    :class:`~repro.simulation.dynamics.ComposedDynamics`.
    """
    events_by_round: dict[int, list[TopologyEvent]] = {}
    for node, crash_round in sorted(plan.node_crashes.items(), key=lambda item: repr(item[0])):
        events_by_round.setdefault(max(1, crash_round), []).append(
            TopologyEvent("node-crash", node)
        )
    drops = []
    for key, drop_round in plan.edge_drops.items():
        endpoints = sorted(key, key=repr)
        u = endpoints[0]
        v = endpoints[-1]  # a single-element key degenerates to u == v
        drops.append((u, v, drop_round))
    for u, v, drop_round in sorted(drops, key=lambda item: (repr(item[0]), repr(item[1]))):
        events_by_round.setdefault(max(1, drop_round), []).append(
            TopologyEvent("edge-fault", u, v)
        )
    if name is None:
        name = f"faults(crash={len(plan.node_crashes)},drop={len(plan.edge_drops)})"
    return ScheduleDynamics(events_by_round, name=name)


def random_crash_plan(
    graph: WeightedGraph,
    crash_fraction: float,
    crash_round: int,
    seed: int = 0,
    protect: Optional[set[NodeId]] = None,
) -> FaultPlan:
    """Crash a random fraction of nodes at a fixed round.

    ``protect`` lists nodes that must survive (e.g. the rumor source, without
    which dissemination is trivially impossible).  The draw is seeded through
    :func:`~repro.simulation.rng.derive_seed` and samples candidates in
    graph insertion order, so the same ``(graph, seed)`` pair yields the
    same plan in any process — scenario-derived fault schedules replay
    identically on parallel sweep workers.
    """
    if not 0.0 <= crash_fraction <= 1.0:
        raise GraphError("crash_fraction must be in [0, 1]")
    if crash_round < 0:
        raise GraphError("crash_round must be >= 0")
    rng = make_rng(derive_seed(seed, "crash-plan"))
    protected = protect or set()
    candidates = [node for node in graph.nodes() if node not in protected]
    count = int(round(crash_fraction * len(candidates)))
    crashed = rng.sample(candidates, min(count, len(candidates))) if count else []
    return FaultPlan(node_crashes={node: crash_round for node in crashed})


def random_edge_drop_plan(
    graph: WeightedGraph,
    drop_fraction: float,
    drop_round: int,
    seed: int = 0,
) -> FaultPlan:
    """Drop a random fraction of edges at a fixed round.

    Seeded through :func:`~repro.simulation.rng.derive_seed` over the
    graph's canonical edge list, for the same cross-process stability as
    :func:`random_crash_plan`.  Only positions in that list are drawn:
    edge ``e`` of :meth:`~repro.graphs.weighted_graph.WeightedGraph.edges`
    is the ``e``-th slot of the snapshot whose neighbour index exceeds its
    node's (the first of the edge's two slots in CSR order), so just the
    drawn edges are looked up, and the plan is the one sampling the edge
    list itself would draw.
    """
    if not 0.0 <= drop_fraction <= 1.0:
        raise GraphError("drop_fraction must be in [0, 1]")
    rng = make_rng(derive_seed(seed, "edge-drop-plan"))
    snapshot = graph.indexed()
    edges = snapshot.num_edges
    count = int(round(drop_fraction * edges))
    drawn = rng.sample(range(edges), min(count, edges)) if count else []
    first = np.flatnonzero(snapshot.slot_sources() < snapshot.indices)[drawn]
    sources = np.searchsorted(snapshot.indptr, first, side="right") - 1
    labels = snapshot.labels
    return FaultPlan(
        edge_drops={
            frozenset((labels[u], labels[v])): drop_round
            for u, v in zip(sources.tolist(), snapshot.indices[first].tolist())
        }
    )
