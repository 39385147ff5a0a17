"""Synchronous latency-aware gossip simulation engine.

The engine implements the paper's communication model (Section 1, "Model"):

* time proceeds in synchronous rounds;
* in every round each node may *initiate* one bidirectional exchange with a
  neighbour of its choice;
* an exchange over an edge of latency ℓ completes ℓ rounds later, at which
  point both endpoints merge each other's rumor sets;
* by default communication is **non-blocking**: a node may initiate a new
  exchange every round even while earlier exchanges are still in flight.
  A **blocking** mode (a node waits for its outstanding exchange to complete
  before initiating another) is available because the Pattern Broadcast
  algorithm is claimed to work even under that restriction.

Algorithms drive the engine through a tiny interface: a *policy* callback
that, given the current round and a read-only view of a node's local state,
returns the neighbour that node contacts this round (or ``None`` to stay
silent).  The engine guarantees the policy only ever sees local information:
the node's own knowledge, its incident edges, and whatever per-node scratch
state the algorithm keeps.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from .dynamics import FaultState, TopologyDynamics, apply_events
from .messages import KnowledgeState, Rumor
from .metrics import SimulationMetrics
from .protocol import RoundPolicySpec, register_engine
from .tracing import EventTrace

__all__ = ["PendingExchange", "NodeView", "GossipEngine", "ExchangePolicy"]


@dataclass(order=True)
class PendingExchange:
    """An in-flight exchange, ordered by completion time for the event heap.

    The payloads carried in each direction are snapshotted at initiation
    time: content that enters the channel cannot be updated while in flight.
    This keeps the trivial lower bound exact — a rumor can never reach a node
    at weighted distance ``d`` from its origin before time ``d``.
    """

    completes_at: int
    sequence: int
    initiator: NodeId = field(compare=False)
    responder: NodeId = field(compare=False)
    initiator_payload: frozenset = field(compare=False, default_factory=frozenset)
    responder_payload: frozenset = field(compare=False, default_factory=frozenset)


@dataclass
class NodeView:
    """Read-only view of a node's local state handed to exchange policies.

    Attributes
    ----------
    node:
        The node's id.
    knowledge:
        The node's current :class:`KnowledgeState` (mutating it from a policy
        is allowed — it models local computation — but reading other nodes'
        states is not possible through this view).
    neighbors:
        The node's incident neighbours, as an immutable sequence shared
        with the graph's cached index (do not mutate; copy if you need a
        list).  Latency values are *not* exposed here because the default
        model has unknown latencies; algorithms for known latencies receive
        them explicitly.
    scratch:
        Algorithm-private mutable state for this node.
    round:
        The current round number.
    busy:
        Whether the node has an outstanding exchange (relevant in blocking mode).
    """

    node: NodeId
    knowledge: KnowledgeState
    neighbors: Sequence[NodeId]
    scratch: dict[str, Any]
    round: int
    busy: bool


ExchangePolicy = Callable[[NodeView], Optional[NodeId]]


def _as_callback(policy) -> ExchangePolicy:
    """Accept either a callback or a declarative spec; return a callback."""
    if isinstance(policy, RoundPolicySpec):
        return policy.compile()
    return policy


@register_engine("reference")
class GossipEngine:
    """Round-by-round simulator of latency-aware gossip.

    This is the *reference backend* of the pluggable-engine architecture
    (see :mod:`repro.simulation.protocol`): it accepts arbitrary per-node
    exchange-policy callbacks — and, for convenience, declarative
    :class:`RoundPolicySpec` policies, which it compiles to the equivalent
    callback — and is kept bit-for-bit as the correctness oracle that the
    fast backend is verified against.

    Parameters
    ----------
    graph:
        The network.
    blocking:
        If true, a node with an in-flight exchange skips its turn (its policy
        is not consulted) until the exchange completes.
    trace:
        Optional :class:`EventTrace` capturing every initiation and completion.
    dynamics:
        Optional :class:`~repro.simulation.dynamics.TopologyDynamics`; its
        events are applied to ``graph`` at the start of every round (see
        that module for the shared semantics contract).  The engine mutates
        the graph you pass in.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        blocking: bool = False,
        trace: Optional[EventTrace] = None,
        dynamics: Optional[TopologyDynamics] = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise GraphError("cannot simulate on an empty graph")
        self.graph = graph
        self.blocking = blocking
        self.trace = trace
        self.dynamics = dynamics
        self.metrics = SimulationMetrics()
        self.round = 0
        self.knowledge: dict[NodeId, KnowledgeState] = {
            node: KnowledgeState(node=node) for node in graph.nodes()
        }
        self.scratch: dict[NodeId, dict[str, Any]] = {node: {} for node in graph.nodes()}
        self._pending: list[PendingExchange] = []
        self._sequence = 0
        self._outstanding: dict[NodeId, int] = {node: 0 for node in graph.nodes()}
        self._graph_version = graph.version
        self._edge_keys: set[frozenset] = {frozenset(edge.endpoints()) for edge in graph.edges()}
        self._faults = FaultState()

    # ------------------------------------------------------------------
    # Seeding knowledge
    # ------------------------------------------------------------------
    def seed_rumor(self, origin: NodeId, payload: Any = None) -> Rumor:
        """Give ``origin`` a fresh rumor and return it."""
        if origin not in self.knowledge:
            raise GraphError(f"node {origin!r} is not in the simulated graph")
        rumor = Rumor(origin=origin, payload=payload)
        self.knowledge[origin].add(rumor)
        return rumor

    def seed_all_rumors(self) -> dict[NodeId, Rumor]:
        """Give every node its own rumor (the all-to-all starting condition)."""
        return {node: self.seed_rumor(node) for node in self.graph.nodes()}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def informed_nodes(self, rumor: Rumor) -> set[NodeId]:
        """Return the set of nodes currently knowing ``rumor``."""
        return {node for node, state in self.knowledge.items() if state.knows(rumor)}

    def dissemination_complete(self, rumor: Rumor) -> bool:
        """Return whether every non-crashed node knows ``rumor``.

        Without fault events this is every node.  Once a ``node-crash``
        fired, crashed nodes are exempt — their knowledge is frozen, so
        requiring them to learn would make every faulted run fail.
        """
        crashed = self._faults.crashed
        if crashed:
            return all(
                state.knows(rumor) for node, state in self.knowledge.items() if node not in crashed
            )
        return all(state.knows(rumor) for state in self.knowledge.values())

    def all_to_all_complete(self) -> bool:
        """Return whether every survivor knows a rumor from every survivor.

        Without fault events "survivor" means every node; crashed nodes are
        excluded both as learners and as origins that must be learned.
        """
        everyone = set(self.graph.nodes()) - self._faults.crashed
        return all(
            self.knowledge[node].origins() >= everyone for node in everyone
        )

    def local_broadcast_complete(self) -> bool:
        """Return whether every node knows the rumor of each of its neighbours."""
        for node in self.graph.nodes():
            origins = self.knowledge[node].origins()
            if any(neighbor not in origins for neighbor in self.graph.neighbors(node)):
                return False
        return True

    def node_view(self, node: NodeId) -> NodeView:
        """Return the policy-facing view of ``node``'s local state.

        The neighbour sequence comes from the graph's cached
        :class:`~repro.graphs.indexed.IndexedGraph` core (same contents and
        order as ``graph.neighbors``, without re-materializing a list per
        call); it is an immutable tuple, so policies cannot corrupt the
        shared cache.
        """
        return NodeView(
            node=node,
            knowledge=self.knowledge[node],
            neighbors=self.graph.indexed().neighbor_labels(node),
            scratch=self.scratch[node],
            round=self.round,
            busy=self._outstanding[node] > 0,
        )

    # ------------------------------------------------------------------
    # Topology changes (dynamics events and direct graph mutation)
    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        """Advance the round counter and bring the topology up to date.

        Dynamics events for the new round are applied first (they mutate the
        graph); then, if the graph's structural version moved — whether from
        those events or from direct mutation between steps — the engine
        resynchronizes its own state via :meth:`_resync_topology`.
        """
        self.round += 1
        self.metrics.rounds = self.round
        severed: set = set()
        if self.dynamics is not None:
            events = self.dynamics.events_for_round(self.round)
            if events:
                severed = apply_events(self.graph, events, self._faults)
        if self.graph.version != self._graph_version:
            self._resync_topology(severed)

    def _resync_topology(self, severed: frozenset = frozenset()) -> None:
        """Reconcile engine state with a mutated graph.

        Appended nodes get fresh (empty) knowledge; in-flight exchanges over
        edges that no longer exist — plus any in ``severed``, edges a
        dynamics event removed even if a later event of the same round
        re-added them — are dropped and counted as lost.  (Out-of-band
        mutation between steps is reconciled by net diff only: a caller
        that removes and restores an edge before the next step never
        presents a changed topology to the engine.)  Node removal is
        rejected with :class:`GraphError` — per-node knowledge cannot be
        meaningfully discarded mid-run, and silently continuing would
        desynchronize completion predicates (model churn as a
        ``node-leave`` event instead, which removes the node's edges).
        """
        graph = self.graph
        removed_nodes = [node for node in self.knowledge if not graph.has_node(node)]
        if removed_nodes:
            raise GraphError(
                f"nodes {removed_nodes!r} were removed from the graph mid-run; engines only "
                "support edge mutations and appended nodes (use a 'node-leave' dynamics "
                "event to churn a node out without deleting it)"
            )
        for node in graph.nodes():
            if node not in self.knowledge:
                self.knowledge[node] = KnowledgeState(node=node)
                self.scratch[node] = {}
                self._outstanding[node] = 0
        edge_keys = {frozenset(edge.endpoints()) for edge in graph.edges()}
        removed_edges = (self._edge_keys - edge_keys) | set(severed)
        if removed_edges:
            self._drop_pending_over(removed_edges)
        self._edge_keys = edge_keys
        self._graph_version = graph.version

    def _drop_pending_over(self, removed: set[frozenset]) -> None:
        """Drop in-flight exchanges travelling over removed edges."""
        kept: list[PendingExchange] = []
        lost = 0
        for exchange in self._pending:
            if frozenset((exchange.initiator, exchange.responder)) in removed:
                self._outstanding[exchange.initiator] -= 1
                lost += 1
                if self.trace is not None:
                    self.trace.record(self.round, "lost", exchange.initiator, exchange.responder)
            else:
                kept.append(exchange)
        if lost:
            heapq.heapify(kept)
            self._pending = kept
            self.metrics.record_lost(lost)

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    def initiate_exchange(self, initiator: NodeId, responder: NodeId) -> None:
        """Schedule a bidirectional exchange between neighbours."""
        if not self.graph.has_edge(initiator, responder):
            raise GraphError(f"({initiator!r}, {responder!r}) is not an edge of the graph")
        latency = self.graph.latency(initiator, responder)
        completes_at = self.round + latency
        self._sequence += 1
        heapq.heappush(
            self._pending,
            PendingExchange(
                completes_at=completes_at,
                sequence=self._sequence,
                initiator=initiator,
                responder=responder,
                initiator_payload=frozenset(self.knowledge[initiator].rumors),
                responder_payload=frozenset(self.knowledge[responder].rumors),
            ),
        )
        self._outstanding[initiator] += 1
        self.metrics.record_activation(initiator, responder)
        if self.trace is not None:
            self.trace.record(self.round, "initiate", initiator, responder, latency=latency)

    def _deliver_due_exchanges(self) -> None:
        """Deliver every exchange whose latency has elapsed.

        Each direction delivers the payload snapshotted when the exchange was
        initiated: information travels at most one edge per completed
        exchange and never arrives before the edge's full latency has
        elapsed, so a rumor needs at least time ``d`` to reach a node at
        weighted distance ``d`` (the paper's trivial Ω(D) lower bound).
        """
        fault_active = self._faults.active
        while self._pending and self._pending[0].completes_at <= self.round:
            exchange = heapq.heappop(self._pending)
            u, v = exchange.initiator, exchange.responder
            self._outstanding[u] -= 1
            if self._outstanding[u] < 0:
                raise RuntimeError(
                    f"outstanding-exchange underflow for node {u!r}: an exchange "
                    "completed that was never accounted as initiated"
                )
            if fault_active and self._faults.suppresses(u, v):
                # The channel is up but a fault silenced an endpoint or the
                # edge: the exchange ran its full latency and delivers
                # nothing (crash-stop — crashed knowledge stays frozen).
                self.metrics.record_suppressed()
                if self.trace is not None:
                    self.trace.record(self.round, "suppressed", u, v)
                continue
            new_for_v = self.knowledge[v].merge(set(exchange.initiator_payload))
            new_for_u = self.knowledge[u].merge(set(exchange.responder_payload))
            self.metrics.record_exchange_completed(
                payload_size=len(exchange.initiator_payload) + len(exchange.responder_payload)
            )
            self.metrics.record_deliveries(new_for_u + new_for_v)
            if self.trace is not None:
                self.trace.record(
                    self.round, "complete", u, v, new_for_initiator=new_for_u, new_for_responder=new_for_v
                )

    def step(self, policy: ExchangePolicy) -> None:
        """Advance the simulation by one round under ``policy``.

        Order within a round: (1) the round counter advances and topology
        dynamics for the round are applied (cancelling in-flight exchanges
        over removed edges), (2) exchanges whose latency has elapsed complete
        and deliver rumors, (3) every node (in a fixed order) is consulted
        for a new initiation.  This matches the paper's convention that an
        exchange over a latency-ℓ edge initiated in round r is usable from
        round r + ℓ on.
        """
        policy = _as_callback(policy)
        self._begin_round()
        self._deliver_due_exchanges()
        crashed = self._faults.crashed
        for node in self.graph.nodes():
            if crashed and node in crashed:
                # Crash-stop: the node is silent and consumes no randomness
                # (its policy is never consulted), which keeps seeded runs
                # aligned with the fast backend and with fault-free nodes.
                continue
            if self.blocking and self._outstanding[node] > 0:
                continue
            choice = policy(self.node_view(node))
            if choice is None:
                continue
            if not self.graph.has_edge(node, choice):
                raise GraphError(
                    f"policy for node {node!r} chose {choice!r}, which is not a neighbour"
                )
            self.initiate_exchange(node, choice)

    def run(
        self,
        policy: ExchangePolicy,
        stop_condition: Callable[["GossipEngine"], bool],
        max_rounds: int = 1_000_000,
        drain: bool = True,
    ) -> SimulationMetrics:
        """Run rounds under ``policy`` until ``stop_condition`` holds.

        The stop condition is evaluated after deliveries at the start of each
        round, so completion time is the first round at which the condition
        is observable.  If ``drain`` is true, once the condition holds any
        still-pending exchanges are discarded (they cannot change the
        outcome) and their initiators freed; otherwise they remain pending.
        """
        policy = _as_callback(policy)
        if stop_condition(self):
            self.metrics.completion_time = self.round + self.metrics.charged_time
            return self.metrics
        while self.round < max_rounds:
            self.step(policy)
            if stop_condition(self):
                self.metrics.completion_time = self.round + self.metrics.charged_time
                if drain:
                    self._pending.clear()
                    self._outstanding = dict.fromkeys(self._outstanding, 0)
                return self.metrics
        raise RuntimeError(
            f"simulation did not reach the stop condition within {max_rounds} rounds"
        )
