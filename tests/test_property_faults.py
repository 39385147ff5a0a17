"""Property-based tests for fault injection (FaultPlan / the event pipeline).

Invariants checked over randomized graphs, fault schedules, and policies:

* a crashed node never initiates an exchange from its crash round on;
* no exchange delivers while an endpoint is crashed or its edge is dropped
  (dropped edges may still be *activated* — the initiation is paid for —
  but they never deliver anything);
* a crashed node's knowledge is frozen from its crash round on;
* a compiled fault schedule reproduces the *legacy* ``FaultyEngine``
  semantics bit-for-bit (the oracle below is a verbatim copy of the
  pre-pipeline plan-aware overrides, the class that engine was before it
  was retired), and replays identically on both
  simulation backends — also when composed with Markov churn through
  ``ComposedDynamics``;
* fault plans compose monotonically under ``merge`` (earliest failure wins,
  faults are never un-done, composition is commutative and idempotent).
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip import PushPullGossip, Task
from repro.graphs import weighted_erdos_renyi
from repro.graphs.dynamics import markov_churn
from repro.simulation import EventTrace, FaultPlan, GossipEngine, compile_fault_plan
from repro.simulation.rng import make_rng

MAX_ROUNDS = 12


class _LegacyFaultyEngine(GossipEngine):
    """The pre-pipeline FaultyEngine, kept verbatim as a parity oracle.

    Before faults were unified into the dynamics event pipeline, fault
    semantics lived in these plan-aware overrides.  The oracle re-creates
    them so a hypothesis property can assert that compiling the same plan
    onto the shared pipeline reproduces the old behaviour bit-for-bit.
    """

    def __init__(self, graph, fault_plan, blocking=False, trace=None):
        super().__init__(graph, blocking=blocking, trace=trace)
        self.fault_plan = fault_plan

    def _deliver_due_exchanges(self):
        while self._pending and self._pending[0].completes_at <= self.round:
            exchange = heapq.heappop(self._pending)
            u, v = exchange.initiator, exchange.responder
            self._outstanding[u] -= 1
            if (
                self.fault_plan.is_node_crashed(u, self.round)
                or self.fault_plan.is_node_crashed(v, self.round)
                or self.fault_plan.is_edge_dropped(u, v, self.round)
            ):
                continue
            new_for_v = self.knowledge[v].merge(set(exchange.initiator_payload))
            new_for_u = self.knowledge[u].merge(set(exchange.responder_payload))
            self.metrics.record_exchange_completed(
                payload_size=len(exchange.initiator_payload) + len(exchange.responder_payload)
            )
            self.metrics.record_deliveries(new_for_u + new_for_v)

    def step(self, policy):
        self._begin_round()
        self._deliver_due_exchanges()
        for node in self.graph.nodes():
            if self.fault_plan.is_node_crashed(node, self.round):
                continue
            if self.blocking and self._outstanding[node] > 0:
                continue
            choice = policy(self.node_view(node))
            if choice is None:
                continue
            self.initiate_exchange(node, choice)

    def dissemination_complete(self, rumor):
        survivors = self.fault_plan.surviving_nodes(self.graph, self.round)
        return all(self.knowledge[node].knows(rumor) for node in survivors)

    def all_to_all_complete(self):
        survivors = self.fault_plan.surviving_nodes(self.graph, self.round)
        return all(self.knowledge[node].origins() >= survivors for node in survivors)


@st.composite
def graph_and_plan(draw):
    """A small connected graph plus a random crash/drop schedule over it."""
    n = draw(st.integers(min_value=4, max_value=10))
    graph_seed = draw(st.integers(min_value=0, max_value=50))
    graph = weighted_erdos_renyi(n, 0.5, seed=graph_seed)
    nodes = graph.nodes()
    crashes = draw(
        st.dictionaries(
            st.sampled_from(nodes),
            st.integers(min_value=0, max_value=MAX_ROUNDS),
            max_size=n - 1,
        )
    )
    edges = [(edge.u, edge.v) for edge in graph.edge_list()]
    drops = draw(
        st.dictionaries(
            st.sampled_from(edges),
            st.integers(min_value=0, max_value=MAX_ROUNDS),
            max_size=len(edges),
        )
    )
    plan = FaultPlan(
        node_crashes=dict(crashes),
        edge_drops={frozenset(edge): round_number for edge, round_number in drops.items()},
    )
    policy_seed = draw(st.integers(min_value=0, max_value=50))
    return graph, plan, policy_seed


def _run_faulty(graph, plan, policy_seed):
    """Step the reference engine under ``plan``'s compiled schedule for
    MAX_ROUNDS under seeded push-pull; return (trace, per-round origin
    snapshots of every node)."""
    trace = EventTrace()
    engine = GossipEngine(graph, trace=trace, dynamics=compile_fault_plan(plan))
    engine.seed_all_rumors()
    rng = make_rng(policy_seed, "property-faults")

    def policy(view):
        return rng.choice(view.neighbors) if view.neighbors else None

    snapshots = []  # snapshots[r][node] = frozenset of known origins after round r+1
    for _ in range(MAX_ROUNDS):
        engine.step(policy)
        snapshots.append(
            {node: frozenset(engine.knowledge[node].origins()) for node in graph.nodes()}
        )
    return trace, snapshots


@settings(max_examples=25, deadline=None)
@given(graph_and_plan())
def test_crashed_nodes_never_initiate(case):
    graph, plan, policy_seed = case
    trace, _snapshots = _run_faulty(graph, plan, policy_seed)
    for event in trace.initiations():
        assert not plan.is_node_crashed(event.u, event.round), (
            f"crashed node {event.u} initiated an exchange in round {event.round}"
        )


@settings(max_examples=25, deadline=None)
@given(graph_and_plan())
def test_faulted_exchanges_never_deliver(case):
    graph, plan, policy_seed = case
    trace, _snapshots = _run_faulty(graph, plan, policy_seed)
    for event in trace.completions():
        assert not plan.is_node_crashed(event.u, event.round)
        assert not plan.is_node_crashed(event.v, event.round)
        assert not plan.is_edge_dropped(event.u, event.v, event.round), (
            f"dropped edge ({event.u}, {event.v}) delivered in round {event.round}"
        )


@settings(max_examples=25, deadline=None)
@given(graph_and_plan())
def test_crashed_nodes_knowledge_is_frozen(case):
    graph, plan, policy_seed = case
    _trace, snapshots = _run_faulty(graph, plan, policy_seed)
    for node, crash_round in plan.node_crashes.items():
        # snapshots[r] is the state after round r+1; from the crash round on
        # the node's origin set must never change again.
        frozen = [snapshots[r][node] for r in range(MAX_ROUNDS) if (r + 1) >= crash_round]
        assert all(state == frozen[0] for state in frozen), (
            f"node {node} (crashed at round {crash_round}) kept learning"
        )


@settings(max_examples=25, deadline=None)
@given(graph_and_plan())
def test_compiled_schedule_matches_legacy_faulty_engine_bit_for_bit(case):
    """The tentpole parity property: pipeline faults == legacy FaultyEngine.

    The same seeded plan is run through the legacy plan-aware oracle and
    through the compiled event schedule on the plain engine.  Same rng
    stream in both;
    per-round origin snapshots, rounds, activations, messages, and the
    fault-aware completion predicates must agree exactly.
    """
    graph, plan, policy_seed = case
    engines = {
        "legacy": _LegacyFaultyEngine(graph.copy(), plan),
        "pipeline": GossipEngine(graph.copy(), dynamics=compile_fault_plan(plan)),
    }
    rngs = {name: make_rng(policy_seed, "legacy-parity") for name in engines}
    for engine in engines.values():
        engine.seed_all_rumors()
    for _ in range(MAX_ROUNDS):
        snapshots = {}
        predicates = {}
        for name, engine in engines.items():
            rng = rngs[name]
            engine.step(lambda view: rng.choice(view.neighbors) if view.neighbors else None)
            snapshots[name] = {
                node: frozenset(engine.knowledge[node].origins()) for node in engine.graph.nodes()
            }
            predicates[name] = engine.all_to_all_complete()
        assert snapshots["legacy"] == snapshots["pipeline"]
        assert predicates["legacy"] == predicates["pipeline"]
    legacy, pipeline = engines["legacy"].metrics, engines["pipeline"].metrics
    assert legacy.rounds == pipeline.rounds
    assert legacy.activations == pipeline.activations
    assert legacy.messages == pipeline.messages
    assert legacy.rumor_deliveries == pipeline.rumor_deliveries


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_faults_and_churn_compose_bit_identically_across_backends(graph_seed, run_seed):
    """Crash faults + Markov churn via ComposedDynamics: fast == reference.

    Every repetition rebuilds the graph, the churn schedule, and the fault
    plan deterministically, runs end-to-end on both backends, and compares
    the full trajectory signature.
    """
    results = {}
    for engine in ("reference", "fast"):
        graph = weighted_erdos_renyi(24, 0.4, seed=graph_seed)
        churn = markov_churn(graph, horizon=32, leave_prob=0.06, rejoin_prob=0.4, seed=run_seed)
        plan = FaultPlan(
            node_crashes={node: 3 for node in graph.nodes()[-4:]},
            edge_drops={frozenset(graph.edge_list()[0].endpoints()): 5},
        )
        result = PushPullGossip(task=Task.ALL_TO_ALL).run(
            graph, seed=run_seed, engine=engine, dynamics=churn, faults=plan, max_rounds=5000
        )
        metrics = result.metrics
        results[engine] = (
            result.rounds_simulated,
            metrics.messages,
            metrics.activations,
            metrics.lost_exchanges,
            metrics.suppressed_exchanges,
            metrics.rumor_deliveries,
            sorted(metrics.edge_activations.items()),
        )
    assert results["reference"] == results["fast"]


@st.composite
def fault_plans(draw):
    nodes = st.integers(min_value=0, max_value=8)
    rounds = st.integers(min_value=0, max_value=20)
    crashes = draw(st.dictionaries(nodes, rounds, max_size=6))
    edges = st.tuples(nodes, nodes).map(frozenset)
    drops = draw(st.dictionaries(edges, rounds, max_size=6))
    return FaultPlan(node_crashes=crashes, edge_drops=drops)


@settings(max_examples=50, deadline=None)
@given(fault_plans(), fault_plans(), st.integers(min_value=0, max_value=25))
def test_merge_composes_monotonically(plan_a, plan_b, round_number):
    merged = plan_a.merge(plan_b)
    all_nodes = set(plan_a.node_crashes) | set(plan_b.node_crashes)
    for node in all_nodes:
        # A node is crashed under the merge iff it is crashed under either
        # component — merging never un-crashes and never delays a failure.
        assert merged.is_node_crashed(node, round_number) == (
            plan_a.is_node_crashed(node, round_number) or plan_b.is_node_crashed(node, round_number)
        )
    for edge in set(plan_a.edge_drops) | set(plan_b.edge_drops):
        u, v = tuple(edge) if len(edge) == 2 else (next(iter(edge)), next(iter(edge)))
        assert merged.is_edge_dropped(u, v, round_number) == (
            plan_a.is_edge_dropped(u, v, round_number) or plan_b.is_edge_dropped(u, v, round_number)
        )


@settings(max_examples=50, deadline=None)
@given(fault_plans(), fault_plans())
def test_merge_commutative_and_idempotent(plan_a, plan_b):
    ab, ba = plan_a.merge(plan_b), plan_b.merge(plan_a)
    assert ab.node_crashes == ba.node_crashes
    assert ab.edge_drops == ba.edge_drops
    self_merge = plan_a.merge(plan_a)
    assert self_merge.node_crashes == plan_a.node_crashes
    assert self_merge.edge_drops == plan_a.edge_drops
