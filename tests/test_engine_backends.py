"""Parity and selection tests for the pluggable simulation backends.

The fast bitset engine must reproduce the reference engine's seeded runs
bit-for-bit: same completion round, same exchange/message counts, same
per-edge activation counters.  These tests sweep the declarative algorithm
family (push, pull, push-pull, flooding) across ring, star, and Erdős–Rényi
topologies — the acceptance matrix of the backend refactor — plus the
backend-selection contract and the underflow guard.
"""

from __future__ import annotations

import pytest

from repro.gossip import (
    FloodingGossip,
    PatternBroadcast,
    PullGossip,
    PushGossip,
    PushPullGossip,
    Task,
)
from repro.graphs import cycle_graph, star, uniform_latency, weighted_erdos_renyi
from repro.simulation import (
    EngineProtocol,
    EngineSelectionError,
    FastEngine,
    GossipEngine,
    PolicyCapability,
    RoundPolicySpec,
    available_backends,
    create_engine,
    resolve_backend,
    set_default_backend,
)
from repro.simulation.rng import make_rng


def _ring():
    return cycle_graph(24)


def _star():
    return star(16)


def _erdos_renyi():
    return weighted_erdos_renyi(30, 0.2, uniform_latency(1, 8), seed=3)


TOPOLOGIES = [_ring, _star, _erdos_renyi]

ALGORITHMS = [
    lambda: PushPullGossip(),
    lambda: PushGossip(),
    lambda: PullGossip(),
    lambda: FloodingGossip(),
    lambda: PushPullGossip(task=Task.ALL_TO_ALL),
    lambda: FloodingGossip(task=Task.ALL_TO_ALL),
]


@pytest.mark.parametrize("make_graph", TOPOLOGIES, ids=["ring", "star", "erdos-renyi"])
@pytest.mark.parametrize(
    "make_algorithm",
    ALGORITHMS,
    ids=["push-pull", "push", "pull", "flooding", "push-pull-a2a", "flooding-a2a"],
)
@pytest.mark.parametrize("seed", [0, 11])
def test_backends_produce_identical_runs(make_graph, make_algorithm, seed):
    graph = make_graph()
    reference = make_algorithm().run(graph, seed=seed, engine="reference")
    fast = make_algorithm().run(graph, seed=seed, engine="fast")
    assert reference.details["engine"] == "reference"
    assert fast.details["engine"] == "fast"
    assert fast.time == reference.time
    assert fast.rounds_simulated == reference.rounds_simulated
    ref_metrics, fast_metrics = reference.metrics, fast.metrics
    assert fast_metrics.completion_time == ref_metrics.completion_time
    assert fast_metrics.activations == ref_metrics.activations
    assert fast_metrics.messages == ref_metrics.messages
    assert fast_metrics.rumor_deliveries == ref_metrics.rumor_deliveries
    assert fast_metrics.payload_rumors_sent == ref_metrics.payload_rumors_sent
    assert fast_metrics.max_payload_size == ref_metrics.max_payload_size
    assert fast_metrics.edge_activations == ref_metrics.edge_activations


def test_auto_resolves_by_capability():
    graph = _ring()
    declarative = PushPullGossip().run(graph, seed=1, engine="auto")
    assert declarative.details["engine"] == "fast"
    assert resolve_backend("auto", capability=PolicyCapability.ARBITRARY_CALLBACK) == "reference"
    assert resolve_backend("auto", capability=PolicyCapability.UNIFORM_RANDOM) == "fast"
    # A requested trace forces the reference backend even for declarative policies.
    assert resolve_backend("auto", capability=PolicyCapability.UNIFORM_RANDOM, trace=object()) == "reference"


def test_set_default_backend_steers_auto():
    graph = _ring()
    previous = set_default_backend("reference")
    try:
        assert previous == "auto"
        # "auto" now resolves to the reference backend even for declarative
        # algorithms; explicit engine= arguments are unaffected.
        assert PushPullGossip().run(graph, seed=1).details["engine"] == "reference"
        assert PushPullGossip().run(graph, seed=1, engine="fast").details["engine"] == "fast"
    finally:
        set_default_backend(previous)
    assert PushPullGossip().run(graph, seed=1).details["engine"] == "fast"
    with pytest.raises(EngineSelectionError):
        set_default_backend("warp-drive")


def test_fast_rejected_for_callback_algorithms():
    graph = _ring()
    with pytest.raises(EngineSelectionError):
        PatternBroadcast(diameter=12).run(graph, seed=0, engine="fast")
    with pytest.raises(EngineSelectionError):
        resolve_backend("fast", capability=PolicyCapability.ARBITRARY_CALLBACK)
    with pytest.raises(EngineSelectionError):
        resolve_backend("warp-drive")


def test_registry_lists_both_backends():
    assert available_backends() == ["batch", "edge", "fast", "reference"]
    for backend in ("fast", "reference"):
        engine, name = create_engine(_ring(), backend, capability=PolicyCapability.UNIFORM_RANDOM)
        assert name == backend
        assert isinstance(engine, EngineProtocol)


def test_fast_engine_rejects_arbitrary_callbacks():
    engine = FastEngine(_ring())
    with pytest.raises(TypeError):
        engine.step(lambda view: None)


def test_fast_engine_queries_match_reference_incrementally():
    graph = _star()
    spec = lambda: RoundPolicySpec(select="uniform-random", gate="all", rng=make_rng(5, "query-parity"))
    reference, fast = GossipEngine(graph), FastEngine(graph)
    rumor_ref = reference.seed_rumor(0, payload="r")
    rumor_fast = fast.seed_rumor(0, payload="r")
    assert rumor_ref == rumor_fast
    ref_policy, fast_policy = spec(), spec()
    for _ in range(4):
        reference.step(ref_policy)
        fast.step(fast_policy)
        assert fast.informed_nodes(rumor_fast) == reference.informed_nodes(rumor_ref)
        assert fast.dissemination_complete(rumor_fast) == reference.dissemination_complete(rumor_ref)
        assert fast.all_to_all_complete() == reference.all_to_all_complete()
        assert fast.local_broadcast_complete() == reference.local_broadcast_complete()


def test_blocking_mode_parity():
    graph = _erdos_renyi()
    results = []
    for engine_cls in (GossipEngine, FastEngine):
        engine = engine_cls(graph, blocking=True)
        rumor = engine.seed_rumor(graph.nodes()[0])
        policy = RoundPolicySpec(select="uniform-random", gate="all", rng=make_rng(7, "blocking"))
        metrics = engine.run(
            policy, stop_condition=lambda eng: eng.dissemination_complete(rumor), max_rounds=10_000
        )
        results.append((metrics.rounds, metrics.activations, metrics.messages))
    assert results[0] == results[1]


def test_drain_frees_blocked_initiators():
    # A drained blocking run discards its in-flight exchanges, so their
    # initiators must be free to start the next run's exchanges.
    graph = weighted_erdos_renyi(60, 0.15, seed=4)
    results = []
    for engine_cls in (GossipEngine, FastEngine):
        engine = engine_cls(graph, blocking=True)
        policy = RoundPolicySpec(select="uniform-random", gate="all", rng=make_rng(7, "drain"))
        first = engine.seed_rumor(graph.nodes()[0])
        engine.run(policy, stop_condition=lambda eng: eng.dissemination_complete(first))
        late = engine.seed_rumor(graph.nodes()[1])
        metrics = engine.run(
            policy, stop_condition=lambda eng: eng.dissemination_complete(late), max_rounds=500
        )
        results.append((metrics.rounds, metrics.activations, metrics.messages))
    assert results[0] == results[1]


def test_fast_engine_rumors_known_matches_reference():
    graph = _ring()
    reference, fast = GossipEngine(graph), FastEngine(graph)
    for engine in (reference, fast):
        engine.seed_all_rumors()
    policy = lambda: RoundPolicySpec(select="round-robin")
    for _ in range(3):
        reference.step(policy())
    fast_policy = policy()
    for _ in range(3):
        fast.step(fast_policy)
    for node in graph.nodes():
        assert fast.rumors_known(node) == reference.knowledge[node].rumors


@pytest.mark.parametrize("engine_cls", [GossipEngine, FastEngine])
def test_outstanding_underflow_raises(engine_cls):
    graph = cycle_graph(4)
    engine = engine_cls(graph)
    engine.seed_rumor(0)
    engine.initiate_exchange(0, 1)
    # Corrupt the bookkeeping the way a blocking-mode bug would: the
    # completion must now raise instead of being masked by a clamp to 0.
    if engine_cls is GossipEngine:
        engine._outstanding[0] = 0
    else:
        engine._outstanding[graph.indexed().index_of(0)] = 0
    with pytest.raises(RuntimeError, match="underflow"):
        for _ in range(3):
            engine.step(RoundPolicySpec(select="round-robin", gate="informed-only"))


def test_round_robin_spec_needs_no_rng_and_validates():
    RoundPolicySpec(select="round-robin")
    with pytest.raises(ValueError):
        RoundPolicySpec(select="uniform-random")  # missing rng
    with pytest.raises(ValueError):
        RoundPolicySpec(select="best-neighbor", rng=make_rng(0))
    with pytest.raises(ValueError):
        RoundPolicySpec(select="round-robin", gate="everyone")
