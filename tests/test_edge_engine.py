"""Edge-vectorized engine: parity, dispatch, memory guard, golden replay.

The load-bearing contract: a single run on ``engine="edge"`` is
**bit-for-bit equal** to the sequential numpy-mode fast-engine run whose
neighbour draws are seeded ``derive_seed(seed, "rep", 0)`` — i.e.
replication 0 of the batched form.  These tests assert it over the whole
bundled scenario library (dynamics, faults, and flooding included), pin
the suppressed/lost metric columns on the crash and churn scenarios and
under edges cut between steps of a static run, replay golden flooding
fixtures on the edge backend, and cover the
dispatch surface (auto-selection from the node-count threshold, the
replication rejection) and the up-front memory guard.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    weighted_configuration_model,
    weighted_erdos_renyi,
    weighted_kronecker,
    weighted_watts_strogatz,
)
from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    library_scenario_names,
    load_named_scenario,
    run_scenario,
)
from repro.simulation import (
    EDGE_AUTO_NODE_THRESHOLD,
    BatchEngine,
    BatchPolicySpec,
    EdgeEngine,
    EngineSelectionError,
    FastEngine,
    PolicyCapability,
    RoundPolicySpec,
    SimulationError,
    replication_rngs,
    resolve_backend,
    set_default_backend,
)
from repro.simulation.golden import capture_golden_trace
from repro.simulation.rng import make_numpy_rng

LIBRARY = library_scenario_names()
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def trajectory(result):
    """The bit-for-bit comparison key of one run."""
    return (result.rounds_simulated, result.time, result.metrics.as_dict())


def edge_and_oracle(spec: ScenarioSpec):
    """The same scenario on the edge backend and the numpy-rep-0 oracle.

    The batch backend's replication 0 is the committed numpy-mode anchor
    (itself verified against the sequential fast loop in
    ``test_batch_engine``), and ``engine="batch"`` is the one spec shape
    whose ``reps == 1`` run still uses the ``("rep", 0)`` seed label.
    """
    edge = run_scenario(spec.patched({"engine": "edge"}))
    oracle = run_scenario(spec.patched({"engine": "batch"})).results[0]
    return edge, oracle


# ----------------------------------------------------------------------
# The parity contract, over the whole bundled library
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", LIBRARY)
def test_edge_matches_numpy_rep0_per_library_scenario(name):
    edge, oracle = edge_and_oracle(load_named_scenario(name))
    assert trajectory(edge) == trajectory(oracle)
    assert edge.metrics.edge_activations == oracle.metrics.edge_activations


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(LIBRARY),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_edge_run_matches_numpy_rep0_exactly(name, seed):
    # An unlucky (scenario, seed) draw can disconnect a faulted graph, in
    # which case dissemination never reaches the stop condition; the
    # parity contract then is that BOTH backends stall, not that the run
    # completes.  The cap keeps a stalling draw from burning 100k rounds.
    spec = load_named_scenario(name).patched({"seed": seed, "max_rounds": 3000})
    try:
        edge = ("completed", trajectory(run_scenario(spec.patched({"engine": "edge"}))))
    except RuntimeError:
        edge = ("stalled", None)
    try:
        oracle = (
            "completed",
            trajectory(run_scenario(spec.patched({"engine": "batch"})).results[0]),
        )
    except RuntimeError:
        oracle = ("stalled", None)
    assert edge == oracle


# ----------------------------------------------------------------------
# Engine-level parity: gates, blocking, multi-word planes
# ----------------------------------------------------------------------
def engine_pair(graph, blocking=False):
    return EdgeEngine(graph.copy(), blocking=blocking), FastEngine(graph.copy(), blocking=blocking)


def numpy_spec(gate, seed):
    return RoundPolicySpec(select="uniform-random", gate=gate, rng=make_numpy_rng(seed, "rep", 0))


@pytest.mark.parametrize("gate", ["all", "informed-only", "uninformed-only"])
@pytest.mark.parametrize("blocking", [False, True])
def test_edge_step_stream_matches_fast_numpy_mode(gate, blocking):
    graph = weighted_erdos_renyi(40, 0.2, seed=9)
    source = graph.nodes()[0]
    edge, fast = engine_pair(graph, blocking=blocking)
    rumor_e = edge.seed_rumor(source)
    rumor_f = fast.seed_rumor(source)
    metrics_e = edge.run(numpy_spec(gate, 5), lambda e: e.dissemination_complete(rumor_e))
    metrics_f = fast.run(numpy_spec(gate, 5), lambda e: e.dissemination_complete(rumor_f))
    assert metrics_e.as_dict() == metrics_f.as_dict()
    assert metrics_e.edge_activations == metrics_f.edge_activations


def test_edge_all_to_all_parity_beyond_64_rumors_multi_word_planes():
    # 80 rumors force a second uint64 knowledge word, exercising the
    # generic multi-word gather/merge/popcount paths on both sides.
    graph = weighted_erdos_renyi(80, 0.15, seed=2)
    edge, fast = engine_pair(graph)
    edge.seed_all_rumors()
    fast.seed_all_rumors()
    metrics_e = edge.run(numpy_spec("all", 3), lambda e: e.all_to_all_complete())
    metrics_f = fast.run(numpy_spec("all", 3), lambda e: e.all_to_all_complete())
    assert metrics_e.as_dict() == metrics_f.as_dict()
    assert metrics_e.max_payload_size > 64  # really multi-word


def cut_edges(graph, seed, count=12):
    """Remove up to ``count`` seeded edges of ``graph``, keeping it connected."""
    rng = random.Random(seed)
    edges = sorted(((e.u, e.v) for e in graph.edges()), key=repr)
    for u, v in rng.sample(edges, len(edges)):
        if count == 0:
            break
        latency = graph.latency(u, v)
        graph.remove_edge(u, v)
        if graph.is_connected():
            count -= 1
        else:
            graph.add_edge(u, v, latency=latency)


def cutting_stop(done, round_k, seed):
    """A stop condition that cuts edges from the engine's graph after round k."""
    cut = []

    def stop(engine):
        if engine.round == round_k and not cut:
            cut_edges(engine.graph, seed)
            cut.append(round_k)
        return done(engine)

    return stop


@pytest.mark.parametrize("task", ["one-to-all", "all-to-all"])
@pytest.mark.parametrize("round_k", [2, 4, 6])
@pytest.mark.parametrize("seed", range(6))
def test_edge_matches_fast_when_edges_are_cut_mid_run(seed, round_k, task):
    # Exchanges in flight over the cut edges are lost on both backends,
    # whether or not their payloads could still inform anyone.
    graph = weighted_erdos_renyi(40 + 4 * seed, 0.15, seed=seed)
    edge, fast = engine_pair(graph)
    results = []
    for engine in (edge, fast):
        if task == "one-to-all":
            rumor = engine.seed_rumor(graph.nodes()[0])
            done = lambda e, rumor=rumor: e.dissemination_complete(rumor)
        else:
            engine.seed_all_rumors()
            done = lambda e: e.all_to_all_complete()
        results.append(engine.run(numpy_spec("all", seed), cutting_stop(done, round_k, seed)))
    metrics_e, metrics_f = results
    assert metrics_e.as_dict() == metrics_f.as_dict()
    assert metrics_e.edge_activations == metrics_f.edge_activations


@pytest.mark.parametrize("task", ["one-to-all", "all-to-all"])
def test_batch_columns_match_fast_when_edges_are_cut_mid_run(task):
    # The same cut on the kernel at three replications: each column's
    # losses come out of its own tallies, and columns that finish early
    # stop paying for them.
    graph = weighted_erdos_renyi(48, 0.15, seed=7)
    batch = BatchEngine(graph.copy(), reps=3)
    if task == "one-to-all":
        rumor = batch.seed_rumor(graph.nodes()[0])
        done = lambda e: e.dissemination_complete_mask(rumor)
    else:
        batch.seed_all_rumors()
        done = lambda e: e.all_to_all_complete_mask()
    rngs = tuple(replication_rngs(7, 3))
    policy = BatchPolicySpec(select="uniform-random", gate="all", rngs=rngs)
    columns = batch.run_batch(policy, cutting_stop(done, 4, 7))
    for rep, column in enumerate(columns):
        fast = FastEngine(graph.copy())
        if task == "one-to-all":
            rumor = fast.seed_rumor(graph.nodes()[0])
            done = lambda e: e.dissemination_complete(rumor)
        else:
            fast.seed_all_rumors()
            done = lambda e: e.all_to_all_complete()
        spec = RoundPolicySpec(
            select="uniform-random", gate="all", rng=make_numpy_rng(7, "rep", rep)
        )
        metrics = fast.run(spec, cutting_stop(done, 4, 7))
        assert column.as_dict() == metrics.as_dict()
        assert column.edge_activations == metrics.edge_activations


@pytest.mark.parametrize("drain", [True, False])
def test_edge_matches_fast_across_two_runs_on_one_engine(drain):
    # The second run inherits the first one's pipeline when it is not
    # drained, and its second rumor widens every payload past one bit.
    graph = weighted_erdos_renyi(48, 0.15, seed=21)
    first, second = graph.nodes()[0], graph.nodes()[-1]
    edge, fast = engine_pair(graph)
    phases = []
    for engine in (edge, fast):
        spec = numpy_spec("all", 21)
        rumor = engine.seed_rumor(first)
        one = engine.run(spec, lambda e: e.dissemination_complete(rumor), drain=drain)
        snapshot = (one.as_dict(), Counter(one.edge_activations))
        late = engine.seed_rumor(second)
        two = engine.run(spec, lambda e: e.dissemination_complete(late), drain=drain)
        phases.append((snapshot, two.as_dict(), Counter(two.edge_activations)))
    assert phases[0] == phases[1]


def test_edge_local_broadcast_parity():
    graph = weighted_erdos_renyi(36, 0.2, seed=4)
    edge, fast = engine_pair(graph)
    edge.seed_all_rumors()
    fast.seed_all_rumors()
    metrics_e = edge.run(numpy_spec("all", 7), lambda e: e.local_broadcast_complete())
    metrics_f = fast.run(numpy_spec("all", 7), lambda e: e.local_broadcast_complete())
    assert metrics_e.as_dict() == metrics_f.as_dict()


# ----------------------------------------------------------------------
# Suppressed / lost accounting on the fault and churn scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["crash-pushpull-er48", "churn-crash-pushpull-er48"])
def test_edge_suppressed_and_lost_columns_match_oracle(name):
    edge, oracle = edge_and_oracle(load_named_scenario(name))
    assert edge.metrics.suppressed_exchanges == oracle.metrics.suppressed_exchanges
    assert edge.metrics.lost_exchanges == oracle.metrics.lost_exchanges
    if name == "crash-pushpull-er48":
        assert edge.metrics.suppressed_exchanges > 0  # the scenario actually suppresses


# ----------------------------------------------------------------------
# Golden-trace replay (flooding is round-robin: rng-mode independent,
# so the committed reference fixtures replay bit-for-bit on this backend)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", ["er24", "path16"])
def test_edge_engine_replays_flooding_fixture(topology):
    path = os.path.join(GOLDEN_DIR, f"flooding__{topology}.json")
    with open(path, "r", encoding="utf-8") as handle:
        fixture = json.load(handle)
    assert capture_golden_trace("flooding", topology, backend="edge") == fixture


# ----------------------------------------------------------------------
# Dispatch and validation
# ----------------------------------------------------------------------
def test_resolve_backend_edge_routing():
    uniform = PolicyCapability.UNIFORM_RANDOM
    assert resolve_backend("edge", uniform) == "edge"
    assert resolve_backend("auto", uniform, num_nodes=EDGE_AUTO_NODE_THRESHOLD) == "edge"
    assert resolve_backend("auto", uniform, num_nodes=EDGE_AUTO_NODE_THRESHOLD - 1) == "fast"
    assert resolve_backend("auto", uniform) == "fast"
    with pytest.raises(EngineSelectionError, match="no replication axis"):
        resolve_backend("edge", uniform, reps=4)
    with pytest.raises(EngineSelectionError, match="declarative"):
        resolve_backend("edge", PolicyCapability.ARBITRARY_CALLBACK)
    with pytest.raises(EngineSelectionError, match="event traces"):
        resolve_backend("edge", uniform, trace=object())


def test_set_default_backend_pins_edge_for_auto():
    uniform = PolicyCapability.UNIFORM_RANDOM
    set_default_backend("edge")
    try:
        assert resolve_backend("auto", uniform, num_nodes=10) == "edge"
    finally:
        set_default_backend("auto")
    assert resolve_backend("auto", uniform, num_nodes=10) == "fast"


def test_scenario_rejects_replicated_edge_runs():
    with pytest.raises(ScenarioError, match="no replication axis"):
        ScenarioSpec(name="bad", algorithm="push-pull", engine="edge", reps=4).validate()


def test_edge_engine_rejects_python_random_for_uniform_selection():
    graph = weighted_erdos_renyi(16, 0.4, seed=1)
    engine = EdgeEngine(graph)
    engine.seed_rumor(graph.nodes()[0])
    import random

    spec = RoundPolicySpec(select="uniform-random", gate="all", rng=random.Random(0))
    with pytest.raises(TypeError, match="numpy Generator"):
        engine.step(spec)
    with pytest.raises(TypeError, match="declarative"):
        engine.step(object())


# ----------------------------------------------------------------------
# Memory guard
# ----------------------------------------------------------------------
def test_memory_guard_refuses_construction_beyond_limit():
    graph = weighted_erdos_renyi(64, 0.3, seed=1)
    with pytest.raises(SimulationError, match="edge backend refuses"):
        EdgeEngine(graph, memory_limit=1024)


def test_memory_guard_blocks_all_to_all_growth_with_estimate():
    graph = weighted_erdos_renyi(200, 0.2, seed=3)
    engine = EdgeEngine(graph)
    # Tighten the budget so the single-rumor plane fits exactly but the
    # all-to-all growth (n^2/8 bytes of knowledge) cannot.
    engine._memory_limit = engine._estimate_bytes(words=1)["total"]
    with pytest.raises(SimulationError, match="memory limit") as excinfo:
        engine.seed_all_rumors()
    assert "GiB" in str(excinfo.value)  # the estimate is in the message
    # The guarded engine is still usable at its current size.
    rumor = engine.seed_rumor(graph.nodes()[0])
    engine.run(numpy_spec("all", 1), lambda e: e.dissemination_complete(rumor))


# ----------------------------------------------------------------------
# SIR push-pull: the forgetting gate's cross-backend contract
# ----------------------------------------------------------------------
SIR_FAMILIES = (
    ("watts-strogatz", lambda: weighted_watts_strogatz(48, k=6, rewire=0.2, seed=13)),
    ("configuration-model", lambda: weighted_configuration_model(48, gamma=2.4, min_degree=2, seed=13)),
    ("kronecker", lambda: weighted_kronecker(48, edge_factor=4, seed=13)),
)


def sir_spec(seed, forget_after=9):
    return RoundPolicySpec(
        select="uniform-random",
        gate="sir",
        forget_after=forget_after,
        rng=make_numpy_rng(seed, "rep", 0),
    )


def run_sir(engine, seed, forget_after=9):
    metrics = engine.run(
        sir_spec(seed, forget_after),
        lambda e: e.sir_ever_complete() or e.sir_quiescent(),
    )
    return metrics


@pytest.mark.parametrize("family,build", SIR_FAMILIES, ids=[f for f, _ in SIR_FAMILIES])
def test_edge_sir_gate_matches_fast_numpy_mode(family, build):
    graph = build()
    edge, fast = engine_pair(graph)
    edge.seed_rumor(graph.nodes()[0])
    fast.seed_rumor(graph.nodes()[0])
    metrics_e = run_sir(edge, 17)
    metrics_f = run_sir(fast, 17)
    assert metrics_e.as_dict() == metrics_f.as_dict()
    assert metrics_e.edge_activations == metrics_f.edge_activations
    assert edge.sir_stats() == fast.sir_stats()
    assert edge.sir_ever_complete() == fast.sir_ever_complete()
    assert edge.sir_quiescent() == fast.sir_quiescent()


def test_edge_sir_recovery_actually_silences_nodes():
    # forget_after=1: every informed node recovers after a single active
    # round, so the epidemic dies out long before the rumor covers a
    # 200-node ring-like graph — and a quiescent engine stops cleanly.
    graph = weighted_watts_strogatz(200, k=4, rewire=0.0, seed=3)
    edge, fast = engine_pair(graph)
    edge.seed_rumor(graph.nodes()[0])
    fast.seed_rumor(graph.nodes()[0])
    metrics_e = run_sir(edge, 5, forget_after=1)
    metrics_f = run_sir(fast, 5, forget_after=1)
    assert metrics_e.as_dict() == metrics_f.as_dict()
    assert edge.sir_stats() == fast.sir_stats()
    stats = edge.sir_stats()
    assert edge.sir_quiescent() and not edge.sir_ever_complete()
    assert stats["ever_informed"] < 200
    assert stats["infected"] == 0  # everyone who learned it has forgotten
    assert stats["recovered"] == stats["ever_informed"]
