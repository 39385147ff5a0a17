"""Batch-replication engine: parity, metrics accounting, and dispatch tests.

The load-bearing contract: for every scenario, batched replication ``r``
is **bit-for-bit equal** to the sequential numpy-mode fast-engine run whose
neighbour draws are seeded ``derive_seed(seed, "rep", r)``.  These tests
assert it over the whole bundled scenario library (dynamics, faults, and
flooding included), pin the per-replication metric columns against the
scalar loop, and cover the dispatch/validation surface around ``reps=``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gossip import PushPullGossip, ReplicatedResult, Task
from repro.graphs import weighted_erdos_renyi
from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    library_scenario_names,
    load_named_scenario,
    run_scenario,
)
from repro.simulation import (
    BatchEngine,
    BatchPolicySpec,
    EngineSelectionError,
    PolicyCapability,
    SimulationError,
    batch_engine,
    replication_rngs,
    resolve_backend,
)

LIBRARY = library_scenario_names()


def trajectory(result):
    """The bit-for-bit comparison key of one replication's run."""
    return (result.rounds_simulated, result.time, result.metrics.as_dict())


def replicated_pair(spec: ScenarioSpec, reps: int):
    """The same replicated scenario on the batch backend and the scalar oracle."""
    batched = run_scenario(spec.patched({"engine": "batch"}), reps=reps)
    sequential = run_scenario(spec.patched({"engine": "fast"}), reps=reps)
    return batched, sequential


# ----------------------------------------------------------------------
# The parity contract, over the whole bundled library
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", LIBRARY)
def test_batch_matches_sequential_numpy_run_per_library_scenario(name):
    spec = load_named_scenario(name)
    batched, sequential = replicated_pair(spec, reps=3)
    assert batched.reps == sequential.reps == 3
    for b, s in zip(batched.results, sequential.results):
        assert trajectory(b) == trajectory(s)
        assert b.metrics.edge_activations == s.metrics.edge_activations


def test_batch_parity_holds_for_one_to_all_with_informed_curve():
    spec = ScenarioSpec(
        name="one-to-all-parity",
        algorithm="push-pull",
        task="one-to-all",
        seed=11,
    )
    batched, sequential = replicated_pair(spec, reps=4)
    for b, s in zip(batched.results, sequential.results):
        assert trajectory(b) == trajectory(s)
        curve = b.details["informed_curve"]
        # The curve starts at the seeded state and ends fully informed at
        # the replication's own completion round.
        assert curve[0] == 1
        assert curve[-1] == spec.graph.n
        assert len(curve) == b.rounds_simulated + 1


def test_batch_replications_are_independent_and_ordered():
    spec = ScenarioSpec(name="ordering", algorithm="push-pull", task="all-to-all", seed=3)
    replicated = run_scenario(spec, reps=5)
    assert isinstance(replicated, ReplicatedResult)
    assert [r.details["rep"] for r in replicated.results] == [0, 1, 2, 3, 4]
    # Independent coin flips: not every replication takes the same time
    # (5 replications of a randomized protocol virtually never tie on
    # every metric; messages differ even when rounds tie).
    assert len({(r.time, r.metrics.messages) for r in replicated.results}) > 1


# ----------------------------------------------------------------------
# Hypothesis: permutation-free exact match on any library scenario
# ----------------------------------------------------------------------
def replicated_rows(spec: ScenarioSpec, reps: int):
    """``("completed", rows)`` of a replicated run, or ``("stalled", None)`` if it raises."""
    try:
        return ("completed", [trajectory(r) for r in run_scenario(spec, reps=reps).results])
    except RuntimeError:
        return ("stalled", None)


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(LIBRARY),
    reps=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# Seed 152's edge drops isolate a node, so the stall path always runs.
@example(name="edgedrop-flooding-ba48", reps=2, seed=152)
def test_property_batch_rows_match_sequential_rows_exactly(name, reps, seed):
    # An unlucky (scenario, seed) draw can disconnect a faulted graph, in
    # which case dissemination never reaches the stop condition; the
    # parity contract then is that BOTH backends stall, not that the run
    # completes.  The cap keeps a stalling draw from burning 100k rounds.
    spec = load_named_scenario(name).patched({"seed": seed, "max_rounds": 3000})
    algorithm = spec.algorithm
    assert algorithm in ("push-pull", "push", "pull", "flooding", "sir-push-pull")  # all declarative
    batched = replicated_rows(spec.patched({"engine": "batch"}), reps)
    sequential = replicated_rows(spec.patched({"engine": "fast"}), reps)
    # Exact match in replication order — not merely as a multiset.
    assert batched == sequential


# ----------------------------------------------------------------------
# Metrics accounting under batch (suppressed / lost columns)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["crash-pushpull-er48", "churn-crash-pushpull-er48"])
def test_batch_suppressed_and_lost_columns_sum_to_scalar_totals(name):
    spec = load_named_scenario(name)
    reps = 3
    batched, sequential = replicated_pair(spec, reps=reps)
    batch_suppressed = [r.metrics.suppressed_exchanges for r in batched.results]
    batch_lost = [r.metrics.lost_exchanges for r in batched.results]
    assert sum(batch_suppressed) == sum(r.metrics.suppressed_exchanges for r in sequential.results)
    assert sum(batch_lost) == sum(r.metrics.lost_exchanges for r in sequential.results)
    # The run-level details expose the same totals without digging.
    assert batched.details["suppressed_exchanges"] == sum(batch_suppressed)
    assert batched.details["lost_exchanges"] == sum(batch_lost)
    if name == "crash-pushpull-er48":
        assert sum(batch_suppressed) > 0  # the crash scenario actually suppresses


# ----------------------------------------------------------------------
# Aggregation into the Summary spread fields
# ----------------------------------------------------------------------
def test_replicated_aggregate_emits_spread_fields():
    spec = ScenarioSpec(name="agg", algorithm="push-pull", task="all-to-all", seed=1)
    replicated = run_scenario(spec, reps=4)
    aggregate = replicated.aggregate()
    times = replicated.measurements("time")
    for key in ReplicatedResult.MEASURES:
        assert key in aggregate
        assert {f"{key}_min", f"{key}_max", f"{key}_stdev"} <= set(aggregate)
    assert aggregate["time_min"] == min(times)
    assert aggregate["time_max"] == max(times)
    assert aggregate["time_min"] <= aggregate["time"] <= aggregate["time_max"]
    rows = replicated.rows()
    assert len(rows) == 4 and rows[2]["rep"] == 2


def test_single_replication_returns_one_row_without_spread():
    spec = ScenarioSpec(name="single", algorithm="push-pull", task="all-to-all", engine="batch")
    replicated = run_scenario(spec)
    assert isinstance(replicated, ReplicatedResult)
    assert replicated.reps == 1
    assert "time_stdev" not in replicated.aggregate()


# ----------------------------------------------------------------------
# Dispatch and validation
# ----------------------------------------------------------------------
def test_resolve_backend_reps_routing():
    uniform = PolicyCapability.UNIFORM_RANDOM
    assert resolve_backend("auto", uniform, reps=8) == "batch"
    assert resolve_backend("batch", uniform, reps=8) == "batch"
    assert resolve_backend("fast", uniform, reps=8) == "fast"
    with pytest.raises(EngineSelectionError):
        resolve_backend("reference", uniform, reps=8)
    with pytest.raises(EngineSelectionError):
        resolve_backend("auto", PolicyCapability.ARBITRARY_CALLBACK, reps=8)
    with pytest.raises(EngineSelectionError):
        resolve_backend("batch", uniform)  # engine="batch" needs a replication count


def test_scenario_rejects_replication_of_callback_algorithms():
    with pytest.raises(ScenarioError, match="cannot run replicated"):
        ScenarioSpec(name="bad", algorithm="spanner", task="all-to-all", reps=4).validate()
    with pytest.raises(ScenarioError, match="numpy sampling mode"):
        ScenarioSpec(name="bad", algorithm="push-pull", engine="reference", reps=4).validate()
    with pytest.raises(ScenarioError, match="reps"):
        ScenarioSpec(name="bad", algorithm="push-pull", reps=0).validate()


def test_replicated_run_rejects_local_broadcast_and_bad_reps():
    graph = weighted_erdos_renyi(16, 0.5, seed=1)
    with pytest.raises(ValueError):
        PushPullGossip().run(graph, source=graph.nodes()[0], reps=0)
    from repro.graphs.weighted_graph import GraphError

    with pytest.raises(GraphError, match="local broadcast"):
        PushPullGossip(task=Task.LOCAL_BROADCAST).run(graph, reps=2)


def test_batch_policy_spec_validation():
    rngs = tuple(replication_rngs(0, 2))
    BatchPolicySpec(select="uniform-random", gate="all", rngs=rngs)  # valid
    with pytest.raises(ValueError):
        BatchPolicySpec(select="uniform-random", gate="all")  # rngs missing
    with pytest.raises(ValueError):
        BatchPolicySpec(select="round-robin", rngs=rngs)  # deterministic + rngs
    with pytest.raises(ValueError):
        BatchPolicySpec(select="warp", gate="all")
    engine = BatchEngine(weighted_erdos_renyi(8, 0.9, seed=0), reps=3)
    with pytest.raises(ValueError, match="replication rngs"):
        engine.run_batch(
            BatchPolicySpec(select="uniform-random", rngs=rngs),
            stop_mask=lambda eng: eng.all_to_all_complete_mask(),
        )
    with pytest.raises(TypeError):
        engine.run_batch(object(), stop_mask=lambda eng: eng.all_to_all_complete_mask())


def test_replicated_run_does_not_mutate_caller_graph_under_dynamics():
    from repro.graphs.dynamics import markov_churn

    graph = weighted_erdos_renyi(24, 0.4, seed=5)
    frozen = graph.copy()
    dynamics = markov_churn(graph, horizon=40, leave_prob=0.1, rejoin_prob=0.2, seed=9)
    PushPullGossip(task=Task.ALL_TO_ALL).run(graph, seed=2, reps=2, dynamics=dynamics)
    assert sorted(map(repr, graph.edges())) == sorted(map(repr, frozen.edges()))


def test_batch_engine_raises_when_max_rounds_exhausted():
    spec = ScenarioSpec(name="cap", algorithm="push-pull", task="all-to-all", max_rounds=2)
    with pytest.raises(RuntimeError, match="did not reach the stop condition"):
        run_scenario(spec, reps=3)


def test_batch_engine_survives_rounds_beyond_int16_range():
    # The latency sort key is int16; completion rounds must still be
    # computed in python ints, so a run past round 32767 neither wraps
    # (silently losing exchanges) nor overflows — it keeps simulating
    # until the documented RuntimeError at max_rounds.
    graph = weighted_erdos_renyi(4, 1.0, seed=0)
    engine = BatchEngine(graph, reps=1)
    engine.seed_rumor(graph.nodes()[0])
    policy = BatchPolicySpec(
        select="uniform-random", gate="all", rngs=tuple(replication_rngs(0, 1))
    )
    import numpy as np

    with pytest.raises(RuntimeError, match="did not reach the stop condition"):
        engine.run_batch(
            policy, lambda eng: np.zeros(1, dtype=bool), max_rounds=33_000
        )
    assert engine.round == 33_000


# ----------------------------------------------------------------------
# Memory guard (the edge backend's estimator, extended by the rep axis)
# ----------------------------------------------------------------------
def test_memory_guard_refuses_oversized_reps_up_front():
    graph = weighted_erdos_renyi(64, 0.3, seed=1)
    with pytest.raises(SimulationError, match="batch backend refuses constructing") as excinfo:
        BatchEngine(graph, reps=10_000_000)
    message = str(excinfo.value)
    # The estimate and its terms are in the message, in GiB.
    assert "reps=10000000" in message
    terms = ("knowledge", "edge-counts", "activation-buffers", "round-buffers", "pipeline")
    assert all(f"{term}=" in message for term in terms)
    total = float(message.split("estimated footprint ")[1].split(" GiB")[0])
    assert total > batch_engine.DEFAULT_MEMORY_LIMIT / 1024**3


def test_memory_guard_blocks_knowledge_word_growth(monkeypatch):
    graph = weighted_erdos_renyi(80, 0.15, seed=2)
    engine = BatchEngine(graph, reps=3)
    # The single-word plane fits exactly; a 65th rumor needs a second word.
    monkeypatch.setattr(
        batch_engine, "DEFAULT_MEMORY_LIMIT", engine._estimate_bytes(words=1)["total"]
    )
    with pytest.raises(SimulationError, match="growing to 128 rumor bits"):
        engine.seed_all_rumors()
    assert len(engine._rumors) == 64 and engine._words == 1  # refused before registering
    rumor = engine.seed_rumor(graph.nodes()[0])
    policy = BatchPolicySpec(
        select="uniform-random", gate="all", rngs=tuple(replication_rngs(1, 3))
    )
    engine.run_batch(policy, lambda eng: eng.dissemination_complete_mask(rumor))


def test_seed_all_rumors_grows_the_plane_once_to_its_final_width(monkeypatch):
    graph = weighted_erdos_renyi(200, 0.05, seed=3)
    engine = BatchEngine(graph, reps=2)
    # 200 rumors need 4 words; the guard weighs all of them at the first
    # growth and names the whole plane when it refuses.
    monkeypatch.setattr(
        batch_engine, "DEFAULT_MEMORY_LIMIT", engine._estimate_bytes(words=3)["total"]
    )
    with pytest.raises(SimulationError, match="growing to 256 rumor bits"):
        engine.seed_all_rumors()
    assert len(engine._rumors) == 64 and engine._words == 1
    monkeypatch.setattr(
        batch_engine, "DEFAULT_MEMORY_LIMIT", engine._estimate_bytes(words=4)["total"]
    )
    widths = []
    grow = BatchEngine._grow_plane
    monkeypatch.setattr(
        BatchEngine, "_grow_plane", lambda self, words: (widths.append(words), grow(self, words))
    )
    rumors = engine.seed_all_rumors()
    assert widths == [4] and engine._know.shape == (200, 2, 4)
    assert [engine._rumor_bit[rumors[node]] for node in graph.nodes()] == list(range(200))


def test_batch_parity_beyond_64_rumors_multi_word_planes():
    # 80 rumors force a second uint64 bitplane word, exercising the generic
    # multi-word gather/merge/popcount paths on both sides of the parity.
    spec = ScenarioSpec(
        name="multi-word",
        algorithm="push-pull",
        task="all-to-all",
        seed=6,
    ).patched({"graph.n": 80})
    batched, sequential = replicated_pair(spec, reps=2)
    for b, s in zip(batched.results, sequential.results):
        assert trajectory(b) == trajectory(s)
        assert b.metrics.edge_activations == s.metrics.edge_activations
    assert batched.results[0].metrics.max_payload_size > 64  # really multi-word


def test_batch_parity_under_blocking_exchanges():
    from repro.simulation import FastEngine
    from repro.simulation.rng import make_numpy_rng

    graph = weighted_erdos_renyi(24, 0.3, seed=8)
    reps = 3
    batch = BatchEngine(graph.copy(), reps=reps, blocking=True)
    rumors = batch.seed_all_rumors()
    assert set(rumors) == set(graph.nodes())
    policy = BatchPolicySpec(
        select="uniform-random", gate="all", rngs=tuple(replication_rngs(4, reps))
    )
    batch_metrics = batch.run_batch(policy, lambda eng: eng.all_to_all_complete_mask())
    for rep in range(reps):
        engine = FastEngine(graph.copy(), blocking=True)
        engine.seed_all_rumors()
        from repro.simulation import RoundPolicySpec

        spec = RoundPolicySpec(select="uniform-random", gate="all", rng=make_numpy_rng(4, "rep", rep))
        sequential = engine.run(spec, stop_condition=lambda eng: eng.all_to_all_complete())
        assert batch_metrics[rep].as_dict() == sequential.as_dict()
        assert batch_metrics[rep].edge_activations == sequential.edge_activations


def test_batch_parity_for_directional_gates():
    from repro.gossip import PullGossip, PushGossip

    graph = weighted_erdos_renyi(32, 0.25, seed=12)
    source = graph.nodes()[0]
    for algorithm in (PushGossip(task=Task.ONE_TO_ALL), PullGossip(task=Task.ONE_TO_ALL)):
        batched = algorithm.run(graph, source=source, seed=5, reps=3, engine="batch")
        sequential = algorithm.run(graph, source=source, seed=5, reps=3, engine="fast")
        for b, s in zip(batched.results, sequential.results):
            assert trajectory(b) == trajectory(s)


# ----------------------------------------------------------------------
# Batch shards in the sweep orchestrator
# ----------------------------------------------------------------------
def _batch_sweep(base_seed: int = 7):
    from repro.analysis.experiment import scenario_sweep
    from repro.scenario import GraphSpec

    base = ScenarioSpec(
        name="sweep-base",
        algorithm="push-pull",
        task="all-to-all",
        graph=GraphSpec(family="erdos-renyi", n=24),
    )
    return scenario_sweep(
        "batch-sweep",
        base,
        patches=[{"graph.n": 24}, {"graph.n": 32}],
        repetitions=3,
        base_seed=base_seed,
        batch=True,
    )


def test_batched_sweep_compiles_one_shard_per_case():
    experiment = _batch_sweep()
    shards = experiment.shards()
    assert len(shards) == 2  # one vectorized call per case, not case x rep
    assert [shard.key for shard in shards] == [(0, 0), (1, 0)]


def test_batched_sweep_rows_carry_spread_and_survive_resume(tmp_path):
    from repro.analysis import deterministic_rows

    experiment = _batch_sweep()
    checkpoint = str(tmp_path / "batch-sweep.jsonl")
    first = experiment.run(checkpoint=checkpoint)
    rows = deterministic_rows(first)
    assert len(rows) == 2
    assert {"time", "time_min", "time_max", "time_stdev"} <= set(rows[0])

    calls = 0
    original = experiment.trial

    def counting_trial(case, seed):
        nonlocal calls
        calls += 1
        return original(case, seed)

    experiment.trial = counting_trial
    resumed = experiment.run(checkpoint=checkpoint, resume=True)
    assert calls == 0  # every batch shard was restored from the checkpoint
    assert deterministic_rows(resumed) == rows


def test_batched_sweep_checkpoint_with_wrong_rep_count_is_not_trusted(tmp_path):
    experiment = _batch_sweep()
    checkpoint = str(tmp_path / "batch-sweep.jsonl")
    experiment.run(checkpoint=checkpoint)
    # A stale record written under repetitions=3 must not satisfy a
    # repetitions=4 schedule: the shard re-runs.
    wider = _batch_sweep()
    wider.repetitions = 4
    completed = wider._load_checkpoint(checkpoint)
    assert completed == {}


# ----------------------------------------------------------------------
# SIR push-pull rows: forgetting-protocol parity under replication
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["sir-pushpull-ws96", "sir-pushpull-powerlaw96", "sir-pushpull-kron64"]
)
def test_batch_sir_rows_match_sequential_and_carry_sir_details(name):
    spec = load_named_scenario(name)
    batched, sequential = replicated_pair(spec, reps=3)
    for b, s in zip(batched.results, sequential.results):
        assert trajectory(b) == trajectory(s)
        assert b.metrics.edge_activations == s.metrics.edge_activations
        # The SIR epidemic bookkeeping rides along per replication and
        # matches the sequential oracle field for field.
        for key in ("forget_after", "died_out", "ever_informed", "recovered", "infected"):
            assert b.details[key] == s.details[key], key
        assert b.details["forget_after"] == spec.forget_after
        assert b.details["died_out"] == (not b.complete)
