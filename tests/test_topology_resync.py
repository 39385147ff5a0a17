"""Topology resync: the activation ledger, the in-flight drop, engine lifetime.

The CSR backends re-snapshot the graph whenever a round's events change
its structure.  Activation counts of retired snapshots are carried in an
index-keyed ledger and turned into label pairs only when a run finishes;
in-flight exchanges over removed edges are cut out and counted as lost;
a fault naming a node the snapshot does not index yet waits for the
resync.  These tests pin all three against the scalar numpy-mode fast
engine or a run's outcome, and check that a finished engine is freed by
reference counting alone (its fault mirror holds it weakly).  The kernel
runs on the dict graph and on a ``CSRGraph`` of it, whose event rounds
edit its arrays and carry counts by the slot map they record.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.graphs import CSRGraph, WeightedGraph
from repro.simulation import (
    BatchEngine,
    BatchPolicySpec,
    EdgeEngine,
    FastEngine,
    RoundPolicySpec,
    ScheduleDynamics,
    TopologyEvent,
    replication_rngs,
)
from repro.simulation.faults import FaultPlan, compile_fault_plan
from repro.simulation.rng import make_numpy_rng

N = 18
#: Strings and tuples interleaved, with string labels counting down: every
#: string repr ("'v16'") sorts before every tuple repr ("('t', 0)"), so repr
#: order and node-index order disagree throughout.
LABELS = [("t", k) if k % 3 == 0 else f"v{N - 1 - k:02d}" for k in range(N)]
JOINER = "joiner"
STOP_ROUND = 14
REPS = 3
SEED = 21


def mixed_label_graph() -> WeightedGraph:
    """A ring plus chords over :data:`LABELS`, latencies 1-4."""
    graph = WeightedGraph(LABELS)
    for k in range(N):
        graph.add_edge(LABELS[k], LABELS[(k + 1) % N], 1 + k % 4)
        if k % 2 == 0:
            graph.add_edge(LABELS[k], LABELS[(k + 5) % N], 2)
    return graph


def stress_schedule() -> ScheduleDynamics:
    """Resyncs that re-key one edge across snapshots, grow the node set and fault.

    The edge ``LABELS[0]``-``LABELS[1]`` is removed and re-added twice, so
    its activations fold under one key from three snapshots; a brand-new
    label joins and is edge-faulted in the same round (a deferred fault).
    """
    a, b = LABELS[0], LABELS[1]
    return ScheduleDynamics(
        {
            3: [TopologyEvent("remove-edge", a, b)],
            5: [
                TopologyEvent("add-edge", a, b, latency=3),
                TopologyEvent("node-join", JOINER, edges=((LABELS[4], 1), (LABELS[9], 2))),
                TopologyEvent("edge-fault", JOINER, LABELS[4]),
            ],
            7: [
                TopologyEvent("remove-edge", a, b),
                TopologyEvent("node-crash", LABELS[7]),
                TopologyEvent("edge-fault", LABELS[2], LABELS[3]),
            ],
            9: [
                TopologyEvent("add-edge", a, b, latency=1),
                TopologyEvent("node-leave", LABELS[12]),
            ],
            11: [TopologyEvent("node-join", LABELS[12], edges=((LABELS[13], 2),))],
        },
        name="resync-stress",
    )


def kernel_graph(csr: bool) -> WeightedGraph:
    graph = mixed_label_graph()
    return CSRGraph.from_weighted(graph) if csr else graph


def run_single(engine_cls, rep: int, csr: bool = False):
    engine = engine_cls(kernel_graph(csr), dynamics=stress_schedule())
    engine.seed_rumor(LABELS[0])
    policy = RoundPolicySpec(
        select="uniform-random", gate="all", rng=make_numpy_rng(SEED, "rep", rep)
    )
    return engine.run(policy, lambda e: e.round >= STOP_ROUND)


def run_batched(csr: bool = False):
    engine = BatchEngine(kernel_graph(csr), reps=REPS, dynamics=stress_schedule())
    engine.seed_rumor(LABELS[0])
    policy = BatchPolicySpec(
        select="uniform-random", gate="all", rngs=tuple(replication_rngs(SEED, REPS))
    )
    return engine.run_batch(policy, lambda e: np.full(REPS, e.round >= STOP_ROUND))


@pytest.mark.parametrize("csr", [False, True], ids=["dict", "csr"])
def test_resynced_activation_ledger_matches_the_scalar_oracle(csr):
    batched = run_batched(csr)
    oracles = [run_single(FastEngine, rep) for rep in range(REPS)]
    for rep, oracle in enumerate(oracles):
        edge = run_single(EdgeEngine, rep, csr)
        for metrics in (batched[rep], edge):
            assert metrics.edge_activations == oracle.edge_activations
            assert metrics.lost_exchanges == oracle.lost_exchanges
            assert metrics.suppressed_exchanges == oracle.suppressed_exchanges
            assert metrics.as_dict() == oracle.as_dict()
    # The schedule really exercised every path it was built for.
    assert sum(oracle.lost_exchanges for oracle in oracles) > 0
    assert sum(oracle.suppressed_exchanges for oracle in oracles) > 0
    flapped = tuple(sorted((repr(LABELS[0]), repr(LABELS[1]))))
    assert all(oracle.edge_activations[flapped] > 0 for oracle in oracles)
    assert any(repr(JOINER) in pair for pair in oracles[0].edge_activations)


def test_counters_built_on_first_read_behave_as_counters():
    from collections import Counter

    from repro.simulation import SimulationMetrics
    from repro.store import _decode_metrics, _encode_metrics

    batched = run_batched(csr=True)
    oracles = [run_single(FastEngine, rep) for rep in range(REPS)]
    for metrics, oracle in zip(batched, oracles):
        assert "edge_activations" not in vars(metrics)  # deferred until read
        clone = pickle.loads(pickle.dumps(metrics))  # a pending result pickles
        assert clone == metrics
        assert type(metrics.edge_activations) is Counter
        assert "_edge_activation_source" not in vars(metrics)
        assert metrics.edge_activations == oracle.edge_activations
        assert _decode_metrics(_encode_metrics(metrics)) == metrics
        merged = SimulationMetrics()
        merged.merge(metrics)
        assert merged.edge_activations == metrics.edge_activations
        top = metrics.most_activated_edges(3)
        assert top == Counter(metrics.edge_activations).most_common(3)


def run_to_completion(engine, backend: str, max_rounds: int):
    rumor = engine.seed_rumor(LABELS[0])
    if backend == "batch":
        policy = BatchPolicySpec(
            select="uniform-random", gate="all", rngs=tuple(replication_rngs(SEED, engine.reps))
        )
        return engine.run_batch(
            policy, lambda e: e.dissemination_complete_mask(rumor), max_rounds=max_rounds
        )
    policy = RoundPolicySpec(
        select="uniform-random", gate="all", rng=make_numpy_rng(SEED, "rep", 0)
    )
    return engine.run(policy, lambda e: e.dissemination_complete(rumor), max_rounds=max_rounds)


@pytest.mark.parametrize("backend", ["fast", "edge", "batch"])
def test_a_fault_naming_a_node_that_joined_this_round_is_replayed(backend):
    def engine_for(events):
        dynamics = ScheduleDynamics({2: events})
        if backend == "batch":
            return BatchEngine(mixed_label_graph(), reps=2, dynamics=dynamics)
        return {"fast": FastEngine, "edge": EdgeEngine}[backend](
            mixed_label_graph(), dynamics=dynamics
        )

    join = TopologyEvent("node-join", JOINER, edges=((LABELS[4], 1),))
    run_to_completion(engine_for([join]), backend, max_rounds=40)  # reachable without the fault
    # The joiner's only edge is faulted in the round it joins, before the
    # engine's snapshot indexes it: once replayed, the fault cuts it off.
    cut_off = engine_for([join, TopologyEvent("edge-fault", JOINER, LABELS[4])])
    with pytest.raises(RuntimeError, match="did not reach the stop condition"):
        run_to_completion(cut_off, backend, max_rounds=40)


def faulted_engine(backend: str):
    graph = mixed_label_graph()
    plan = FaultPlan(
        node_crashes={LABELS[5]: 2},
        edge_drops={frozenset((LABELS[8], LABELS[9])): 2},
    )
    dynamics = compile_fault_plan(plan)
    if backend == "batch":
        return BatchEngine(graph, reps=2, dynamics=dynamics)
    return {"fast": FastEngine, "edge": EdgeEngine}[backend](graph, dynamics=dynamics)


@pytest.mark.parametrize("backend", ["fast", "edge", "batch"])
def test_finished_engines_are_freed_without_the_cyclic_gc(backend):
    gc.collect()
    gc.disable()
    try:
        engine = faulted_engine(backend)
        engine.seed_rumor(LABELS[0])
        if backend == "batch":
            policy = BatchPolicySpec(
                select="uniform-random", gate="all", rngs=tuple(replication_rngs(4, 2))
            )
            engine.run_batch(policy, lambda e: np.full(2, e.round >= 6))
        else:
            policy = RoundPolicySpec(
                select="uniform-random", gate="all", rng=make_numpy_rng(4, "rep", 0)
            )
            engine.run(policy, lambda e: e.round >= 6)
        assert engine._fault_state.crashed  # the fault plan fired
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()
