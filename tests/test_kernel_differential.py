"""Differential property: the numpy round kernel against the scalar fast loop.

One Hypothesis property draws a whole run: an Erdős–Rényi graph, the task
(one-to-all, or all-to-all, which needs two knowledge words past 64
nodes), the activation gate, blocking, a crash fraction and an edge-drop
fraction each firing at a drawn round, and Markov churn.  The same run
goes through :class:`EdgeEngine` and through :class:`FastEngine` in the
numpy sampling mode (``make_numpy_rng(seed, "rep", 0)``), and through a
two-replication :class:`BatchEngine` against the fast loop per
replication.  Every metric must match, lost, suppressed and the per-edge
activation counters included.  A ``RuntimeError`` on both sides is parity
(a fault can cut a survivor off, and then neither side completes); a
one-sided stall fails.

The kernel side runs on the drawn representation: the dict graph itself,
or ``CSRGraph.from_weighted`` of it, whose event rounds edit its arrays;
the fast loop always runs on the dict graph.

Faults that fire after round 1 catch exchanges in flight, which is the
case the pinned examples keep in every run.  A second test reuses one
engine for two runs, blocking or not, with and without draining the
first, where the second run stays on one knowledge word or widens the
plane to two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graphs import CSRGraph, weighted_erdos_renyi
from repro.graphs.dynamics import markov_churn
from repro.simulation import (
    BatchEngine,
    BatchPolicySpec,
    ComposedDynamics,
    EdgeEngine,
    FastEngine,
    RoundPolicySpec,
    compile_fault_plan,
    random_crash_plan,
    random_edge_drop_plan,
    replication_rngs,
)
from repro.simulation.rng import make_numpy_rng

MAX_ROUNDS = 400


@dataclass(frozen=True)
class Case:
    """One drawn run: graph, task, gate, blocking, faults, churn and representation."""

    n: int
    p: float
    graph_seed: int
    all_to_all: bool
    gate: str
    blocking: bool
    crash: float
    crash_round: int
    drop: float
    drop_round: int
    churn: bool
    seed: int
    forget_after: int = 4
    csr: bool = False


@st.composite
def cases(draw) -> Case:
    all_to_all = draw(st.booleans())
    gates = ["all", "informed-only", "uninformed-only"] + ([] if all_to_all else ["sir"])
    return Case(
        n=draw(st.integers(24, 90)),
        p=draw(st.sampled_from([0.08, 0.15, 0.25])),
        graph_seed=draw(st.integers(0, 999)),
        all_to_all=all_to_all,
        gate=draw(st.sampled_from(gates)),
        blocking=draw(st.booleans()),
        crash=draw(st.sampled_from([0.0, 0.05, 0.15])),
        crash_round=draw(st.integers(1, 5)),
        drop=draw(st.sampled_from([0.0, 0.03, 0.1])),
        drop_round=draw(st.integers(1, 5)),
        churn=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31 - 1)),
        forget_after=draw(st.integers(2, 8)),
        csr=draw(st.booleans()),
    )


def build(case: Case):
    """The case's graph, its source node and its shared dynamics schedule."""
    graph = weighted_erdos_renyi(case.n, case.p, seed=case.graph_seed)
    source = graph.nodes()[0]
    plan = random_crash_plan(
        graph, case.crash, case.crash_round, seed=case.seed, protect={source}
    ).merge(random_edge_drop_plan(graph, case.drop, case.drop_round, seed=case.seed))
    parts = []
    if case.churn:
        parts.append(
            markov_churn(
                graph, horizon=12, leave_prob=0.05, rejoin_prob=0.3, seed=case.seed,
                protect=(source,),
            )
        )
    if not plan.empty:
        parts.append(compile_fault_plan(plan))
    dynamics = None if not parts else parts[0] if len(parts) == 1 else ComposedDynamics(parts)
    return graph, source, dynamics


def forget_after(case: Case):
    """The SIR recovery delay, which only the ``sir`` gate takes."""
    return case.forget_after if case.gate == "sir" else None


def seed_task(engine, case: Case, source):
    """Seed the case's task on a single-run engine; return its stop condition."""
    if case.all_to_all:
        engine.seed_all_rumors()
        return lambda e: e.all_to_all_complete()
    rumor = engine.seed_rumor(source)
    if case.gate == "sir":
        return lambda e: e.sir_ever_complete() or e.sir_quiescent()
    return lambda e: e.dissemination_complete(rumor)


def kernel_graph(graph, case: Case):
    """The kernel side's representation of the case's dict graph."""
    return CSRGraph.from_weighted(graph) if case.csr else graph


def single_run(engine_cls, case: Case, rep: int):
    """One run on a single-run engine, as a comparable outcome."""
    graph, source, dynamics = build(case)
    if engine_cls is not FastEngine:
        graph = kernel_graph(graph, case)
    engine = engine_cls(graph, blocking=case.blocking, dynamics=dynamics)
    stop = seed_task(engine, case, source)
    spec = RoundPolicySpec(
        select="uniform-random",
        gate=case.gate,
        rng=make_numpy_rng(case.seed, "rep", rep),
        forget_after=forget_after(case),
    )
    try:
        metrics = engine.run(spec, stop, max_rounds=MAX_ROUNDS)
    except RuntimeError:
        return "stalled"
    return metrics.as_dict(), Counter(metrics.edge_activations)


def batch_run(case: Case, reps: int):
    """The case on the kernel at ``reps`` replications, one outcome per column."""
    graph, source, dynamics = build(case)
    engine = BatchEngine(
        kernel_graph(graph, case), reps=reps, blocking=case.blocking, dynamics=dynamics
    )
    if case.all_to_all:
        engine.seed_all_rumors()
        stop = lambda e: e.all_to_all_complete_mask()
    else:
        rumor = engine.seed_rumor(source)
        if case.gate == "sir":
            stop = lambda e: e.sir_ever_complete_mask() | e.sir_quiescent_mask()
        else:
            stop = lambda e: e.dissemination_complete_mask(rumor)
    policy = BatchPolicySpec(
        select="uniform-random",
        gate=case.gate,
        rngs=tuple(replication_rngs(case.seed, reps)),
        forget_after=forget_after(case),
    )
    try:
        columns = engine.run_batch(policy, stop, max_rounds=MAX_ROUNDS)
    except RuntimeError:
        return "stalled"
    return [(m.as_dict(), Counter(m.edge_activations)) for m in columns]


@settings(max_examples=25, deadline=None)
@given(case=cases())
# SIR push-pull with a crash in round 3, while exchanges are in flight.
@example(Case(60, 0.15, 3, False, "sir", False, 0.15, 3, 0.0, 1, False, 11, forget_after=5))
# Blocking under churn, with crashes and drops firing mid-run.
@example(Case(48, 0.15, 5, False, "all", True, 0.05, 2, 0.03, 4, True, 7))
# The same on a CSRGraph, whose event rounds edit its arrays.
@example(Case(48, 0.15, 5, False, "all", True, 0.05, 2, 0.03, 4, True, 7, csr=True))
# Two knowledge words, with edges dropped in round 2.
@example(Case(80, 0.15, 2, True, "all", False, 0.0, 1, 0.1, 2, False, 3))
def test_kernel_matches_fast_loop(case):
    fast = single_run(FastEngine, case, 0)
    assert single_run(EdgeEngine, case, 0) == fast
    loop = [fast, single_run(FastEngine, case, 1)]
    columns = batch_run(case, reps=2)
    if "stalled" in loop:
        assert columns == "stalled"
    else:
        assert columns == loop


@pytest.mark.parametrize("blocking", [False, True])
@pytest.mark.parametrize("drain", [True, False])
@pytest.mark.parametrize("words", [1, 2])
def test_kernel_matches_fast_across_two_runs(blocking, drain, words):
    # A one-to-all run, then a second run on the same engine: another
    # one-to-all rumor (one word), or all-to-all over 80 nodes (two words).
    # Undrained, the first run's pipeline, tallies and records carry over;
    # drained, a blocking run's initiators are free again.
    graph = weighted_erdos_renyi(80, 0.15, seed=2)
    phases = []
    for engine in (
        EdgeEngine(graph.copy(), blocking=blocking),
        FastEngine(graph.copy(), blocking=blocking),
    ):
        spec = RoundPolicySpec(
            select="uniform-random", gate="all", rng=make_numpy_rng(2, "rep", 0)
        )
        rumor = engine.seed_rumor(graph.nodes()[0])
        one = engine.run(spec, lambda e: e.dissemination_complete(rumor), drain=drain)
        first = (one.as_dict(), Counter(one.edge_activations))
        if words == 1:
            late = engine.seed_rumor(graph.nodes()[-1])
            stop = lambda e: e.dissemination_complete(late)
        else:
            engine.seed_all_rumors()
            stop = lambda e: e.all_to_all_complete()
        two = engine.run(spec, stop, max_rounds=500 if blocking else 1_000_000, drain=drain)
        phases.append((first, two.as_dict(), Counter(two.edge_activations)))
    assert phases[0] == phases[1]
