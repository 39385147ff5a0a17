"""Golden-trace regression tests.

Each committed fixture under ``tests/golden/`` is the seeded trajectory of
one declarative algorithm on one topology (see
:mod:`repro.simulation.golden`).  These tests replay every fixture on the
reference engine *and* the fast bitset engine — per-round informed counts
included — and cross-check the end-to-end ``GossipAlgorithm.run`` results,
so serial replay, fast-engine replay, and the committed snapshot must all
agree bit-for-bit.  Regenerate deliberately with
``python tests/golden/regen.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.simulation.golden import (
    GOLDEN_SEED,
    build_golden_algorithm,
    build_golden_dynamics,
    build_golden_faults,
    build_golden_topology,
    capture_golden_trace,
    fixture_filename,
    golden_cases,
    golden_dynamic_cases,
    golden_fault_cases,
)

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))
#: The graph-realization and stored-result pins live beside the trace
#: fixtures but are not ones.
PIN_FILES = {"graph_digests.json", "result_digests.json"}
CASES = golden_cases()
DYNAMIC_CASES = golden_dynamic_cases()
FAULT_CASES = golden_fault_cases()


def _load_fixture(algorithm: str, topology: str, dynamics: str = None, faults: str = None) -> dict:
    path = os.path.join(FIXTURE_DIR, fixture_filename(algorithm, topology, dynamics, faults))
    assert os.path.exists(path), (
        f"missing golden fixture {os.path.basename(path)}; run `python tests/golden/regen.py`"
    )
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_every_golden_case_has_a_committed_fixture():
    committed = {
        name
        for name in os.listdir(FIXTURE_DIR)
        if name.endswith(".json") and name not in PIN_FILES
    }
    expected = {fixture_filename(algorithm, topology) for algorithm, topology in CASES}
    expected |= {
        fixture_filename(algorithm, topology, dynamics)
        for algorithm, topology, dynamics in DYNAMIC_CASES
    }
    expected |= {
        fixture_filename(algorithm, topology, None, faults)
        for algorithm, topology, faults in FAULT_CASES
    }
    assert committed == expected, (
        "fixture set is out of sync with repro.simulation.golden; "
        "run `python tests/golden/regen.py` (and delete stale files)"
    )


@pytest.mark.parametrize(("algorithm", "topology"), CASES)
def test_reference_engine_matches_fixture(algorithm, topology):
    fixture = _load_fixture(algorithm, topology)
    assert capture_golden_trace(algorithm, topology, backend="reference") == fixture


@pytest.mark.parametrize(("algorithm", "topology"), CASES)
def test_fast_engine_matches_fixture(algorithm, topology):
    fixture = _load_fixture(algorithm, topology)
    assert capture_golden_trace(algorithm, topology, backend="fast") == fixture


@pytest.mark.parametrize(("algorithm", "topology"), CASES)
def test_algorithm_run_matches_fixture_on_both_backends(algorithm, topology):
    """Guards drift between golden._policy_spec and the algorithms' own specs.

    ``GossipAlgorithm.run`` constructs its policy spec (selection rule, gate,
    rng label) internally; if that ever diverges from the replay table used
    to capture fixtures, the end-to-end run stops matching the snapshot.
    """
    fixture = _load_fixture(algorithm, topology)
    for backend in ("reference", "fast"):
        graph = build_golden_topology(topology)
        instance = build_golden_algorithm(algorithm)
        result = instance.run(graph, source=fixture["source"], seed=GOLDEN_SEED, engine=backend)
        assert result.complete
        assert result.rounds_simulated == fixture["rounds"], backend
        assert result.metrics.messages == fixture["messages"], backend
        assert result.metrics.activations == fixture["activations"], backend
        assert result.metrics.rumor_deliveries == fixture["rumor_deliveries"], backend


@pytest.mark.parametrize(("algorithm", "topology", "dynamics"), DYNAMIC_CASES)
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_churned_trace_matches_fixture_on_both_backends(algorithm, topology, dynamics, backend):
    """The churned anchors: per-round informed counts under topology dynamics.

    Replaying the committed schedule on either backend must reproduce the
    fixture bit-for-bit — including the per-round informed counts and the
    lost-exchange total — anchoring dynamics application order, in-flight
    cancellation, and the fast engine's mid-run CSR re-snapshots.
    """
    fixture = _load_fixture(algorithm, topology, dynamics)
    assert capture_golden_trace(algorithm, topology, backend=backend, dynamics=dynamics) == fixture


@pytest.mark.parametrize(("algorithm", "topology", "dynamics"), DYNAMIC_CASES)
def test_churned_algorithm_run_matches_fixture_on_both_backends(algorithm, topology, dynamics):
    """End-to-end ``run(dynamics=...)`` agrees with the stepped churned trace."""
    fixture = _load_fixture(algorithm, topology, dynamics)
    for backend in ("reference", "fast"):
        graph = build_golden_topology(topology)
        schedule = build_golden_dynamics(dynamics, graph)
        instance = build_golden_algorithm(algorithm)
        result = instance.run(
            graph, source=fixture["source"], seed=GOLDEN_SEED, engine=backend, dynamics=schedule
        )
        assert result.complete
        assert result.rounds_simulated == fixture["rounds"], backend
        assert result.metrics.messages == fixture["messages"], backend
        assert result.metrics.activations == fixture["activations"], backend
        assert result.metrics.lost_exchanges == fixture["lost_exchanges"], backend
        assert result.details["dynamics"] == str(schedule), backend


@pytest.mark.parametrize(("algorithm", "topology", "faults"), FAULT_CASES)
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_faulted_trace_matches_fixture_on_both_backends(algorithm, topology, faults, backend):
    """The faulted anchors: crash/edge faults compiled onto the event pipeline.

    Replaying the committed fault plan on either backend must reproduce the
    fixture bit-for-bit — per-round informed counts among all nodes and the
    suppressed-exchange total — anchoring suppression accounting and the
    survivor-restricted completion predicates.
    """
    fixture = _load_fixture(algorithm, topology, faults=faults)
    assert capture_golden_trace(algorithm, topology, backend=backend, faults=faults) == fixture


@pytest.mark.parametrize(("algorithm", "topology", "faults"), FAULT_CASES)
def test_faulted_algorithm_run_matches_fixture_on_both_backends(algorithm, topology, faults):
    """End-to-end ``run(faults=...)`` agrees with the stepped faulted trace."""
    fixture = _load_fixture(algorithm, topology, faults=faults)
    for backend in ("reference", "fast"):
        graph = build_golden_topology(topology)
        plan = build_golden_faults(faults, graph)
        instance = build_golden_algorithm(algorithm)
        result = instance.run(
            graph, source=fixture["source"], seed=GOLDEN_SEED, engine=backend, faults=plan
        )
        assert result.complete
        assert result.rounds_simulated == fixture["rounds"], backend
        assert result.metrics.messages == fixture["messages"], backend
        assert result.metrics.activations == fixture["activations"], backend
        assert result.metrics.suppressed_exchanges == fixture["suppressed_exchanges"], backend
        assert result.details["suppressed_exchanges"] == fixture["suppressed_exchanges"], backend
