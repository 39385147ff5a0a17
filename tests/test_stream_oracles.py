"""The replayed edge streams and the shared latency back half equal ``add_edge`` builds.

Below ``CSR_AUTO_THRESHOLD`` the random families record their edge streams
in ``add_edge`` order and assemble them into CSR arrays, and one back half
draws every latency in ``edges()`` order.  The oracles here are the
sequential dict builds those replace: each family's ``add_edge`` /
``has_edge`` loop over scalar ``random.Random`` calls, and the per-edge
latency loop of ``assign_latencies``.  Every property compares labels and
the CSR snapshot (``indptr``, ``indices``, ``latencies``, ``slot_edge_id``)
array for array, and the type each path returns.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRGraph, WeightedGraph, generators
from repro.graphs.generators import (
    assign_latencies,
    bimodal_latency,
    configuration_model,
    constant_latency,
    erdos_renyi,
    geometric_latency,
    kronecker,
    uniform_latency,
    watts_strogatz,
    weighted_configuration_model,
    weighted_erdos_renyi,
    weighted_kronecker,
    weighted_watts_strogatz,
)
from repro.graphs.indexed import IndexedGraph
from repro.simulation.rng import derive_seed
from tests.test_graph_build_replay import scalar_assign_latencies as oracle_assign_latencies
from tests.test_graph_build_replay import scalar_erdos_renyi as oracle_erdos_renyi

SNAPSHOT_ARRAYS = ("indptr", "indices", "latencies", "slot_edge_id")


# ----------------------------------------------------------------------
# Oracles: the sequential add_edge builds (the Erdős–Rényi per-pair coin
# loop and the per-edge assign_latencies loop come from the replay tests)
# ----------------------------------------------------------------------
def oracle_configuration_model(
    n: int, gamma: float, min_degree: int, seed: int, ensure_connected: bool = True
) -> WeightedGraph:
    rng = random.Random(derive_seed(seed, "configuration-model"))
    cap = generators._power_law_degree_cap(n, min_degree)
    exponent = -1.0 / (gamma - 1.0)
    degrees = [min(cap, int(min_degree * (1.0 - rng.random()) ** exponent)) for _ in range(n)]
    stubs = [node for node, degree in enumerate(degrees) for _ in range(degree)]
    if len(stubs) % 2:
        stubs.pop()
    rng.shuffle(stubs)
    graph = WeightedGraph(range(n))
    for a, b in zip(stubs[0::2], stubs[1::2]):
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b, 1)
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            if not graph.has_edge(a, b):
                graph.add_edge(a, b, 1)
    return graph


def oracle_watts_strogatz(n: int, k: int, rewire: float, seed: int) -> WeightedGraph:
    rng = random.Random(derive_seed(seed, "watts-strogatz"))
    graph = WeightedGraph(range(n))
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() < rewire:
                target = rng.randrange(n)
                if target != i and not graph.has_edge(i, target):
                    graph.add_edge(i, target, 1)
                    continue
            target = (i + j) % n
            if not graph.has_edge(i, target):
                graph.add_edge(i, target, 1)
    for i in range(n):
        if not graph.has_edge(i, (i + 1) % n):
            graph.add_edge(i, (i + 1) % n, 1)
    return graph


def oracle_kronecker(
    n: int, edge_factor: int, a: float, b: float, c: float, seed: int, ensure_connected: bool = True
) -> WeightedGraph:
    rng = random.Random(derive_seed(seed, "kronecker"))
    levels = max(1, (n - 1).bit_length())
    target = min(edge_factor * n, n * (n - 1) // 2)
    graph = WeightedGraph(range(n))
    added = 0
    for _attempt in range(32 * target + 64):
        if added >= target:
            break
        src = dst = 0
        for _level in range(levels):
            r = rng.random()
            quadrant = (r >= a) + (r >= a + b) + (r >= a + b + c)
            src = src * 2 + (quadrant >> 1)
            dst = dst * 2 + (quadrant & 1)
        if src >= n or dst >= n or src == dst or graph.has_edge(src, dst):
            continue
        graph.add_edge(src, dst, 1)
        added += 1
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for x, y in zip(order, order[1:]):
            if not graph.has_edge(x, y):
                graph.add_edge(x, y, 1)
    return graph


def assert_same_snapshot(built: WeightedGraph, expected: WeightedGraph) -> None:
    got, want = built.indexed(), expected.indexed()
    assert got.labels == want.labels
    for name in SNAPSHOT_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_returned_type(graph: WeightedGraph, csr: bool) -> None:
    if csr:
        assert isinstance(graph, CSRGraph)
    else:
        assert type(graph) is WeightedGraph


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def oriented(rng: random.Random, u, v) -> int:
    """A model without ``sample`` whose latency depends on the edge's orientation."""
    return 1 + (3 * sum(map(ord, repr(u))) + sum(map(ord, repr(v))) + rng.randrange(4)) % 11


MODELS = st.one_of(
    st.integers(1, 9).map(constant_latency),
    st.tuples(st.integers(1, 6), st.integers(0, 20)).map(lambda t: uniform_latency(t[0], t[0] + t[1])),
    st.tuples(st.integers(1, 4), st.integers(5, 64), st.floats(0.0, 1.0)).map(
        lambda t: bimodal_latency(t[0], t[1], t[2])
    ),
    st.floats(1.5, 20.0).map(lambda mean: geometric_latency(mean=mean)),
    st.just(oriented),
)
SEEDS = st.integers(0, 2**32 - 1)


# ----------------------------------------------------------------------
# Families: weighted_* (both csr values) and the unweighted builders
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(0.0, 1.0),
    seed=SEEDS,
    model=MODELS,
    csr=st.booleans(),
    ensure_connected=st.booleans(),
)
def test_erdos_renyi_equals_the_add_edge_build(n, p, seed, model, csr, ensure_connected):
    topology = oracle_erdos_renyi(n, p, seed, ensure_connected)
    unweighted = erdos_renyi(n, p, seed=seed, ensure_connected=ensure_connected)
    assert type(unweighted) is WeightedGraph
    assert_same_snapshot(unweighted, topology)
    built = weighted_erdos_renyi(n, p, model, seed=seed, csr=csr)
    assert_returned_type(built, csr)
    assert_same_snapshot(built, oracle_assign_latencies(oracle_erdos_renyi(n, p, seed, True), model, seed))


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    gamma=st.floats(1.2, 4.0),
    min_degree=st.integers(1, 5),
    seed=SEEDS,
    model=MODELS,
    csr=st.booleans(),
    ensure_connected=st.booleans(),
)
def test_configuration_model_equals_the_add_edge_build(
    data, gamma, min_degree, seed, model, csr, ensure_connected
):
    n = data.draw(st.integers(min_degree + 1, 300), label="n")
    topology = oracle_configuration_model(n, gamma, min_degree, seed, ensure_connected)
    unweighted = configuration_model(n, gamma, min_degree, seed=seed, ensure_connected=ensure_connected)
    assert type(unweighted) is WeightedGraph
    assert_same_snapshot(unweighted, topology)
    built = weighted_configuration_model(n, gamma, min_degree, model, seed=seed, csr=csr)
    assert_returned_type(built, csr)
    expected = oracle_assign_latencies(oracle_configuration_model(n, gamma, min_degree, seed), model, seed)
    assert_same_snapshot(built, expected)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    half_k=st.integers(1, 4),
    rewire=st.floats(0.0, 1.0),
    seed=SEEDS,
    model=MODELS,
    csr=st.booleans(),
)
def test_watts_strogatz_equals_the_add_edge_build(data, half_k, rewire, seed, model, csr):
    k = 2 * half_k
    n = data.draw(st.integers(k + 1, 300), label="n")
    topology = oracle_watts_strogatz(n, k, rewire, seed)
    unweighted = watts_strogatz(n, k, rewire, seed=seed)
    assert type(unweighted) is WeightedGraph
    assert_same_snapshot(unweighted, topology)
    built = weighted_watts_strogatz(n, k, rewire, model, seed=seed, csr=csr)
    assert_returned_type(built, csr)
    assert_same_snapshot(built, oracle_assign_latencies(topology, model, seed))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 300),
    edge_factor=st.integers(1, 4),
    quadrants=st.tuples(st.floats(0.05, 0.85), st.floats(0.02, 0.4), st.floats(0.02, 0.4)).filter(
        lambda t: sum(t) < 0.98
    ),
    seed=SEEDS,
    model=MODELS,
    csr=st.booleans(),
    ensure_connected=st.booleans(),
)
def test_kronecker_equals_the_add_edge_build(n, edge_factor, quadrants, seed, model, csr, ensure_connected):
    a, b, c = quadrants
    topology = oracle_kronecker(n, edge_factor, a, b, c, seed, ensure_connected)
    unweighted = kronecker(n, edge_factor, a, b, c, seed=seed, ensure_connected=ensure_connected)
    assert type(unweighted) is WeightedGraph
    assert_same_snapshot(unweighted, topology)
    built = weighted_kronecker(n, edge_factor, a, b, c, model, seed=seed, csr=csr)
    assert_returned_type(built, csr)
    expected = oracle_assign_latencies(oracle_kronecker(n, edge_factor, a, b, c, seed), model, seed)
    assert_same_snapshot(built, expected)


# ----------------------------------------------------------------------
# assign_latencies on labels that take Edge.canonical's repr fallback
# ----------------------------------------------------------------------
LABELS = {
    "str": st.text(alphabet="abcxyz", min_size=1, max_size=4),
    "tuple": st.tuples(st.integers(0, 9), st.integers(0, 9)),
    "mixed": st.one_of(
        st.integers(-20, 20), st.text(alphabet="ab", min_size=1, max_size=3), st.tuples(st.integers(0, 3))
    ),
}


@pytest.mark.parametrize("kind", sorted(LABELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=SEEDS, model=MODELS)
def test_assign_latencies_equals_the_per_edge_loop_on_any_labels(kind, data, seed, model):
    labels = data.draw(st.lists(LABELS[kind], min_size=1, max_size=40, unique=True), label="labels")
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=120), label="pairs"
    )
    graph = WeightedGraph(labels)
    for u, v in pairs:
        if u != v:
            graph.add_edge(u, v, 1)
    built = assign_latencies(graph, model, seed=seed)
    assert type(built) is WeightedGraph
    expected = oracle_assign_latencies(graph, model, seed)
    assert built == expected
    assert_same_snapshot(built, expected)


def test_csr_build_adds_no_edge_and_walks_no_dict(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the csr=True build must not touch the dict representation")

    monkeypatch.setattr(WeightedGraph, "add_edge", refuse)
    monkeypatch.setattr(WeightedGraph, "edges", refuse)
    monkeypatch.setattr(IndexedGraph, "__init__", refuse)
    graph = weighted_configuration_model(3000, model=bimodal_latency(), seed=4, csr=True)
    assert isinstance(graph, CSRGraph)
    assert graph.num_nodes == 3000 and graph.num_edges > 3000
    assert graph._adj_dict is None
