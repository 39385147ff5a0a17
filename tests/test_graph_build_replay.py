"""Vectorized graph-build draws equal the scalar ``random.Random`` calls.

Latency models with a ``sample(stream, count)`` and the dict-path
Erdős–Rényi coin flips replay a ``random.Random``'s own Mersenne Twister
stream in numpy (:class:`~repro.simulation.rng.MersenneReplay`).  These
tests pin the contract value for value — and the rng's state afterwards —
against the scalar calls the replay stands in for, across the block and
twister-buffer boundaries.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graphs import WeightedGraph, generators
from repro.graphs.generators import (
    _backbone_missing,
    _edge_stream_latencies,
    _pair_codes,
    assign_latencies,
    bimodal_latency,
    constant_latency,
    erdos_renyi,
    geometric_latency,
    grid_graph,
    power_law_latency,
    uniform_latency,
)
from repro.simulation.rng import REPLAY_BLOCK, MersenneReplay

SAMPLED_MODELS = {
    "constant-1": constant_latency(1),
    "constant-7": constant_latency(7),
    "uniform-1-16": uniform_latency(1, 16),
    "uniform-3-3": uniform_latency(3, 3),
    "uniform-1-10": uniform_latency(1, 10),
    "uniform-2-2^31": uniform_latency(2, 2**31),
    "bimodal-0.5": bimodal_latency(1, 64, 0.5),
    "bimodal-0.0": bimodal_latency(1, 64, 0.0),
    "bimodal-1.0": bimodal_latency(1, 64, 1.0),
    "bimodal-0.3": bimodal_latency(2, 9, 0.3),
}

SCALAR_MODELS = {
    "geometric": geometric_latency(),
    "power-law": power_law_latency(),
    "user-lambda": lambda rng, u, v: 1 + (u + v + rng.randrange(3)) % 5,
    "uniform-width-2^32": uniform_latency(1, 2**32),
    "uniform-width-2^33": uniform_latency(1, 2**33),
    "uniform-numpy-bounds": uniform_latency(np.int64(1), np.int64(16)),
}

# Around the 624-word twister buffer, the 2^16-value replay block, and one
# draw well past several blocks.
COUNTS = (0, 1, 623, 624, 625, REPLAY_BLOCK - 1, REPLAY_BLOCK, REPLAY_BLOCK + 1, 200_003)


def mid_buffer_rng(seed: int) -> random.Random:
    """A seeded rng whose next word is not the first of its buffer."""
    rng = random.Random(seed)
    rng.random()
    return rng


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("name", sorted(SAMPLED_MODELS))
def test_vectorized_sample_equals_scalar_calls(name, count):
    model = SAMPLED_MODELS[name]
    replayed, scalar = mid_buffer_rng(count), mid_buffer_rng(count)
    with MersenneReplay(replayed) as stream:
        drawn = model.sample(stream, count)
    expected = [model(scalar, 0, 1) for _ in range(count)]
    assert drawn.dtype == np.int64
    assert drawn.tolist() == expected
    assert replayed.getstate() == scalar.getstate()


@pytest.mark.parametrize("count", COUNTS)
def test_replayed_random_and_randrange_equal_scalar_calls(count):
    replayed, scalar = mid_buffer_rng(7), mid_buffer_rng(7)
    scalar.gauss(0.0, 1.0)  # a cached gauss value must survive the replay
    replayed.gauss(0.0, 1.0)
    with MersenneReplay(replayed) as stream:
        floats = stream.random(count)
        ints = stream.randrange(2**32 - 1, count)
    assert floats.tolist() == [scalar.random() for _ in range(count)]
    assert ints.tolist() == [scalar.randrange(2**32 - 1) for _ in range(count)]
    assert replayed.getstate() == scalar.getstate()


def test_replay_refuses_a_random_subclass():
    class Tweaked(random.Random):
        def random(self) -> float:
            return 0.5

    with pytest.raises(TypeError, match="exact random.Random"):
        MersenneReplay(Tweaked(1))


@pytest.mark.parametrize("width", [0, 2**32])
def test_randrange_replay_refuses_widths_past_one_word(width):
    with MersenneReplay(random.Random(1)) as stream:
        with pytest.raises(ValueError):
            stream.randrange(width, 4)


def scalar_assign_latencies(graph: WeightedGraph, model, seed: int) -> WeightedGraph:
    """The per-edge loop the vectorized ``assign_latencies`` stands in for."""
    rng = random.Random(seed)
    result = WeightedGraph(graph.nodes())
    for edge in graph.edges():
        result.add_edge(edge.u, edge.v, model(rng, edge.u, edge.v))
    return result


def adjacency(graph: WeightedGraph) -> list:
    """Every node's neighbour -> latency items, in insertion order."""
    return [(node, list(graph.neighbor_latencies(node).items())) for node in graph.nodes()]


@pytest.mark.parametrize("name", sorted(SAMPLED_MODELS))
def test_assign_latencies_matches_the_per_edge_loop(name):
    model = SAMPLED_MODELS[name]
    graph = grid_graph(20, 30)
    assert adjacency(assign_latencies(graph, model, seed=5)) == adjacency(
        scalar_assign_latencies(graph, model, seed=5)
    )


@pytest.mark.parametrize("name", sorted(SAMPLED_MODELS))
def test_edge_stream_latencies_match_the_per_edge_loop(name):
    model = SAMPLED_MODELS[name]
    draws = np.random.default_rng(3)
    u = draws.integers(0, 500, size=3000)
    v = u + 1 + draws.integers(0, 500, size=3000)
    rng = random.Random(9)
    expected = [model(rng, a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert _edge_stream_latencies(u, v, model, 9).tolist() == expected


@pytest.mark.parametrize("name", sorted(SCALAR_MODELS))
def test_models_without_sample_take_the_scalar_path(name, monkeypatch):
    model = SCALAR_MODELS[name]
    assert not hasattr(model, "sample")

    def no_replay(rng):
        raise AssertionError("a model without sample must not replay the rng")

    monkeypatch.setattr(generators, "MersenneReplay", no_replay)
    graph = grid_graph(8, 9)
    assert adjacency(assign_latencies(graph, model, seed=2)) == adjacency(
        scalar_assign_latencies(graph, model, seed=2)
    )
    u = np.arange(0, 40, dtype=np.int64)
    rng = random.Random(4)
    expected = [model(rng, a, a + 1) for a in u.tolist()]
    assert _edge_stream_latencies(u, u + 1, model, 4).tolist() == expected


def scalar_erdos_renyi(n: int, p: float, seed: int, ensure_connected: bool) -> WeightedGraph:
    """The per-pair coin-flip loop the replayed ``erdos_renyi`` stands in for."""
    rng = random.Random(seed)
    graph = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v, 1)
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            if not graph.has_edge(a, b):
                graph.add_edge(a, b, 1)
    return graph


# n=363 has 65,703 pairs, so its coins span two replay blocks.
@pytest.mark.parametrize("ensure_connected", [True, False])
@pytest.mark.parametrize(
    ("n", "p", "seed"),
    [(1, 0.5, 0), (2, 0.0, 1), (2, 1.0, 1), (17, 0.25, 3), (64, 0.1, 8), (363, 0.02, 5), (363, 0.6, 6)],
)
def test_erdos_renyi_matches_the_per_pair_loop(n, p, seed, ensure_connected):
    replayed = erdos_renyi(n, p, seed=seed, ensure_connected=ensure_connected)
    scalar = scalar_erdos_renyi(n, p, seed, ensure_connected)
    assert adjacency(replayed) == adjacency(scalar)


def test_backbone_missing_matches_set_membership():
    draws = np.random.default_rng(4)
    n = 500
    perm = draws.permutation(n)
    a = np.minimum(perm[:-1], perm[1:])
    b = np.maximum(perm[:-1], perm[1:])
    backbone = _pair_codes(a, b, n)
    # Half the backbone already in the stream, plus unrelated codes.
    noise = draws.integers(0, n * (n - 1) // 2, size=3000)
    codes = np.unique(np.concatenate([backbone[::2], noise]))
    expected = ~np.isin(backbone, codes)
    assert expected.any() and not expected.all()
    assert np.array_equal(_backbone_missing(codes, a, b, n), expected)
