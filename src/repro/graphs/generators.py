"""Graph generators: standard families plus latency-assignment strategies.

The benchmarks sweep over several graph families (cliques, expanders, grids,
random graphs, geometric graphs, power-law graphs, dumbbells, ...) and several
latency models (uniform, bimodal fast/slow, heavy-tailed, distance-based).
All generators are deterministic given a ``seed`` and return
:class:`~repro.graphs.weighted_graph.WeightedGraph` instances whose node ids
are ``0 .. n-1``.

The random families build through one array pipeline.  A front half
records an edge stream in ``add_edge`` order: the vectorized ``*_edge_stream``
samplers from :data:`CSR_AUTO_THRESHOLD` nodes up, and below it the
``*_replayed_stream`` functions, which make the same ``random.Random`` draws
the dict-of-dicts builders always made.  :func:`_csr_from_edge_stream`
assembles a stream into CSR arrays, and one back half
(:func:`_latency_graph`) draws the latencies in ``edges()`` order and
assembles again.  Dict graphs are built from those arrays
(:meth:`WeightedGraph.from_indexed`), never edge by edge.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence
from typing import Optional

import networkx as nx
import numpy as np

from ..simulation.rng import REPLAY_BLOCK, MersenneReplay, derive_seed
from .indexed import CSRGraph
from .weighted_graph import GraphError, NodeId, WeightedGraph

__all__ = [
    "CSR_AUTO_THRESHOLD",
    "LatencyModel",
    "uniform_latency",
    "constant_latency",
    "bimodal_latency",
    "geometric_latency",
    "power_law_latency",
    "assign_latencies",
    "clique",
    "star",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "binary_tree",
    "erdos_renyi",
    "erdos_renyi_csr",
    "random_regular_expander",
    "random_geometric",
    "barabasi_albert",
    "barabasi_albert_csr",
    "watts_strogatz",
    "watts_strogatz_csr",
    "configuration_model",
    "configuration_model_csr",
    "kronecker",
    "kronecker_csr",
    "dumbbell",
    "weighted_clique",
    "weighted_expander",
    "weighted_grid",
    "weighted_erdos_renyi",
    "weighted_barabasi_albert",
    "weighted_watts_strogatz",
    "weighted_configuration_model",
    "weighted_kronecker",
    "two_cluster_slow_bridge",
    "layered_ring",
]

#: Node count from which the ``weighted_*`` ER/BA constructors switch to the
#: direct-to-CSR build path automatically (``csr=None``).  Matches the edge
#: backend's auto threshold: graphs big enough to want the edge engine are
#: big enough that the dict-of-dicts build dominates setup time.
CSR_AUTO_THRESHOLD = 100_000

# A latency model maps (rng, u, v) -> positive integer latency.  A model may
# also carry a vectorized ``sample(stream, count)`` that returns the int64
# array ``count`` scalar calls would (see :func:`_sampled_latencies`).
LatencyModel = Callable[[random.Random, int, int], int]


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
def constant_latency(value: int = 1) -> LatencyModel:
    """Every edge gets latency ``value``."""
    if value < 1:
        raise GraphError("latency must be >= 1")

    def model(_rng: random.Random, _u: int, _v: int) -> int:
        return value

    def sample(_stream: MersenneReplay, count: int) -> np.ndarray:
        return np.full(count, value, dtype=np.int64)

    model.sample = sample
    return model


def uniform_latency(low: int = 1, high: int = 16) -> LatencyModel:
    """Latencies drawn uniformly from the integer range ``[low, high]``."""
    if not 1 <= low <= high:
        raise GraphError(f"invalid uniform latency range [{low}, {high}]")

    def model(rng: random.Random, _u: int, _v: int) -> int:
        return rng.randint(low, high)

    width = high - low + 1

    def sample(stream: MersenneReplay, count: int) -> np.ndarray:
        return low + stream.randrange(width, count)

    # randint(low, high) is low + randrange(width).  The replay decodes one
    # word per try, so wider ranges (and non-int bounds) keep the scalar path.
    if isinstance(width, int) and width < 2**32:
        model.sample = sample
    return model


def bimodal_latency(fast: int = 1, slow: int = 64, slow_fraction: float = 0.5) -> LatencyModel:
    """Each edge is *slow* with probability ``slow_fraction`` and *fast* otherwise.

    This is the latency structure the paper's lower-bound gadgets exploit:
    a few hidden fast links among many slow ones.
    """
    if fast < 1 or slow < 1:
        raise GraphError("latencies must be >= 1")
    if not 0.0 <= slow_fraction <= 1.0:
        raise GraphError("slow_fraction must be in [0, 1]")

    def model(rng: random.Random, _u: int, _v: int) -> int:
        return slow if rng.random() < slow_fraction else fast

    def sample(stream: MersenneReplay, count: int) -> np.ndarray:
        return np.where(stream.random(count) < slow_fraction, slow, fast)

    model.sample = sample
    return model


def geometric_latency(mean: float = 8.0, cap: int = 1024) -> LatencyModel:
    """Heavy-ish tail: latency ~ 1 + Geometric, capped at ``cap``."""
    if mean <= 1.0:
        raise GraphError("mean must exceed 1")
    p = 1.0 / (mean - 0.0)

    def model(rng: random.Random, _u: int, _v: int) -> int:
        # Inverse-CDF sampling of a geometric distribution.
        u = rng.random()
        value = 1 + int(math.log(max(u, 1e-12)) / math.log(max(1.0 - p, 1e-12)))
        return max(1, min(cap, value))

    return model


def power_law_latency(alpha: float = 2.0, max_latency: int = 1024) -> LatencyModel:
    """Latency ~ discrete Pareto with exponent ``alpha``, truncated at ``max_latency``."""
    if alpha <= 1.0:
        raise GraphError("alpha must exceed 1")

    def model(rng: random.Random, _u: int, _v: int) -> int:
        u = rng.random()
        value = int(round((1.0 - u) ** (-1.0 / (alpha - 1.0))))
        return max(1, min(max_latency, value))

    return model


def _sampled_latencies(model: LatencyModel, rng: random.Random, count: int) -> Optional[np.ndarray]:
    """``count`` latencies from ``model.sample`` replaying ``rng``, or ``None``.

    The built-in constant, uniform and bimodal models carry a ``sample``
    that decodes ``rng``'s own Mersenne Twister words in numpy
    (:class:`~repro.simulation.rng.MersenneReplay`), so the array equals
    ``count`` scalar ``model(rng, u, v)`` calls and ``rng`` ends in the
    same state.  ``None`` means the model has no ``sample`` (geometric,
    power-law, user callables that read ``u, v``): draw per edge instead.
    """
    sample = getattr(model, "sample", None)
    if sample is None:
        return None
    with MersenneReplay(rng) as stream:
        latencies = np.asarray(sample(stream, count), dtype=np.int64)
    if latencies.shape != (count,):
        raise GraphError(f"latency model sample returned shape {latencies.shape}, expected ({count},)")
    return latencies


def assign_latencies(graph: WeightedGraph, model: LatencyModel, seed: int = 0) -> WeightedGraph:
    """Return a copy of ``graph`` with every edge's latency re-drawn from ``model``.

    Edges draw in ``graph.edges()`` order from ``random.Random(seed)``: all
    at once through the model's vectorized ``sample`` when it has one
    (:func:`_sampled_latencies`), one ``model(rng, u, v)`` call per edge
    otherwise.  Both give the same latencies.  The copy's neighbour order
    is the order ``add_edge`` calls in ``edges()`` order would give, and it
    is built from arrays (:func:`_latency_graph`).
    """
    return _latency_graph(graph, model, seed, csr=False)


def _latency_graph(
    graph: WeightedGraph, model: LatencyModel, seed: int, csr: Optional[bool]
) -> WeightedGraph:
    """The shared back half: ``graph``'s topology with latencies drawn from ``model``.

    ``edges()`` emits each edge at whichever endpoint comes first in node
    order, so on ``graph``'s snapshot its order is exactly the slots with
    ``src < dst``, taken in CSR order.  Those slots become the edge stream,
    edge ``e`` takes the ``e``-th latency of ``random.Random(seed)``, and
    :func:`_csr_from_edge_stream` lays the stream out as ``add_edge`` calls
    in that order would.  Models without ``sample`` are called once per
    edge over ``graph.edges()``, because they read its canonical ``u, v``.
    Latencies must be ints >= 1, as ``add_edge`` requires.  Returns the
    :class:`CSRGraph` when ``csr`` is true, else a plain dict graph over
    the same snapshot.
    """
    snapshot = graph.indexed()
    sources = snapshot.slot_sources()
    forward = sources < snapshot.indices
    rng = random.Random(seed)
    latencies = _sampled_latencies(model, rng, snapshot.num_edges)
    if latencies is None:
        drawn = [model(rng, edge.u, edge.v) for edge in graph.edges()]
        for latency in drawn:
            if not isinstance(latency, int) or isinstance(latency, bool):
                raise GraphError(f"latency must be an int, got {type(latency).__name__}")
        latencies = np.asarray(drawn, dtype=np.int64)
    if latencies.size and int(latencies.min()) < 1:
        raise GraphError(f"latency must be >= 1, got {int(latencies.min())}")
    result = _csr_from_edge_stream(
        snapshot.num_nodes, sources[forward], snapshot.indices[forward], latencies, snapshot.labels
    )
    return result if csr else _dict_graph(result)


# ----------------------------------------------------------------------
# Unweighted topologies (all latency 1); combine with ``assign_latencies``
# ----------------------------------------------------------------------
def clique(n: int) -> WeightedGraph:
    """Complete graph on ``n`` nodes with unit latencies."""
    if n < 1:
        raise GraphError("n must be >= 1")
    graph = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, 1)
    return graph


def star(n: int) -> WeightedGraph:
    """Star on ``n`` nodes (node 0 is the hub) with unit latencies."""
    if n < 2:
        raise GraphError("a star needs at least 2 nodes")
    graph = WeightedGraph(range(n))
    for leaf in range(1, n):
        graph.add_edge(0, leaf, 1)
    return graph


def path_graph(n: int) -> WeightedGraph:
    """Path on ``n`` nodes with unit latencies."""
    if n < 1:
        raise GraphError("n must be >= 1")
    graph = WeightedGraph(range(n))
    for u in range(n - 1):
        graph.add_edge(u, u + 1, 1)
    return graph


def cycle_graph(n: int) -> WeightedGraph:
    """Cycle on ``n`` nodes with unit latencies."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 nodes")
    graph = path_graph(n)
    graph.add_edge(n - 1, 0, 1)
    return graph


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """2-D grid with unit latencies; node ``(r, c)`` is id ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be >= 1")
    graph = WeightedGraph(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_edge(node, node + 1, 1)
            if r + 1 < rows:
                graph.add_edge(node, node + cols, 1)
    return graph


def binary_tree(depth: int) -> WeightedGraph:
    """Complete binary tree of the given depth (depth 0 is a single node)."""
    if depth < 0:
        raise GraphError("depth must be >= 0")
    n = 2 ** (depth + 1) - 1
    graph = WeightedGraph(range(n))
    for node in range(1, n):
        graph.add_edge(node, (node - 1) // 2, 1)
    return graph


def erdos_renyi(n: int, p: float, seed: int = 0, ensure_connected: bool = True) -> WeightedGraph:
    """Erdős–Rényi ``G(n, p)`` with unit latencies.

    If ``ensure_connected`` is true, a Hamiltonian-path backbone over a random
    permutation is added so the graph is always connected (this changes the
    distribution slightly but keeps expected degree ~``np``).  Built from
    :func:`_er_replayed_stream`.
    """
    return _dict_graph(_unit_csr(n, _er_replayed_stream(n, p, seed, ensure_connected)))


def _er_replayed_stream(
    n: int, p: float, seed: int, ensure_connected: bool = True
) -> tuple["np.ndarray", "np.ndarray"]:
    """:func:`erdos_renyi`'s edge stream, in ``add_edge`` order.

    One ``rng.random() < p`` coin per pair in row-major order, replayed a
    block at a time from ``random.Random(seed)``; the hits' pair codes are
    therefore already sorted and decode to the coin edges in order.  The
    backbone shuffles ``range(n)`` with the same rng and appends the path
    pairs no coin produced.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    rng = random.Random(seed)
    total = n * (n - 1) // 2
    hits = [np.empty(0, dtype=np.int64)]
    with MersenneReplay(rng) as stream:
        for start in range(0, total, REPLAY_BLOCK):
            coins = stream.random(min(REPLAY_BLOCK, total - start))
            hits.append(np.flatnonzero(coins < p) + start)
    codes = np.concatenate(hits)
    u, v = _decode_pair_codes(codes, n)
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        u, v = _with_backbone(u, v, codes, order, n)
    return u, v


def random_regular_expander(n: int, degree: int = 4, seed: int = 0, max_tries: int = 50) -> WeightedGraph:
    """Random ``degree``-regular graph, retried until connected (an expander w.h.p.).

    The paper's Theorem 9 construction uses a constant-degree regular expander
    with ``O(log n)`` diameter; random regular graphs have this property with
    high probability, and we retry until the sample is connected.
    """
    if n < degree + 1:
        raise GraphError("need n > degree for a regular graph")
    if (n * degree) % 2 != 0:
        raise GraphError("n * degree must be even")
    for attempt in range(max_tries):
        nx_graph = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(nx_graph):
            return WeightedGraph.from_networkx(nx_graph, default_latency=1)
    raise GraphError(f"failed to sample a connected {degree}-regular graph after {max_tries} tries")


def random_geometric(n: int, radius: float, seed: int = 0, ensure_connected: bool = True) -> WeightedGraph:
    """Random geometric graph on the unit square with unit latencies."""
    if n < 1:
        raise GraphError("n must be >= 1")
    nx_graph = nx.random_geometric_graph(n, radius, seed=seed)
    graph = WeightedGraph.from_networkx(nx_graph, default_latency=1)
    if ensure_connected and not graph.is_connected():
        # Connect components along a chain of representative nodes.
        components = graph.connected_components()
        representatives = [min(component, key=repr) for component in components]
        for a, b in zip(representatives, representatives[1:]):
            graph.add_edge(a, b, 1)
    return graph


def barabasi_albert(n: int, m: int = 2, seed: int = 0) -> WeightedGraph:
    """Barabási–Albert preferential-attachment graph with unit latencies."""
    if m < 1:
        raise GraphError("barabasi-albert attachment count m must be >= 1 (m=0 builds an edgeless graph)")
    if n <= m:
        raise GraphError("n must exceed m")
    nx_graph = nx.barabasi_albert_graph(n, m, seed=seed)
    return WeightedGraph.from_networkx(nx_graph, default_latency=1)


def dumbbell(clique_size: int, bridge_latency: int = 1, bridge_length: int = 1) -> WeightedGraph:
    """Two cliques joined by a path of ``bridge_length`` edges of the given latency.

    A classic low-conductance family: the bridge is the bottleneck cut.
    """
    if clique_size < 2:
        raise GraphError("clique_size must be >= 2")
    if bridge_length < 1:
        raise GraphError("bridge_length must be >= 1")
    n = 2 * clique_size + (bridge_length - 1)
    graph = WeightedGraph(range(n))
    left = list(range(clique_size))
    right = list(range(clique_size + bridge_length - 1, n))
    middle = list(range(clique_size, clique_size + bridge_length - 1))
    for group in (left, right):
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                graph.add_edge(u, v, 1)
    chain = [left[-1], *middle, right[0]]
    for a, b in zip(chain, chain[1:]):
        graph.add_edge(a, b, bridge_latency)
    return graph


def two_cluster_slow_bridge(
    cluster_size: int, fast_latency: int = 1, slow_latency: int = 32, bridges: int = 1
) -> WeightedGraph:
    """Two fast cliques connected by ``bridges`` slow edges.

    This family makes the difference between classical conductance and the
    weighted notions visible: the unweighted conductance only sees the number
    of bridge edges, while φ* and φ_avg also see their latency.
    """
    if cluster_size < 2:
        raise GraphError("cluster_size must be >= 2")
    if bridges < 1 or bridges > cluster_size:
        raise GraphError("bridges must be in [1, cluster_size]")
    n = 2 * cluster_size
    graph = WeightedGraph(range(n))
    for offset in (0, cluster_size):
        for i in range(cluster_size):
            for j in range(i + 1, cluster_size):
                graph.add_edge(offset + i, offset + j, fast_latency)
    for b in range(bridges):
        graph.add_edge(b, cluster_size + b, slow_latency)
    return graph


def layered_ring(layers: int, layer_size: int, intra_latency: int = 1, inter_latency: int = 1) -> WeightedGraph:
    """A ring of cliques: each layer is a clique, adjacent layers fully connected.

    A simplified (non-adversarial) cousin of the Theorem 13 ring-of-gadgets,
    useful as a sanity-check topology in tests and examples.
    """
    if layers < 3:
        raise GraphError("need at least 3 layers")
    if layer_size < 1:
        raise GraphError("layer_size must be >= 1")
    n = layers * layer_size
    graph = WeightedGraph(range(n))
    def layer_nodes(index: int) -> range:
        start = index * layer_size
        return range(start, start + layer_size)

    for layer in range(layers):
        members = list(layer_nodes(layer))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                graph.add_edge(u, v, intra_latency)
        nxt = list(layer_nodes((layer + 1) % layers))
        for u in members:
            for v in nxt:
                graph.add_edge(u, v, inter_latency)
    return graph


# ----------------------------------------------------------------------
# Direct-to-CSR builders
# ----------------------------------------------------------------------
def _csr_from_edge_stream(
    n: int,
    u: "np.ndarray",
    v: "np.ndarray",
    latencies: "np.ndarray",
    labels: Optional[Sequence[NodeId]] = None,
) -> CSRGraph:
    """Assemble a :class:`CSRGraph` from an undirected edge stream.

    Reproduces dict insertion order exactly: edge ``i`` of the stream
    contributes the directed slots ``u→v`` and ``v→u`` at "time" ``i``, and
    a stable argsort by source node lays each node's slice out in stream
    order — precisely the neighbour order ``WeightedGraph.add_edge`` calls
    in the same sequence would produce.  The stream must be free of
    duplicates and self-loops (the samplers guarantee this by
    construction).  ``u`` and ``v`` are node indices into ``labels``
    (default ``range(n)``).
    """
    m = len(u)
    slots = 2 * m
    src = np.empty(slots, dtype=np.int64)
    dst = np.empty(slots, dtype=np.int64)
    lat = np.empty(slots, dtype=np.int64)
    src[0::2] = u
    dst[0::2] = v
    src[1::2] = v
    dst[1::2] = u
    lat[0::2] = latencies
    lat[1::2] = latencies
    # Stable sort by source node.  A direct np.sort of the packed
    # (src, time) key is an order of magnitude faster than
    # np.argsort(kind="stable") at 10^7 slots, and since every key is
    # unique the sorted low bits *are* the stable permutation.
    shift = max(1, slots - 1).bit_length()
    if slots and n - 1 <= (2**62 - 1) >> shift:
        key = src << shift
        key += np.arange(slots, dtype=np.int64)
        key.sort()
        order = key & ((1 << shift) - 1)
    else:  # pragma: no cover — n * slots beyond any practical size
        order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(range(n) if labels is None else labels, indptr, dst[order], lat[order])


def _unit_csr(n: int, edges: tuple["np.ndarray", "np.ndarray"]) -> CSRGraph:
    """An ``(u, v)`` edge stream over ``range(n)`` assembled with unit latencies."""
    u, v = edges
    return _csr_from_edge_stream(n, u, v, np.ones(len(u), dtype=np.int64))


def _dict_graph(graph: CSRGraph) -> WeightedGraph:
    """The plain dict graph over ``graph``'s snapshot (what unweighted builders return)."""
    return WeightedGraph.from_indexed(graph.indexed())


class _EdgeRecorder:
    """Records an edge stream in ``add_edge`` order over nodes ``0..n-1``.

    Stands in for the dict graph that sequential builders query: re-adding
    a present pair is a no-op, as it is for ``add_edge`` with unit latency.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.keys: set[int] = set()
        self.u: list[int] = []
        self.v: list[int] = []

    def add(self, a: int, b: int) -> bool:
        """Record ``{a, b}`` unless it is present; return whether it was new."""
        key = a * self.n + b if a < b else b * self.n + a
        if key in self.keys:
            return False
        self.keys.add(key)
        self.u.append(a)
        self.v.append(b)
        return True

    def stream(self) -> tuple["np.ndarray", "np.ndarray"]:
        """The recorded stream as ``(u, v)`` int64 arrays."""
        return np.asarray(self.u, dtype=np.int64), np.asarray(self.v, dtype=np.int64)


def _edge_stream_latencies(
    u: "np.ndarray", v: "np.ndarray", model: Optional[LatencyModel], seed: int
) -> "np.ndarray":
    """Latencies for an edge stream, one per edge in stream order.

    With ``model=None`` the default uniform ``[1, 16]`` latencies come from
    one numpy draw (its own seed stream).  An explicit model draws from the
    classic ``random.Random(seed)``: through its vectorized ``sample`` when
    it has one (:func:`_sampled_latencies`; the built-in constant, uniform
    and bimodal models do), by one ``model(rng, u, v)`` call per edge
    otherwise.  Both give the same latencies.
    """
    if model is None:
        rng = np.random.default_rng([seed, 0x1A7E4C7])
        return rng.integers(1, 17, size=len(u), dtype=np.int64)
    py_rng = random.Random(seed)
    latencies = _sampled_latencies(model, py_rng, len(u))
    if latencies is not None:
        return latencies
    return np.fromiter(
        (model(py_rng, a, b) for a, b in zip(u.tolist(), v.tolist())),
        dtype=np.int64,
        count=len(u),
    )


def _pair_codes(a: "np.ndarray", b: "np.ndarray", n: int) -> "np.ndarray":
    """Row-major pair code ``a*n - a*(a+1)/2 + (b-a-1)`` for canonical ``a < b``."""
    return a * n - a * (a + 1) // 2 + (b - a - 1)


def _decode_pair_codes(codes: "np.ndarray", n: int) -> tuple["np.ndarray", "np.ndarray"]:
    """Invert :func:`_pair_codes`: sorted-or-not codes back to ``(u, v)``, ``u < v``.

    Inverts the row start with a float sqrt, then fixes the ±1 the rounding
    can introduce.
    """
    nn = 2 * n - 1
    u = np.floor((nn - np.sqrt(nn * nn - 8.0 * codes.astype(np.float64))) / 2.0).astype(np.int64)
    u = np.clip(u, 0, max(n - 2, 0))
    start = u * n - u * (u + 1) // 2
    u -= codes < start
    start = u * n - u * (u + 1) // 2
    nxt = (u + 1) * n - (u + 1) * (u + 2) // 2
    u += codes >= nxt
    start = u * n - u * (u + 1) // 2
    v = codes - start + u + 1
    return u, v


def _dedup_sorted(merged: "np.ndarray") -> "np.ndarray":
    """First occurrence of each value in an already-sorted array (sort+diff idiom)."""
    if merged.size == 0:
        return merged
    keep = np.empty(len(merged), dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _distinct_codes(rng: "np.random.Generator", m: int, total: int) -> "np.ndarray":
    """``m`` distinct codes drawn uniformly from ``[0, total)``, returned sorted.

    Draw-and-dedup via sort+mask (np.unique is several times slower).  When
    more than half the code space is requested, the rejection loop
    degenerates into a coupon-collector crawl — so sample the *complement*
    (``total - m`` codes) instead and invert: a uniform complement is a
    uniform ``m``-subset, keeping the output distribution-equal.
    """
    if m >= total:
        return np.arange(total, dtype=np.int64)
    invert = m > total // 2
    want = total - m if invert else m
    codes = np.empty(0, dtype=np.int64)
    while codes.size < want:
        extra = rng.integers(0, total, size=want - codes.size, dtype=np.int64)
        codes = _dedup_sorted(np.sort(np.concatenate([codes, extra]), kind="stable"))
    if invert:
        mask = np.ones(total, dtype=bool)
        mask[codes] = False
        codes = np.nonzero(mask)[0]
    return codes


def _backbone_missing(
    codes: "np.ndarray", a: "np.ndarray", b: "np.ndarray", n: int
) -> "np.ndarray":
    """Mask of backbone edges ``(a, b)`` *absent* from the sorted ``codes``.

    Membership via searchsorted — np.isin re-sorts and is far slower on
    this scale.  The needles are searched in sorted order (numpy starts
    each search where the last one ended, and memory access stays local)
    and the result is scattered back to backbone order.
    """
    backbone = _pair_codes(a, b, n)
    order = np.argsort(backbone)
    needles = backbone[order]
    pos = np.searchsorted(codes, needles)
    present = np.zeros(len(needles), dtype=bool)
    in_range = pos < codes.size
    present[in_range] = codes[pos[in_range]] == needles[in_range]
    missing = np.empty(len(backbone), dtype=bool)
    missing[order] = ~present
    return missing


def _with_backbone(
    u: "np.ndarray", v: "np.ndarray", codes: "np.ndarray", order: Sequence[int], n: int
) -> tuple["np.ndarray", "np.ndarray"]:
    """The stream ``(u, v)`` plus the path through ``order`` where it is missing.

    ``codes`` are the stream's sorted pair codes; each consecutive pair of
    ``order`` not among them is appended, in path order.
    """
    order = np.asarray(order, dtype=np.int64)
    a = np.minimum(order[:-1], order[1:])
    b = np.maximum(order[:-1], order[1:])
    missing = _backbone_missing(codes, a, b, n)
    return np.concatenate([u, a[missing]]), np.concatenate([v, b[missing]])


def _er_edge_stream(
    n: int, p: float, seed: int, ensure_connected: bool = True
) -> tuple["np.ndarray", "np.ndarray"]:
    """Vectorized ``G(n, p)`` edge sample as ``(u, v)`` arrays with ``u < v``.

    Samples the edge *count* from the exact binomial, then that many
    distinct pair codes uniformly (draw-and-dedup at sparse ``p``,
    complement sampling at dense ``p`` — see :func:`_distinct_codes`), and
    decodes codes to row-major ``(u, v)`` pairs.  The optional Hamiltonian
    backbone over a random permutation mirrors :func:`erdos_renyi`'s
    ``ensure_connected`` behaviour.
    """
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    m = int(rng.binomial(total, p)) if total > 0 and p > 0.0 else 0
    codes = _distinct_codes(rng, m, total)
    u, v = _decode_pair_codes(codes, n)
    if ensure_connected and n > 1:
        u, v = _with_backbone(u, v, codes, rng.permutation(n), n)
    return u, v


def _ba_edge_stream(n: int, m: int, seed: int) -> tuple["np.ndarray", "np.ndarray"]:
    """Barabási–Albert preferential-attachment edge stream.

    The classic repeated-nodes construction: each new source attaches to
    ``m`` distinct nodes drawn uniformly from the multiset of all previous
    edge endpoints.  Sequential by nature, but collecting flat edge arrays
    instead of dict adjacency keeps the build linear in ``n·m`` with small
    constants.
    """
    rng = random.Random(seed)
    us: list[int] = []
    vs: list[int] = []
    targets = list(range(m))
    repeated: list[int] = []
    for source in range(m, n):
        us.extend([source] * m)
        vs.extend(targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen: dict[int, None] = {}
        while len(chosen) < m:
            chosen[repeated[rng.randrange(len(repeated))]] = None
        targets = list(chosen)
    return np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)


def erdos_renyi_csr(
    n: int,
    p: float,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    ensure_connected: bool = True,
) -> CSRGraph:
    """Erdős–Rényi graph built straight into CSR arrays, skipping the dicts.

    The sampler is a vectorized realization of the same ``G(n, p)`` (plus
    connectivity backbone) distribution as :func:`erdos_renyi` — the
    *stream* differs from the dict path's ``random.Random`` pair sweep,
    which costs Θ(n²) draws and is unusable at 10^6 nodes.  Latencies
    follow :func:`_edge_stream_latencies`.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    u, v = _er_edge_stream(n, p, seed, ensure_connected=ensure_connected)
    return _csr_from_edge_stream(n, u, v, _edge_stream_latencies(u, v, model, seed))


def barabasi_albert_csr(
    n: int, m: int = 2, model: Optional[LatencyModel] = None, seed: int = 0
) -> CSRGraph:
    """Barabási–Albert graph built straight into CSR arrays.

    Same preferential-attachment process as :func:`barabasi_albert` (its
    own seed stream, not bit-identical to the networkx realization), with
    latencies per :func:`_edge_stream_latencies`.
    """
    if m < 1:
        raise GraphError("barabasi-albert attachment count m must be >= 1 (m=0 builds an edgeless graph)")
    if n <= m:
        raise GraphError("n must exceed m")
    u, v = _ba_edge_stream(n, m, seed)
    return _csr_from_edge_stream(n, u, v, _edge_stream_latencies(u, v, model, seed))


# ----------------------------------------------------------------------
# New CSR-first families: small-world, power-law, Kronecker (R-MAT)
# ----------------------------------------------------------------------
def _validate_watts_strogatz(n: int, k: int, rewire: float) -> None:
    """Shared parameter validation for the Watts–Strogatz builders."""
    if k < 2 or k % 2 != 0:
        raise GraphError(f"watts-strogatz lattice degree k must be an even integer >= 2, got {k}")
    if n <= k:
        raise GraphError(f"watts-strogatz needs n > k, got n={n} k={k}")
    if not 0.0 <= rewire <= 1.0:
        raise GraphError(f"watts-strogatz rewire probability must be in [0, 1], got {rewire}")


def _validate_configuration_model(n: int, gamma: float, min_degree: int) -> None:
    """Shared parameter validation for the configuration-model builders."""
    if gamma <= 1.0:
        raise GraphError(f"configuration-model power-law exponent gamma must exceed 1, got {gamma}")
    if min_degree < 1:
        raise GraphError(f"configuration-model min_degree must be >= 1, got {min_degree}")
    if n <= min_degree:
        raise GraphError(f"configuration-model needs n > min_degree, got n={n} min_degree={min_degree}")


def _validate_kronecker(n: int, edge_factor: int, a: float, b: float, c: float) -> None:
    """Shared parameter validation for the Kronecker (R-MAT) builders."""
    if n < 2:
        raise GraphError("kronecker needs n >= 2")
    if edge_factor < 1:
        raise GraphError(f"kronecker edge_factor must be >= 1, got {edge_factor}")
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not 0.0 < value < 1.0:
            raise GraphError(f"kronecker initiator probability {name} must be in (0, 1), got {value}")
    if a + b + c >= 1.0:
        raise GraphError(
            "kronecker initiator probabilities must satisfy a + b + c < 1 "
            f"(d = 1 - a - b - c is the fourth quadrant), got a + b + c = {a + b + c}"
        )


def watts_strogatz(n: int, k: int = 6, rewire: float = 0.1, seed: int = 0) -> WeightedGraph:
    """Watts–Strogatz small-world graph with unit latencies.

    Ring lattice of degree ``k`` (each node linked to ``k/2`` neighbours on
    either side) where every lattice edge is rewired to a uniform random
    target with probability ``rewire``; a rewiring that would create a
    self-loop or duplicate an existing edge keeps the lattice edge instead.
    The base ring ``(i, i+1)`` is re-added where rewired away so the graph
    stays connected — the same distribution-bending trade the ER builders
    make with their Hamiltonian backbone.  Built from
    :func:`_ws_replayed_stream`.
    """
    return _dict_graph(_unit_csr(n, _ws_replayed_stream(n, k, rewire, seed)))


def _ws_replayed_stream(
    n: int, k: int, rewire: float, seed: int
) -> tuple["np.ndarray", "np.ndarray"]:
    """:func:`watts_strogatz`'s edge stream, in ``add_edge`` order.

    The rewiring loop is sequential (whether a proposal is accepted
    depends on every edge before it), so its scalar ``rng`` calls stay;
    an :class:`_EdgeRecorder` answers the duplicate checks.
    """
    _validate_watts_strogatz(n, k, rewire)
    rng = random.Random(derive_seed(seed, "watts-strogatz"))
    edges = _EdgeRecorder(n)
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() < rewire:
                target = rng.randrange(n)
                if target != i and edges.add(i, target):
                    continue
            edges.add(i, (i + j) % n)
    for i in range(n):
        edges.add(i, (i + 1) % n)
    return edges.stream()


def _ws_edge_stream(
    n: int, k: int, rewire: float, seed: int
) -> tuple["np.ndarray", "np.ndarray"]:
    """Vectorized Watts–Strogatz edge stream (its own seed stream).

    Builds the full ring lattice as flat arrays, draws one rewire vector
    and one proposal vector over all ``n·k/2`` lattice slots, and accepts a
    proposal when it is not a self-loop, does not collide with any lattice
    code, and is the first proposal for its pair code (sort+diff dedup).
    Rejected proposals keep their lattice edge; ring edges rewired away are
    re-appended so the stream stays connected.
    """
    rng = np.random.default_rng(derive_seed(seed, "watts-strogatz"))
    half = k // 2
    base = np.arange(n, dtype=np.int64)
    u = np.tile(base, half)
    v = (u + np.repeat(np.arange(1, half + 1, dtype=np.int64), n)) % n
    lattice_sorted = np.sort(_pair_codes(np.minimum(u, v), np.maximum(u, v), n))
    draws = rng.random(n * half)
    proposals = rng.integers(0, n, size=n * half, dtype=np.int64)
    ok = (draws < rewire) & (proposals != u)
    cand_codes = _pair_codes(np.minimum(u, proposals), np.maximum(u, proposals), n)
    pos = np.searchsorted(lattice_sorted, cand_codes)
    in_range = pos < lattice_sorted.size
    hit = np.zeros(n * half, dtype=bool)
    hit[in_range] = lattice_sorted[pos[in_range]] == cand_codes[in_range]
    ok &= ~hit
    idx = np.nonzero(ok)[0]
    order = np.argsort(cand_codes[idx], kind="stable")
    sorted_codes = cand_codes[idx][order]
    first = np.empty(len(sorted_codes), dtype=bool)
    if len(sorted_codes):
        first[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=first[1:])
    accept = np.zeros(n * half, dtype=bool)
    accept[idx[order[first]]] = True
    v = np.where(accept, proposals, v)
    final_codes = np.sort(_pair_codes(np.minimum(u, v), np.maximum(u, v), n))
    ring_a = np.minimum(base, (base + 1) % n)
    ring_b = np.maximum(base, (base + 1) % n)
    missing = _backbone_missing(final_codes, ring_a, ring_b, n)
    return np.concatenate([u, ring_a[missing]]), np.concatenate([v, ring_b[missing]])


def watts_strogatz_csr(
    n: int,
    k: int = 6,
    rewire: float = 0.1,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
) -> CSRGraph:
    """Watts–Strogatz small-world graph built straight into CSR arrays.

    Same lattice-plus-rewiring family as :func:`watts_strogatz` (its own
    seed stream), with latencies per :func:`_edge_stream_latencies`.
    """
    _validate_watts_strogatz(n, k, rewire)
    u, v = _ws_edge_stream(n, k, rewire, seed)
    return _csr_from_edge_stream(n, u, v, _edge_stream_latencies(u, v, model, seed))


def _power_law_degree_cap(n: int, min_degree: int) -> int:
    """Structural degree cutoff ``~sqrt(n)`` used by the configuration model."""
    return min(n - 1, max(min_degree, math.isqrt(max(n - 1, 1))))


def configuration_model(
    n: int,
    gamma: float = 2.5,
    min_degree: int = 2,
    seed: int = 0,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Power-law configuration-model graph with unit latencies.

    Draws a degree sequence ``d ~ min_degree · U^(-1/(gamma-1))`` (inverse
    CDF of a discrete Pareto) truncated at the ``~sqrt(n)`` structural
    cutoff, matches stubs by a random shuffle, and drops self-loops and
    multi-edges.  ``ensure_connected`` adds the same Hamiltonian backbone
    as :func:`erdos_renyi`.  Built from :func:`_cm_replayed_stream`.
    """
    return _dict_graph(
        _unit_csr(n, _cm_replayed_stream(n, gamma, min_degree, seed, ensure_connected))
    )


def _cm_replayed_stream(
    n: int, gamma: float, min_degree: int, seed: int, ensure_connected: bool = True
) -> tuple["np.ndarray", "np.ndarray"]:
    """:func:`configuration_model`'s edge stream, in ``add_edge`` order.

    The ``n`` degree draws are replayed from ``random.Random`` in one
    block; each degree keeps the scalar ``int(min_degree * (1 - r) **
    exponent)``, because numpy's ``power`` may differ by an ulp and move
    the truncation.  The stub list is shuffled by the rng itself
    (Fisher–Yates is sequential).  Of the stub pairs, self-loops drop and
    each pair code keeps its first occurrence, as ``has_edge`` checks
    did; the backbone shuffle follows.
    """
    _validate_configuration_model(n, gamma, min_degree)
    rng = random.Random(derive_seed(seed, "configuration-model"))
    cap = _power_law_degree_cap(n, min_degree)
    exponent = -1.0 / (gamma - 1.0)
    with MersenneReplay(rng) as stream:
        draws = stream.random(n).tolist()
    degrees = [min(cap, int(min_degree * (1.0 - r) ** exponent)) for r in draws]
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    stubs = stubs[: stubs.size - stubs.size % 2].tolist()
    rng.shuffle(stubs)
    pairs = np.asarray(stubs, dtype=np.int64)
    a, b = pairs[0::2], pairs[1::2]
    loopless = a != b
    u = np.minimum(a[loopless], b[loopless])
    v = np.maximum(a[loopless], b[loopless])
    codes, first = np.unique(_pair_codes(u, v, n), return_index=True)
    first.sort()
    u, v = u[first], v[first]
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        u, v = _with_backbone(u, v, codes, order, n)
    return u, v


def _cm_edge_stream(
    n: int, gamma: float, min_degree: int, seed: int, ensure_connected: bool = True
) -> tuple["np.ndarray", "np.ndarray"]:
    """Vectorized configuration-model edge stream (its own seed stream).

    One uniform vector turns into the whole degree sequence, one
    permutation shuffles the stub multiset, and consecutive stubs pair
    into candidate edges; self-loops are masked and multi-edges collapse
    through the sort+diff dedup of their canonical pair codes.
    """
    rng = np.random.default_rng(derive_seed(seed, "configuration-model"))
    cap = _power_law_degree_cap(n, min_degree)
    draws = rng.random(n)
    degrees = np.minimum(
        cap, (min_degree * (1.0 - draws) ** (-1.0 / (gamma - 1.0))).astype(np.int64)
    )
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    if stubs.size % 2:
        stubs = stubs[:-1]
    stubs = rng.permutation(stubs)
    su, sv = stubs[0::2], stubs[1::2]
    loopless = su != sv
    su, sv = su[loopless], sv[loopless]
    codes = _dedup_sorted(np.sort(_pair_codes(np.minimum(su, sv), np.maximum(su, sv), n)))
    u, v = _decode_pair_codes(codes, n)
    if ensure_connected and n > 1:
        u, v = _with_backbone(u, v, codes, rng.permutation(n), n)
    return u, v


def configuration_model_csr(
    n: int,
    gamma: float = 2.5,
    min_degree: int = 2,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    ensure_connected: bool = True,
) -> CSRGraph:
    """Power-law configuration-model graph built straight into CSR arrays.

    Same stub-matching family as :func:`configuration_model` (its own seed
    stream), with latencies per :func:`_edge_stream_latencies`.
    """
    _validate_configuration_model(n, gamma, min_degree)
    u, v = _cm_edge_stream(n, gamma, min_degree, seed, ensure_connected=ensure_connected)
    return _csr_from_edge_stream(n, u, v, _edge_stream_latencies(u, v, model, seed))


def kronecker(
    n: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Stochastic Kronecker (R-MAT) graph with unit latencies.

    Each edge is sampled by descending ``ceil(log2 n)`` levels of the 2×2
    initiator matrix ``[[a, b], [c, d]]`` (``d = 1 - a - b - c``), picking
    one quadrant per level; samples landing outside ``[0, n)``, self-loops,
    and duplicates are rejected until ``edge_factor·n`` edges accumulate
    (or the attempt budget runs out — duplicates dominate long before
    that on skewed initiators).  ``ensure_connected`` adds the Hamiltonian
    backbone.  Built from :func:`_kronecker_replayed_stream`.
    """
    return _dict_graph(
        _unit_csr(n, _kronecker_replayed_stream(n, edge_factor, a, b, c, seed, ensure_connected))
    )


def _kronecker_replayed_stream(
    n: int,
    edge_factor: int,
    a: float,
    b: float,
    c: float,
    seed: int,
    ensure_connected: bool = True,
) -> tuple["np.ndarray", "np.ndarray"]:
    """:func:`kronecker`'s edge stream, in ``add_edge`` order.

    The attempt loop stops at the target edge count, which depends on the
    duplicates met so far, so its scalar ``rng`` calls stay; an
    :class:`_EdgeRecorder` answers the duplicate checks.
    """
    _validate_kronecker(n, edge_factor, a, b, c)
    rng = random.Random(derive_seed(seed, "kronecker"))
    levels = max(1, (n - 1).bit_length())
    total = n * (n - 1) // 2
    target = min(edge_factor * n, total)
    edges = _EdgeRecorder(n)
    for _attempt in range(32 * target + 64):
        if len(edges.u) >= target:
            break
        src = dst = 0
        for _level in range(levels):
            r = rng.random()
            quadrant = (r >= a) + (r >= a + b) + (r >= a + b + c)
            src = src * 2 + (quadrant >> 1)
            dst = dst * 2 + (quadrant & 1)
        if src < n and dst < n and src != dst:
            edges.add(src, dst)
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for x, y in zip(order, order[1:]):
            edges.add(x, y)
    return edges.stream()


def _kronecker_edge_stream(
    n: int,
    edge_factor: int,
    a: float,
    b: float,
    c: float,
    seed: int,
    ensure_connected: bool = True,
) -> tuple["np.ndarray", "np.ndarray"]:
    """Vectorized R-MAT edge stream (its own seed stream).

    Every batch draws one uniform vector per level and accumulates the
    quadrant bits of all edges at once; out-of-range endpoints and
    self-loops are masked, duplicates collapse through the sort+diff dedup,
    and batches repeat until the target edge count (or the round budget —
    skewed initiators re-sample the same hot edges) is reached.
    """
    rng = np.random.default_rng(derive_seed(seed, "kronecker"))
    levels = max(1, (n - 1).bit_length())
    total = n * (n - 1) // 2
    target = min(edge_factor * n, total)
    codes = np.empty(0, dtype=np.int64)
    for _round in range(64):
        if codes.size >= target:
            break
        # A slim 1/8 margin over the shortfall: invalid/duplicate losses run
        # a few percent at large n, so round one lands close to `target`
        # instead of overshooting it by half (every realized edge costs
        # downstream sort/gather/run time), and dup-heavy small graphs just
        # take another pass — `need` re-grows the batch each round.
        need = target - codes.size
        size = need + need // 8 + 64
        src = np.zeros(size, dtype=np.int64)
        dst = np.zeros(size, dtype=np.int64)
        for _level in range(levels):
            # float32 draws: the quadrant thresholds are coarse, and halving
            # the random-bit volume is what bounds the 10^6-node build time.
            # Everything below is in-place (quadrants in int8) — the level
            # loop touches size*levels elements and allocation churn here
            # dominated the 10^6-node build before.
            r = rng.random(size, dtype=np.float32)
            quadrant = (r >= a).astype(np.int8)
            quadrant += r >= a + b
            quadrant += r >= a + b + c
            src <<= 1
            src += quadrant >> 1
            dst <<= 1
            dst += quadrant & 1
        ok = (src < n) & (dst < n) & (src != dst)
        extra = _pair_codes(np.minimum(src[ok], dst[ok]), np.maximum(src[ok], dst[ok]), n)
        codes = _dedup_sorted(np.sort(np.concatenate([codes, extra]), kind="stable"))
    u, v = _decode_pair_codes(codes, n)
    if ensure_connected and n > 1:
        u, v = _with_backbone(u, v, codes, rng.permutation(n), n)
    return u, v


def kronecker_csr(
    n: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    ensure_connected: bool = True,
) -> CSRGraph:
    """Stochastic Kronecker (R-MAT) graph built straight into CSR arrays.

    Same iterated initiator-matrix family as :func:`kronecker` (its own
    seed stream), with latencies per :func:`_edge_stream_latencies`.
    """
    _validate_kronecker(n, edge_factor, a, b, c)
    u, v = _kronecker_edge_stream(n, edge_factor, a, b, c, seed, ensure_connected=ensure_connected)
    return _csr_from_edge_stream(n, u, v, _edge_stream_latencies(u, v, model, seed))


# ----------------------------------------------------------------------
# Weighted convenience constructors
# ----------------------------------------------------------------------
def weighted_clique(n: int, model: Optional[LatencyModel] = None, seed: int = 0) -> WeightedGraph:
    """Clique with latencies drawn from ``model`` (uniform [1, 16] by default)."""
    return assign_latencies(clique(n), model or uniform_latency(), seed=seed)


def weighted_expander(n: int, degree: int = 4, model: Optional[LatencyModel] = None, seed: int = 0) -> WeightedGraph:
    """Random regular expander with latencies drawn from ``model``."""
    return assign_latencies(random_regular_expander(n, degree, seed=seed), model or uniform_latency(), seed=seed)


def weighted_grid(rows: int, cols: int, model: Optional[LatencyModel] = None, seed: int = 0) -> WeightedGraph:
    """Grid with latencies drawn from ``model``."""
    return assign_latencies(grid_graph(rows, cols), model or uniform_latency(), seed=seed)


def _sampled_at_scale(n: int, csr: Optional[bool]) -> bool:
    """Whether a ``weighted_*`` family takes its vectorized ``*_csr`` sampler.

    That is from :data:`CSR_AUTO_THRESHOLD` nodes, unless ``csr`` is
    false.  Below it every family replays its dict-path draws.
    """
    return (csr or csr is None) and n >= CSR_AUTO_THRESHOLD


def weighted_erdos_renyi(
    n: int,
    p: float,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    csr: Optional[bool] = None,
) -> WeightedGraph:
    """Erdős–Rényi graph with latencies drawn from ``model``.

    Below :data:`CSR_AUTO_THRESHOLD` nodes the realization is
    :func:`erdos_renyi`'s, with latencies drawn as :func:`assign_latencies`
    draws them; ``csr=True`` returns it as the
    :class:`~repro.graphs.indexed.CSRGraph` the pipeline assembled (no
    dicts are built), a false ``csr`` as a plain ``WeightedGraph`` over the
    same arrays — the equality the generator tests pin.  From the
    threshold up, ``csr=True`` switches to the vectorized
    :func:`erdos_renyi_csr` sampler.  ``csr=None`` (default) picks the CSR
    path automatically at ``n >= CSR_AUTO_THRESHOLD``.
    """
    if _sampled_at_scale(n, csr):
        return erdos_renyi_csr(n, p, model, seed=seed)
    topology = _unit_csr(n, _er_replayed_stream(n, p, seed))
    return _latency_graph(topology, model or uniform_latency(), seed, csr)


def weighted_barabasi_albert(
    n: int,
    m: int = 2,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    csr: Optional[bool] = None,
) -> WeightedGraph:
    """Barabási–Albert graph with latencies drawn from ``model``.

    ``csr`` behaves as in :func:`weighted_erdos_renyi`: below
    :data:`CSR_AUTO_THRESHOLD` the networkx realization of
    :func:`barabasi_albert` goes through the shared latency back half, from
    it up ``csr=True`` selects the vectorized :func:`barabasi_albert_csr`
    sampler, and ``None`` auto-selects by size.
    """
    if _sampled_at_scale(n, csr):
        return barabasi_albert_csr(n, m, model, seed=seed)
    return _latency_graph(barabasi_albert(n, m, seed=seed), model or uniform_latency(), seed, csr)


def weighted_watts_strogatz(
    n: int,
    k: int = 6,
    rewire: float = 0.1,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    csr: Optional[bool] = None,
) -> WeightedGraph:
    """Watts–Strogatz small-world graph with latencies drawn from ``model``.

    ``csr`` behaves as in :func:`weighted_erdos_renyi`: below
    :data:`CSR_AUTO_THRESHOLD` the realization is :func:`watts_strogatz`'s
    (as a ``CSRGraph`` for ``csr=True``), from it up ``csr=True`` selects
    the vectorized :func:`watts_strogatz_csr` sampler, and ``None``
    auto-selects by size.
    """
    if _sampled_at_scale(n, csr):
        return watts_strogatz_csr(n, k, rewire, model, seed=seed)
    topology = _unit_csr(n, _ws_replayed_stream(n, k, rewire, seed))
    return _latency_graph(topology, model or uniform_latency(), seed, csr)


def weighted_configuration_model(
    n: int,
    gamma: float = 2.5,
    min_degree: int = 2,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    csr: Optional[bool] = None,
) -> WeightedGraph:
    """Power-law configuration-model graph with latencies drawn from ``model``.

    ``csr`` behaves as in :func:`weighted_erdos_renyi`: below
    :data:`CSR_AUTO_THRESHOLD` the realization is
    :func:`configuration_model`'s (as a ``CSRGraph`` for ``csr=True``),
    from it up ``csr=True`` selects the vectorized
    :func:`configuration_model_csr` sampler, and ``None`` auto-selects by
    size.
    """
    if _sampled_at_scale(n, csr):
        return configuration_model_csr(n, gamma, min_degree, model, seed=seed)
    topology = _unit_csr(n, _cm_replayed_stream(n, gamma, min_degree, seed))
    return _latency_graph(topology, model or uniform_latency(), seed, csr)


def weighted_kronecker(
    n: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    model: Optional[LatencyModel] = None,
    seed: int = 0,
    csr: Optional[bool] = None,
) -> WeightedGraph:
    """Stochastic Kronecker (R-MAT) graph with latencies drawn from ``model``.

    ``csr`` behaves as in :func:`weighted_erdos_renyi`: below
    :data:`CSR_AUTO_THRESHOLD` the realization is :func:`kronecker`'s (as
    a ``CSRGraph`` for ``csr=True``), from it up ``csr=True`` selects the
    vectorized :func:`kronecker_csr` sampler, and ``None`` auto-selects by
    size.
    """
    if _sampled_at_scale(n, csr):
        return kronecker_csr(n, edge_factor, a, b, c, model, seed=seed)
    topology = _unit_csr(n, _kronecker_replayed_stream(n, edge_factor, a, b, c, seed))
    return _latency_graph(topology, model or uniform_latency(), seed, csr)
