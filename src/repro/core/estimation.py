"""Conductance estimation for graphs too large for exact cut enumeration.

Exact φ_ℓ / φ_avg enumeration is exponential in ``n``.  For larger graphs the
estimators use a spectral sweep-cut heuristic, now fully vectorized through
:mod:`repro.core.spectral`:

1. Build the normalized-Laplacian operator of the latency-ℓ threshold
   subgraph ``G_ℓ`` *implicitly* over the graph's CSR snapshot — no
   subgraph dict, no dense matrix.
2. Compute the Fiedler pair: dense ``np.linalg.eigh`` up to
   :data:`~repro.core.spectral.DENSE_EIGH_MAX_NODES` nodes (the accuracy
   oracle), the sparse deflated LOBPCG iteration beyond.
3. Sweep all ``n − 1`` prefix cuts of the degree-scaled Fiedler ordering
   in one O(n + m) pass and keep the best cut found.

Cheeger's inequality guarantees the sweep cut's conductance is within a
quadratic factor of the true conductance (``λ2/2 ≤ φ ≤ √(2·λ2)``), which is
plenty for the shape comparisons the benchmarks need; the estimated λ2 and
its Cheeger interval ride along on :class:`EstimatedProfile`.  A random-cut
sampler — seeded through ``derive_seed(seed, "estimate", ...)`` labels like
every other stochastic component in the repo — is also tried and the
estimators return the best (smallest) value found across strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.indexed import IndexedGraph
from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from ..simulation.rng import make_numpy_rng
from .conductance import (
    DEFAULT_MAX_EXACT_NODES,
    _CutEvaluator,
    _latency_class_slot_weights,
    average_weighted_conductance,
    critical_weighted_conductance,
    weight_ell_conductance,
)
from .spectral import (
    DENSE_EIGH_MAX_NODES,
    LaplacianOperator,
    fiedler_pair,
    fiedler_pair_dense,
    ordering_from_embedding,
    sweep_cut_conductance,
    _solve_interval,
)

__all__ = [
    "EstimatedProfile",
    "estimate_weight_ell_conductance",
    "estimate_critical_conductance",
    "estimate_average_conductance",
    "estimate_profile",
    "fiedler_ordering",
]

#: Above this node count the random-cut sampler caps its draws: each sample
#: costs an O(m) crossing scan, and on large graphs random cuts are strictly
#: a sanity backstop (the spectral sweep always dominates them in practice).
_RANDOM_CUT_CAP_NODES = 200_000
_RANDOM_CUT_CAP_SAMPLES = 8

#: When a graph has more distinct latencies than this, the per-ℓ estimators
#: sweep the latency-class upper bounds ``2^i`` (plus the extreme latencies)
#: instead of every distinct value — each candidate costs an eigensolve, and
#: the paper's φ_avg/φ* machinery is class-granular anyway (Section 2.2).
_MAX_CANDIDATE_LATENCIES = 16


@dataclass(frozen=True)
class EstimatedProfile:
    """Estimated weighted-conductance profile for a (possibly large) graph.

    ``lambda2`` is the normalized-Laplacian spectral gap of the critical
    threshold subgraph ``G_{ℓ*}`` (dense-eigh exact below
    :data:`~repro.core.spectral.DENSE_EIGH_MAX_NODES`, iterative above);
    :meth:`cheeger_interval` turns it into the guaranteed sandwich around
    the true φ*.  ``converged`` records whether that solve converged (dense
    solves always do).
    """

    critical_phi: float
    critical_latency: int
    phi_avg: float
    exact: bool
    lambda2: Optional[float] = None
    converged: bool = True

    def ratio(self) -> float:
        """Return ``ℓ*/φ*``, the quantity appearing in the paper's bounds."""
        if self.critical_phi == 0:
            return math.inf
        return self.critical_latency / self.critical_phi

    def cheeger_interval(self) -> Optional[tuple[float, float]]:
        """``[λ2/2, √(2·λ2)]`` around the true φ*, if λ2 was computed.

        An unconverged solve certifies only the upper end; the lower end is
        then ``0.0``.
        """
        if self.lambda2 is None:
            return None
        return _solve_interval(self.lambda2, self.converged)


def _operator_for_nodes(
    graph: WeightedGraph, node_list: list[NodeId]
) -> tuple[Optional[LaplacianOperator], "np.ndarray"]:
    """Laplacian operator of the subgraph induced by ``node_list``.

    Coordinates follow ``node_list`` order.  Returns ``(None, degrees)``
    when no edge survives the restriction (the operator would be empty).
    Built by filtering the full CSR snapshot with a membership mask — one
    vectorized pass, no per-edge Python loop.
    """
    snapshot = graph.indexed()
    positions = np.fromiter(
        (snapshot.index_of(node) for node in node_list), dtype=np.int64, count=len(node_list)
    )
    n = len(node_list)
    rename = np.full(snapshot.num_nodes, -1, dtype=np.int64)
    rename[positions] = np.arange(n, dtype=np.int64)
    sources = snapshot.slot_sources()
    keep = (rename[sources] >= 0) & (rename[snapshot.indices] >= 0)
    new_sources = rename[sources[keep]]
    new_targets = rename[snapshot.indices[keep]]
    degrees = np.bincount(new_sources, minlength=n).astype(np.int64)
    if len(new_sources) == 0:
        return None, degrees
    order = np.argsort(new_sources, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return LaplacianOperator(indptr, new_targets[order]), degrees


def fiedler_ordering(
    graph: WeightedGraph,
    nodes: Optional[list[NodeId]] = None,
    *,
    max_dense_nodes: int = DENSE_EIGH_MAX_NODES,
) -> list[NodeId]:
    """Return nodes ordered by their Fiedler embedding ``D^{-1/2} u2`` entry.

    Operates on the subgraph induced by ``nodes`` (default: the whole
    graph); isolated nodes are appended at the end of the ordering, with
    ties resolved by input position (stable).  Up to ``max_dense_nodes``
    the eigenvector comes from dense ``np.linalg.eigh`` (the exact
    oracle); beyond it the sparse deflated iteration of
    :func:`repro.core.spectral.fiedler_pair` takes over — eigenvalues
    agree to ~1e-8 at the default solver tolerance, and the test suite
    pins dense-vs-sparse *sweep conductance* agreement at 1e-6 relative
    tolerance (orderings may legitimately differ inside near-degenerate
    eigenspaces; the swept φ is the contract, not the permutation).
    """
    node_list = graph.nodes() if nodes is None else list(nodes)
    n = len(node_list)
    if n < 3:
        return node_list
    operator, degrees = _operator_for_nodes(graph, node_list)
    supported = degrees > 0
    if operator is None or operator.num_supported < 3:
        return node_list
    if n <= max_dense_nodes:
        pair = fiedler_pair_dense(operator)
    else:
        pair = fiedler_pair(operator, 0, "ordering", n)
    order = ordering_from_embedding(pair.embedding, supported)
    return [node_list[i] for i in order]


def _candidate_latencies(snapshot: IndexedGraph) -> list[int]:
    """Distinct latencies, collapsed to per-class maxima when too many.

    Each latency class ``(2^{i−1}, 2^i]`` is represented by the largest
    latency *present* in it, not the synthetic bound ``2^i``: ``φ_ℓ`` is
    constant across the class's unused tail, so the per-class maximum gives
    the same numerator while the Definition 2 ratio ``φ_ℓ/ℓ`` is taken at a
    latency that exists in the graph (a ``2^i`` bound would understate the
    ratio by up to 2× and could select a different ``(φ*, ℓ*)``).
    """
    distinct = np.unique(snapshot.latencies)
    if len(distinct) <= _MAX_CANDIDATE_LATENCIES:
        return [int(ell) for ell in distinct]
    # Class weights fall along the sorted distinct latencies, so the last
    # member of each run is that class's largest present latency.
    last_in_class = np.flatnonzero(np.diff(_latency_class_slot_weights(distinct)) != 0)
    reps = distinct[np.concatenate((last_in_class, [len(distinct) - 1]))]
    return [int(ell) for ell in np.unique(np.concatenate(([distinct[0]], reps)))]


def _fiedler_sweep_value(
    snapshot: IndexedGraph,
    ell: Optional[int],
    slot_weights: Optional["np.ndarray"],
    seed: int,
    label: str,
) -> tuple[float, Optional[float], bool]:
    """Best sweep-cut value along the Fiedler ordering of ``G_ℓ``.

    Returns ``(value, λ2, converged)``; ``(inf, None, True)`` when the
    threshold subgraph has fewer than 3 non-isolated nodes and no ordering
    is meaningful.
    """
    if ell is not None and not bool(np.any(snapshot.latencies <= ell)):
        return math.inf, None, True
    operator = LaplacianOperator.from_indexed(snapshot, max_latency=ell)
    if operator.num_supported < 3:
        return math.inf, None, True
    if snapshot.num_nodes <= DENSE_EIGH_MAX_NODES:
        pair = fiedler_pair_dense(operator)
    else:
        pair = fiedler_pair(operator, seed, label, -1 if ell is None else int(ell))
    order = ordering_from_embedding(pair.embedding, operator.degrees > 0)
    sweep = sweep_cut_conductance(
        snapshot.indptr, snapshot.indices, order, slot_weights=slot_weights
    )
    return sweep.value, pair.lambda2, pair.converged


def _random_cut_best(
    snapshot: IndexedGraph,
    slot_weights: "np.ndarray",
    samples: int,
    seed: int,
    *labels: object,
) -> float:
    """Best conductance over random cuts, scored in blocks by the exact pass's evaluator.

    The generator is derived through ``(seed, "estimate", "cut", *labels)``
    so estimates are bit-for-bit reproducible across processes.  Above
    :data:`_RANDOM_CUT_CAP_NODES` nodes the number of draws is capped at
    :data:`_RANDOM_CUT_CAP_SAMPLES`.
    """
    n = snapshot.num_nodes
    if samples <= 0 or n < 2:
        return math.inf
    if n > _RANDOM_CUT_CAP_NODES:
        samples = min(samples, _RANDOM_CUT_CAP_SAMPLES)
    rng = make_numpy_rng(seed, "estimate", "cut", *labels)
    score = _CutEvaluator(snapshot, slot_weights[:, None])
    best = math.inf
    for start in range(0, samples, score.block_rows):
        side = np.zeros((min(score.block_rows, samples - start), n), dtype=bool)
        for row in side:
            size = int(rng.integers(1, max(2, n // 2 + 1)))
            row[rng.choice(n, size=size, replace=False)] = True
        best = min(best, float(score(side).min()))
    return best


def _estimate_phi_ell(
    snapshot: IndexedGraph, ell: int, seed: int, random_samples: int
) -> tuple[float, Optional[float], bool]:
    """Spectral-sweep + random-cut estimate of ``φ_ℓ`` over a snapshot.

    Returns ``(φ_ℓ, λ2, converged)`` like :func:`_fiedler_sweep_value`.
    """
    latency_mask = (snapshot.latencies <= ell).astype(np.float64)
    if not bool(latency_mask.any()):
        return 0.0, None, True
    sweep_value, lambda2, converged = _fiedler_sweep_value(
        snapshot, ell, latency_mask, seed, "phi-ell"
    )
    random_value = _random_cut_best(snapshot, latency_mask, random_samples, seed, "phi-ell", ell)
    return min(sweep_value, random_value), lambda2, converged


def estimate_weight_ell_conductance(
    graph: WeightedGraph,
    ell: int,
    seed: int = 0,
    random_samples: int = 32,
    max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES,
) -> float:
    """Estimate ``φ_ℓ(G)`` (exact when the graph is small enough).

    Large graphs route through the sparse CSR path: implicit Laplacian of
    ``G_ℓ``, Fiedler pair, vectorized all-prefix sweep, random-cut
    backstop.  O(iters·m) time and O(n + m) memory — no dicts, no dense
    matrices.
    """
    if graph.num_nodes <= max_exact_nodes:
        return weight_ell_conductance(graph, ell, max_exact_nodes).value
    value, _, _ = _estimate_phi_ell(graph.indexed(), ell, seed, random_samples)
    return value


def estimate_critical_conductance(
    graph: WeightedGraph,
    seed: int = 0,
    max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES,
) -> tuple[float, int]:
    """Estimate ``(φ*, ℓ*)`` (exact when the graph is small enough)."""
    phi_star, ell_star, _, _ = _estimate_critical_with_gap(graph, seed, max_exact_nodes)
    return phi_star, ell_star


def _estimate_critical_with_gap(
    graph: WeightedGraph,
    seed: int,
    max_exact_nodes: int,
    random_samples: int = 32,
) -> tuple[float, int, Optional[float], bool]:
    """``(φ*, ℓ*, λ2 of G_{ℓ*}, converged)`` — the solve feeds ``EstimatedProfile``."""
    snapshot = graph.indexed()
    if graph.num_nodes <= max_exact_nodes:
        phi_star, ell_star = critical_weighted_conductance(graph, max_exact_nodes)
        _, lambda2, converged = _fiedler_sweep_value(snapshot, ell_star, None, seed, "phi-ell")
        return phi_star, ell_star, lambda2, converged
    best_ratio = -math.inf
    best = (0.0, 1, None, True)
    for ell in _candidate_latencies(snapshot):
        phi_ell, lambda2, converged = _estimate_phi_ell(snapshot, ell, seed, random_samples)
        ratio = phi_ell / ell
        if ratio > best_ratio:
            best_ratio, best = ratio, (phi_ell, ell, lambda2, converged)
    return best


def estimate_average_conductance(
    graph: WeightedGraph,
    seed: int = 0,
    random_samples: int = 32,
    max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES,
) -> float:
    """Estimate ``φ_avg(G)`` (exact when the graph is small enough)."""
    if graph.num_nodes <= max_exact_nodes:
        return average_weighted_conductance(graph, max_exact_nodes).value
    snapshot = graph.indexed()
    class_weights = _latency_class_slot_weights(snapshot.latencies)
    best = math.inf
    # Sweep along the Fiedler ordering of each candidate latency-threshold
    # subgraph: slow cuts tend to align with some threshold's spectral
    # structure, while the numerator always uses the per-class 1/2^i weights.
    for ell in _candidate_latencies(snapshot):
        sweep_value, _, _ = _fiedler_sweep_value(snapshot, ell, class_weights, seed, "phi-avg")
        best = min(best, sweep_value)
    best = min(best, _random_cut_best(snapshot, class_weights, random_samples, seed, "phi-avg"))
    return best


def estimate_profile(
    graph: WeightedGraph,
    seed: int = 0,
    max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES,
) -> EstimatedProfile:
    """Return an :class:`EstimatedProfile` (exact for small graphs).

    Always carries the spectral gap λ2 of the critical threshold subgraph
    ``G_{ℓ*}`` alongside the conductance numbers, so callers get the
    Cheeger interval certifying the estimate for free.
    """
    if graph.num_nodes < 2 or graph.num_edges == 0:
        raise GraphError("conductance is undefined for graphs with < 2 nodes or no edges")
    exact = graph.num_nodes <= max_exact_nodes
    phi_star, ell_star, lambda2, converged = _estimate_critical_with_gap(
        graph, seed, max_exact_nodes
    )
    phi_avg = estimate_average_conductance(graph, seed=seed, max_exact_nodes=max_exact_nodes)
    return EstimatedProfile(
        critical_phi=phi_star,
        critical_latency=ell_star,
        phi_avg=phi_avg,
        exact=exact,
        lambda2=lambda2,
        converged=converged,
    )
