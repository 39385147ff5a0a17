"""Weighted conductance: exact computation of φ_ℓ, φ*, ℓ*, and φ_avg.

This module implements the paper's core definitions:

* **Weight-ℓ conductance** (Definition 1):
  ``φ_ℓ(C) = |E_ℓ(C)| / min(Vol(U), Vol(V \\ U))`` for a cut ``C = (U, V\\U)``,
  and ``φ_ℓ(G) = min_C φ_ℓ(C)``.
* **Critical weighted conductance** (Definition 2): ``φ*`` is the ``φ_ℓ(G)``
  whose ratio ``φ_ℓ(G)/ℓ`` is maximal over latencies ``ℓ``; the maximizing
  ``ℓ`` is the critical latency ``ℓ*``.
* **Average cut conductance / average weighted conductance**
  (Definitions 3-4): each cut edge's contribution is down-weighted by the
  upper bound ``2^i`` of its latency class, then minimized over cuts.

Exact values minimize over all ``2^(n-1) - 1`` cuts, so they are restricted
to small graphs (``n <= max_exact_nodes``, default 18); larger graphs should
use :mod:`repro.core.estimation` or closed forms for the known gadget
families.  Each exact quantity is one weight column of a single numpy pass
over the cuts, in blocks of about ``2^18`` cut-edge entries (~2 MiB of
float64) whatever ``n`` is.  Values equal the per-cut functions bit for bit,
and witness ties go to the first minimum in ``enumerate_cut_node_sets``
order (by side size, then ``itertools.combinations`` order).

When all latencies are 1, ``φ*`` equals the classical conductance and
``φ_avg`` equals exactly half of it, matching the remarks after
Definitions 2 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.cuts import Cut, cut_edges_within_latency
from ..graphs.indexed import IndexedGraph
from ..graphs.weighted_graph import GraphError, WeightedGraph
from .latency_classes import cut_class_counts, latency_class_upper_bound, nonempty_latency_classes

__all__ = [
    "ConductanceResult",
    "WeightedConductanceProfile",
    "cut_weight_ell_conductance",
    "weight_ell_conductance",
    "critical_weighted_conductance",
    "cut_average_conductance",
    "average_weighted_conductance",
    "classical_conductance",
    "weighted_conductance_profile",
    "DEFAULT_MAX_EXACT_NODES",
]

DEFAULT_MAX_EXACT_NODES = 18

#: Cut-edge entries per scored block: ``rows × max(m, n)`` stays near it.
#: Blocks four times larger lifted the random-cut sampler's peak RSS by
#: ~5 MiB on a 117k-edge graph without making the exact pass faster.
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ConductanceResult:
    """The value of a conductance quantity together with its witness cut."""

    value: float
    witness: Cut

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class WeightedConductanceProfile:
    """Full weighted-conductance profile of a graph.

    Attributes
    ----------
    phi_by_latency:
        ``{ℓ: φ_ℓ(G)}`` for every candidate latency ℓ considered.
    critical_phi, critical_latency:
        The critical weighted conductance ``φ*`` and critical latency ``ℓ*``.
    phi_avg:
        The average weighted conductance ``φ_avg``.
    classical_phi:
        The classical (unweighted) conductance, for comparison.
    nonempty_classes:
        The number ``L`` of non-empty latency classes.
    max_latency:
        ``ℓmax``.
    """

    phi_by_latency: dict[int, float]
    critical_phi: float
    critical_latency: int
    phi_avg: float
    classical_phi: float
    nonempty_classes: int
    max_latency: int

    def theorem5_lower(self) -> float:
        """Return the Theorem 5 lower bound on φ_avg: ``φ*/(2ℓ*)``."""
        return self.critical_phi / (2 * self.critical_latency)

    def theorem5_upper(self) -> float:
        """Return the Theorem 5 upper bound on φ_avg: ``L·φ*/ℓ*``."""
        return self.nonempty_classes * self.critical_phi / self.critical_latency

    def theorem5_holds(self, tolerance: float = 1e-12) -> bool:
        """Check the Theorem 5 sandwich ``φ*/2ℓ* <= φ_avg <= L·φ*/ℓ*``."""
        return (
            self.theorem5_lower() <= self.phi_avg + tolerance
            and self.phi_avg <= self.theorem5_upper() + tolerance
        )


def _check_exact_feasible(graph: WeightedGraph, max_exact_nodes: int) -> None:
    if graph.num_nodes < 2:
        raise GraphError("conductance is undefined for graphs with fewer than 2 nodes")
    if graph.num_edges == 0:
        raise GraphError("conductance is undefined for graphs with no edges")
    if graph.num_nodes > max_exact_nodes:
        raise GraphError(
            f"exact conductance enumerates 2^(n-1) cuts; n={graph.num_nodes} exceeds the "
            f"limit of {max_exact_nodes}. Use repro.core.estimation for larger graphs."
        )


# ----------------------------------------------------------------------
# Per-cut definitions
# ----------------------------------------------------------------------
def cut_weight_ell_conductance(graph: WeightedGraph, cut: Cut, ell: int) -> float:
    """Return ``φ_ℓ(C)`` for a single cut (Definition 1)."""
    if ell < 1:
        raise GraphError(f"ell must be >= 1, got {ell}")
    volume = cut.min_volume(graph)
    if volume == 0:
        return 0.0
    crossing = cut_edges_within_latency(graph, cut, ell)
    return len(crossing) / volume


def cut_average_conductance(graph: WeightedGraph, cut: Cut) -> float:
    """Return ``φ_avg(C)`` for a single cut (Definition 3)."""
    volume = cut.min_volume(graph)
    if volume == 0:
        return 0.0
    total = 0.0
    for class_index, count in cut_class_counts(graph, cut).items():
        total += count / latency_class_upper_bound(class_index)
    return total / volume


# ----------------------------------------------------------------------
# The cut pass: one evaluator, one enumeration
# ----------------------------------------------------------------------
def _latency_class_slot_weights(latencies: "np.ndarray") -> "np.ndarray":
    """Per-slot φ_avg weight ``1/2^i`` for latency class ``i`` (vectorized).

    Mirrors :func:`repro.core.latency_classes.latency_class_index`: class 1
    holds latencies ≤ 2, class ``i`` holds ``(2^{i−1}, 2^i]``.
    """
    clamped = np.maximum(latencies, 2).astype(np.float64)
    class_index = np.maximum(np.ceil(np.log2(clamped)).astype(np.int64), 1)
    return np.power(0.5, class_index.astype(np.float64))


class _CutEvaluator:
    """Conductances of ``(rows, n)`` boolean side blocks against ``(slots, cols)`` weights.

    Each edge counts once, through its ``u < v`` slot.  Numerators are
    integer counts or sums of ``1/2^i``, exact in float64, so the division
    rounds like ``int / int``; a zero-volume smaller side scores 0.0.
    """

    def __init__(self, snapshot: IndexedGraph, slot_weights: "np.ndarray") -> None:
        sources = snapshot.slot_sources()
        forward = sources < snapshot.indices
        self.u, self.v = sources[forward], snapshot.indices[forward]
        self.weights = np.asarray(slot_weights)[forward].astype(np.float64)
        self.degrees = snapshot.degrees()
        self.block_rows = max(1, _BLOCK_ENTRIES // max(len(self.u), snapshot.num_nodes))

    def __call__(self, side: "np.ndarray") -> "np.ndarray":
        volume = side @ self.degrees
        min_volume = np.minimum(volume, 2 * len(self.u) - volume)[:, None]
        crossing = (side[:, self.u] != side[:, self.v]).astype(np.float64) @ self.weights
        return np.divide(crossing, min_volume, out=np.zeros_like(crossing), where=min_volume > 0)


def _cut_pass(graph: WeightedGraph, slot_weights: "np.ndarray") -> list[ConductanceResult]:
    """Minimize each weight column over every cut of ``graph``, with its witness.

    A cut is its side without the anchor ``nodes()[0]``: a mask over the
    other ``k = n - 1`` nodes, where ``nodes()[1 + i]`` owns bit ``k-1-i``.
    Within one side size, combination order is then descending mask order,
    so walking the masks downward and breaking value ties by side size,
    then by walk position, keeps the first minimum.
    """
    snapshot = graph.indexed()
    score = _CutEvaluator(snapshot, slot_weights)
    n = snapshot.num_nodes
    shifts = np.arange(n - 2, -1, -1, dtype=np.int64)
    best = np.full(score.weights.shape[1], np.inf)
    best_mask = np.zeros(len(best), dtype=np.int64)
    for top in range((1 << (n - 1)) - 1, 0, -score.block_rows):
        masks = np.arange(top, max(top - score.block_rows, 0), -1, dtype=np.int64)
        side = np.zeros((len(masks), n), dtype=bool)
        side[:, 1:] = (masks[:, None] >> shifts) & 1
        values, sizes = score(side), np.bitwise_count(masks)
        low = values.min(axis=0)
        row = np.where(values == low, sizes[:, None], n).argmin(axis=0)
        better = (low < best) | ((low == best) & (sizes[row] < np.bitwise_count(best_mask)))
        best[better], best_mask[better] = low[better], masks[row][better]
    rest = list(zip(snapshot.labels[1:], shifts.tolist()))
    return [
        ConductanceResult(value, Cut(frozenset(label for label, bit in rest if mask >> bit & 1)))
        for value, mask in zip(best.tolist(), best_mask.tolist())
    ]


# ----------------------------------------------------------------------
# Exact minima over all cuts
# ----------------------------------------------------------------------
def weight_ell_conductance(
    graph: WeightedGraph, ell: int, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> ConductanceResult:
    """Return ``φ_ℓ(G) = min_C φ_ℓ(C)``: one column of the cut pass."""
    _check_exact_feasible(graph, max_exact_nodes)
    if ell < 1:
        raise GraphError(f"ell must be >= 1, got {ell}")
    return _cut_pass(graph, (graph.indexed().latencies <= ell)[:, None])[0]


def average_weighted_conductance(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> ConductanceResult:
    """Return ``φ_avg(G) = min_C φ_avg(C)`` (Definition 4): one column of the cut pass."""
    _check_exact_feasible(graph, max_exact_nodes)
    weights = _latency_class_slot_weights(graph.indexed().latencies)
    return _cut_pass(graph, weights[:, None])[0]


def classical_conductance(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> ConductanceResult:
    """Return the classical (latency-blind) conductance: ``φ_ℓ(G)`` at ``ℓ = ℓmax``."""
    return weight_ell_conductance(graph, graph.max_latency(), max_exact_nodes)


def weighted_conductance_profile(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> WeightedConductanceProfile:
    """Compute the full weighted-conductance profile of a small graph in one cut pass.

    The pass scores a ``latency <= ℓ`` column per distinct edge latency ℓ,
    then the φ_avg class weights.  ``φ_ℓ`` changes only at edge latencies,
    and between them ``φ_ℓ/ℓ`` falls as ℓ grows, so those are the only
    candidates for ``ℓ*`` (ties go to the smallest ℓ).  The ℓmax column
    is the classical conductance.
    """
    _check_exact_feasible(graph, max_exact_nodes)
    latencies = graph.indexed().latencies
    distinct = graph.distinct_latencies()
    thresholds = latencies[:, None] <= np.asarray(distinct)
    columns = np.column_stack((thresholds, _latency_class_slot_weights(latencies)))
    *by_latency, average = _cut_pass(graph, columns)
    phi_by_latency = {ell: result.value for ell, result in zip(distinct, by_latency)}
    critical_latency = max(distinct, key=lambda ell: (phi_by_latency[ell] / ell, -ell))
    return WeightedConductanceProfile(
        phi_by_latency=phi_by_latency,
        critical_phi=phi_by_latency[critical_latency],
        critical_latency=critical_latency,
        phi_avg=average.value,
        classical_phi=phi_by_latency[distinct[-1]],
        nonempty_classes=len(nonempty_latency_classes(graph)),
        max_latency=distinct[-1],
    )


def critical_weighted_conductance(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> tuple[float, int]:
    """Return ``(φ*, ℓ*)`` (Definition 2), read off :func:`weighted_conductance_profile`."""
    profile = weighted_conductance_profile(graph, max_exact_nodes)
    return profile.critical_phi, profile.critical_latency
