"""Bottleneck analysis: which cut and which edges limit gossip on a graph.

The weighted-conductance parameters tell you *how fast* gossip can be; this
module tells you *what to fix*.  It identifies

* the **bottleneck cut** — the cut realizing φ* at the critical latency ℓ*,
* the **critical edges** — the slow cut edges whose latency caps the cut's
  usable bandwidth, and
* **upgrade suggestions** — the edges whose latency reduction improves the
  critical ratio φ*/ℓ* the most, which is exactly the engineering question
  the P2P example raises (where should a fast backbone link go?).

Exact analysis enumerates cuts and is limited to small graphs; for larger
graphs the spectral sweep-cut estimate of :mod:`repro.core.estimation` is
used to locate an approximate bottleneck cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.cuts import Cut, cut_edges
from ..graphs.weighted_graph import Edge, GraphError, WeightedGraph
from .conductance import DEFAULT_MAX_EXACT_NODES, _critical_profile
from .estimation import estimate_critical_conductance, fiedler_ordering
from .spectral import sweep_cut_conductance

__all__ = ["BottleneckReport", "find_bottleneck", "suggest_upgrades"]


@dataclass(frozen=True)
class BottleneckReport:
    """The bottleneck structure of a weighted graph.

    Attributes
    ----------
    phi_star, ell_star:
        The critical weighted conductance and latency.
    cut:
        The (exact or approximate) cut realizing φ*.
    fast_cut_edges:
        Cut edges with latency <= ℓ* — the edges actually carrying the cut's
        usable bandwidth.
    slow_cut_edges:
        Cut edges with latency > ℓ* — present but too slow to help at the
        critical threshold.
    exact:
        Whether the cut was found by exhaustive enumeration.
    """

    phi_star: float
    ell_star: int
    cut: Cut
    fast_cut_edges: tuple[Edge, ...]
    slow_cut_edges: tuple[Edge, ...]
    exact: bool

    @property
    def critical_ratio(self) -> float:
        """The ratio ℓ*/φ* appearing in the paper's bounds (lower is better)."""
        if self.phi_star == 0:
            return math.inf
        return self.ell_star / self.phi_star


def _approximate_bottleneck_cut(graph: WeightedGraph, ell: int) -> Cut:
    """First least-φ_ℓ prefix of the ℓ-threshold subgraph's Fiedler ordering (one sweep)."""
    ordering = fiedler_ordering(graph.latency_subgraph(ell))
    snapshot = graph.indexed()
    order = np.fromiter(map(snapshot.index_of, ordering), dtype=np.int64, count=len(ordering))
    sweep = sweep_cut_conductance(
        snapshot.indptr, snapshot.indices, order, slot_weights=snapshot.latencies <= ell
    )
    return Cut(frozenset(ordering[: sweep.prefix]))


def find_bottleneck(graph: WeightedGraph, seed: int = 0, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES) -> BottleneckReport:
    """Locate the cut and edges that determine φ* and ℓ*."""
    if graph.num_nodes < 2 or graph.num_edges == 0:
        raise GraphError("bottleneck analysis requires a graph with at least 2 nodes and 1 edge")
    exact = graph.num_nodes <= max_exact_nodes
    if exact:
        profile, cut = _critical_profile(graph, max_exact_nodes)
        phi_star, ell_star = profile.critical_phi, profile.critical_latency
    else:
        phi_star, ell_star = estimate_critical_conductance(graph, seed=seed, max_exact_nodes=max_exact_nodes)
        cut = _approximate_bottleneck_cut(graph, ell_star)
    crossing = cut_edges(graph, cut)
    fast = tuple(edge for edge in crossing if edge.latency <= ell_star)
    slow = tuple(edge for edge in crossing if edge.latency > ell_star)
    return BottleneckReport(
        phi_star=phi_star,
        ell_star=ell_star,
        cut=cut,
        fast_cut_edges=fast,
        slow_cut_edges=slow,
        exact=exact,
    )


def suggest_upgrades(
    graph: WeightedGraph,
    budget: int = 1,
    upgraded_latency: int = 1,
    seed: int = 0,
    max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES,
) -> list[tuple[Edge, float]]:
    """Suggest up to ``budget`` edge upgrades that most improve ℓ*/φ*.

    Each suggestion is evaluated greedily: the candidate edges are the slow
    edges crossing the current bottleneck cut; each is hypothetically
    re-weighted to ``upgraded_latency`` and the resulting critical ratio is
    measured.  Returns ``(edge, new_ratio)`` pairs sorted by improvement; the
    list may be shorter than ``budget`` if fewer candidates exist.
    """
    if budget < 1:
        raise GraphError("budget must be >= 1")
    if upgraded_latency < 1:
        raise GraphError("upgraded_latency must be >= 1")
    suggestions: list[tuple[Edge, float]] = []
    working = graph.copy()
    for _ in range(budget):
        report = find_bottleneck(working, seed=seed, max_exact_nodes=max_exact_nodes)
        candidates = [
            edge
            for edge in (*report.fast_cut_edges, *report.slow_cut_edges)
            if edge.latency > upgraded_latency
        ]
        if not candidates:
            break
        best_edge: Optional[Edge] = None
        best_ratio = report.critical_ratio
        for edge in candidates:
            trial = working.copy()
            trial.set_latency(edge.u, edge.v, upgraded_latency)
            phi, ell = estimate_critical_conductance(trial, seed=seed, max_exact_nodes=max_exact_nodes)
            ratio = math.inf if phi == 0 else ell / phi
            if ratio < best_ratio:
                best_ratio = ratio
                best_edge = edge
        if best_edge is None:
            break
        working.set_latency(best_edge.u, best_edge.v, upgraded_latency)
        suggestions.append((best_edge, best_ratio))
    return suggestions
