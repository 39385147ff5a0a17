"""Cuts, cut edges, and cut enumeration for conductance computations.

The conductance definitions of the paper (Definitions 1-4) are all stated per
cut ``C = (U, V \\ U)``.  This module provides a :class:`Cut` value object plus
helpers to enumerate cuts (exhaustively for small graphs), compute the cut
edges below a latency threshold, and compute volumes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .weighted_graph import Edge, GraphError, NodeId, WeightedGraph

__all__ = [
    "Cut",
    "cut_edges",
    "cut_edges_within_latency",
    "enumerate_cuts",
    "enumerate_cut_node_sets",
    "sweep_cuts",
]


@dataclass(frozen=True)
class Cut:
    """A cut of a graph, identified by one side ``U`` of the partition.

    The complementary side is implicit (``V \\ U``).  The frozen set makes the
    cut hashable so cuts can be deduplicated and cached.
    """

    side: frozenset[NodeId]

    def __post_init__(self) -> None:
        if not self.side:
            raise GraphError("a cut side must be non-empty")

    @staticmethod
    def of(nodes: Iterable[NodeId]) -> "Cut":
        """Build a cut from an iterable of nodes."""
        return Cut(frozenset(nodes))

    def other_side(self, graph: WeightedGraph) -> frozenset[NodeId]:
        """Return the complementary side of the cut within ``graph``."""
        return frozenset(graph.nodes()) - self.side

    def is_proper(self, graph: WeightedGraph) -> bool:
        """Return whether both sides of the cut are non-empty in ``graph``."""
        size = len(self.side & set(graph.nodes()))
        return 0 < size < graph.num_nodes

    def min_volume(self, graph: WeightedGraph) -> int:
        """Return ``min(Vol(U), Vol(V \\ U))`` as used in Definitions 1 and 3."""
        vol_side = graph.volume(self.side)
        vol_other = graph.total_volume() - vol_side
        return min(vol_side, vol_other)


def cut_edges(graph: WeightedGraph, cut: Cut) -> list[Edge]:
    """Return all edges crossing the cut."""
    side = cut.side
    crossing = []
    for edge in graph.edges():
        if (edge.u in side) != (edge.v in side):
            crossing.append(edge)
    return crossing


def cut_edges_within_latency(graph: WeightedGraph, cut: Cut, max_latency: int) -> list[Edge]:
    """Return the cut edges with latency <= ``max_latency`` (the set ``E_ell(C)``)."""
    return [edge for edge in cut_edges(graph, cut) if edge.latency <= max_latency]


def enumerate_cut_node_sets(graph: WeightedGraph) -> Iterator[frozenset[NodeId]]:
    """Yield one side of every distinct proper cut of ``graph``.

    Each unordered partition ``{U, V \\ U}`` is produced exactly once, by always
    yielding the side that does *not* contain the first node.  The number of
    cuts is ``2^(n-1) - 1`` so this is only usable for small graphs (the exact
    conductance routines guard on ``n``).
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        return
    anchor, rest = nodes[0], nodes[1:]
    for size in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            yield frozenset(combo)
    # The last subset yielded, ``rest`` itself, is the cut ({anchor}, rest).


def enumerate_cuts(graph: WeightedGraph) -> Iterator[Cut]:
    """Yield every distinct proper cut of ``graph`` as a :class:`Cut`."""
    for side in enumerate_cut_node_sets(graph):
        yield Cut(side)


def sweep_cuts(ordering: list[NodeId]) -> Iterator[Cut]:
    """Yield the prefix (sweep) cuts of a node ordering.

    Used by the spectral conductance estimator: given an ordering of nodes
    (for example by Fiedler-vector value), the sweep cuts are the ``n - 1``
    prefixes of the ordering.
    """
    for size in range(1, len(ordering)):
        yield Cut(frozenset(ordering[:size]))
