"""Core weighted-graph data structure used throughout the reproduction.

The paper models the network as a connected, undirected graph ``G = (V, E)``
where every edge carries an integer *latency*.  Latencies are symmetric and
live on the communication channel, not on the nodes.  This module provides
:class:`WeightedGraph`, a small adjacency-map structure tailored to the
operations the rest of the library needs:

* neighbour iteration with latencies (for the gossip simulator),
* latency-thresholded subgraphs ``G_ell`` (edges of latency <= ell),
* degrees and volumes (for conductance),
* conversion to/from :mod:`networkx` for diameter checks and generators.

The structure is intentionally plain: node identifiers are hashable objects
(typically integers), edges are stored once per endpoint, and all mutation
goes through :meth:`add_node` / :meth:`add_edge` so invariants (symmetry,
positive integer latencies) are enforced in one place.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import networkx as nx
import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .indexed import IndexedGraph

NodeId = Hashable

__all__ = ["Edge", "WeightedGraph", "GraphError"]


class GraphError(ValueError):
    """Raised when a graph operation violates a structural invariant."""


@dataclass(frozen=True, order=True)
class Edge:
    """An undirected edge with an integer latency.

    The endpoints are stored in a canonical order (sorted by ``repr`` of the
    node ids for heterogeneous ids, or natural order when comparable) so that
    ``Edge(u, v, w) == Edge(v, u, w)``.
    """

    u: NodeId
    v: NodeId
    latency: int

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise GraphError(f"edge latency must be a positive integer, got {self.latency}")

    @staticmethod
    def canonical(u: NodeId, v: NodeId, latency: int) -> "Edge":
        """Return the edge with endpoints in canonical order."""
        try:
            first, second = (u, v) if u <= v else (v, u)  # type: ignore[operator]
        except TypeError:
            first, second = (u, v) if repr(u) <= repr(v) else (v, u)
        return Edge(first, second, latency)

    def endpoints(self) -> tuple[NodeId, NodeId]:
        """Return the two endpoints as a tuple."""
        return (self.u, self.v)

    def other(self, node: NodeId) -> NodeId:
        """Return the endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise GraphError(f"node {node!r} is not an endpoint of {self}")


class WeightedGraph:
    """An undirected graph whose edges carry positive integer latencies.

    Parameters
    ----------
    nodes:
        Optional iterable of node identifiers to pre-populate the graph.

    Notes
    -----
    The class keeps an adjacency map ``{u: {v: latency}}``.  Self-loops and
    parallel edges are rejected; latencies must be positive integers, as the
    paper assumes (non-integer latencies can be scaled and rounded by the
    caller).
    """

    def __init__(self, nodes: Optional[Iterable[NodeId]] = None) -> None:
        self._adj: dict[NodeId, dict[NodeId, int]] = {}
        self._version = 0
        self._indexed_cache: Optional[tuple[int, "IndexedGraph"]] = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        """Bump the structural version, invalidating cached indexed views."""
        self._version += 1
        self._indexed_cache = None

    def add_node(self, node: NodeId) -> None:
        """Add a node (no-op if it already exists)."""
        if node not in self._adj:
            self._adj[node] = {}
            self._mutated()

    def add_edge(self, u: NodeId, v: NodeId, latency: int = 1) -> None:
        """Add the undirected edge ``{u, v}`` with the given latency.

        Both endpoints are created if they do not exist.  Adding an edge
        that already exists with a *different* latency is an error; adding
        it with the same latency is a no-op.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u!r})")
        if not isinstance(latency, int) or isinstance(latency, bool):
            raise GraphError(f"latency must be an int, got {type(latency).__name__}")
        if latency < 1:
            raise GraphError(f"latency must be >= 1, got {latency}")
        self.add_node(u)
        self.add_node(v)
        existing = self._adj[u].get(v)
        if existing is not None:
            if existing != latency:
                raise GraphError(
                    f"edge ({u!r}, {v!r}) already exists with latency {existing}, "
                    f"cannot re-add with latency {latency}"
                )
            return
        self._adj[u][v] = latency
        self._adj[v][u] = latency
        self._mutated()

    def set_latency(self, u: NodeId, v: NodeId, latency: int) -> None:
        """Change the latency of an existing edge."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        if not isinstance(latency, int) or latency < 1:
            raise GraphError(f"latency must be a positive int, got {latency!r}")
        self._adj[u][v] = latency
        self._adj[v][u] = latency
        self._mutated()

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._mutated()

    @contextmanager
    def event_round(self) -> Iterator["WeightedGraph"]:
        """Group one round of topology events; yields the graph to apply them to.

        A dict graph takes each event on its dicts as it comes, so it
        yields itself; :class:`~repro.graphs.indexed.CSRGraph` yields a
        stand-in over the rows the events touch and lays the round out in
        new arrays when it closes (see
        ``repro.simulation.dynamics.apply_events``).
        """
        yield self

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} does not exist")
        for neighbor in list(self._adj[node]):
            del self._adj[neighbor][node]
        del self._adj[node]
        self._mutated()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic structural version; bumped by every mutation."""
        return self._version

    def indexed(self) -> "IndexedGraph":
        """Return the cached :class:`~repro.graphs.indexed.IndexedGraph` core.

        The CSR snapshot is built on first use and reused until the graph is
        mutated, so hot paths (the simulation engines) can call this freely.
        """
        cache = self._indexed_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        from .indexed import IndexedGraph

        built = IndexedGraph(self)
        self._indexed_cache = (self._version, built)
        return built

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> list[NodeId]:
        """Return the nodes in insertion order."""
        return list(self._adj)

    def has_node(self, node: NodeId) -> bool:
        """Return whether ``node`` is present."""
        return node in self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return whether the undirected edge ``{u, v}`` is present."""
        return u in self._adj and v in self._adj[u]

    def latency(self, u: NodeId, v: NodeId) -> int:
        """Return the latency of edge ``{u, v}``."""
        try:
            return self._adj[u][v]
        except KeyError as exc:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist") from exc

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Return the neighbours of ``node``."""
        try:
            return list(self._adj[node])
        except KeyError as exc:
            raise GraphError(f"node {node!r} does not exist") from exc

    def neighbor_latencies(self, node: NodeId) -> Mapping[NodeId, int]:
        """Return a read-only view mapping each neighbour of ``node`` to the latency."""
        try:
            return dict(self._adj[node])
        except KeyError as exc:
            raise GraphError(f"node {node!r} does not exist") from exc

    def degree(self, node: NodeId) -> int:
        """Return the (unweighted) degree of ``node``."""
        try:
            return len(self._adj[node])
        except KeyError as exc:
            raise GraphError(f"node {node!r} does not exist") from exc

    def max_degree(self) -> int:
        """Return the maximum degree Δ of the graph (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def volume(self, nodes: Iterable[NodeId]) -> int:
        """Return the volume of a node set: the sum of degrees of its members."""
        return sum(self.degree(v) for v in nodes)

    def total_volume(self) -> int:
        """Return the volume of the whole vertex set (= 2·|E|)."""
        return 2 * self.num_edges

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges exactly once, as canonical :class:`Edge` objects."""
        seen: set[frozenset[NodeId]] = set()
        for u, nbrs in self._adj.items():
            for v, latency in nbrs.items():
                key = frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                yield Edge.canonical(u, v, latency)

    def edge_list(self) -> list[Edge]:
        """Return all edges as a list."""
        return list(self.edges())

    def max_latency(self) -> int:
        """Return the maximum edge latency ℓmax (1 for an edgeless graph).

        Read off the cached :meth:`indexed` snapshot's latency array, like
        :meth:`min_latency` and :meth:`distinct_latencies`.
        """
        latencies = self.indexed().latencies
        return int(latencies.max()) if latencies.size else 1

    def min_latency(self) -> int:
        """Return the minimum edge latency (1 for an edgeless graph)."""
        latencies = self.indexed().latencies
        return int(latencies.min()) if latencies.size else 1

    def distinct_latencies(self) -> list[int]:
        """Return the sorted list of distinct latencies present in the graph."""
        return np.unique(self.indexed().latencies).tolist()

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def latency_subgraph(self, max_latency: int) -> "WeightedGraph":
        """Return ``G_ell``: the subgraph keeping only edges of latency <= ``max_latency``.

        All nodes are retained even if they become isolated, matching the
        paper's usage where ``G_ell`` shares the vertex set of ``G``.  Rows
        come out as :meth:`copy` lays them out.
        """
        return self._edge_ordered(self.indexed().latencies <= max_latency)

    def copy(self) -> "WeightedGraph":
        """Return a deep copy of the graph.

        Each node's neighbours come out in :meth:`edges` order: the graph
        that re-adding every edge in that order would build.
        """
        return self._edge_ordered(None)

    def _edge_ordered(self, keep: Optional[np.ndarray]) -> "WeightedGraph":
        """A dict graph over the snapshot's slots (those in ``keep``), rows in edge-id order.

        :meth:`edges` meets the edges in ``slot_edge_id`` order, and
        ``add_edge`` appends to both rows, so sorting the slots by
        ``(source, slot_edge_id)`` lays out what an ``add_edge`` replay of
        :meth:`edges` would, without adding a single edge.
        """
        from .indexed import IndexedGraph

        snapshot = self.indexed()
        sources = snapshot.slot_sources()
        order = np.lexsort((snapshot.slot_edge_id, sources))
        if keep is not None:
            order = order[keep[order]]
        indptr = np.zeros(snapshot.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources[order], minlength=snapshot.num_nodes), out=indptr[1:])
        return WeightedGraph.from_indexed(
            IndexedGraph.from_csr(
                snapshot.labels, indptr, snapshot.indices[order], snapshot.latencies[order]
            )
        )

    def relabel_to_integers(self) -> tuple["WeightedGraph", dict[NodeId, int]]:
        """Return a copy with nodes relabeled ``0..n-1`` plus the mapping used."""
        mapping = {node: index for index, node in enumerate(self.nodes())}
        relabeled = WeightedGraph(range(self.num_nodes))
        for edge in self.edges():
            relabeled.add_edge(mapping[edge.u], mapping[edge.v], edge.latency)
        return relabeled, mapping

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Convert to a :class:`networkx.Graph` with ``latency`` edge attributes."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        for edge in self.edges():
            graph.add_edge(edge.u, edge.v, latency=edge.latency, weight=edge.latency)
        return graph

    @classmethod
    def from_indexed(cls, snapshot: "IndexedGraph") -> "WeightedGraph":
        """A dict graph over ``snapshot``'s arrays, with ``snapshot`` as its ``indexed()``.

        The per-node dicts follow CSR slot order
        (:meth:`~repro.graphs.indexed.IndexedGraph.adjacency`), so the
        result equals the graph whose ``add_edge`` calls laid the snapshot
        out, without re-adding a single edge; the generators build their
        dict graphs this way from edge streams.
        """
        graph = cls()
        graph._adj = snapshot.adjacency()
        graph._indexed_cache = (graph._version, snapshot)
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.Graph, latency_attr: str = "latency", default_latency: int = 1) -> "WeightedGraph":
        """Build a :class:`WeightedGraph` from a :class:`networkx.Graph`.

        Missing latency attributes default to ``default_latency``.  Float
        latencies are rounded to the nearest integer (minimum 1), mirroring
        the paper's scale-and-round convention.
        """
        result = cls(graph.nodes())
        for u, v, data in graph.edges(data=True):
            raw = data.get(latency_attr, data.get("weight", default_latency))
            latency = max(1, int(round(float(raw))))
            result.add_edge(u, v, latency)
        return result

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Return whether the graph is connected (an empty graph is not)."""
        if self.num_nodes == 0:
            return False
        start = next(iter(self._adj))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in self._adj[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == self.num_nodes

    def connected_components(self) -> list[set[NodeId]]:
        """Return the connected components as a list of node sets."""
        remaining = set(self._adj)
        components: list[set[NodeId]] = []
        while remaining:
            start = next(iter(remaining))
            component = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor in self._adj[node]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            components.append(component)
            remaining -= component
        return components

    def is_regular(self) -> bool:
        """Return whether every node has the same degree."""
        degrees = {len(nbrs) for nbrs in self._adj.values()}
        return len(degrees) <= 1

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.num_nodes}, m={self.num_edges}, lmax={self.max_latency()})"
