"""Indexed CSR graph core: the compact, array-backed view of a graph.

:class:`WeightedGraph` stores adjacency as nested dicts keyed by arbitrary
hashable node labels — convenient to build and mutate, but slow to traverse
millions of times from a simulation hot loop.  :class:`IndexedGraph` is the
complementary read-only core: nodes are renumbered to contiguous integers
``0..n-1`` and adjacency is laid out CSR-style in three flat numpy arrays

* ``indptr`` — ``indptr[i]:indptr[i+1]`` is node ``i``'s slice of slots,
* ``indices`` — the neighbour index stored in each slot,
* ``latencies`` — the latency of the edge stored in each slot,

so that ``degree``, ``neighbors`` and ``latency`` are array reads with no
hashing, and the vectorized backends (batch, edge) can consume the arrays
directly with zero conversion cost.  Neighbour order within a node's slice
matches ``WeightedGraph.neighbors`` (insertion order), which is what lets
the fast simulation backend reproduce the reference engine's seeded
decisions bit-for-bit.

Instances are built once per graph *version* and cached on the graph via
:meth:`WeightedGraph.indexed`; any mutation of the source graph bumps its
version and invalidates the cache.  An :class:`IndexedGraph` must therefore
never be mutated — every attribute is build-once.

Large graphs can skip the dict representation entirely:
:meth:`IndexedGraph.from_csr` wraps prebuilt flat arrays (see the
direct-to-CSR generators in :mod:`repro.graphs.generators`) without ever
materialising per-node dicts, and a :class:`CSRGraph` applies each round
of topology events to its arrays (:meth:`CSRGraph.event_round`), so a
churned run never builds them either.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .weighted_graph import GraphError, WeightedGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .weighted_graph import NodeId

__all__ = ["CSRGraph", "IndexedGraph"]


class IndexedGraph:
    """Immutable CSR snapshot of a :class:`WeightedGraph`.

    Build via :meth:`WeightedGraph.indexed` (cached) rather than directly so
    repeated lookups share one snapshot per graph version.  ``indptr``,
    ``indices``, ``latencies`` and ``slot_edge_id`` are ``int64`` numpy
    arrays; scalar reads (``indptr[i]``) behave like the historical Python
    lists, so per-node call sites need no shim.  On both build paths (the
    dict walk below and :meth:`from_csr`) ``slot_edge_id`` is built lazily
    on first access, by one argsort pairing the two slots of every edge.
    A snapshot that closes a :class:`CSRGraph` event round is laid out from
    the previous snapshot and the round's edited rows instead
    (``edits``), and remembers where each previous slot went
    (:meth:`slots_from`).
    """

    __slots__ = (
        "labels",
        "indptr",
        "indices",
        "latencies",
        "num_edges",
        "_slot_edge_id",
        "_index",
        "_neighbor_labels",
        "_slot_lookup",
        "_edited_from",
        "__weakref__",
    )

    def __init__(self, graph: "WeightedGraph", edits: Optional["_RowEdits"] = None) -> None:
        if edits is not None:
            labels, indptr, indices, latencies, index, kept = edits.layout()
            self._assign(labels, indptr, indices, latencies, index)
            self._edited_from = (weakref.ref(edits.base), kept)
            return
        labels: list["NodeId"] = graph.nodes()
        index: dict["NodeId", int] = {label: i for i, label in enumerate(labels)}
        indices: list[int] = []
        latencies: list[int] = []
        neighbor_labels: list[tuple["NodeId", ...]] = []
        lookup = index.__getitem__
        for label in labels:
            nbr_latencies = graph.neighbor_latencies(label)
            neighbors = tuple(nbr_latencies)
            neighbor_labels.append(neighbors)
            indices.extend(map(lookup, neighbors))
            latencies.extend(nbr_latencies.values())
        self.labels = labels
        self.indptr = np.zeros(len(labels) + 1, dtype=np.int64)
        degrees = np.fromiter(map(len, neighbor_labels), dtype=np.int64, count=len(labels))
        np.cumsum(degrees, out=self.indptr[1:])
        self.indices = np.asarray(indices, dtype=np.int64)
        self.latencies = np.asarray(latencies, dtype=np.int64)
        # A WeightedGraph is symmetric and loop-free, so every edge owns
        # exactly two slots.
        self._slot_edge_id: Optional["np.ndarray"] = None
        self.num_edges = len(indices) // 2
        self._index: Optional[dict["NodeId", int]] = index
        self._neighbor_labels: Optional[list[tuple["NodeId", ...]]] = neighbor_labels
        self._slot_lookup: Optional[list[dict[int, int]]] = None
        self._edited_from: Optional[tuple] = None

    def _assign(self, labels, indptr, indices, latencies, index=None) -> None:
        """Set the arrays of an array-built snapshot; every lazy part starts unbuilt."""
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self.latencies = latencies
        self.num_edges = int(len(indices)) // 2
        self._slot_edge_id = None
        self._index = index
        self._neighbor_labels = None
        self._slot_lookup = None
        self._edited_from = None

    @classmethod
    def from_csr(
        cls,
        labels: Sequence["NodeId"],
        indptr: "np.ndarray",
        indices: "np.ndarray",
        latencies: "np.ndarray",
    ) -> "IndexedGraph":
        """Wrap prebuilt CSR arrays without round-tripping through dicts.

        ``slot_edge_id`` is built lazily, on first access, exactly as for a
        dict-built snapshot, so undirected edge ids follow the same
        first-appearance order over slots in CSR order and edge-activation
        accounting is identical between the two build paths.  The
        label->index dict and the per-node neighbour-label tuples are
        likewise lazy — a million-node run that never queries by label
        never pays for them.  The arrays must describe a symmetric
        adjacency without self-loops, so every undirected edge occupies
        exactly two slots (``num_edges`` is ``len(indices) // 2``); the lazy
        edge-id build verifies this.
        """
        self = object.__new__(cls)
        self._assign(
            list(labels),
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(latencies, dtype=np.int64),
        )
        return self

    def slots_from(self, base: "IndexedGraph") -> Optional["np.ndarray"]:
        """Where each slot of ``base`` went, if one event round turned ``base`` into this.

        ``kept[s]`` is the slot here of ``base``'s slot ``s``, that is of
        the same directed pair, or -1 once the pair is gone.  ``None``
        unless :meth:`CSRGraph.event_round` laid this snapshot out from
        ``base``; it holds ``base`` weakly.
        """
        if self._edited_from is None or self._edited_from[0]() is not base:
            return None
        return self._edited_from[1]

    def degrees(self) -> "np.ndarray":
        """Per-node degrees as one ``int64`` array (``np.diff(indptr)``).

        A fresh array each call — callers that loop should hoist it.  This
        is the degree vector the spectral operator and the vectorized
        sweep-cut consume; it equals ``[self.degree(i) for i in range(n)]``.
        """
        return np.diff(self.indptr)

    def slot_sources(self) -> "np.ndarray":
        """The source node of every CSR slot (``indices``' counterpart).

        ``slot_sources()[s]`` is the node whose adjacency slice contains
        slot ``s``, so ``zip(slot_sources(), indices)`` enumerates all
        directed pairs in CSR order.  Shared by the lazy edge-id pairing,
        :meth:`directed_pairs`, and the spectral scatter-gather matvec.
        """
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())

    def latency_filtered_csr(self, max_latency: int) -> tuple["np.ndarray", "np.ndarray"]:
        """CSR arrays of the latency-``ℓ`` threshold subgraph ``G_ℓ``.

        Returns ``(indptr, indices)`` keeping only slots whose edge latency
        is ``<= max_latency``, over the *full* vertex set (nodes whose every
        edge is slower become isolated, matching
        :meth:`WeightedGraph.latency_subgraph`).  One O(n + m) numpy pass,
        no dict round-trip — this is how the spectral estimator thresholds
        million-node graphs.
        """
        keep = self.latencies <= max_latency
        counts = np.bincount(self.slot_sources()[keep], minlength=self.num_nodes)
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, self.indices[keep]

    def slot_pair_keys(self) -> "np.ndarray":
        """Per-slot canonical undirected key ``(min(i, j) << 32) | max(i, j)``.

        Both slots of an edge share the key, and because node indices are
        stable across a graph's re-snapshots (the node universe only grows)
        the key names the same edge in every snapshot that contains it.
        """
        src = self.slot_sources()
        return (np.minimum(src, self.indices) << 32) | np.maximum(src, self.indices)

    @property
    def slot_edge_id(self) -> "np.ndarray":
        """Per-slot undirected edge id, in first-appearance (CSR) order.

        Built lazily on both build paths: pairing the two slots of each
        undirected edge with one stable argsort over canonical keys is much
        cheaper than a full ``np.unique`` (or a per-slot dict), and runs
        that never track edge activations skip it entirely.  Edge ``e`` is
        the ``e``-th distinct edge met scanning slots in CSR order.
        """
        if self._slot_edge_id is None:
            keys = self.slot_pair_keys()
            order = np.argsort(keys, kind="stable")
            first = order[0::2]
            second = order[1::2]
            if len(first) != len(second) or not np.array_equal(keys[first], keys[second]):
                raise ValueError(
                    "CSR arrays are not a symmetric loop-free adjacency: every "
                    "undirected edge must occupy exactly two slots"
                )
            edge_id = np.empty(len(first), dtype=np.int64)
            edge_id[np.argsort(first, kind="stable")] = np.arange(len(first), dtype=np.int64)
            slot_edge_id = np.empty(len(keys), dtype=np.int64)
            slot_edge_id[first] = edge_id
            slot_edge_id[second] = edge_id
            self._slot_edge_id = slot_edge_id
        return self._slot_edge_id

    # ------------------------------------------------------------------
    # Size
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.labels)

    # ------------------------------------------------------------------
    # Index <-> label translation
    # ------------------------------------------------------------------
    @property
    def index(self) -> dict["NodeId", int]:
        """The label -> contiguous-index dict (built lazily for CSR builds)."""
        if self._index is None:
            self._index = {label: i for i, label in enumerate(self.labels)}
        return self._index

    def index_of(self, label: "NodeId") -> int:
        """Return the contiguous integer index of a node label."""
        return self.index[label]

    def lookup(self, label: "NodeId") -> Optional[int]:
        """The index of ``label``, or ``None`` when it is not a node.

        An int label found at its own position answers without building
        :attr:`index` (CSR builds label their nodes ``0..n-1``), so a run
        that looks up one source never pays for the whole dict.
        """
        labels = self.labels
        if self._index is None and type(label) is int and 0 <= label < len(labels):
            if labels[label] == label:
                return label
        return self.index.get(label)

    def label_of(self, i: int) -> "NodeId":
        """Return the original label of node index ``i``."""
        return self.labels[i]

    # ------------------------------------------------------------------
    # Hot-path queries (by node index)
    # ------------------------------------------------------------------
    def degree(self, i: int) -> int:
        """Degree of node index ``i``."""
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbor_slice(self, i: int) -> tuple[int, int]:
        """The ``[start, end)`` slot range of node index ``i``."""
        return int(self.indptr[i]), int(self.indptr[i + 1])

    def neighbors(self, i: int) -> list[int]:
        """Neighbour indices of node index ``i`` (a fresh list)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]].tolist()

    def neighbor_labels(self, label: "NodeId") -> tuple["NodeId", ...]:
        """The cached neighbour labels of ``label``.

        Returned as a (shared, immutable) tuple so hot paths can reuse the
        snapshot without a caller accidentally corrupting it.  Order matches
        ``WeightedGraph.neighbors``.
        """
        if self._neighbor_labels is None:
            labels = self.labels
            indptr, indices = self.indptr.tolist(), self.indices.tolist()
            self._neighbor_labels = [
                tuple(labels[j] for j in indices[indptr[i] : indptr[i + 1]])
                for i in range(self.num_nodes)
            ]
        return self._neighbor_labels[self.index[label]]

    def slot_of(self, i: int, j: int) -> int:
        """Return the CSR slot of the directed pair ``(i, j)``.

        Raises ``KeyError`` if ``j`` is not a neighbour of ``i``.  The
        per-node lookup maps are built lazily on first use because only the
        label-based entry points need them; the vectorized round loop
        addresses slots directly.
        """
        if self._slot_lookup is None:
            indptr, indices = self.indptr.tolist(), self.indices.tolist()
            self._slot_lookup = [
                {indices[s]: s for s in range(indptr[u], indptr[u + 1])}
                for u in range(self.num_nodes)
            ]
        return self._slot_lookup[i][j]

    def latency_between(self, i: int, j: int) -> int:
        """Latency of the edge between node indices ``i`` and ``j``."""
        return int(self.latencies[self.slot_of(i, j)])

    def adjacency(self) -> dict["NodeId", dict["NodeId", int]]:
        """Fresh ``{label: {neighbour label: latency}}`` dicts, in CSR slot order.

        Slot order becomes dict insertion order, so a ``WeightedGraph``
        over these dicts re-derives exactly this snapshot.  This is how a
        :class:`CSRGraph` materialises its dicts and how
        :meth:`WeightedGraph.from_indexed` builds a dict graph from arrays.
        """
        labels = self.labels
        indptr = self.indptr.tolist()
        indices = self.indices.tolist()
        lats = self.latencies.tolist()
        return {
            labels[i]: {labels[indices[s]]: lats[s] for s in range(indptr[i], indptr[i + 1])}
            for i in range(len(labels))
        }

    def directed_pairs(self) -> set[tuple[int, int]]:
        """All directed (node, neighbour) index pairs of this snapshot.

        The simulation backends diff two snapshots' pair sets to find edges
        a topology resync removed; sharing the builder keeps their
        lost-exchange accounting aligned by construction.
        """
        return set(zip(self.slot_sources().tolist(), self.indices.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedGraph(n={self.num_nodes}, m={self.num_edges})"


class _RowEdits(dict):
    """One event round's edits to a snapshot: a ``label -> row dict`` map of touched rows.

    :meth:`CSRGraph.event_round` applies a round's events to a plain
    :class:`WeightedGraph` over this dict: its ``add_edge``,
    ``remove_edge``, ``set_latency`` and ``add_node`` read and write
    label-keyed row dicts exactly as on a dict graph, but a row is built
    (from ``base``'s slots, in slot order) only when an event first reads
    it.  Deleting a key closes its row up, inserting one appends it, and
    assigning an existing one rewrites it in place, so :meth:`layout` puts
    every slot where the dict path would.  A new node is a key that
    ``base`` lacks; ``known`` holds the index of every other label the
    round met.
    """

    __slots__ = ("base", "known")

    def __init__(self, base: IndexedGraph) -> None:
        super().__init__()
        self.base = base
        self.known: dict["NodeId", int] = {}

    def _find(self, label: "NodeId") -> Optional[int]:
        i = self.known.get(label)
        if i is None:
            i = self.base.lookup(label)
            if i is not None:
                self.known[label] = i
        return i

    def __contains__(self, label: object) -> bool:
        return dict.__contains__(self, label) or self._find(label) is not None

    def __missing__(self, label: "NodeId") -> dict["NodeId", int]:
        i = self._find(label)
        if i is None:
            raise KeyError(label)
        base = self.base
        lo, hi = int(base.indptr[i]), int(base.indptr[i + 1])
        neighbors = base.indices[lo:hi].tolist()
        labels = list(map(base.labels.__getitem__, neighbors))
        self.known.update(zip(labels, neighbors))
        row = self[label] = dict(zip(labels, base.latencies[lo:hi].tolist()))
        return row

    def layout(self) -> tuple:
        """The edited snapshot's arrays, label map and where each ``base`` slot went.

        Untouched rows move as whole blocks; only the touched rows are
        written from their dicts, and only their old slots are matched
        (by directed index pair) to find where they went.  Returns
        ``(labels, indptr, indices, latencies, index, kept)``, where
        ``kept[s]`` is the new slot of ``base``'s slot ``s`` or -1 once its
        pair is gone; ``index`` carries ``base``'s label map over (labels
        only grow) when it was built.
        """
        base, known = self.base, self.known
        n_old = base.num_nodes
        joined = [label for label in self if label not in known]
        labels, index = base.labels, base._index
        if joined:
            fresh = dict(zip(joined, range(n_old, n_old + len(joined))))
            known.update(fresh)
            labels = labels + joined
            if index is not None:
                index = {**index, **fresh}
        at = np.fromiter(map(known.__getitem__, self), dtype=np.int64, count=len(self))
        lengths = np.fromiter(map(len, self.values()), dtype=np.int64, count=len(self))
        old_degrees = np.diff(base.indptr)
        degrees = np.zeros(len(labels), dtype=np.int64)
        degrees[:n_old] = old_degrees
        degrees[at] = lengths
        indptr = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # An untouched row keeps its slots in order, shifted as one block.
        shift = indptr[:n_old] - base.indptr[:-1]
        kept = np.arange(base.indices.size, dtype=np.int64) + np.repeat(shift, old_degrees)
        untouched = np.ones(n_old, dtype=bool)
        untouched[at[at < n_old]] = False
        moved = np.repeat(untouched, old_degrees)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        latencies = np.empty(int(indptr[-1]), dtype=np.int64)
        indices[kept[moved]] = base.indices[moved]
        latencies[kept[moved]] = base.latencies[moved]
        total = int(lengths.sum())
        written = np.repeat(indptr[at] - (np.cumsum(lengths) - lengths), lengths)
        written += np.arange(total, dtype=np.int64)
        rows = self.values()
        targets = map(known.__getitem__, chain.from_iterable(rows))
        indices[written] = np.fromiter(targets, dtype=np.int64, count=total)
        latencies[written] = np.fromiter(
            chain.from_iterable(map(dict.values, rows)), dtype=np.int64, count=total
        )
        # A touched row's old slots go where their directed pair went, if anywhere.
        old_slots = np.flatnonzero(~moved)
        old_rows = np.flatnonzero(~untouched)
        old_keys = np.repeat(old_rows, old_degrees[old_rows]) << 32
        old_keys |= base.indices[old_slots]
        new_keys = (np.repeat(at, lengths) << 32) | indices[written]
        order = np.argsort(new_keys)
        new_keys, written = new_keys[order], written[order]
        found = np.searchsorted(new_keys, old_keys)
        found = np.minimum(found, max(total - 1, 0))
        hit = new_keys[found] == old_keys if total else np.zeros(old_slots.size, dtype=bool)
        kept[old_slots] = np.where(hit, written[found] if total else -1, -1)
        return labels, indptr, indices, latencies, index, kept


class CSRGraph(WeightedGraph):
    """A :class:`WeightedGraph` born as CSR arrays — the direct-to-CSR path.

    The dict-of-dicts representation costs minutes and gigabytes to build at
    10^6 nodes, yet the vectorized simulation backends only ever read the
    :class:`IndexedGraph` arrays.  ``CSRGraph`` therefore starts life as a
    prebuilt CSR snapshot and *lazily* materialises the per-node dicts: every
    inherited ``WeightedGraph`` method keeps working (``_adj`` is a property
    that builds the dicts on first touch, preserving CSR slot order as the
    insertion order so a re-derived snapshot is bit-identical), while the
    hot queries the engines and algorithms actually issue — ``indexed()``,
    ``num_nodes``, ``nodes()``, ``degree``, ``is_connected`` — are served
    straight from the arrays.

    The graph is in one of two states:

    * **snapshot-backed** (as built, and after every event round): the
      snapshot is the graph, and any materialised dicts are a read cache
      of it.  Topology events go to the arrays: :meth:`event_round` edits
      only the rows its events touch and lays out a new snapshot in the
      dict path's slot order, dropping the dicts.
    * **dict-backed**, after a direct mutation (``add_edge`` and friends
      outside an event round): the mutation materialises the dicts and
      they become the graph, exactly as on a dict-built graph; the next
      ``indexed()`` rebuilds the snapshot from them, and the next event
      round starts from that rebuild and returns to snapshot-backed.

    Snapshots are never written in place, so a copy or a store checkout
    can share the arrays.
    """

    def __init__(
        self,
        labels: Sequence["NodeId"],
        indptr: "np.ndarray",
        indices: "np.ndarray",
        latencies: "np.ndarray",
    ) -> None:
        snapshot = IndexedGraph.from_csr(labels, indptr, indices, latencies)
        self._snapshot = snapshot
        self._adj_dict: Optional[dict] = None
        self._version = 0
        self._indexed_cache = (0, snapshot)

    @classmethod
    def from_weighted(cls, graph: WeightedGraph) -> "CSRGraph":
        """Repackage a dict-built graph as a ``CSRGraph`` (same snapshot)."""
        idx = graph.indexed()
        return cls(idx.labels, idx.indptr, idx.indices, idx.latencies)

    # ------------------------------------------------------------------
    # Lazy dict materialisation
    # ------------------------------------------------------------------
    @property
    def _adj(self) -> dict:
        if self._adj_dict is None:
            self._adj_dict = self._snapshot.adjacency()
        return self._adj_dict

    @_adj.setter
    def _adj(self, value: dict) -> None:
        self._adj_dict = value

    def _fresh(self) -> bool:
        """Whether the graph is snapshot-backed (no direct mutation since its snapshot)."""
        cache = self._indexed_cache
        return cache is not None and cache[1] is self._snapshot

    @contextmanager
    def event_round(self) -> Iterator[WeightedGraph]:
        """Apply one round's events to the arrays (see the class docstring).

        Yields the graph the events go to: a plain :class:`WeightedGraph`
        over a :class:`_RowEdits` map, so the dict path's own mutation
        methods edit the touched rows.  On closing (also when an event
        raised, so that the events before it stay applied, as on a dict
        graph) the rows are laid out as a new snapshot through
        :class:`IndexedGraph`, which records where each old slot went, and
        the version moves by one per mutation, as the dict path's does.
        """
        base = self.indexed()
        edits = _RowEdits(base)
        target = WeightedGraph()
        target._adj = edits
        self._snapshot, self._adj_dict = base, None
        try:
            yield target
        finally:
            if target.version:
                self._version += target.version
                self._snapshot = IndexedGraph(self, edits)
            self._indexed_cache = (self._version, self._snapshot)

    # ------------------------------------------------------------------
    # CSR-served fast paths (fall back to the dict once mutated)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        if not self._fresh():
            return super().num_nodes
        return self._snapshot.num_nodes

    @property
    def num_edges(self) -> int:
        if not self._fresh():
            return super().num_edges
        return self._snapshot.num_edges

    def nodes(self) -> list["NodeId"]:
        if not self._fresh():
            return super().nodes()
        return list(self._snapshot.labels)

    def copy(self) -> "WeightedGraph":
        """A deep copy; O(1) while the CSR snapshot is still pristine.

        The clone is a fresh wrapper over the same CSR arrays.  Deep-copy
        semantics are preserved because nothing in the package writes the
        shared arrays in place (a dict-built graph already hands its
        cached IndexedGraph arrays to every caller) — an event round on
        either graph lays out new arrays of its own, and a direct mutation
        materialises its own private per-node dicts.  This is what makes a
        dynamics/faults run on a store checkout cheap: the engine's
        defensive copy no longer round-trips 10^5+ nodes through python
        dicts.  Once the graph has changed, the copy is the dict graph
        :meth:`WeightedGraph.copy` returns.
        """
        if self._version != 0:
            return super().copy()
        snap = self._snapshot
        return CSRGraph(snap.labels, snap.indptr, snap.indices, snap.latencies)

    def has_node(self, node: "NodeId") -> bool:
        if not self._fresh():
            return super().has_node(node)
        return self._snapshot.lookup(node) is not None

    def degree(self, node: "NodeId") -> int:
        if not self._fresh():
            return super().degree(node)
        i = self._snapshot.index.get(node)
        if i is None:
            raise GraphError(f"node {node!r} does not exist")
        return self._snapshot.degree(i)

    def neighbors(self, node: "NodeId") -> list["NodeId"]:
        if not self._fresh():
            return super().neighbors(node)
        snap = self._snapshot
        i = snap.index.get(node)
        if i is None:
            raise GraphError(f"node {node!r} does not exist")
        return [snap.labels[j] for j in snap.neighbors(i)]

    def has_edge(self, u: "NodeId", v: "NodeId") -> bool:
        if not self._fresh():
            return super().has_edge(u, v)
        snap = self._snapshot
        i, j = snap.index.get(u), snap.index.get(v)
        if i is None or j is None:
            return False
        try:
            snap.slot_of(i, j)
        except KeyError:
            return False
        return True

    def latency(self, u: "NodeId", v: "NodeId") -> int:
        if not self._fresh():
            return super().latency(u, v)
        snap = self._snapshot
        i, j = snap.index.get(u), snap.index.get(v)
        if i is not None and j is not None:
            try:
                return snap.latency_between(i, j)
            except KeyError:
                pass
        raise GraphError(f"edge ({u!r}, {v!r}) does not exist")

    def max_degree(self) -> int:
        if not self._fresh():
            return super().max_degree()
        indptr = self._snapshot.indptr
        if len(indptr) < 2:
            return 0
        return int(np.diff(indptr).max())

    def total_volume(self) -> int:
        if not self._fresh():
            return super().total_volume()
        return int(len(self._snapshot.indices))

    def is_connected(self) -> bool:
        """Vectorized frontier BFS over the CSR arrays (dict path if mutated)."""
        if not self._fresh():
            return super().is_connected()
        snap = self._snapshot
        n = snap.num_nodes
        if n == 0:
            return False
        indptr, indices = snap.indptr, snap.indices
        visited = np.zeros(n, dtype=bool)
        visited[0] = True
        frontier = np.array([0], dtype=np.int64)
        reached = 1
        while frontier.size:
            starts = indptr[frontier]
            counts = (indptr[frontier + 1] - starts).astype(np.int64)
            total = int(counts.sum())
            if total == 0:
                break
            offsets = np.repeat(np.cumsum(counts) - counts, counts)
            slots = np.repeat(starts, counts) + (
                np.arange(total, dtype=np.int64) - offsets
            )
            nbrs = indices[slots]
            fresh = nbrs[~visited[nbrs]]
            if fresh.size * 8 < n:
                fresh = np.unique(fresh)
            else:
                # A wide frontier: marking a node mask and scanning it is
                # cheaper than hashing, and gives the same sorted set; the
                # size test keeps these O(n) scans to a few levels.
                mask = np.zeros(n, dtype=bool)
                mask[fresh] = True
                fresh = np.flatnonzero(mask)
            visited[fresh] = True
            reached += int(fresh.size)
            frontier = fresh
        return reached == n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.num_nodes}, m={self.num_edges}, lmax={self.max_latency()})"
