"""Round-indexed topology dynamics: the event model both engines share.

The paper fixes the weighted graph for the lifetime of a run.  This module
lifts that restriction: a :class:`TopologyDynamics` supplies, for every
round, a sequence of :class:`TopologyEvent` mutations — edge additions and
removals, latency drift, and node churn — that the simulation engines apply
to the live graph.  Deterministic *generators* of such schedules (Markov
churn, periodic latency oscillation, adversarial slow-bridge flapping) live
in :mod:`repro.graphs.dynamics`; this module owns the event vocabulary,
the schedule containers, and the single shared applier, so that the
reference and fast backends interpret a schedule identically, plus the
pieces the CSR backends share to follow a schedule: the fault mirror, the
activation ledger, the resync diff and the in-flight drop.

Semantics contract (honoured bit-for-bit by both engines)
---------------------------------------------------------
* The events for round ``r`` are applied at the **start** of round ``r`` —
  after the round counter advances, *before* due exchanges deliver — so a
  removal can cancel an exchange that would otherwise have completed that
  very round.
* Removing an edge (directly, or implicitly through a ``node-leave``) drops
  every in-flight exchange travelling over it.  Dropped exchanges were paid
  for as activations but deliver nothing; they are counted in
  :attr:`SimulationMetrics.lost_exchanges`.  Re-adding the edge — later or
  even by a subsequent event of the same round — does not resurrect them.
* A latency change applies to exchanges initiated from that round on;
  exchanges already in flight complete at the latency they were initiated
  with (content entered the channel under the old latency).
* The node universe only grows: a ``node-leave`` removes the node's
  incident edges (an edgeless node neither initiates nor receives, and
  consumes no randomness, keeping the two backends' random streams
  aligned) but keeps the node and its accumulated knowledge; a
  ``node-join`` restores edges.  Removing a node from the graph object
  itself mid-run is a :class:`~repro.graphs.weighted_graph.GraphError`.
* Fault events (``node-crash``, ``edge-fault``) mutate engine-held
  :class:`FaultState` rather than the graph: a crashed node keeps its edges
  (neighbours still pick — and waste exchanges on — it, so random streams
  are unchanged) but never initiates, and every exchange touching a crashed
  node or faulted edge runs its full latency and then delivers nothing,
  counted in :attr:`SimulationMetrics.suppressed_exchanges`.  Completion
  predicates are restricted to non-crashed nodes while any crash is active.
  This is the crash-stop model of :mod:`repro.simulation.faults`, compiled
  onto the shared pipeline so both backends replay it bit-identically.
* Event application is *forgiving*: removing an absent edge, re-adding a
  present one, or drifting the latency of a churned-out edge is a no-op.
  This lets independently generated schedules (churn + drift) compose
  without coordinating, and — because the graph is the only state touched —
  guarantees the two backends see identical post-event topology.

Engines receive a dynamics object via the ``dynamics=`` argument of
:func:`repro.simulation.protocol.create_engine` (surfaced as the
``dynamics=`` knob on ``GossipAlgorithm.run`` and ``--dynamics`` on the
CLI).  Note that the engine applies events to the graph you passed in — the
network itself evolves; pass ``graph.copy()`` if you need the original
afterwards.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Any, Optional, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..graphs.indexed import IndexedGraph
    from ..graphs.weighted_graph import NodeId, WeightedGraph

__all__ = [
    "EVENT_KINDS",
    "FAULT_EVENT_KINDS",
    "ActivationLedger",
    "EdgeActivations",
    "FaultMirror",
    "FaultState",
    "drop_pending",
    "resync_diff",
    "sorted_contains",
    "TopologyEvent",
    "TopologyDynamics",
    "ScheduleDynamics",
    "ComposedDynamics",
    "apply_event",
    "apply_events",
]

EVENT_KINDS = (
    "add-edge",
    "remove-edge",
    "set-latency",
    "node-leave",
    "node-join",
    "node-crash",
    "edge-fault",
)

#: The event kinds that mutate engine fault state instead of the graph.
#: ``node-crash`` is crash-stop: the node stays in the graph (neighbours
#: still see — and waste exchanges on — it) but never initiates, never
#: responds usefully, and its knowledge is frozen.  ``edge-fault`` silences
#: an edge the same way: it remains selectable, but exchanges over it are
#: suppressed at delivery time.  Both are permanent for the rest of the run.
FAULT_EVENT_KINDS = ("node-crash", "edge-fault")

_NO_EVENTS: tuple["TopologyEvent", ...] = ()


@dataclass(frozen=True)
class TopologyEvent:
    """One topology mutation, scheduled for the start of a round.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    u:
        The node the event concerns (first endpoint for edge events).
    v:
        Second endpoint for edge events; unused for node events.
    latency:
        New latency for ``add-edge`` / ``set-latency``.
    edges:
        For ``node-join``: the ``(peer, latency)`` pairs to restore.
    """

    kind: str
    u: NodeId
    v: Optional[NodeId] = None
    latency: Optional[int] = None
    edges: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; choose from {EVENT_KINDS}")
        if self.kind in ("add-edge", "remove-edge", "set-latency", "edge-fault") and self.v is None:
            raise ValueError(f"{self.kind} events need both endpoints")
        if self.kind in ("add-edge", "set-latency") and (
            not isinstance(self.latency, int) or self.latency < 1
        ):
            raise ValueError(f"{self.kind} events need a positive integer latency")


class FaultState:
    """Accumulated crash-stop / edge-fault state, fed by fault events.

    Both engines hold one of these and pass it to :func:`apply_events`; a
    ``node-crash`` or ``edge-fault`` event lands here instead of mutating
    the graph (fault events never bump the graph version, so they never
    force the fast backend to re-snapshot its CSR core).  State only grows:
    faults are permanent for the rest of the run, matching the legacy
    crash-stop :class:`~repro.simulation.faults.FaultPlan` model.

    The reference engine uses the label-based sets directly; the CSR
    backends hold a :class:`FaultMirror`, which also forwards each new
    fault into their index-based structures.
    """

    __slots__ = ("crashed", "dropped")

    def __init__(self) -> None:
        self.crashed: set = set()
        self.dropped: set = set()

    @property
    def active(self) -> bool:
        """Whether any fault has fired yet (engines skip all checks until then)."""
        return bool(self.crashed or self.dropped)

    def crash(self, node: NodeId) -> None:
        """Mark ``node`` as crash-stopped (idempotent)."""
        self.crashed.add(node)

    def drop_edge(self, u: NodeId, v: NodeId) -> None:
        """Mark the edge ``{u, v}`` as permanently faulted (idempotent)."""
        self.dropped.add(frozenset((u, v)))

    def is_crashed(self, node: NodeId) -> bool:
        """Whether ``node`` has crash-stopped."""
        return node in self.crashed

    def suppresses(self, u: NodeId, v: NodeId) -> bool:
        """Whether an exchange between ``u`` and ``v`` delivers nothing."""
        return u in self.crashed or v in self.crashed or frozenset((u, v)) in self.dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultState(crashed={len(self.crashed)}, dropped={len(self.dropped)})"


class FaultMirror(FaultState):
    """A :class:`FaultState` that forwards each new fault to its engine.

    The label-based sets stay authoritative (the shared applier and parity
    checks read them); a fault seen for the first time is also translated
    to node indices of the engine's CSR snapshot (``engine._idx``) and
    passed to ``engine._on_crash(i)`` / ``engine._on_edge_fault(i, j)``, so
    the engine keeps its index-based masks current.  A fault naming a node
    that joined earlier in the same round is not indexed yet; it is parked
    until :meth:`replay`, which engines call after every topology resync.

    The engine is held through a weak proxy: the engine owns the mirror,
    and a strong back-reference would form a cycle that only the cyclic
    garbage collector could free, keeping a finished engine's in-flight
    pipeline alive until it ran.
    """

    __slots__ = ("_engine", "_parked")

    def __init__(self, engine: Any) -> None:
        super().__init__()
        self._engine = weakref.proxy(engine)
        self._parked: list[tuple] = []

    def crash(self, node: NodeId) -> None:
        """Crash-stop ``node``, notifying the engine once."""
        if node not in self.crashed:
            self.crashed.add(node)
            self._forward((node,))

    def drop_edge(self, u: NodeId, v: NodeId) -> None:
        """Fault the edge ``{u, v}``, notifying the engine once."""
        key = frozenset((u, v))
        if key not in self.dropped:
            self.dropped.add(key)
            self._forward((u, v))

    def _forward(self, nodes: tuple) -> None:
        """Notify the engine of a crash (one node) or edge fault (two nodes)."""
        found = [self._engine._idx.lookup(node) for node in nodes]
        if None in found:
            self._parked.append(nodes)
        elif len(found) == 1:
            self._engine._on_crash(found[0])
        else:
            self._engine._on_edge_fault(found[0], found[1])

    def replay(self) -> None:
        """Forward the faults parked for the engine's post-event resync."""
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for nodes in parked:
            self._forward(nodes)
        if self._parked:  # still unresolved after a resync: a real bug
            from ..graphs.weighted_graph import GraphError

            raise GraphError(
                f"fault events reference nodes unknown to the engine: {self._parked!r}"
            )


def sorted_contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Elementwise ``keys in sorted_keys`` for a sorted, nonempty key array."""
    found = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(found, sorted_keys.size - 1)] == keys


_LOW_32 = np.int64(0xFFFFFFFF)


class ActivationLedger:
    """Per-edge activation counts that outlive CSR re-snapshots.

    Counts live in rows that never move.  Each slot of the live snapshot
    owns one row (``slot_rows``); a resync hands a surviving slot its old
    row, through the slot map the event round recorded
    (:meth:`~repro.graphs.indexed.IndexedGraph.slots_from`), and a new slot
    a fresh one, so a resync copies no counts.  The rows no slot owns any
    more are the retired edges'.  Each row keeps its slot's int64 index
    pair ``(min << 32) | max`` (node indices are stable: the node universe
    only grows), which is all the label-keyed counters need.  Activations
    are parked as ``row * columns + column`` codes in a ring buffer and
    added by one ``bincount`` per buffer-full.
    """

    __slots__ = ("columns", "slot_rows", "keys", "counts", "used", "_parked", "_fill")

    def __init__(self, snapshot: IndexedGraph, columns: int, buffer_size: int) -> None:
        self.columns = columns
        self.slot_rows = np.arange(snapshot.indices.size, dtype=np.int64)
        self.keys = snapshot.slot_pair_keys()
        self.counts = np.zeros((self.keys.size, columns), dtype=np.int64)
        self.used = self.keys.size
        self._parked = np.empty(buffer_size, dtype=np.int64)
        self._fill = 0

    def park(self, slots: np.ndarray, columns: np.ndarray) -> None:
        """Count one activation of each live ``slots[k]`` in column ``columns[k]``."""
        codes = self.slot_rows[slots]
        if self.columns > 1:
            codes *= self.columns
            codes += columns
        if self._fill + codes.size > self._parked.size:
            self.flush()
        if codes.size > self._parked.size:  # pragma: no cover - huge single round
            self._add(codes)
            return
        self._parked[self._fill : self._fill + codes.size] = codes
        self._fill += codes.size

    def flush(self) -> None:
        """Add the parked activations to their rows."""
        if self._fill:
            self._add(self._parked[: self._fill])
            self._fill = 0

    def _add(self, codes: np.ndarray) -> None:
        used = self.used
        tally = np.bincount(codes, minlength=used * self.columns)
        self.counts[:used] += tally.reshape(used, self.columns)

    def resync(self, old: IndexedGraph, new: IndexedGraph) -> None:
        """Give every slot of ``new`` its row: a surviving slot keeps its own.

        Without an event round's slot map from ``old`` (a direct mutation
        since the last resync) every slot of ``new`` starts a fresh row.
        """
        rows = np.full(new.indices.size, -1, dtype=np.int64)
        kept = new.slots_from(old)
        if kept is not None:
            moved = kept >= 0
            rows[kept[moved]] = self.slot_rows[moved]
        fresh = np.flatnonzero(rows < 0)
        if fresh.size:
            start, self.used = self.used, self.used + fresh.size
            if self.used > self.keys.size:
                capacity = max(self.used, 2 * self.keys.size)
                keys = np.empty(capacity, dtype=np.int64)
                keys[:start] = self.keys[:start]
                counts = np.zeros((capacity, self.columns), dtype=np.int64)
                counts[:start] = self.counts[:start]
                self.keys, self.counts = keys, counts
            rows[fresh] = np.arange(start, self.used, dtype=np.int64)
            sources = np.searchsorted(new.indptr, fresh, side="right") - 1
            targets = new.indices[fresh]
            self.keys[start : self.used] = (np.minimum(sources, targets) << 32) | np.maximum(
                sources, targets
            )
        self.slot_rows = rows

    def record(self, labels: Sequence[NodeId]) -> EdgeActivations:
        """The counts so far as plain arrays: live slots, then retired rows."""
        self.flush()
        owned = np.zeros(self.used, dtype=bool)
        owned[self.slot_rows] = True
        retired = np.flatnonzero(~owned & self.counts[: self.used].any(axis=1))
        live = self.slot_rows
        return EdgeActivations(
            labels, self.keys[retired], self.counts[retired], self.keys[live], self.counts[live]
        )


class EdgeActivations:
    """A finished run's activation counts as plain arrays, turned into counters on read.

    ``live_keys`` / ``live_counts`` are the final snapshot's slots in CSR
    order (pair key, and one count column per replication); the ledger
    rows are what resyncs retired.  Nothing here refers to an engine, so
    a result holding it stays small to keep and pickles; the label work
    is done once, on the first :meth:`counter` call.
    """

    __slots__ = ("labels", "ledger_keys", "ledger_counts", "live_keys", "live_counts", "_table")

    def __init__(
        self,
        labels: Sequence[NodeId],
        ledger_keys: np.ndarray,
        ledger_counts: np.ndarray,
        live_keys: np.ndarray,
        live_counts: np.ndarray,
    ) -> None:
        self.labels = labels
        self.ledger_keys = ledger_keys
        self.ledger_counts = ledger_counts
        self.live_keys = live_keys
        self.live_counts = live_counts
        self._table: Optional[tuple[list, np.ndarray, np.ndarray]] = None

    def _build(self) -> tuple[list, np.ndarray, np.ndarray]:
        """Label pairs, their per-column totals and which are live, in counter order.

        A pair is the ``repr``-sorted label pair of an edge; pairs are
        built by ranking the label reprs once, so labels that share a repr
        share an entry.  Live pairs come first, in the order the final
        snapshot first meets them (its edge order), then retired pairs in
        key order, so a run without resyncs lists edges as its snapshot
        does.
        """
        live = self.live_keys.size
        keys = np.concatenate([self.live_keys, self.ledger_keys])
        counts = np.concatenate([self.live_counts, self.ledger_counts])
        names, rank = np.unique(
            np.array([repr(label) for label in self.labels]), return_inverse=True
        )
        first, second = rank[keys >> 32], rank[keys & _LOW_32]
        pairs, group = np.unique(
            (np.minimum(first, second) << 32) | np.maximum(first, second), return_inverse=True
        )
        totals = np.zeros((pairs.size, counts.shape[1]), dtype=np.int64)
        np.add.at(totals, group, counts)
        position = np.full(pairs.size, live, dtype=np.int64)
        np.minimum.at(position, group[:live], np.arange(live))
        order = np.argsort(position, kind="stable")
        pairs, totals, shown = pairs[order], totals[order], position[order] < live
        label_pairs = list(zip(names[pairs >> 32].tolist(), names[pairs & _LOW_32].tolist()))
        return label_pairs, totals, shown

    def counter(self, column: int, keep_live_zeros: bool = True) -> Counter:
        """Replication ``column``'s reference-format counter.

        Every live pair appears, even at zero, unless ``keep_live_zeros``
        is false; a retired pair only where its count is nonzero.
        """
        if self._table is None:
            self._table = self._build()
        label_pairs, totals, live = self._table
        counts = totals[:, column]
        shown = (live | (counts != 0)) if keep_live_zeros else counts != 0
        return Counter(dict(zip(compress(label_pairs, shown.tolist()), counts[shown].tolist())))


def drop_pending(due: dict[int, list[tuple]], removed_keys: np.ndarray, bound: int) -> None:
    """Cut in-flight entries over removed pairs out of ``due``.

    ``due`` maps a completion round to batches of array columns whose first
    two columns hold the two endpoints as integer positions below ``bound``
    (node indices, or the batch kernel's flattened ``node * reps + rep``
    knowledge rows).  ``removed_keys`` are the sorted int64
    ``(first << 32) | second`` keys of the pairs to cut, in the same
    positions.  Each batch is prefiltered by a "first endpoint touched"
    mask and only the candidates are looked up.  What the cut entries
    count for is the caller's to decide.
    """
    touched = np.zeros(bound, dtype=bool)
    touched[removed_keys >> 32] = True
    for completes_at, batches in list(due.items()):
        kept: list[tuple] = []
        changed = False
        for entry in batches:
            first, second = entry[0], entry[1]
            candidates = np.flatnonzero(touched[first])
            if candidates.size:
                keys = (first[candidates].astype(np.int64) << 32) | second[candidates]
                candidates = candidates[sorted_contains(removed_keys, keys)]
            if not candidates.size:
                kept.append(entry)
                continue
            changed = True
            keep = np.ones(first.size, dtype=bool)
            keep[candidates] = False
            if keep.any():
                kept.append(tuple(part[keep] for part in entry))
        if changed:
            if kept:
                due[completes_at] = kept
            else:
                del due[completes_at]


def resync_diff(
    old: IndexedGraph, new: IndexedGraph, severed: Iterable, events_only: bool
) -> tuple[bool, set[tuple[int, int]]]:
    """What a CSR engine's topology resync must change, from two snapshots.

    ``old`` and ``new`` are the engine's retiring and fresh snapshots and
    ``severed`` the frozenset label pairs the round's events removed.  Raises
    :class:`~repro.graphs.weighted_graph.GraphError` unless ``new`` keeps
    ``old``'s node labels in order (the universe only grows).  Returns
    ``(structural, removed)``: whether the edge structure changed (false
    for a latency-only change, whose slots line up one-to-one), and the
    directed index pairs whose in-flight exchanges must be dropped — the
    severed pairs, plus, after a structural change that the events alone
    do not describe (``events_only`` false), every pair ``old`` has and
    ``new`` lacks.
    """
    if new.labels is not old.labels and new.labels[: old.num_nodes] != old.labels:
        from ..graphs.weighted_graph import GraphError

        raise GraphError(
            "nodes were removed or reordered mid-run; engines only support edge "
            "mutations and appended nodes (use a 'node-leave' dynamics event to "
            "churn a node out without deleting it)"
        )
    removed: set[tuple[int, int]] = set()
    for key in severed:
        u, v = tuple(key)
        iu, iv = old.lookup(u), old.lookup(v)
        if iu is not None and iv is not None:
            removed.add((iu, iv))
            removed.add((iv, iu))
    if np.array_equal(new.indptr, old.indptr) and np.array_equal(new.indices, old.indices):
        return False, removed
    if not events_only:
        removed |= old.directed_pairs() - new.directed_pairs()
    return True, removed


def apply_event(
    graph: WeightedGraph,
    event: TopologyEvent,
    severed: Optional[set] = None,
    faults: Optional[FaultState] = None,
) -> None:
    """Apply one event to ``graph`` with the module's forgiving semantics.

    When ``severed`` is given, every edge actually removed (directly or via
    ``node-leave``) is recorded into it as a frozenset of its endpoints.
    Fault events (:data:`FAULT_EVENT_KINDS`) are routed into ``faults``
    instead of the graph; applying one without a fault state is an error —
    silently dropping a fault would turn a robustness experiment into a
    fault-free run.
    """
    kind = event.kind
    if kind in FAULT_EVENT_KINDS:
        if faults is None:
            raise ValueError(
                f"{kind} events need a FaultState to apply to; drive them through an "
                "engine (which owns one) rather than a bare graph"
            )
        # Unlike graph events, fault events are NOT forgiving about unknown
        # nodes: a typo'd label would silently turn a robustness run
        # fault-free, and the two backends must agree on the outcome —
        # so both reject it here, at the shared layer.  (Imported lazily:
        # repro.graphs package init imports this module.)
        from ..graphs.weighted_graph import GraphError

        for endpoint in (event.u,) if kind == "node-crash" else (event.u, event.v):
            if not graph.has_node(endpoint):
                raise GraphError(
                    f"{kind} event names {endpoint!r}, which is not in the graph"
                )
        if kind == "node-crash":
            faults.crash(event.u)
        else:
            faults.drop_edge(event.u, event.v)
    elif kind == "add-edge":
        _put_edge(graph, event.u, event.v, event.latency)
    elif kind == "remove-edge":
        if graph.has_edge(event.u, event.v):
            graph.remove_edge(event.u, event.v)
            if severed is not None:
                severed.add(frozenset((event.u, event.v)))
    elif kind == "set-latency":
        if graph.has_edge(event.u, event.v):
            if graph.latency(event.u, event.v) != event.latency:
                graph.set_latency(event.u, event.v, event.latency)
    elif kind == "node-leave":
        if graph.has_node(event.u):
            for neighbor in graph.neighbors(event.u):
                graph.remove_edge(event.u, neighbor)
                if severed is not None:
                    severed.add(frozenset((event.u, neighbor)))
    elif kind == "node-join":
        graph.add_node(event.u)
        for peer, latency in event.edges:
            if graph.has_node(peer) and peer != event.u:
                _put_edge(graph, event.u, peer, latency)


def _put_edge(graph: WeightedGraph, u: NodeId, v: NodeId, latency: int) -> None:
    """Add edge ``{u, v}``, updating the latency if it already exists."""
    if graph.has_edge(u, v):
        if graph.latency(u, v) != latency:
            graph.set_latency(u, v, latency)
    else:
        graph.add_edge(u, v, latency)


def apply_events(
    graph: WeightedGraph,
    events: Iterable[TopologyEvent],
    faults: Optional[FaultState] = None,
) -> set:
    """Apply a round's events to ``graph`` (and ``faults``) in order.

    Returns the edge keys (frozensets of endpoints) removed at any point
    during application — even if a later event of the same round re-added
    the edge — so engines can cancel in-flight exchanges per the module
    contract rather than diffing only the round's net topology change.
    Fault events accumulate into ``faults`` (see :class:`FaultState`).

    The events run inside ``graph.event_round()``, in the order given.  A
    dict-built graph takes each one on its dicts.  A
    :class:`~repro.graphs.indexed.CSRGraph` edits only the rows the events
    touch and lays the round out as a new snapshot, slot for slot the one
    the dict path would build, which also records where each old slot went
    (:meth:`~repro.graphs.indexed.IndexedGraph.slots_from`): the CSR
    engines carry activation counts across the resync with it.
    """
    severed: set = set()
    with graph.event_round() as target:
        for event in events:
            apply_event(target, event, severed, faults)
    return severed


@runtime_checkable
class TopologyDynamics(Protocol):
    """The surface engines drive a dynamics object through.

    Implementations must be *pure round functions*: ``events_for_round(r)``
    returns the same sequence every time it is asked about round ``r``, and
    asking about one round has no effect on another.  That is what lets the
    same object be consulted by either backend (or by both, in a parity
    check, via two engines over two equal graphs) with identical results.
    """

    def events_for_round(self, round_number: int) -> Sequence[TopologyEvent]:
        """The events applied at the start of round ``round_number``."""
        ...


class ScheduleDynamics:
    """A precomputed round → events schedule (the common concrete form).

    Parameters
    ----------
    events_by_round:
        Mapping from round number (>= 1) to the events applied at the start
        of that round.  Rounds without an entry have no events; rounds past
        the last entry leave the topology frozen in its final state.
    name:
        Human-readable label, used by result tables and ``--dynamics``
        reporting (``str(schedule)`` returns it).
    """

    def __init__(
        self,
        events_by_round: Mapping[int, Sequence[TopologyEvent]],
        name: str = "schedule",
    ) -> None:
        cleaned: dict[int, tuple[TopologyEvent, ...]] = {}
        for round_number, events in events_by_round.items():
            if not isinstance(round_number, int) or round_number < 1:
                raise ValueError(f"schedule rounds must be positive ints, got {round_number!r}")
            events = tuple(events)
            if events:
                cleaned[round_number] = events
        self._events = cleaned
        self.name = name

    @property
    def horizon(self) -> int:
        """The last round with scheduled events (0 for an empty schedule)."""
        return max(self._events, default=0)

    @property
    def num_events(self) -> int:
        """Total number of scheduled events."""
        return sum(len(events) for events in self._events.values())

    def events_for_round(self, round_number: int) -> tuple[TopologyEvent, ...]:
        """The events applied at the start of ``round_number``."""
        return self._events.get(round_number, _NO_EVENTS)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduleDynamics(name={self.name!r}, horizon={self.horizon}, events={self.num_events})"


class ComposedDynamics:
    """Concatenate several dynamics: per round, parts contribute in order.

    Composition is left-to-right within every round, and the forgiving
    event-application semantics make overlapping schedules (e.g. latency
    drift on an edge that churn has currently removed) safe no-ops.
    """

    def __init__(self, parts: Sequence[TopologyDynamics], name: Optional[str] = None) -> None:
        self.parts = tuple(parts)
        self.name = name if name is not None else "+".join(str(part) for part in self.parts)

    def events_for_round(self, round_number: int) -> tuple[TopologyEvent, ...]:
        """All parts' events for ``round_number``, concatenated in order."""
        events: list[TopologyEvent] = []
        for part in self.parts:
            events.extend(part.events_for_round(round_number))
        return tuple(events)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComposedDynamics({list(self.parts)!r})"
