"""The numpy round kernel: R seeded runs of one scenario as one computation.

The paper's claims are about *distributions* of spreading times, so every
experiment runs many seeded replications of the same scenario.  Running them
one :class:`~repro.simulation.fast_engine.FastEngine` at a time leaves the
per-round Python loop as the bottleneck; :class:`BatchEngine` removes it by
simulating all ``reps`` replications in lockstep, each round as whole-array
operations over the CSR edge set:

* **knowledge** is an ``(n_nodes, reps, words)`` uint64 bitplane tensor —
  bit ``b`` of a node's words is rumor ``b``, exactly the fast backend's
  integer bitsets laid out as a matrix, so merging a delivery is a
  vectorized ``bitwise_or`` and informed counts are ``bitwise_count``
  reductions (runs with at most 64 rumors collapse to one flat uint64
  plane);
* **neighbour choice** consumes one independent numpy Generator per
  replication, seeded ``derive_seed(seed, "rep", r)`` (see
  :mod:`repro.simulation.rng`): each round, replication ``r`` draws one
  uniform float per node and maps it to a neighbour slot through the shared
  :func:`~repro.simulation.rng.uniform_slot_offsets` helper — the identical
  draw-and-map a sequential numpy-mode ``FastEngine`` run performs, which
  is what makes batched column ``r`` **bit-for-bit equal** to that
  sequential run;
* **latency gating** splits every round's exchanges in two.  A
  per-(completion round, replication) *tally* counts each exchange by
  payload size, in a delivered and a *suppressed* plane: that is all the
  message, payload and suppression counters need.  Only the *informative*
  exchanges — whose two payload snapshots differ, the only ones that can
  change knowledge — are radix-sorted by latency code and carried to
  delivery.  A compact per-round record of every exchange lets a topology
  resync take lost ones back out of their tallies, and lets a fault that
  fires mid-flight move pending ones into the suppressed plane;
* **dynamics and faults** ride the existing shared applier: the one
  scenario-seeded schedule mutates the one shared graph (all replications
  see the same topology trajectory, by construction of the scenario seed
  derivation), and crash/edge-fault state applies as node/edge masks across
  every replication column.  An exchange toward a crashed node or over a
  faulted edge is tallied as suppressed when it starts; the records move
  the ones a later fault catches in flight, and the informative ones are
  filtered by the same masks at delivery;
* **blocking** keeps one busy-until round per (replication, node): set when
  the node initiates, and cleared when its exchange is lost to a resync or
  discarded by a drain.

Replications complete independently: a column whose stop predicate holds is
frozen — it stops initiating and drawing, its still-pending exchanges are
discarded at delivery time (the vectorized form of ``drain=True``), and its
metrics are materialized at its own completion round — so each
replication's :class:`~repro.simulation.metrics.SimulationMetrics` matches
the sequential run that would have stopped there.

The engine registers itself as the ``"batch"`` backend and is driven
through :meth:`run_batch` (the
:class:`~repro.simulation.protocol.BatchCapability` surface) with a
:class:`~repro.simulation.protocol.BatchPolicySpec`.  The ``"edge"``
backend, :class:`~repro.simulation.edge_engine.EdgeEngine`, is this same
kernel fixed at ``reps=1`` behind the single-run
:class:`~repro.simulation.protocol.EngineProtocol` surface, so an edge run
is batch column 0 by construction.

Per-edge activation counts are kept while the CSR snapshot has at most
:data:`EDGE_ACTIVATION_SLOT_LIMIT` slots, decided once at construction;
above it runs report empty ``edge_activations``.  They are counted per
CSR slot, in the rows of an
:class:`~repro.simulation.dynamics.ActivationLedger`, which never move: at
a resync each surviving slot keeps its row, through the map the event
round recorded (:meth:`~repro.graphs.indexed.IndexedGraph.slots_from`),
and only new slots take new rows (every slot does after a direct
mutation), so the rows of removed edges are what the ledger retires.  A
run ends with those arrays in an
:class:`~repro.simulation.dynamics.EdgeActivations`, and each
replication's label-keyed counter is built from them the first time its
``edge_activations`` is read.

Memory guard
------------
The engine estimates its array footprint before allocating (see
:meth:`BatchEngine._estimate_bytes`) and raises
:class:`~repro.simulation.protocol.SimulationError` with the estimate when
it exceeds the byte budget — :data:`DEFAULT_MEMORY_LIMIT` unless the
engine's ``_memory_limit`` is set — at construction and whenever seeding a
rumor adds a knowledge word, instead of thrashing into the OOM killer.
All-to-all seeding is the usual culprit: its knowledge plane alone is
``n^2 * reps / 8`` bytes.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Optional

import numpy as np

from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from .dynamics import (
    ActivationLedger,
    EdgeActivations,
    FaultMirror,
    TopologyDynamics,
    apply_events,
    drop_pending,
    resync_diff,
    sorted_contains,
)
from .messages import Rumor
from .metrics import SimulationMetrics
from .protocol import BatchPolicySpec, SimulationError, register_engine
from .rng import uniform_slot_offsets

__all__ = ["BatchEngine", "DEFAULT_MEMORY_LIMIT", "EDGE_ACTIVATION_SLOT_LIMIT"]

#: Above this many CSR slots, per-edge activation counts are not kept:
#: a Counter keyed by label-pair reprs would dwarf the vectorized round
#: loop at million-node scale.
EDGE_ACTIVATION_SLOT_LIMIT = 2_000_000

#: Default memory budget for the engine's arrays (bytes).
DEFAULT_MEMORY_LIMIT = 4 * 1024**3


def _activation_buffer_size(n: int, reps: int) -> int:
    """Ring-buffer capacity: about 24 rounds of (node, rep) activations, within [2^16, 2^23]."""
    return min(8_388_608, max(65_536, 24 * n * reps))


def _tally_width(words: int) -> int:
    """Payload-size levels of a tally row: two snapshots carry 0..128*words rumor bits."""
    return 2 * 64 * words + 1


#: Tally planes of a recorded exchange.  A lost one has left its tally.
_DELIVERED, _SUPPRESSED, _LOST = 0, 1, 2


class _InitiationRecord:
    """One round's initiations, kept until its last exchange completes.

    ``first`` holds the round's CSR slots until a resync pins them to
    initiator indices (``second`` then holds the responders); ``ranks``
    index ``values`` for each exchange's latency, ``sizes`` hold its
    payload size and ``planes`` (``None`` while every exchange is
    delivered) its tally plane, so a resync or a fault can find a pending
    exchange and move it out of its tally slot.  Exchanges are in
    replication-major order; ``rep_ends`` holds each replication's end
    position (``None`` at one replication).
    """

    __slots__ = (
        "round", "last", "first", "second", "ranks", "values", "sizes", "planes", "rep_ends"
    )

    def __init__(
        self, round_: int, last: int, slots, ranks, values, sizes, planes, rep_ends
    ) -> None:
        self.round = round_
        self.last = last
        self.first = slots
        self.second: Optional[np.ndarray] = None
        self.ranks = ranks
        self.values = values
        self.sizes = sizes
        self.planes: Optional[np.ndarray] = planes
        self.rep_ends = rep_ends

    def rep_of(self, positions: np.ndarray) -> np.ndarray:
        """The replication of the exchanges at ``positions``."""
        if self.rep_ends is None:
            return np.zeros(positions.size, dtype=np.int64)
        return np.searchsorted(self.rep_ends, positions, side="right")

    def planes_of(self, positions: np.ndarray) -> np.ndarray:
        """The tally plane of the exchanges at ``positions``."""
        if self.planes is None:
            return np.zeros(positions.size, dtype=np.uint8)
        return self.planes[positions]

    def completes(self, positions: np.ndarray) -> np.ndarray:
        """The completion round of the exchanges at ``positions``."""
        return self.round + self.values[self.ranks[positions]]

    def pairs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The int64 (initiator, responder) columns of pinned exchanges at ``positions``."""
        return self.first[positions].astype(np.int64), self.second[positions].astype(np.int64)

    def mark(self, positions: np.ndarray, plane: int) -> None:
        """Put the exchanges at ``positions`` in ``plane``."""
        if self.planes is None:
            self.planes = np.zeros(self.sizes.size, dtype=np.uint8)
        self.planes[positions] = plane


@register_engine("batch")
class BatchEngine:
    """Run ``reps`` replications of one declarative scenario vectorized.

    Parameters
    ----------
    graph:
        The shared network.  Like the other backends the engine applies
        dynamics events to the graph you pass in; hand it a copy if you
        need the original afterwards.
    reps:
        Number of independent replications (columns).
    blocking:
        If true, a node with an in-flight exchange skips its turn in that
        replication until the exchange completes.
    dynamics:
        Optional :class:`~repro.simulation.dynamics.TopologyDynamics`
        applied at the start of every round — one shared schedule for all
        replications, matching the scenario-seed derivation discipline.

    The engine refuses, with :class:`~repro.simulation.protocol.SimulationError`,
    a run whose estimated footprint exceeds its byte budget (see the
    module's memory guard).
    """

    #: The backend named in memory-guard refusals, and what they suggest.
    _backend = "batch"
    _memory_remedy = "lower n or reps, or seed fewer rumors (all-to-all needs n^2*reps/8 bytes)"
    #: Byte budget for the engine's arrays; ``None`` means the module's
    #: :data:`DEFAULT_MEMORY_LIMIT`, read at check time.
    _memory_limit: Optional[int] = None

    def __init__(
        self,
        graph: WeightedGraph,
        reps: int,
        blocking: bool = False,
        dynamics: Optional[TopologyDynamics] = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise GraphError("cannot simulate on an empty graph")
        if not isinstance(reps, int) or reps < 1:
            raise ValueError(f"reps must be a positive integer, got {reps!r}")
        self.graph = graph
        self.reps = reps
        self.blocking = blocking
        self.dynamics = dynamics
        self.round = 0
        self._idx = graph.indexed()
        self._graph_version = graph.version
        self._track_activations = self._idx.indices.size <= EDGE_ACTIVATION_SLOT_LIMIT
        self._load_csr()
        n = self._idx.num_nodes
        self._words = 1
        self._check_memory(words=1, action="constructing the engine")
        # Knowledge bitplanes and per-(node, replication) state.
        self._know = np.zeros((n, reps, 1), dtype=np.uint64)
        # Per-(replication, node) state is laid out replication-major so
        # per-round broadcasts and the per-replication draw rows stay
        # contiguous.  Busy-until rounds exist only under the blocking rule,
        # and round-robin cursors from the first round-robin step on.
        self._busy = np.zeros((reps, n), dtype=np.int64) if blocking else None
        self._cursors: Optional[np.ndarray] = None
        # Cache of the acting pattern and its nonzero indices for ungated,
        # non-blocking rounds: the pattern there is a pure function of the
        # live-replication set, the crash mask, and the degree vector, so a
        # mask epoch (bumped whenever any of those change) keys the reuse.
        self._mask_epoch = 0
        self._acting_cache: Optional[tuple[tuple, np.ndarray, np.ndarray, np.ndarray]] = None
        self._acting_counts: Optional[tuple[tuple, np.ndarray]] = None
        # Rumor registry (shared across replications: every column is the
        # same scenario, so bit b means the same rumor everywhere).
        self._rumors: list[Rumor] = []
        self._rumor_bit: dict[Rumor, int] = {}
        self._bit_origin: list[int] = []
        self._seeded_origins: set[int] = set()
        # Per-replication metric accumulators.
        self._activations = np.zeros(reps, dtype=np.int64)
        self._messages = np.zeros(reps, dtype=np.int64)
        self._deliveries = np.zeros(reps, dtype=np.int64)
        self._payload_sent = np.zeros(reps, dtype=np.int64)
        self._max_payload = np.zeros(reps, dtype=np.int64)
        self._lost = np.zeros(reps, dtype=np.int64)
        self._suppressed = np.zeros(reps, dtype=np.int64)
        # Edge-activation accounting (when tracked): each round's (slot, rep)
        # pairs are parked in the ledger's ring buffer and added to its
        # (row, rep) counts by one bincount per buffer-full (a scatter-add
        # every round would touch the whole matrix every round).
        self._ledger: Optional[ActivationLedger] = None
        if self._track_activations:
            self._ledger = ActivationLedger(self._idx, reps, _activation_buffer_size(n, reps))
        # Completion bookkeeping.
        self._active = np.ones(reps, dtype=bool)
        self._completion_round = np.full(reps, -1, dtype=np.int64)
        # In-flight exchanges.  ``_tallies`` counts every exchange per
        # completion round as a (reps, 2, _tally_width(words)) row over
        # (replication, delivered/suppressed plane, payload size);
        # ``_due`` carries the informative ones by completion round as
        # (initiator, responder, payload_i, payload_j) entries whose index
        # columns are flattened (node * reps + rep) knowledge rows; and
        # ``_records`` keeps one compact record per in-flight initiation
        # round.
        self._due: dict[int, list[tuple]] = {}
        self._tallies: dict[int, np.ndarray] = {}
        self._records: list[_InitiationRecord] = []
        # Single-rumor one-word runs carry one-bit payloads; storing them as
        # booleans shrinks the in-flight pipeline's memory traffic 8x.
        self._bool_payloads = False
        # Fault state: label-based sets (shared applier) + index mirrors,
        # and whether a fault fired since the records were last scanned.
        self._fault_state = FaultMirror(self)
        self._crashed_mask = np.zeros(n, dtype=bool)
        self._dropped_keys = np.empty(0, dtype=np.int64)  # sorted directed pair keys
        self._faults_fired = False
        # Reused per-round work buffers (allocation is expensive relative
        # to arithmetic on small-bandwidth hosts).
        self._acting_buffer = np.empty((reps, n), dtype=bool)
        self._draw_buffer = np.zeros((reps, n))
        # SIR recovery state, initialized lazily on first contact with the
        # "sir" gate (a run_batch under it, or one of the sir_* masks).
        self._sir_infected_at: Optional[np.ndarray] = None  # (n, reps) int64, -1 = never
        self._sir_recovered: Optional[np.ndarray] = None  # (n, reps) bool
        # Optional per-round informed-count curve for one tracked rumor.
        self._curve_rumor: Optional[Rumor] = None
        self._curve: list[np.ndarray] = []
        self._informed_cache: Optional[tuple[int, int, np.ndarray]] = None
        # Running per-replication popcount of the knowledge tensor (know
        # only changes at seeding and delivery, so the delivery delta chain
        # keeps it current without a fresh full pass per round).
        self._popcounts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # CSR snapshots and the memory guard
    # ------------------------------------------------------------------
    def _load_csr(self) -> None:
        """Materialize the current IndexedGraph snapshot as numpy arrays."""
        idx = self._idx
        self._indptr = np.asarray(idx.indptr, dtype=np.int64)
        self._indices = np.asarray(idx.indices, dtype=np.int64)
        self._latencies = np.asarray(idx.latencies, dtype=np.int64)
        self._degrees = np.diff(self._indptr)
        self._starts = self._indptr[:-1]
        # Per slot: does an exchange over it start out suppressed?  Built on
        # demand and kept until a fault fires or the snapshot changes.
        self._slot_suppressed: Optional[np.ndarray] = None
        self._set_latency_ranks()

    def _set_latency_ranks(self) -> None:
        """Code every slot's latency by its rank among the distinct latencies.

        ``_latency_values`` lists the snapshot's distinct latencies in
        increasing order and ``_latency_rank`` holds each slot's index into
        it, as uint8 or uint16 where they fit: a stable argsort over the
        codes is then a radix sort, and static tallies are sized by the
        latencies the graph has rather than by the largest one.
        """
        latencies = self._latencies
        top = int(latencies.max()) if latencies.size else 0
        if top < 1 << 16:
            present = np.zeros(top + 1, dtype=bool)
            present[latencies] = True
            values = np.flatnonzero(present)
            dtype = np.uint8 if values.size <= 1 << 8 else np.uint16
            ranks = (np.cumsum(present) - 1).astype(dtype)[latencies]
        else:  # pragma: no cover - latencies this large do not occur in the suite
            values, ranks = np.unique(latencies, return_inverse=True)
        self._latency_values = values.astype(np.int64)
        self._latency_rank = ranks

    def _estimate_bytes(self, words: int) -> dict[str, int]:
        """Estimate the engine's array footprint at ``words`` knowledge words.

        Five terms: the ``(n, reps, words)`` knowledge plane, the
        ``(slots, reps)`` activation-count matrix (churn adds rows: a
        retired edge keeps its row until the run ends) and its int64 ring
        buffer (zero when activations are not tracked), the ``(reps, n)``
        acting and draw buffers (and busy-until rounds under blocking), and
        the worst-case in-flight pipeline — every (node, replication) keeps
        one exchange per round alive for up to the maximum edge latency,
        each with a record share (slot, latency code, size and plane) and,
        if informative, two index columns and two payload snapshots, plus
        one two-plane tally row per replication and completion round.
        """
        n, reps = self._idx.num_nodes, self.reps
        max_latency = max(1, int(self._latencies.max()) if self._latencies.size else 1)
        tracked = self._track_activations
        estimate = {
            "knowledge": n * reps * words * 8,
            "edge-counts": self._idx.indices.size * reps * 8 if tracked else 0,
            "activation-buffers": _activation_buffer_size(n, reps) * 8 if tracked else 0,
            "round-buffers": reps * n * (17 if self.blocking else 9),
            "pipeline": n * reps * max_latency * (32 + 16 * words)
            + max_latency * reps * 2 * _tally_width(words) * 8,
        }
        estimate["total"] = sum(estimate.values())
        return estimate

    def _check_memory(self, words: int, action: str) -> None:
        """Raise :class:`SimulationError` when the estimate exceeds the limit.

        The message names every term of the estimate in GiB, so a refused
        run says which array would not fit.
        """
        estimate = self._estimate_bytes(words)
        limit = DEFAULT_MEMORY_LIMIT if self._memory_limit is None else self._memory_limit
        if estimate["total"] <= limit:
            return
        detail = ", ".join(
            f"{key}={value / 1024**3:.2f} GiB" for key, value in estimate.items() if key != "total"
        )
        raise SimulationError(
            f"{self._backend} backend refuses {action}: estimated footprint "
            f"{estimate['total'] / 1024**3:.2f} GiB ({detail}) for n={self._idx.num_nodes}, "
            f"reps={self.reps}, {words * 64} rumor bits exceeds the {limit / 1024**3:.2f} GiB "
            f"memory limit; {self._memory_remedy}"
        )

    @property
    def num_nodes(self) -> int:
        """Current number of nodes in the simulated snapshot."""
        return self._idx.num_nodes

    # ------------------------------------------------------------------
    # Seeding knowledge (identical across every replication column)
    # ------------------------------------------------------------------
    def seed_rumor(self, origin: NodeId, payload: Any = None) -> Rumor:
        """Give ``origin`` a fresh rumor (in every replication) and return it."""
        origin_index = self._idx.lookup(origin)
        if origin_index is None:
            raise GraphError(f"node {origin!r} is not in the simulated graph")
        rumor = Rumor(origin=origin, payload=payload)
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            bit = len(self._rumors)
            if bit >= self._words * 64:
                self._grow_plane(self._words + 1)
            self._rumor_bit[rumor] = bit
            self._rumors.append(rumor)
            self._bit_origin.append(origin_index)
            self._seeded_origins.add(origin_index)
        word, offset = divmod(bit, 64)
        self._know[origin_index, :, word] |= np.uint64(1 << offset)
        self._popcounts = None
        return rumor

    def seed_all_rumors(self) -> dict[NodeId, Rumor]:
        """Give every node its own rumor (the all-to-all starting condition).

        Seeded in label order, so rumor bit ``b`` originates at node index
        ``b`` — the invariant :meth:`all_to_all_complete_mask` relies on.
        The rumors that fit the current words register first; the first
        one past them grows the plane once, to its final width, so the
        memory guard weighs (and a refusal names) the whole plane.
        """
        labels = self._idx.labels
        fresh = sum(1 for node in labels if Rumor(origin=node) not in self._rumor_bit)
        words = -(-(len(self._rumors) + fresh) // 64)
        seeded = {}
        for node in labels:
            if words > self._words and len(self._rumors) == 64 * self._words:
                self._grow_plane(words)
            seeded[node] = self.seed_rumor(node)
        return seeded

    def _grow_plane(self, words: int) -> None:
        """Widen the knowledge plane to ``words`` uint64 words, if the guard allows.

        The one place the in-flight state changes layout: pending payloads
        (booleans or single words) become ``(k, words)`` rows and every
        tally gains the size levels of the new words.
        """
        self._check_memory(words=words, action=f"growing to {words * 64} rumor bits")
        pad = np.zeros(self._know.shape[:2] + (words - self._words,), dtype=np.uint64)
        self._know = np.concatenate([self._know, pad], axis=2)

        def widen(payload: np.ndarray) -> np.ndarray:
            wide = np.zeros((payload.shape[0], words), dtype=np.uint64)
            wide[:, : self._words] = payload.reshape(payload.shape[0], -1)
            return wide

        for completes_at, batches in self._due.items():
            self._due[completes_at] = [
                (lin_i, lin_j, widen(payload_i), widen(payload_j))
                for lin_i, lin_j, payload_i, payload_j in batches
            ]
        for completes_at, tally in self._tallies.items():
            wide = np.zeros(tally.shape[:2] + (_tally_width(words),), dtype=np.int64)
            wide[:, :, : tally.shape[2]] = tally
            self._tallies[completes_at] = wide
        self._words = words

    def track_curve(self, rumor: Rumor) -> None:
        """Record per-round informed counts of ``rumor`` during :meth:`run_batch`."""
        self._curve_rumor = rumor

    # ------------------------------------------------------------------
    # Completion predicates (one boolean per replication)
    # ------------------------------------------------------------------
    def informed_counts(self, rumor: Rumor) -> np.ndarray:
        """How many nodes know ``rumor`` in each replication (raw counts).

        Memoized per (round, rumor): the completion predicate and the curve
        recorder both ask every round, and the scan is a full pass over the
        knowledge tensor.
        """
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return np.zeros(self.reps, dtype=np.int64)
        cached = self._informed_cache
        if cached is not None and cached[0] == self.round and cached[1] == bit:
            return cached[2]
        word, offset = divmod(bit, 64)
        informed = (self._know[:, :, word] & np.uint64(1 << offset)) != 0
        counts = informed.sum(axis=0)
        self._informed_cache = (self.round, bit, counts)
        return counts

    def dissemination_complete_mask(self, rumor: Rumor) -> np.ndarray:
        """Per-replication: does every non-crashed node know ``rumor``?"""
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return np.zeros(self.reps, dtype=bool)
        if self._crashed_mask.any():
            word, offset = divmod(bit, 64)
            informed = (self._know[:, :, word] & np.uint64(1 << offset)) != 0
            survivors = ~self._crashed_mask
            return informed[survivors].sum(axis=0) == int(survivors.sum())
        return self.informed_counts(rumor) == self._idx.num_nodes

    def all_to_all_complete_mask(self) -> np.ndarray:
        """Per-replication: does every survivor know a rumor from every survivor?"""
        n = self._idx.num_nodes
        if len(self._seeded_origins) < n:
            return np.zeros(self.reps, dtype=bool)
        survivors = np.nonzero(~self._crashed_mask)[0]
        mask = np.zeros(self._words, dtype=np.uint64)
        np.bitwise_or.at(
            mask,
            survivors >> 6,
            np.uint64(1) << (survivors & np.int64(63)).astype(np.uint64),
        )
        satisfied = ((self._know & mask) == mask).all(axis=2)
        return satisfied[survivors].all(axis=0)

    # ------------------------------------------------------------------
    # SIR recovery (the "sir" gate: informed nodes forget after k rounds)
    # ------------------------------------------------------------------
    def _sir_ensure(self) -> None:
        """Initialize SIR state, marking currently-informed cells infected.

        Mirrors the single-run backends: the seeded source is marked at the
        current round (round 0 when the stop mask is first evaluated before
        any step), identically in every replication column.
        """
        if self._sir_infected_at is not None:
            return
        know_any = (self._know != 0).any(axis=2)  # (n, reps)
        self._sir_infected_at = np.where(know_any, self.round, -1).astype(np.int64)
        self._sir_recovered = np.zeros(know_any.shape, dtype=bool)

    def _sir_transition(self, forget_after: int) -> None:
        """Vectorized post-delivery SIR transition across live replications.

        Frozen (completed) replications are excluded — their columns stay
        at the state the matching sequential run stopped in.  Expiry and
        marking touch disjoint (node, rep) cells, so one pass suffices.
        """
        infected_at = self._sir_infected_at
        recovered = self._sir_recovered
        know_any = (self._know != 0).any(axis=2)
        alive = ~recovered
        if self._crashed_mask.any():
            alive &= ~self._crashed_mask[:, None]
        if not self._active.all():
            alive &= self._active[None, :]
        expire = alive & (infected_at >= 0) & (self.round - infected_at >= forget_after)
        if expire.any():
            recovered[expire] = True
            self._know[expire] = 0
            self._popcounts = None
            self._informed_cache = None
        mark = alive & (infected_at < 0) & know_any
        infected_at[mark] = self.round

    def sir_ever_complete_mask(self) -> np.ndarray:
        """Per-replication: has every survivor been infected at some point?"""
        self._sir_ensure()
        ever = self._sir_infected_at >= 0
        if self._crashed_mask.any():
            ever = ever[~self._crashed_mask]
        return ever.all(axis=0)

    def sir_quiescent_mask(self) -> np.ndarray:
        """Per-replication: has the rumor died out (no infected survivor,
        no infectious payload in flight)?"""
        self._sir_ensure()
        know_any = (self._know != 0).any(axis=2)
        if self._crashed_mask.any():
            know_any = know_any[~self._crashed_mask]
        quiescent = ~know_any.any(axis=0)
        if quiescent.any():
            # A pending exchange of nonzero size carries the rumor, whether
            # it will deliver or is suppressed.
            for tally in self._tallies.values():
                quiescent &= ~tally[:, :, 1:].any(axis=(1, 2))
        return quiescent

    def sir_stats(self) -> list[dict]:
        """Per-replication survivor-side SIR tallies (frozen at completion)."""
        self._sir_ensure()
        survivors = ~self._crashed_mask
        ever = (self._sir_infected_at >= 0)[survivors].sum(axis=0)
        recovered = self._sir_recovered[survivors].sum(axis=0)
        infected = (self._know != 0).any(axis=2)[survivors].sum(axis=0)
        return [
            {
                "ever_informed": int(ever[rep]),
                "recovered": int(recovered[rep]),
                "infected": int(infected[rep]),
            }
            for rep in range(self.reps)
        ]

    # ------------------------------------------------------------------
    # Fault events (node-crash / edge-fault, via the shared applier)
    # ------------------------------------------------------------------
    def _on_crash(self, i: int) -> None:
        """Mask a newly crashed node out of every replication column."""
        self._crashed_mask[i] = True
        self._mask_epoch += 1
        self._faults_fired = True
        self._slot_suppressed = None

    def _on_edge_fault(self, i: int, j: int) -> None:
        """Register a faulted edge as a pair of directed suppression keys."""
        self._dropped_keys = np.union1d(self._dropped_keys, [(i << 32) | j, (j << 32) | i])
        self._faults_fired = True
        self._slot_suppressed = None

    def _faulted(self, initiators: np.ndarray, responders: np.ndarray) -> np.ndarray:
        """Which exchanges between the index columns the fault masks suppress."""
        hit = self._crashed_mask[initiators] | self._crashed_mask[responders]
        if self._dropped_keys.size:
            keys = (initiators.astype(np.int64) << 32) | responders
            hit |= sorted_contains(self._dropped_keys, keys)
        return hit

    def _suppress_pending(self) -> None:
        """Move pending exchanges that new faults touch into the suppressed plane.

        One scan of the records per round in which faults fired; exchanges
        already suppressed or lost stay where they are.
        """
        self._pin_records()
        moved = []
        for record in self._records:
            pending = np.flatnonzero(record.round + record.values[record.ranks] >= self.round)
            pending = pending[record.planes_of(pending) == _DELIVERED]
            hit = pending[self._faulted(*record.pairs(pending))]
            if hit.size:
                moved.append((record.completes(hit), record.rep_of(hit), record.sizes[hit]))
                record.mark(hit, _SUPPRESSED)
        if moved:
            completes, reps, sizes = (np.concatenate(parts) for parts in zip(*moved))
            self._retally(completes, reps, np.full(reps.size, _DELIVERED), sizes, -1)
            self._retally(completes, reps, np.full(reps.size, _SUPPRESSED), sizes, 1)

    def _retally(self, completes, reps, planes, sizes, delta: int) -> None:
        """Add ``delta`` to the tally slot of every listed exchange."""
        for completes_at in np.unique(completes).tolist():
            at = completes == completes_at
            np.add.at(self._tallies[completes_at], (reps[at], planes[at], sizes[at]), delta)

    # ------------------------------------------------------------------
    # Topology changes (dynamics events and direct graph mutation)
    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        """Advance the round counter and bring the shared topology up to date."""
        self.round += 1
        severed: set = set()
        events_only = self.graph.version == self._graph_version
        if self.dynamics is not None:
            events = self.dynamics.events_for_round(self.round)
            if events:
                severed = apply_events(self.graph, events, self._fault_state)
        if self.graph.version != self._graph_version:
            self._resync_topology(severed, events_only)
        self._fault_state.replay()
        if self._faults_fired:
            self._faults_fired = False
            self._suppress_pending()

    def _resync_topology(self, severed: set, events_only: bool) -> None:
        """Re-snapshot the CSR core after the shared graph mutated.

        Same contract as the fast backend: node indices are stable (the
        universe only grows), latency-only changes keep every slot-indexed
        structure valid, and in-flight exchanges over severed or removed
        directed pairs are dropped and counted as lost per replication.
        """
        old = self._idx
        new = self.graph.indexed()
        structural, removed = resync_diff(old, new, severed, events_only)
        if not structural:
            # Latency-only change (e.g. drift): slots line up one-to-one.
            if removed:
                self._drop_pending_over(removed)
            self._idx = new
            self._latencies = np.asarray(new.latencies, dtype=np.int64)
            self._set_latency_ranks()
            self._graph_version = self.graph.version
            return
        if self._ledger is not None:
            self._ledger.resync(old, new)
        added = new.num_nodes - old.num_nodes
        if added:
            def _pad(array: np.ndarray, axis: int) -> np.ndarray:
                shape = list(array.shape)
                shape[axis] = added
                return np.concatenate([array, np.zeros(shape, dtype=array.dtype)], axis=axis)

            self._know = _pad(self._know, 0)
            if self._busy is not None:
                self._busy = _pad(self._busy, 1)
            if self._cursors is not None:
                self._cursors = _pad(self._cursors, 1)
            self._crashed_mask = _pad(self._crashed_mask, 0)
            if self._sir_infected_at is not None:
                self._sir_infected_at = np.concatenate(
                    [self._sir_infected_at, np.full((added, self.reps), -1, dtype=np.int64)]
                )
                self._sir_recovered = _pad(self._sir_recovered, 0)
        self._acting_cache = None
        # Records name exchanges by the retiring snapshot's slots: pin them
        # to index pairs before the slots die.
        self._pin_records()
        if removed:
            self._drop_pending_over(removed)
        self._idx = new
        self._load_csr()
        self._mask_epoch += 1
        self._graph_version = self.graph.version

    def _drop_pending_over(self, removed: set[tuple[int, int]]) -> None:
        """Drop in-flight exchanges travelling over removed directed pairs.

        The records see every pending exchange: they take the lost ones out
        of their tallies (either plane: a suppressed exchange that a resync
        cuts is lost) and free their blocked initiators, and
        ``drop_pending`` cuts the informative ones from the pipeline.
        """
        removed_keys = np.sort(
            np.fromiter(((i << 32) | j for i, j in removed), dtype=np.int64, count=len(removed))
        )
        reps = self.reps
        if self._due:
            lin_keys = removed_keys
            if reps > 1:  # the same pair in every replication's knowledge rows
                column = np.arange(reps, dtype=np.int64)
                first = (removed_keys >> 32)[:, None] * reps + column
                second = (removed_keys & np.int64(0xFFFFFFFF))[:, None] * reps + column
                lin_keys = np.sort(((first << 32) | second).ravel())
            drop_pending(self._due, lin_keys, self._idx.num_nodes * reps)
        rep_ids, initiators = self._untally_over(removed_keys)
        if self._busy is not None:
            self._busy[rep_ids, initiators] = 0
        # Completed replications' leftover exchanges are already drained in
        # spirit — only live replications pay for losses.
        lost = rep_ids[self._active[rep_ids]]
        if lost.size:
            self._lost += np.bincount(lost, minlength=reps)

    def _pin_records(self) -> None:
        """Turn every record's CSR slots into (initiator, responder) index pairs."""
        for record in self._records:
            if record.second is None:
                slots = record.first
                initiators = np.searchsorted(self._indptr, slots, side="right") - 1
                record.first = initiators.astype(slots.dtype)
                record.second = np.take(self._indices, slots).astype(slots.dtype)

    def _untally_over(self, removed_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Take every pending recorded exchange over a removed pair out of its tally.

        ``removed_keys`` are the sorted ``(i << 32) | j`` directed pair keys.
        Each pinned record is prefiltered by a "touched initiator" mask, so
        only candidates are looked up.  Returns the replication and the
        initiator of each exchange taken out; the records mark them lost,
        so a later resync cannot count them again.
        """
        self._pin_records()
        touched = np.zeros(self._idx.num_nodes, dtype=bool)
        touched[removed_keys >> 32] = True
        taken = []
        for record in self._records:
            hit = np.flatnonzero(touched[record.first])
            if not hit.size:
                continue
            initiators, responders = record.pairs(hit)
            planes = record.planes_of(hit)
            over = sorted_contains(removed_keys, (initiators << 32) | responders)
            over &= (record.completes(hit) >= self.round) & (planes != _LOST)
            if not over.any():
                continue
            hit = hit[over]
            taken.append(
                (record.completes(hit), record.rep_of(hit), planes[over], record.sizes[hit],
                 initiators[over])
            )
            record.mark(hit, _LOST)
        if not taken:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        completes, reps, planes, sizes, initiators = (np.concatenate(parts) for parts in zip(*taken))
        self._retally(completes, reps, planes, sizes, -1)
        return reps, initiators

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    def _deliver_due_exchanges(self) -> None:
        """Deliver every exchange whose latency has elapsed this round.

        The round's tally charges every exchange; then the informative ones
        merge into the knowledge plane, less those of replications that
        completed while they were in flight (the vectorized ``drain``) and
        those the fault masks suppress.
        """
        tally = self._tallies.pop(self.round, None)
        if tally is not None:
            self._count_tally(tally)
        if self._records:
            self._records = [record for record in self._records if record.last > self.round]
        batches = self._due.pop(self.round, None)
        if batches is None:
            return
        lin_i, lin_j, payload_i, payload_j = (
            batches[0] if len(batches) == 1 else map(np.concatenate, zip(*batches))
        )
        reps = self.reps
        kept = None
        if not self._active.all():
            kept = self._active[lin_i % reps]
        if self._crashed_mask.any() or self._dropped_keys.size:
            nodes_i, nodes_j = (lin_i, lin_j) if reps == 1 else (lin_i // reps, lin_j // reps)
            delivered = ~self._faulted(nodes_i, nodes_j)
            kept = delivered if kept is None else kept & delivered
        if kept is not None:
            if not kept.any():
                return
            lin_i, lin_j, payload_i, payload_j = (
                lin_i[kept], lin_j[kept], payload_i[kept], payload_j[kept]
            )
        know = self._know
        if self._popcounts is None:
            self._popcounts = np.bitwise_count(know).sum(axis=(0, 2), dtype=np.int64)
        before = self._popcounts
        rows = know.reshape(-1) if self._words == 1 else know.reshape(-1, self._words)
        if len(self._rumors) == 1:
            # One rumor: an informative exchange has exactly one informed
            # side, so the merge is a duplicate-safe constant scatter.
            # Under SIR, recovered cells ignore the payload.  (Keyed on the
            # rumor count, not on boolean payloads: one-bit entries an
            # earlier run left pending must OR into words that may already
            # hold later rumors.)
            sel_j = payload_i.astype(bool, copy=False)
            sel_i = payload_j.astype(bool, copy=False)
            if self._sir_infected_at is not None:
                rec_flat = self._sir_recovered.reshape(-1)
                sel_j = sel_j & ~rec_flat[lin_j]
                sel_i = sel_i & ~rec_flat[lin_i]
            one = np.uint64(1)
            rows[lin_j[sel_j]] = one
            rows[lin_i[sel_i]] = one
        else:
            np.bitwise_or.at(rows, lin_j, payload_i)
            np.bitwise_or.at(rows, lin_i, payload_j)
        after = np.bitwise_count(know).sum(axis=(0, 2), dtype=np.int64)
        self._deliveries += after - before
        self._popcounts = after
        if len(self._rumors) == 1:
            # Single-rumor runs: the post-merge popcount IS the round's
            # informed count per replication (initiations never change
            # knowledge), so the completion predicate and curve reuse it.
            self._informed_cache = (self.round, 0, after)

    def _count_tally(self, tally: np.ndarray) -> None:
        """Charge a completion round's tallied exchanges to the live replications.

        ``tally[rep, plane, size]`` counts the round's exchanges of each
        payload size.  Each delivered one sent two messages, the sizes add
        up to the payload sent, and the largest size present bounds the
        maximum payload; each suppressed one counts as suppressed.
        """
        if not self._active.all():
            tally[~self._active] = 0
        delivered = tally[:, 0]
        levels = np.arange(delivered.shape[1], dtype=np.int64)
        self._messages += 2 * delivered.sum(axis=1)
        self._payload_sent += delivered @ levels
        top = np.where(delivered != 0, levels, 0).max(axis=1)
        np.maximum(self._max_payload, top, out=self._max_payload)
        self._suppressed += tally[:, 1].sum(axis=1)

    def _step(self, policy: BatchPolicySpec) -> None:
        """Advance every active replication by one round.

        All per-round matrices are built over the *live* replication rows
        only (``active_rows``), so late rounds — where a handful of
        straggler replications are still running — cost proportionally to
        the stragglers, not to the full batch width.
        """
        self._begin_round()
        self._deliver_due_exchanges()
        if policy.gate == "sir":
            self._sir_transition(policy.forget_after)

        n = self._idx.num_nodes
        reps = self.reps
        degrees = self._degrees
        active_rows: Optional[np.ndarray] = None
        n_rows = reps
        if not self._active.all():
            active_rows = np.nonzero(self._active)[0]
            n_rows = active_rows.size
            if not n_rows:
                return
        if self._acting_buffer.shape != (reps, n):
            self._acting_buffer = np.empty((reps, n), dtype=bool)
            self._draw_buffer = np.zeros((reps, n))
        cacheable = policy.gate == "all" and not self.blocking
        cache_key = (self._mask_epoch, n_rows, n)
        cached = self._acting_cache
        if cacheable and cached is not None and cached[0] == cache_key:
            acting, rows_f, nodes_f = cached[1], cached[2], cached[3]
        else:
            acting = self._acting_buffer[:n_rows]
            acting[:] = True
            if self.blocking:
                busy = self._busy if active_rows is None else self._busy[active_rows]
                acting &= busy <= self.round
            if policy.gate == "sir":
                recovered = self._sir_recovered.T
                if active_rows is not None:
                    recovered = recovered[active_rows]
                acting &= ~recovered
            elif policy.gate != "all":
                informed = (self._know != 0).any(axis=2).T
                if active_rows is not None:
                    informed = informed[active_rows]
                acting &= informed if policy.gate == "informed-only" else ~informed
            if self._crashed_mask.any():
                acting &= ~self._crashed_mask[None, :]
            acting &= (degrees > 0)[None, :]
            rows_f, nodes_f = np.nonzero(acting)
            if cacheable:
                self._acting_cache = (cache_key, acting.copy(), rows_f, nodes_f)
                acting = self._acting_cache[1]

        if policy.select == "uniform-random":
            draws = self._draw_buffer[:n_rows]
            if active_rows is None:
                for rep, rng in enumerate(policy.rngs):
                    rng.random(out=draws[rep])
            else:
                rngs = policy.rngs
                for row, rep in enumerate(active_rows.tolist()):
                    rngs[rep].random(out=draws[row])
            offsets = uniform_slot_offsets(draws, degrees[None, :])
        else:
            if self._cursors is None:
                self._cursors = np.zeros((reps, n), dtype=np.int64)
            cursors = self._cursors if active_rows is None else self._cursors[active_rows]
            offsets = cursors % np.maximum(degrees, 1)[None, :]
            if active_rows is None:
                self._cursors += acting
            else:
                self._cursors[active_rows] += acting

        if not nodes_f.size:
            return
        reps_f = rows_f if active_rows is None else active_rows[rows_f]
        if nodes_f.size == offsets.size:
            # Everyone acts: the (row-major) nonzero order is exactly the
            # raveled matrix order, so skip the per-entry gathers.
            offsets += self._starts[None, :]
            slots_f = offsets.ravel()
        else:
            slots_f = self._starts[nodes_f] + offsets[rows_f, nodes_f]
        if self._ledger is not None:
            self._ledger.park(slots_f, reps_f)
        if cacheable:
            if self._acting_counts is None or self._acting_counts[0] != cache_key:
                self._acting_counts = (cache_key, acting.sum(axis=1))
            counts = self._acting_counts[1]
        else:
            counts = acting.sum(axis=1)
        if active_rows is None:
            self._activations += counts
        else:
            self._activations[active_rows] += counts
        ranks_f = np.take(self._latency_rank, slots_f)
        if self._busy is not None:
            self._busy[reps_f, nodes_f] = self.round + self._latency_values[ranks_f]
        self._initiate_tallied(slots_f, nodes_f, reps_f, ranks_f)

    def _initiate_tallied(
        self,
        slots_f: np.ndarray,
        nodes_f: np.ndarray,
        reps_f: np.ndarray,
        ranks_f: np.ndarray,
    ) -> None:
        """Tally a round's initiations and pipeline the informative ones.

        Every exchange, gathered in draw order, is counted by (latency,
        replication, plane, payload size) with one ``bincount`` and each
        latency's row lands in its completion round's tally; an exchange
        toward a crashed node or over a faulted edge goes to the suppressed
        plane.  Knowledge only grows (and a recovered SIR cell ignores
        payloads), so an exchange whose two snapshots are equal can change
        neither endpoint: only those that differ, and will deliver, are
        sorted by latency and carried to :meth:`_deliver_due_exchanges`.
        The round's record keeps every exchange's slot, latency, size and
        plane for a later resync or fault.
        """
        reps, words = self.reps, self._words
        responders_f = np.take(self._indices, slots_f)
        if reps == 1:
            lin_i, lin_j = nodes_f, responders_f
        else:
            lin_i = nodes_f * reps + reps_f
            lin_j = responders_f * reps + reps_f
        rows = self._know.reshape(-1) if words == 1 else self._know.reshape(-1, words)
        if self._bool_payloads:
            rows = rows != 0
        # One replication with every node acting: lin_i is arange(n).
        everyone = reps == 1 and lin_i.size == rows.shape[0]
        payload_i = rows if everyone else np.take(rows, lin_i, axis=0)
        payload_j = np.take(rows, lin_j, axis=0)
        if words == 1:
            if self._bool_payloads:
                sizes = payload_i.view(np.uint8) + payload_j.view(np.uint8)
            else:
                sizes = np.bitwise_count(payload_i) + np.bitwise_count(payload_j)
            informative = payload_i != payload_j
        else:
            sizes = np.bitwise_count(payload_i).sum(axis=1, dtype=np.int32)
            sizes += np.bitwise_count(payload_j).sum(axis=1, dtype=np.int32)
            informative = (payload_i != payload_j).any(axis=1)
        values = self._latency_values
        keys = ranks_f.astype(np.intp)
        if reps > 1:
            keys *= reps
            keys += reps_f
        planes, suppressed = 1, None
        if self._crashed_mask.any() or self._dropped_keys.size:
            if self._slot_suppressed is None:
                initiators = np.repeat(np.arange(self._idx.num_nodes), self._degrees)
                self._slot_suppressed = self._faulted(initiators, self._indices)
            suppressed = self._slot_suppressed[slots_f]
            if suppressed.any():
                planes = 2
                keys *= 2
                keys += suppressed
                informative &= ~suppressed
            else:
                suppressed = None
        levels = 2 * len(self._rumors) + 1
        keys *= levels
        keys += sizes
        counts = np.bincount(keys, minlength=values.size * reps * planes * levels)
        counts = counts.reshape(values.size, reps, planes, levels)
        present = np.flatnonzero(counts.any(axis=(1, 2, 3))).tolist()
        for rank in present:
            completes_at = self.round + int(values[rank])
            tally = self._tallies.get(completes_at)
            if tally is None:
                tally = self._tallies[completes_at] = np.zeros(
                    (reps, 2, _tally_width(words)), dtype=np.int64
                )
            tally[:, :planes, :levels] += counts[rank]
        # Kept columns hold slots and flattened indices: int32 where they fit.
        n_rows = self._know.shape[0] * reps
        index = np.int32 if max(self._indices.size, n_rows) < 2**31 else np.int64
        # Radix-sort the informative exchanges by latency code, so each
        # completion round files one contiguous slice of them.
        informative = np.flatnonzero(informative)
        informative = informative[np.argsort(ranks_f[informative], kind="stable")]
        ranks = ranks_f[informative]
        columns = (
            lin_i[informative].astype(index),
            lin_j[informative].astype(index),
            payload_i[informative],
            payload_j[informative],
        )
        bounds = (np.flatnonzero(np.diff(ranks)) + 1).tolist()
        for lo, hi in zip([0, *bounds], [*bounds, ranks.size]) if ranks.size else ():
            completes_at = self.round + int(values[ranks[lo]])
            self._due.setdefault(completes_at, []).append(tuple(part[lo:hi] for part in columns))
        self._records.append(
            _InitiationRecord(
                self.round,
                self.round + int(values[present[-1]]),
                slots_f.astype(index),
                ranks_f,
                values,
                sizes,
                None if suppressed is None else suppressed.astype(np.uint8),
                None if reps == 1 else np.cumsum(np.bincount(reps_f, minlength=reps)),
            )
        )

    def run_batch(
        self,
        policy: BatchPolicySpec,
        stop_mask: Callable[["BatchEngine"], np.ndarray],
        max_rounds: int = 1_000_000,
    ) -> list[SimulationMetrics]:
        """Run rounds until every replication satisfies ``stop_mask``.

        ``stop_mask`` maps the engine to a ``(reps,)`` boolean array; a
        replication whose entry turns true is frozen at the current round.
        Returns one :class:`~repro.simulation.metrics.SimulationMetrics`
        per replication, in replication order.  Raises ``RuntimeError`` if
        any replication fails to complete within ``max_rounds`` rounds,
        like the sequential backends.
        """
        if not isinstance(policy, BatchPolicySpec):
            raise TypeError(
                "BatchEngine runs BatchPolicySpec policies; see repro.simulation.protocol"
            )
        self._start(policy)
        if self._curve_rumor is not None:
            self._curve.append(self.informed_counts(self._curve_rumor))
        self._finish(np.asarray(stop_mask(self), dtype=bool))
        while self._active.any():
            if self.round >= max_rounds:
                raise RuntimeError(
                    f"simulation did not reach the stop condition within {max_rounds} rounds"
                )
            self._step(policy)
            self._finish(np.asarray(stop_mask(self), dtype=bool))
            if self._curve_rumor is not None:
                self._curve.append(self.informed_counts(self._curve_rumor))
        record = None if self._ledger is None else self._ledger.record(self._idx.labels)
        return [self._materialize_metrics(rep, record) for rep in range(self.reps)]

    def _start(self, policy: BatchPolicySpec) -> None:
        """Check ``policy`` against the engine and pick the payload layout.

        Run before the first round of a run (and, on the edge backend,
        before every step): payloads are booleans while the plane carries a
        single rumor in one word.
        """
        if policy.select == "uniform-random" and len(policy.rngs) != self.reps:
            raise ValueError(
                f"policy carries {len(policy.rngs)} replication rngs but the engine "
                f"runs {self.reps} replications"
            )
        if policy.gate == "sir":
            if len(self._rumors) != 1:
                raise ValueError(
                    "the 'sir' gate runs single-rumor (one-to-all) tasks only; "
                    f"{len(self._rumors)} rumors are seeded"
                )
            self._sir_ensure()
        self._bool_payloads = self._words == 1 and len(self._rumors) == 1

    def _drain(self) -> None:
        """Discard every in-flight exchange: pipeline, tallies and records."""
        self._due.clear()
        self._tallies.clear()
        self._records.clear()
        if self._busy is not None:
            self._busy.fill(0)

    def _finish(self, mask: np.ndarray) -> None:
        """Freeze replications whose stop predicate turned true this round."""
        newly = mask & self._active
        if newly.any():
            self._completion_round[newly] = self.round
            self._active &= ~mask
            self._mask_epoch += 1

    # ------------------------------------------------------------------
    # Per-replication materialization
    # ------------------------------------------------------------------
    def informed_curve(self, rep: int) -> list[int]:
        """The tracked rumor's informed counts per round for replication ``rep``.

        Entry ``k`` is the count after round ``k``'s deliveries and
        initiations (entry 0 is the seeded state); the curve is truncated
        at the replication's own completion round.
        """
        if self._curve_rumor is None:
            raise RuntimeError("no rumor was tracked; call track_curve() before run_batch()")
        end = int(self._completion_round[rep])
        points = self._curve if end < 0 else self._curve[: end + 1]
        return [int(counts[rep]) for counts in points]

    def _materialize_metrics(
        self, rep: int, record: Optional[EdgeActivations]
    ) -> SimulationMetrics:
        """Build the reference-format metrics object of one replication.

        Its ``edge_activations`` counter is built from ``record``, shared by
        every replication of the run, when it is first read (empty when
        activations are not tracked).
        """
        metrics = SimulationMetrics()
        completion = int(self._completion_round[rep])
        metrics.rounds = completion if completion >= 0 else self.round
        if completion >= 0:
            metrics.completion_time = float(completion)
        self._copy_counters(rep, metrics)
        if record is not None:
            # The final snapshot's zero-count edges are kept: Counter
            # equality (3.10+) treats them as absent.
            metrics.defer_edge_activations(record, rep)
        return metrics

    def _copy_counters(self, rep: int, metrics: SimulationMetrics) -> None:
        """Write replication ``rep``'s exchange counters into ``metrics``."""
        metrics.activations = int(self._activations[rep])
        metrics.messages = int(self._messages[rep])
        metrics.rumor_deliveries = int(self._deliveries[rep])
        metrics.payload_rumors_sent = int(self._payload_sent[rep])
        metrics.max_payload_size = int(self._max_payload[rep])
        metrics.lost_exchanges = int(self._lost[rep])
        metrics.suppressed_exchanges = int(self._suppressed[rep])
