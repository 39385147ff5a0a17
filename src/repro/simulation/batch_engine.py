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
* **latency gating** batches in-flight exchanges by completion round: one
  radix sort over each slot's latency code hands every completion round a
  contiguous slice, with payload snapshots gathered at initiation time.
  Static non-blocking single-word runs split this in two: a per-(completion
  round, replication) *tally* counts every exchange by payload size (all
  the message and payload counters need), and only the *informative*
  exchanges — whose two payload snapshots differ, the only ones that can
  change knowledge — are sorted and carried to delivery; a compact
  per-round record of every exchange lets a topology resync take lost
  ones back out of their tallies;
* **dynamics and faults** ride the existing shared applier: the one
  scenario-seeded schedule mutates the one shared graph (all replications
  see the same topology trajectory, by construction of the scenario seed
  derivation), and crash/edge-fault state applies as node/edge masks across
  every replication column.

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

Per-edge activation counters are kept while the CSR snapshot has at most
:data:`EDGE_ACTIVATION_SLOT_LIMIT` slots, decided once at construction;
above it the label-keyed counters would dwarf the vectorized round loop, so
runs that large report empty ``edge_activations``.

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

from collections import Counter
from collections.abc import Callable
from typing import Any, Optional

import numpy as np

from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from .dynamics import (
    ActivationLedger,
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

#: Above this many CSR slots, per-edge activation counters are not kept:
#: materializing a Counter keyed by label-pair reprs would dwarf the
#: vectorized round loop at million-node scale.
EDGE_ACTIVATION_SLOT_LIMIT = 2_000_000

#: Default memory budget for the engine's arrays (bytes).
DEFAULT_MEMORY_LIMIT = 4 * 1024**3

#: Payload-size levels of a static tally row: two one-word snapshots carry
#: 0..128 rumor bits between them.
_SIZE_LEVELS = 2 * 64 + 1


def _activation_buffer_size(n: int, reps: int) -> int:
    """Ring-buffer capacity: about 24 rounds of (node, rep) activations, within [2^16, 2^23]."""
    return min(8_388_608, max(65_536, 24 * n * reps))


class _InitiationRecord:
    """One static round's initiations, kept until its last exchange completes.

    ``first`` holds the round's CSR slots until a structural resync turns
    them into initiator indices (``second`` then holds the responders);
    ``ranks`` index ``values`` for each exchange's latency and ``sizes``
    hold its payload size, so a resync can find every pending exchange
    over a removed pair and take it back out of its tally.  Exchanges are
    in replication-major order, ``rep_counts`` of them per replication
    (``None`` at one replication).
    """

    __slots__ = ("round", "last", "first", "second", "ranks", "values", "sizes", "rep_counts")

    def __init__(self, round_: int, last: int, slots, ranks, values, sizes, rep_counts) -> None:
        self.round = round_
        self.last = last
        self.first = slots
        self.second: Optional[np.ndarray] = None
        self.ranks = ranks
        self.values = values
        self.sizes = sizes
        self.rep_counts = rep_counts

    def rep_ids(self) -> np.ndarray:
        """The replication of every exchange, in record order."""
        if self.rep_counts is None:
            return np.zeros(self.sizes.size, dtype=np.int64)
        return np.repeat(np.arange(self.rep_counts.size), self.rep_counts)

    def keep(self, kept: np.ndarray, rep_ids: np.ndarray) -> None:
        """Retain only the exchanges where the boolean ``kept`` holds."""
        self.first = self.first[kept]
        if self.second is not None:
            self.second = self.second[kept]
        self.ranks = self.ranks[kept]
        self.sizes = self.sizes[kept]
        if self.rep_counts is not None:
            self.rep_counts = np.bincount(rep_ids[kept], minlength=self.rep_counts.size)


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
        # contiguous.  Outstanding-exchange counts are only consulted by
        # the blocking rule, so they are tracked only when blocking is on.
        self._outstanding = np.zeros((reps, n), dtype=np.int64) if blocking else None
        self._cursors = np.zeros((reps, n), dtype=np.int64)
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
        # Edge-activation accounting (when tracked): each round's (edge, rep)
        # linear keys are appended to a fixed int32 ring buffer and folded
        # into the (edge, rep) count matrix by one bincount per buffer-full
        # (a scatter-add every round would touch the whole matrix every round).
        if self._track_activations:
            self._edge_counts = np.zeros((self._idx.num_edges, reps), dtype=np.int64)
            buffer_size = _activation_buffer_size(n, reps)
            self._act_slots = np.empty(buffer_size, dtype=np.int32)
            self._act_reps = np.empty(buffer_size, dtype=np.int32)
        self._act_fill = 0
        # Counts of edges retired by topology resyncs, keyed by index pair.
        self._ledger = ActivationLedger(reps)
        # Completion bookkeeping.
        self._active = np.ones(reps, dtype=bool)
        self._completion_round = np.full(reps, -1, dtype=np.int64)
        # In-flight exchanges, batched by completion round: each entry is
        # (initiator idx, responder idx, rep idx, payload_i, payload_j) —
        # or, on static non-blocking single-word runs, the informative
        # exchanges only, with the initiator and responder columns holding
        # flattened (node * reps + rep) indices so delivery can scatter
        # without recomputing them.  Those runs also keep every exchange's
        # (replication, payload size) count per completion round in
        # ``_tallies`` ((reps, _SIZE_LEVELS) rows) and one compact record
        # per in-flight initiation round in ``_records``.
        self._due: dict[int, list[tuple]] = {}
        self._tallies: dict[int, np.ndarray] = {}
        self._records: list[_InitiationRecord] = []
        self._lin_due = dynamics is None and not blocking
        self._lin_entries = False
        # Single-rumor static runs carry one-bit payloads; storing them as
        # booleans shrinks the in-flight pipeline's memory traffic 8x.
        self._bool_payloads = False
        # Fault state: label-based sets (shared applier) + index mirrors.
        self._fault_state = FaultMirror(self)
        self._crashed_mask = np.zeros(n, dtype=bool)
        self._dropped_keys = np.empty(0, dtype=np.int64)  # sorted directed pair keys
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
        if self._track_activations:
            self._slot_edge_ids = np.asarray(idx.slot_edge_id, dtype=np.int64)
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
        ``(E, reps)`` edge-count matrix and the two int32 activation ring
        buffers (zero when activations are not tracked), the ``(reps, n)``
        acting and draw buffers, and the worst-case in-flight pipeline —
        every (node, replication) keeps one exchange per round alive for up
        to the maximum edge latency, each carrying three index columns and
        two payload snapshots, plus (static runs) an 8-byte record share per
        exchange and one size-level tally row per replication and
        completion round.
        """
        n, reps = self._idx.num_nodes, self.reps
        max_latency = max(1, int(self._latencies.max()) if self._latencies.size else 1)
        tracked = self._track_activations
        estimate = {
            "knowledge": n * reps * words * 8,
            "edge-counts": self._idx.num_edges * reps * 8 if tracked else 0,
            "activation-buffers": _activation_buffer_size(n, reps) * 8 if tracked else 0,
            "round-buffers": reps * n * 9,
            "pipeline": n * reps * max_latency * (32 + 16 * words)
            + max_latency * reps * _SIZE_LEVELS * 8,
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
        """Widen the knowledge plane to ``words`` uint64 words, if the guard allows."""
        self._check_memory(words=words, action=f"growing to {words * 64} rumor bits")
        pad = np.zeros(self._know.shape[:2] + (words - self._words,), dtype=np.uint64)
        self._know = np.concatenate([self._know, pad], axis=2)
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
        if quiescent.any() and (self._due or self._tallies):
            inflight = np.zeros(self.reps, dtype=bool)
            # A tallied exchange of nonzero size carries the rumor.
            for tally in self._tallies.values():
                inflight |= tally[:, 1:].any(axis=1)
            for batches in self._due.values():
                for entry in batches:
                    if self._lin_entries:  # informative: one side knows the rumor
                        inflight[entry[0] % self.reps] = True
                        continue
                    rep_ids, payload_i, payload_j = entry[2], entry[3], entry[4]
                    if payload_i.dtype == np.bool_:
                        infectious = payload_i | payload_j
                    else:
                        infectious = (payload_i != 0) | (payload_j != 0)
                    if infectious.any():
                        inflight[rep_ids[infectious]] = True
            quiescent &= ~inflight
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

    def _on_edge_fault(self, i: int, j: int) -> None:
        """Register a faulted edge as a pair of directed suppression keys."""
        self._dropped_keys = np.union1d(self._dropped_keys, [(i << 32) | j, (j << 32) | i])

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
        if self._track_activations:
            self._fold_activations(old)
        added = new.num_nodes - old.num_nodes
        if added:
            def _pad(array: np.ndarray, axis: int) -> np.ndarray:
                shape = list(array.shape)
                shape[axis] = added
                return np.concatenate([array, np.zeros(shape, dtype=array.dtype)], axis=axis)

            self._know = _pad(self._know, 0)
            if self._outstanding is not None:
                self._outstanding = _pad(self._outstanding, 1)
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
        for record in self._records:
            if record.second is None:
                initiators, responders = self._record_pairs(record)
                record.first = initiators.astype(np.int32)
                record.second = responders.astype(np.int32)
        if removed:
            self._drop_pending_over(removed)
        self._idx = new
        self._load_csr()
        if self._track_activations:
            self._edge_counts = np.zeros((new.num_edges, self.reps), dtype=np.int64)
        self._mask_epoch += 1
        self._graph_version = self.graph.version

    def _drop_pending_over(self, removed: set[tuple[int, int]]) -> None:
        """Drop in-flight exchanges travelling over removed directed pairs.

        On static runs the records see every pending exchange, retired or
        informative: they take the lost ones out of their tallies and count
        them, and ``drop_pending`` only cuts the informative ones from the
        pipeline.  Elsewhere the pipeline holds every exchange and its cut
        is what gets counted.
        """
        stride = self.reps if self._lin_entries else 1
        dropped = drop_pending(self._due, removed, self._idx.num_nodes, stride)
        # Completed replications' leftover exchanges are already drained in
        # spirit — only live replications pay for losses.
        if self._lin_entries:
            rep_ids = self._untally_over(removed)
        elif dropped is None:
            return
        else:
            initiators, rep_ids = dropped[0], dropped[2]
            if self._outstanding is not None:  # blocking runs never use flattened columns
                np.subtract.at(self._outstanding, (rep_ids, initiators), 1)
        lost = rep_ids[self._active[rep_ids]]
        if lost.size:
            self._lost += np.bincount(lost, minlength=self.reps)

    def _record_pairs(self, record: _InitiationRecord) -> tuple[np.ndarray, np.ndarray]:
        """A record's (initiator, responder) index columns, as int64."""
        if record.second is None:  # CSR slots of the current snapshot
            slots = record.first.astype(np.int64)
            return np.searchsorted(self._indptr, slots, side="right") - 1, self._indices[slots]
        return record.first.astype(np.int64), record.second.astype(np.int64)

    def _untally_over(self, removed: set[tuple[int, int]]) -> np.ndarray:
        """Take every pending recorded exchange over ``removed`` out of its tally.

        Returns the replication of each exchange taken out; the records
        forget them, so a later resync cannot count them again.
        """
        if not self._records:
            return np.empty(0, dtype=np.int64)
        taken: list[np.ndarray] = []
        removed_keys = np.sort(
            np.fromiter(((i << 32) | j for i, j in removed), dtype=np.int64, count=len(removed))
        )
        for record in self._records:
            initiators, responders = self._record_pairs(record)
            completes = record.round + record.values[record.ranks]
            hit = (completes >= self.round) & sorted_contains(
                removed_keys, (initiators << 32) | responders
            )
            if not hit.any():
                continue
            rep_ids = record.rep_ids()
            hit_reps, hit_sizes, hit_rounds = rep_ids[hit], record.sizes[hit], completes[hit]
            for completes_at in np.unique(hit_rounds).tolist():
                at = hit_rounds == completes_at
                np.subtract.at(self._tallies[completes_at], (hit_reps[at], hit_sizes[at]), 1)
            taken.append(hit_reps)
            record.keep(~hit, rep_ids)
        return np.concatenate(taken) if taken else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Edge-activation accounting (only while activations are tracked)
    # ------------------------------------------------------------------
    def _record_activations(self, slots_f: np.ndarray, reps_f: np.ndarray) -> None:
        """Park one round's (slot, rep) activation pairs in the ring buffers.

        Parked slots reference the current CSR snapshot, so the buffers are
        always flushed before a snapshot swap (:meth:`_fold_activations`).
        """
        if self._act_fill + slots_f.size > self._act_slots.size:
            self._flush_activations()
        if slots_f.size > self._act_slots.size:  # pragma: no cover - huge single round
            linear = self._slot_edge_ids[slots_f] * self.reps + reps_f
            self._edge_counts += np.bincount(
                linear, minlength=self._idx.num_edges * self.reps
            ).reshape(self._edge_counts.shape)
            return
        self._act_slots[self._act_fill : self._act_fill + slots_f.size] = slots_f
        self._act_reps[self._act_fill : self._act_fill + slots_f.size] = reps_f
        self._act_fill += slots_f.size

    def _flush_activations(self) -> None:
        """Fold the parked activation pairs into the edge-count matrix."""
        if not self._act_fill:
            return
        linear = (
            self._slot_edge_ids[self._act_slots[: self._act_fill]] * self.reps
            + self._act_reps[: self._act_fill]
        )
        counts = np.bincount(linear, minlength=self._idx.num_edges * self.reps)
        self._edge_counts += counts.reshape(self._edge_counts.shape)
        self._act_fill = 0

    @staticmethod
    def _edge_pair_keys(idx) -> np.ndarray:
        """The index-pair key of every edge id of a CSR snapshot."""
        keys = np.empty(idx.num_edges, dtype=np.int64)
        keys[idx.slot_edge_id] = idx.slot_pair_keys()
        return keys

    def _fold_activations(self, idx) -> None:
        """Move a retiring snapshot's nonzero edge-count rows into the ledger."""
        self._flush_activations()
        rows = np.flatnonzero(self._edge_counts.any(axis=1))
        if rows.size:
            self._ledger.fold(self._edge_pair_keys(idx)[rows], self._edge_counts[rows])

    def _edge_activation_counters(self) -> list[Counter]:
        """One label-keyed activation counter per replication.

        Every edge of the live snapshot appears (even at zero), a retired
        edge only where its count is nonzero; the counters are empty when
        activations are not tracked.
        """
        if not self._track_activations:
            return [Counter() for _ in range(self.reps)]
        self._flush_activations()
        return self._ledger.counters(
            self._idx.labels, self._edge_pair_keys(self._idx), self._edge_counts
        )

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    @staticmethod
    def _concat_batches(batches: list[tuple]) -> tuple:
        """Concatenate a round's due batches column by column."""
        if len(batches) == 1:
            return batches[0]
        return tuple(np.concatenate(parts) for parts in zip(*batches))

    def _deliver_due_exchanges(self) -> None:
        """Deliver every exchange whose latency has elapsed this round.

        Exchanges belonging to replications that completed while the
        exchange was in flight are discarded here (the vectorized
        ``drain``); fault-suppressed exchanges count per replication.
        """
        tally = self._tallies.pop(self.round, None)
        if tally is not None:
            self._count_tally(tally)
        if self._records:
            self._records = [record for record in self._records if record.last > self.round]
        batches = self._due.pop(self.round, None)
        if batches is None:
            return
        columns = self._concat_batches(batches)
        if self._lin_entries:
            self._deliver_linear(*columns)
            return
        initiators, responders, rep_ids, payload_i, payload_j = columns
        if self._outstanding is not None:
            np.subtract.at(self._outstanding, (rep_ids, initiators), 1)
            if (self._outstanding < 0).any():
                raise RuntimeError(
                    "outstanding-exchange underflow: an exchange completed that was "
                    "never accounted as initiated"
                )
        if not self._active.all():
            alive = self._active[rep_ids]
            if not alive.any():
                return
            if not alive.all():
                initiators = initiators[alive]
                responders = responders[alive]
                rep_ids = rep_ids[alive]
                payload_i = payload_i[alive]
                payload_j = payload_j[alive]
        if self._crashed_mask.any() or self._dropped_keys.size:
            suppressed = self._crashed_mask[initiators] | self._crashed_mask[responders]
            if self._dropped_keys.size:
                suppressed |= sorted_contains(self._dropped_keys, (initiators << 32) | responders)
            if suppressed.any():
                self._suppressed += np.bincount(rep_ids[suppressed], minlength=self.reps)
                delivered = ~suppressed
                initiators = initiators[delivered]
                responders = responders[delivered]
                rep_ids = rep_ids[delivered]
                payload_i = payload_i[delivered]
                payload_j = payload_j[delivered]
                if not initiators.size:
                    return
        know = self._know
        if self._popcounts is None:
            self._popcounts = np.bitwise_count(know).sum(axis=(0, 2), dtype=np.int64)
        before = self._popcounts
        # Under SIR, recovered (node, rep) cells ignore the payload (the
        # exchange still completes and is charged) — a recovered cell must
        # never re-enter the knowledge tensor.
        rec_flat = (
            self._sir_recovered.reshape(-1) if self._sir_infected_at is not None else None
        )
        if self._words == 1:
            flat = know.reshape(-1)
            if len(self._rumors) == 1:
                # Single-rumor runs carry one-bit payloads, so the OR-merge
                # degenerates to a duplicate-safe constant scatter.
                one = np.uint64(1)
                lin_j = responders * self.reps + rep_ids
                lin_i = initiators * self.reps + rep_ids
                sel_j = payload_i != 0
                sel_i = payload_j != 0
                if rec_flat is not None:
                    sel_j &= ~rec_flat[lin_j]
                    sel_i &= ~rec_flat[lin_i]
                flat[lin_j[sel_j]] = one
                flat[lin_i[sel_i]] = one
                sizes = (payload_i + payload_j).astype(np.int64)
            else:
                np.bitwise_or.at(flat, responders * self.reps + rep_ids, payload_i)
                np.bitwise_or.at(flat, initiators * self.reps + rep_ids, payload_j)
                sizes = (np.bitwise_count(payload_i) + np.bitwise_count(payload_j)).astype(
                    np.int64
                )
        else:
            np.bitwise_or.at(know, (responders, rep_ids), payload_i)
            np.bitwise_or.at(know, (initiators, rep_ids), payload_j)
            sizes = (
                np.bitwise_count(payload_i).sum(axis=1, dtype=np.int64)
                + np.bitwise_count(payload_j).sum(axis=1, dtype=np.int64)
            )
        self._messages += 2 * np.bincount(rep_ids, minlength=self.reps)
        self._payload_sent += np.bincount(rep_ids, weights=sizes, minlength=self.reps).astype(
            np.int64
        )
        if sizes.size and int(sizes.max()) > int(self._max_payload.min()):
            np.maximum.at(self._max_payload, rep_ids, sizes)
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

        ``tally[rep, size]`` counts the round's exchanges of each payload
        size: each sent two messages, the sizes add up to the payload sent,
        and the largest size present bounds the maximum payload.
        """
        if not self._active.all():
            tally[~self._active] = 0
        levels = np.arange(_SIZE_LEVELS, dtype=np.int64)
        self._messages += 2 * tally.sum(axis=1)
        self._payload_sent += tally @ levels
        top = np.where(tally != 0, levels, 0).max(axis=1)
        np.maximum(self._max_payload, top, out=self._max_payload)

    def _deliver_linear(
        self, lin_i: np.ndarray, lin_j: np.ndarray, payload_i: np.ndarray, payload_j: np.ndarray
    ) -> None:
        """Merge a round's informative static exchanges into the knowledge plane.

        Static non-blocking single-word runs only: no dynamics means no
        faults and no outstanding bookkeeping, and the round's tally has
        already charged every exchange's messages and payload, so this
        only scatters the payloads (the entries carry flattened knowledge
        indices) and takes the popcount delta.
        """
        if not self._active.all():
            alive = self._active[lin_i % self.reps]
            if not alive.any():
                return
            if not alive.all():
                lin_i = lin_i[alive]
                lin_j = lin_j[alive]
                payload_i = payload_i[alive]
                payload_j = payload_j[alive]
        know = self._know
        if self._popcounts is None:
            self._popcounts = np.bitwise_count(know).sum(axis=(0, 2), dtype=np.int64)
        before = self._popcounts
        flat = know.reshape(-1)
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
            flat[lin_j[sel_j]] = one
            flat[lin_i[sel_i]] = one
        else:
            np.bitwise_or.at(flat, lin_j, payload_i)
            np.bitwise_or.at(flat, lin_i, payload_j)
        after = np.bitwise_count(know).sum(axis=(0, 2), dtype=np.int64)
        self._deliveries += after - before
        self._popcounts = after
        if len(self._rumors) == 1:
            self._informed_cache = (self.round, 0, after)

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
                outstanding = (
                    self._outstanding if active_rows is None else self._outstanding[active_rows]
                )
                acting &= outstanding == 0
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
        if self._outstanding is not None:
            if active_rows is None:
                self._outstanding += acting
            else:
                self._outstanding[active_rows] += acting
        if self._track_activations:
            self._record_activations(slots_f, reps_f)
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
        if self._lin_entries:
            self._initiate_tallied(slots_f, nodes_f, reps_f, ranks_f)
            return
        # Group the round's initiations by latency with one radix sort, then
        # hand each completion round a contiguous slice (payloads are
        # gathered in sorted order, so the slices alias one snapshot block).
        order = np.argsort(ranks_f, kind="stable")
        nodes_s = nodes_f[order]
        reps_s = reps_f[order]
        ranks_s = ranks_f[order]
        responders_s = self._indices[slots_f[order]]
        if self._words == 1:
            flat = self._know.reshape(-1)
            payload_i = flat[nodes_s * reps + reps_s]
            payload_j = flat[responders_s * reps + reps_s]
        else:
            payload_i = self._know[nodes_s, reps_s]
            payload_j = self._know[responders_s, reps_s]
        self._enqueue(ranks_s, (nodes_s, responders_s, reps_s, payload_i, payload_j))

    def _enqueue(self, ranks: np.ndarray, columns: tuple) -> None:
        """File latency-sorted exchange columns under their completion rounds."""
        boundaries = np.flatnonzero(np.diff(ranks)) + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), ranks.size]
        values = self._latency_values
        for lo, hi in zip(starts, ends):
            completes_at = self.round + int(values[ranks[lo]])
            self._due.setdefault(completes_at, []).append(tuple(part[lo:hi] for part in columns))

    def _initiate_tallied(
        self,
        slots_f: np.ndarray,
        nodes_f: np.ndarray,
        reps_f: np.ndarray,
        ranks_f: np.ndarray,
    ) -> None:
        """Tally a static round's initiations and pipeline the informative ones.

        Every exchange, gathered in draw order, is counted by (latency,
        replication, payload size) with one ``bincount`` and each latency's
        row lands in its completion round's tally.  Knowledge only grows
        (and a recovered SIR cell ignores payloads), so an exchange whose
        two snapshots are equal can change neither endpoint: only those
        that differ are sorted by latency and carried to
        :meth:`_deliver_linear`.  The round's record keeps every exchange's
        slot, latency and size for a later resync.
        """
        reps = self.reps
        responders_f = np.take(self._indices, slots_f)
        if reps == 1:
            lin_i, lin_j = nodes_f, responders_f
        else:
            lin_i = nodes_f * reps + reps_f
            lin_j = responders_f * reps + reps_f
        flat = self._know.reshape(-1)
        if self._bool_payloads:
            flat = flat != 0
        # One replication with every node acting: lin_i is arange(n).
        payload_i = flat if reps == 1 and lin_i.size == flat.size else np.take(flat, lin_i)
        payload_j = np.take(flat, lin_j)
        if self._bool_payloads:
            sizes = payload_i.view(np.uint8) + payload_j.view(np.uint8)
            levels = 3
        else:
            sizes = np.bitwise_count(payload_i) + np.bitwise_count(payload_j)
            levels = 2 * min(64, len(self._rumors)) + 1
        values = self._latency_values
        keys = ranks_f.astype(np.intp)
        if reps > 1:
            keys *= reps
            keys += reps_f
        keys *= levels
        keys += sizes
        counts = np.bincount(keys, minlength=values.size * reps * levels)
        counts = counts.reshape(values.size, reps, levels)
        present = np.flatnonzero(counts.any(axis=(1, 2))).tolist()
        for rank in present:
            completes_at = self.round + int(values[rank])
            tally = self._tallies.get(completes_at)
            if tally is None:
                tally = self._tallies[completes_at] = np.zeros(
                    (reps, _SIZE_LEVELS), dtype=np.int64
                )
            tally[:, :levels] += counts[rank]
        # Kept columns hold slots and flattened indices: int32 where they fit.
        index = np.int32 if max(self._indices.size, self._know.size) < 2**31 else np.int64
        informative = np.flatnonzero(payload_i != payload_j)
        if informative.size:
            informative = informative[np.argsort(ranks_f[informative], kind="stable")]
            self._enqueue(
                ranks_f[informative],
                (
                    lin_i[informative].astype(index),
                    lin_j[informative].astype(index),
                    payload_i[informative],
                    payload_j[informative],
                ),
            )
        self._records.append(
            _InitiationRecord(
                self.round,
                self.round + int(values[present[-1]]),
                slots_f.astype(index),
                ranks_f,
                values,
                sizes,
                None if reps == 1 else np.bincount(reps_f, minlength=reps),
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
        counters = self._edge_activation_counters()
        return [self._materialize_metrics(rep, counters[rep]) for rep in range(self.reps)]

    def _start(self, policy: BatchPolicySpec) -> None:
        """Check ``policy`` against the engine and fix the delivery layout.

        Run before the first round of a run (and, on the edge backend,
        before every step): the flattened due columns and boolean payloads
        apply while the knowledge plane is one word wide (and, for the
        payloads, carries a single rumor).
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
        self._lin_entries = self._lin_due and self._words == 1
        self._bool_payloads = self._lin_entries and len(self._rumors) == 1

    def _drain(self) -> None:
        """Discard every in-flight exchange: pipeline, tallies and records."""
        self._due.clear()
        self._tallies.clear()
        self._records.clear()

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

    def _materialize_metrics(self, rep: int, edge_activations: Counter) -> SimulationMetrics:
        """Build the reference-format metrics object of one replication.

        ``edge_activations`` is the replication's label-keyed counter, built
        for every replication at once in :meth:`run_batch`.
        """
        metrics = SimulationMetrics()
        completion = int(self._completion_round[rep])
        metrics.rounds = completion if completion >= 0 else self.round
        if completion >= 0:
            metrics.completion_time = float(completion)
        self._copy_counters(rep, metrics)
        # The final snapshot's zero-count edges are kept: Counter equality
        # (3.10+) treats them as absent.
        metrics.edge_activations = edge_activations
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
