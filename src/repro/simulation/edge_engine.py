"""Edge-vectorized single-run backend: one round as sparse array ops.

:class:`EdgeEngine` is the third point in the backend design space.  The
fast backend runs a single replication with a per-node Python loop; the
batch backend vectorizes *across replications* (R columns of one
scenario); this engine vectorizes a **single run across the whole edge
set**, so one 10^6-node trajectory runs at numpy speed instead of being
capped by the per-node sweep:

* **partner choice** draws one uniform vector ``rng.random(n)`` per round
  and maps it to CSR slots through the shared
  :func:`~repro.simulation.rng.uniform_slot_offsets` helper — the identical
  draw-and-map a numpy-mode :class:`~repro.simulation.fast_engine.FastEngine`
  performs, which is what makes an edge run **bit-for-bit equal** to the
  sequential numpy-mode run with the same generator (see the parity
  contract below);
* **latency gating** groups each round's initiations by completion round
  with one radix-friendly stable argsort over an ``int16`` latency key (the
  batch backend's block scheme), handing every completion round a
  contiguous slice with payloads snapshotted at initiation time;
* **knowledge** is a flat ``(n, words)`` uint64 bitplane — deliveries merge
  with ``np.bitwise_or.at`` (or a duplicate-safe constant scatter in the
  single-rumor case) and rumor-delivery counts fall out of popcount deltas;
* **dynamics and faults** ride the existing shared applier: crash and
  edge-fault state applies as a node mask and a directed-pair key set, and
  topology resyncs follow the same stable-node-index contract as the other
  backends, so churn/drift/crash/drop scenarios work unchanged.

Parity contract
---------------
A single run on ``engine="edge"`` uses the numpy generator seeded
``derive_seed(seed, "rep", 0)`` and reproduces, bit for bit, replication 0
of the same scenario run with ``reps=1`` on ``engine="fast"`` (and hence
column 0 of the batch backend): same completion round, same exchange /
message / delivery counts, same per-edge activation counters (tracked by
default up to :data:`EDGE_ACTIVATION_SLOT_LIMIT` CSR slots).

Memory guard
------------
The engine estimates its array footprint up front (knowledge plane + CSR
arrays + worst-case in-flight pipeline) and raises
:class:`~repro.simulation.protocol.SimulationError` with the estimate
instead of OOM-ing — most importantly for all-to-all seeding, whose
knowledge plane is ``n^2/8`` bytes.

The engine registers itself as the ``"edge"`` backend; ``engine="auto"``
picks it for declarative single runs on graphs with at least
``EDGE_AUTO_NODE_THRESHOLD`` nodes (see
:func:`repro.simulation.protocol.resolve_backend`).
"""

from __future__ import annotations

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
    sorted_contains,
)
from .messages import Rumor
from .metrics import SimulationMetrics
from .protocol import RoundPolicySpec, SimulationError, register_engine
from .rng import is_numpy_generator, uniform_slot_offsets

__all__ = ["EdgeEngine", "EDGE_ACTIVATION_SLOT_LIMIT"]

#: Above this many CSR slots, per-edge activation counters are skipped by
#: default: materializing a Counter keyed by label-pair reprs would dwarf
#: the vectorized round loop at million-node scale.
EDGE_ACTIVATION_SLOT_LIMIT = 2_000_000

#: Default memory budget for the engine's arrays (bytes).
DEFAULT_MEMORY_LIMIT = 4 * 1024**3


def check_footprint(
    estimate: dict[str, int], limit: int, refusal: str, subject: str, remedy: str
) -> None:
    """Raise :class:`SimulationError` when ``estimate["total"]`` exceeds ``limit``.

    The message names every term of the estimate in GiB, so a refused run
    says which array would not fit.
    """
    if estimate["total"] <= limit:
        return
    detail = ", ".join(
        f"{key}={value / 1024**3:.2f} GiB" for key, value in estimate.items() if key != "total"
    )
    raise SimulationError(
        f"{refusal}: estimated footprint {estimate['total'] / 1024**3:.2f} GiB ({detail}) "
        f"for {subject} exceeds the {limit / 1024**3:.2f} GiB memory limit; {remedy}"
    )


@register_engine("edge")
class EdgeEngine:
    """Single-run backend vectorized across the edge set.

    Parameters
    ----------
    graph:
        The network.  Dynamics events mutate it like the other backends.
    blocking:
        If true, a node with an in-flight exchange skips its turn until the
        exchange completes.
    dynamics:
        Optional :class:`~repro.simulation.dynamics.TopologyDynamics`
        applied at the start of every round.
    track_edge_activations:
        Force per-edge activation counting on or off; ``None`` (default)
        enables it while the CSR slot count stays within
        :data:`EDGE_ACTIVATION_SLOT_LIMIT`.
    memory_limit:
        Byte budget for the engine's arrays; exceeding the up-front
        estimate raises :class:`~repro.simulation.protocol.SimulationError`
        instead of thrashing into the OOM killer.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        blocking: bool = False,
        dynamics: Optional[TopologyDynamics] = None,
        track_edge_activations: Optional[bool] = None,
        memory_limit: int = DEFAULT_MEMORY_LIMIT,
    ) -> None:
        if graph.num_nodes == 0:
            raise GraphError("cannot simulate on an empty graph")
        self.graph = graph
        self.blocking = blocking
        self.dynamics = dynamics
        self.metrics = SimulationMetrics()
        self.round = 0
        self._idx = graph.indexed()
        self._graph_version = graph.version
        self._memory_limit = memory_limit
        self._load_csr()
        n = self._idx.num_nodes
        if track_edge_activations is None:
            track_edge_activations = self._indices.size <= EDGE_ACTIVATION_SLOT_LIMIT
        self._track_activations = track_edge_activations
        self._words = 1
        self._check_memory(words=1, action="constructing the engine")
        self._know = np.zeros((n, 1), dtype=np.uint64)
        self._outstanding = np.zeros(n, dtype=np.int64) if blocking else None
        self._cursors = np.zeros(n, dtype=np.int64)
        # Rumor registry: bit index <-> Rumor, plus each bit's origin index.
        self._rumors: list[Rumor] = []
        self._rumor_bit: dict[Rumor, int] = {}
        self._bit_origin: list[int] = []
        self._seeded_origins: set[int] = set()
        # In-flight exchanges, batched by completion round; each entry is
        # (initiators, responders, payload_i, payload_j) array columns.
        self._due: dict[int, list[tuple]] = {}
        # Fault state: label-based sets (shared applier) + index mirrors.
        self._fault_state = FaultMirror(self)
        self._crashed_mask = np.zeros(n, dtype=bool)
        self._dropped_keys = np.empty(0, dtype=np.int64)  # sorted directed pair keys
        # Edge-activation accounting (FastEngine-compatible): per-slot
        # counts plus a one-column ledger for slots retired by resyncs.
        self._slot_counts = (
            np.zeros(self._indices.size, dtype=np.int64) if track_edge_activations else None
        )
        self._ledger = ActivationLedger(1)
        # SIR recovery state, initialized lazily on first contact with the
        # "sir" gate (a step under it, or one of the sir_* predicates).
        self._sir_infected_at: Optional[np.ndarray] = None  # (n,) int64, -1 = never
        self._sir_recovered: Optional[np.ndarray] = None  # (n,) bool
        # Memoized informed counts / popcount of the knowledge plane.
        self._informed_cache: Optional[tuple[int, int, int]] = None
        self._popcount: Optional[int] = None

    # ------------------------------------------------------------------
    # CSR snapshots and the memory guard
    # ------------------------------------------------------------------
    def _load_csr(self) -> None:
        """Bind the current IndexedGraph snapshot's numpy-native arrays."""
        idx = self._idx
        self._indptr = idx.indptr
        self._indices = idx.indices
        self._latencies = idx.latencies
        self._degrees = np.diff(self._indptr)
        self._starts = self._indptr[:-1]
        self._set_latency_sortkey()

    def _set_latency_sortkey(self) -> None:
        """Build the radix-sortable latency copy for per-round grouping."""
        if self._latencies.size and int(self._latencies.max()) < 32767:
            self._latencies_sortkey = self._latencies.astype(np.int16)
        else:  # pragma: no cover - latencies this large do not occur in the suite
            self._latencies_sortkey = self._latencies

    def _estimate_bytes(self, words: int) -> dict[str, int]:
        """Estimate the engine's array footprint at ``words`` knowledge words.

        Three dominant terms: the ``(n, words)`` uint64 knowledge plane, the
        CSR arrays (four int64 planes plus the int16 sort key and the
        activation counts), and the worst-case in-flight pipeline — every
        node keeps one exchange per round alive for up to the maximum edge
        latency, each carrying two index columns and two payload snapshots.
        """
        n = self._idx.num_nodes
        slots = int(self._indices.size)
        know = n * words * 8
        csr = slots * (8 * 4 + 2) + (n + 1) * 8 + (slots * 8 if self._track_activations else 0)
        max_latency = int(self._latencies.max()) if slots else 1
        pipeline = n * max(1, max_latency) * (16 + 16 * words)
        return {"knowledge": know, "csr": csr, "pipeline": pipeline, "total": know + csr + pipeline}

    def _check_memory(self, words: int, action: str) -> None:
        """Raise :class:`SimulationError` when the estimate exceeds the limit."""
        check_footprint(
            self._estimate_bytes(words),
            self._memory_limit,
            f"edge backend refuses {action}",
            f"n={self._idx.num_nodes}, {words * 64} rumor bits",
            "lower n, seed fewer rumors (all-to-all needs n^2/8 bytes), "
            "or raise EdgeEngine(memory_limit=...)",
        )

    @property
    def num_nodes(self) -> int:
        """Current number of nodes in the simulated snapshot."""
        return self._idx.num_nodes

    # ------------------------------------------------------------------
    # Seeding knowledge
    # ------------------------------------------------------------------
    def _ensure_words(self, words: int) -> None:
        """Grow the knowledge plane to ``words`` uint64 columns (guarded)."""
        if words <= self._words:
            return
        self._check_memory(words=words, action=f"growing to {words * 64} rumor bits")
        pad = np.zeros((self._know.shape[0], words - self._words), dtype=np.uint64)
        self._know = np.concatenate([self._know, pad], axis=1)
        self._words = words

    def seed_rumor(self, origin: NodeId, payload: Any = None) -> Rumor:
        """Give ``origin`` a fresh rumor and return it."""
        origin_index = self._idx.index.get(origin)
        if origin_index is None:
            raise GraphError(f"node {origin!r} is not in the simulated graph")
        rumor = Rumor(origin=origin, payload=payload)
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            bit = len(self._rumors)
            self._rumor_bit[rumor] = bit
            self._rumors.append(rumor)
            self._bit_origin.append(origin_index)
            self._seeded_origins.add(origin_index)
            if bit >= self._words * 64:
                self._ensure_words(self._words + 1)
        word, offset = divmod(bit, 64)
        self._know[origin_index, word] |= np.uint64(1 << offset)
        self._popcount = None
        self._informed_cache = None
        return rumor

    def seed_all_rumors(self) -> dict[NodeId, Rumor]:
        """Give every node its own rumor (the all-to-all starting condition).

        Seeded in label order, so rumor bit ``b`` originates at node index
        ``b`` — the identity the vectorized all-to-all and local-broadcast
        predicates rely on.  The knowledge plane is grown once up front so
        the memory guard fires before any per-node work.
        """
        n = self._idx.num_nodes
        self._ensure_words(max(1, -(-n // 64)))
        return {node: self.seed_rumor(node) for node in self._idx.labels}

    # ------------------------------------------------------------------
    # Queries and completion predicates
    # ------------------------------------------------------------------
    def rumors_known(self, node: NodeId) -> set[Rumor]:
        """The set of rumors ``node`` currently knows (materialized)."""
        row = self._know[self._idx.index[node]]
        known: set[Rumor] = set()
        for word in range(self._words):
            bits = int(row[word])
            while bits:
                low = bits & -bits
                bits ^= low
                known.add(self._rumors[word * 64 + low.bit_length() - 1])
        return known

    def informed_nodes(self, rumor: Rumor) -> set[NodeId]:
        """The set of nodes currently knowing ``rumor``."""
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return set()
        word, offset = divmod(bit, 64)
        informed = (self._know[:, word] & np.uint64(1 << offset)) != 0
        labels = self._idx.labels
        return {labels[i] for i in np.nonzero(informed)[0].tolist()}

    def _informed_count(self, bit: int) -> int:
        """Memoized per-(round, bit) count of nodes knowing rumor ``bit``."""
        cached = self._informed_cache
        if cached is not None and cached[0] == self.round and cached[1] == bit:
            return cached[2]
        word, offset = divmod(bit, 64)
        count = int(((self._know[:, word] & np.uint64(1 << offset)) != 0).sum())
        self._informed_cache = (self.round, bit, count)
        return count

    def dissemination_complete(self, rumor: Rumor) -> bool:
        """Whether every non-crashed node knows ``rumor``."""
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return False
        if self._crashed_mask.any():
            word, offset = divmod(bit, 64)
            informed = (self._know[:, word] & np.uint64(1 << offset)) != 0
            return bool(informed[~self._crashed_mask].all())
        return self._informed_count(bit) == self._idx.num_nodes

    def all_to_all_complete(self) -> bool:
        """Whether every survivor knows a rumor from every survivor."""
        n = self._idx.num_nodes
        if len(self._seeded_origins) < n:
            return False
        survivors = np.nonzero(~self._crashed_mask)[0]
        mask = np.zeros(self._words, dtype=np.uint64)
        np.bitwise_or.at(
            mask,
            survivors >> 6,
            np.uint64(1) << (survivors & np.int64(63)).astype(np.uint64),
        )
        satisfied = (self._know & mask) == mask
        return bool(satisfied.all(axis=1)[survivors].all())

    def local_broadcast_complete(self) -> bool:
        """Whether every node knows each current neighbour's rumor.

        Fast path: after :meth:`seed_all_rumors` rumor bit ``b`` originates
        at node index ``b``, so the predicate is one gather over the CSR
        slots.  Other seedings fall back to a per-rumor origin scan.
        """
        n = self._idx.num_nodes
        indices = self._indices
        if not indices.size:
            return True
        src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        identity = len(self._rumors) == n and all(
            origin == bit for bit, origin in enumerate(self._bit_origin)
        )
        if identity:
            seen = self._know
        else:
            seen = np.zeros((n, max(1, -(-n // 64))), dtype=np.uint64)
            for bit, origin in enumerate(self._bit_origin):
                word, offset = divmod(bit, 64)
                knowers = (self._know[:, word] & np.uint64(1 << offset)) != 0
                seen[knowers, origin >> 6] |= np.uint64(1 << (origin & 63))
        needed = (seen[src, indices >> np.int64(6)] >> (indices & np.int64(63)).astype(np.uint64)) & np.uint64(1)
        return bool(needed.all())

    # ------------------------------------------------------------------
    # SIR recovery (the "sir" gate: informed nodes forget after k rounds)
    # ------------------------------------------------------------------
    def _sir_ensure(self) -> None:
        """Initialize SIR state, marking currently-informed nodes infected.

        Called by the sir_* predicates (evaluated before the first step, so
        the seeded source is marked at round 0) and by :meth:`step` before
        the round counter advances — both entry paths mark at the same
        round, matching the fast backend.
        """
        if self._sir_infected_at is not None:
            return
        know_any = (self._know != 0).any(axis=1)
        self._sir_infected_at = np.where(know_any, self.round, -1).astype(np.int64)
        self._sir_recovered = np.zeros(self._idx.num_nodes, dtype=bool)

    def _sir_transition(self, forget_after: int) -> None:
        """Vectorized post-delivery SIR transition for the current round.

        Expiry (infected survivors whose age reached ``forget_after``
        recover and their knowledge rows are cleared) and marking (nodes
        that first learned this round record the current round) touch
        disjoint node sets, so one pass needs no ordering care.
        """
        infected_at = self._sir_infected_at
        recovered = self._sir_recovered
        know_any = (self._know != 0).any(axis=1)
        alive = ~recovered
        if self._crashed_mask.any():
            alive &= ~self._crashed_mask
        expire = alive & (infected_at >= 0) & (self.round - infected_at >= forget_after)
        if expire.any():
            recovered[expire] = True
            self._know[expire] = 0
            self._popcount = None
            self._informed_cache = None
        mark = alive & (infected_at < 0) & know_any
        infected_at[mark] = self.round

    def _sir_infected_survivors(self) -> int:
        """Survivor-side count of currently infected (knowing) nodes."""
        if not self._rumors:
            return 0
        if self._crashed_mask.any():
            knowing = (self._know != 0).any(axis=1)
            return int((knowing & ~self._crashed_mask).sum())
        return self._informed_count(0)

    def sir_ever_complete(self) -> bool:
        """Whether every survivor has been infected at some point."""
        self._sir_ensure()
        ever = self._sir_infected_at >= 0
        if self._crashed_mask.any():
            return bool(ever[~self._crashed_mask].all())
        return bool(ever.all())

    def sir_quiescent(self) -> bool:
        """Whether the rumor has died out: no infected survivor and no
        infectious payload still in flight."""
        self._sir_ensure()
        if self._sir_infected_survivors():
            return False
        for batches in self._due.values():
            for entry in batches:
                if entry[2].any() or entry[3].any():
                    return False
        return True

    def sir_stats(self) -> dict:
        """Survivor-side SIR tallies: ever-infected, recovered, infected."""
        self._sir_ensure()
        survivors = ~self._crashed_mask
        return {
            "ever_informed": int((survivors & (self._sir_infected_at >= 0)).sum()),
            "recovered": int((survivors & self._sir_recovered).sum()),
            "infected": self._sir_infected_survivors(),
        }

    # ------------------------------------------------------------------
    # Fault events (node-crash / edge-fault, via the shared applier)
    # ------------------------------------------------------------------
    def _on_crash(self, i: int) -> None:
        """Mask a newly crashed node out of the round loop."""
        self._crashed_mask[i] = True

    def _on_edge_fault(self, i: int, j: int) -> None:
        """Register a faulted edge as a pair of directed suppression keys."""
        self._dropped_keys = np.union1d(self._dropped_keys, [(i << 32) | j, (j << 32) | i])

    # ------------------------------------------------------------------
    # Topology changes (dynamics events and direct graph mutation)
    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        """Advance the round counter and bring the topology up to date."""
        self.round += 1
        self.metrics.rounds = self.round
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
        """Re-snapshot the CSR core after the graph mutated.

        Same contract as the other backends: node indices are stable (the
        universe only grows), latency-only changes keep every slot-indexed
        structure valid, and in-flight exchanges over severed or removed
        directed pairs are dropped and counted as lost.
        """
        old = self._idx
        new = self.graph.indexed()
        if new.labels[: old.num_nodes] != old.labels:
            raise GraphError(
                "nodes were removed or reordered mid-run; engines only support edge "
                "mutations and appended nodes (use a 'node-leave' dynamics event to "
                "churn a node out without deleting it)"
            )
        severed_pairs: set[tuple[int, int]] = set()
        for key in severed:
            u, v = tuple(key)
            iu, iv = old.index.get(u), old.index.get(v)
            if iu is not None and iv is not None:
                severed_pairs.add((iu, iv))
                severed_pairs.add((iv, iu))
        if np.array_equal(new.indptr, old.indptr) and np.array_equal(new.indices, old.indices):
            # Latency-only change (e.g. drift): slots line up one-to-one.
            if severed_pairs:
                self._drop_pending_over(severed_pairs)
            self._idx = new
            self._latencies = new.latencies
            self._set_latency_sortkey()
            self._graph_version = self.graph.version
            return
        if self._track_activations:
            self._fold_slot_counts(old)
        added = new.num_nodes - old.num_nodes
        if added:
            def _pad(array: np.ndarray, axis: int = 0) -> np.ndarray:
                shape = list(array.shape)
                shape[axis] = added
                return np.concatenate([array, np.zeros(shape, dtype=array.dtype)], axis=axis)

            self._know = _pad(self._know)
            if self._outstanding is not None:
                self._outstanding = _pad(self._outstanding)
            self._cursors = _pad(self._cursors)
            self._crashed_mask = _pad(self._crashed_mask)
            if self._sir_infected_at is not None:
                self._sir_infected_at = np.concatenate(
                    [self._sir_infected_at, np.full(added, -1, dtype=np.int64)]
                )
                self._sir_recovered = _pad(self._sir_recovered)
        if events_only:
            removed = severed_pairs
        else:
            removed = (old.directed_pairs() - new.directed_pairs()) | severed_pairs
        if removed:
            self._drop_pending_over(removed)
        self._idx = new
        self._load_csr()
        if self._track_activations:
            self._slot_counts = np.zeros(self._indices.size, dtype=np.int64)
        self._graph_version = self.graph.version

    def _drop_pending_over(self, removed: set[tuple[int, int]]) -> None:
        """Drop in-flight exchanges travelling over removed directed pairs."""
        dropped = drop_pending(self._due, removed, self._idx.num_nodes)
        if dropped is None:
            return
        if self._outstanding is not None:
            np.subtract.at(self._outstanding, dropped[0], 1)
        self.metrics.record_lost(dropped[0].size)

    def _live_activations(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Index-pair keys and one-column counts of the nonzero slot counts."""
        nonzero = np.flatnonzero(self._slot_counts)
        return idx.slot_pair_keys()[nonzero], self._slot_counts[nonzero, None]

    def _fold_slot_counts(self, idx) -> None:
        """Move a retiring snapshot's nonzero slot counts into the ledger."""
        self._ledger.fold(*self._live_activations(idx))

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    @staticmethod
    def _concat_batches(batches: list[tuple]) -> tuple:
        """Concatenate a round's due batches into one four-array block."""
        if len(batches) == 1:
            return batches[0]
        return tuple(np.concatenate(parts) for parts in zip(*batches))

    def _deliver_due_exchanges(self) -> None:
        """Deliver every exchange whose latency has elapsed this round."""
        batches = self._due.pop(self.round, None)
        if batches is None:
            return
        initiators, responders, payload_i, payload_j = self._concat_batches(batches)
        if self._outstanding is not None:
            np.subtract.at(self._outstanding, initiators, 1)
            if (self._outstanding < 0).any():
                raise RuntimeError(
                    "outstanding-exchange underflow: an exchange completed that was "
                    "never accounted as initiated"
                )
        metrics = self.metrics
        if self._crashed_mask.any() or self._dropped_keys.size:
            suppressed = self._crashed_mask[initiators] | self._crashed_mask[responders]
            if self._dropped_keys.size:
                suppressed |= sorted_contains(self._dropped_keys, (initiators << 32) | responders)
            if suppressed.any():
                metrics.suppressed_exchanges += int(suppressed.sum())
                delivered = ~suppressed
                initiators = initiators[delivered]
                responders = responders[delivered]
                payload_i = payload_i[delivered]
                payload_j = payload_j[delivered]
                if not initiators.size:
                    return
        know = self._know
        if self._popcount is None:
            self._popcount = int(np.bitwise_count(know).sum())
        before = self._popcount
        # Under SIR, recovered endpoints ignore the payload (the exchange
        # still completes and is charged) — a recovered node must never
        # re-enter the knowledge plane.
        rec = self._sir_recovered if self._sir_infected_at is not None else None
        if self._words == 1:
            flat = know.reshape(-1)
            if len(self._rumors) == 1:
                # Single-rumor runs carry one-bit payloads: the OR-merge
                # degenerates to a duplicate-safe constant scatter.
                one = np.uint64(1)
                sel_j = payload_i != 0
                sel_i = payload_j != 0
                if rec is not None:
                    sel_j &= ~rec[responders]
                    sel_i &= ~rec[initiators]
                flat[responders[sel_j]] = one
                flat[initiators[sel_i]] = one
                sizes = (payload_i + payload_j).astype(np.int64)
            else:
                if rec is not None:
                    keep_j = ~rec[responders]
                    keep_i = ~rec[initiators]
                    np.bitwise_or.at(flat, responders[keep_j], payload_i[keep_j])
                    np.bitwise_or.at(flat, initiators[keep_i], payload_j[keep_i])
                else:
                    np.bitwise_or.at(flat, responders, payload_i)
                    np.bitwise_or.at(flat, initiators, payload_j)
                sizes = (np.bitwise_count(payload_i) + np.bitwise_count(payload_j)).astype(
                    np.int64
                )
        else:
            if rec is not None:
                keep_j = ~rec[responders]
                keep_i = ~rec[initiators]
                np.bitwise_or.at(know, (responders[keep_j],), payload_i[keep_j])
                np.bitwise_or.at(know, (initiators[keep_i],), payload_j[keep_i])
            else:
                np.bitwise_or.at(know, (responders,), payload_i)
                np.bitwise_or.at(know, (initiators,), payload_j)
            sizes = (
                np.bitwise_count(payload_i).sum(axis=1, dtype=np.int64)
                + np.bitwise_count(payload_j).sum(axis=1, dtype=np.int64)
            )
        metrics.messages += 2 * initiators.size
        metrics.payload_rumors_sent += int(sizes.sum())
        if sizes.size:
            metrics.max_payload_size = max(metrics.max_payload_size, int(sizes.max()))
        after = int(np.bitwise_count(know).sum())
        metrics.rumor_deliveries += after - before
        self._popcount = after
        if len(self._rumors) == 1:
            # Single-rumor runs: the post-merge popcount IS the informed
            # count (initiations never change knowledge), so the completion
            # predicate reuses it for free.
            self._informed_cache = (self.round, 0, after)

    def step(self, policy: Any) -> None:
        """Advance the simulation by one round under a declarative policy.

        Round order matches the other backends: (1) the round counter
        advances and topology dynamics apply, (2) due exchanges deliver,
        (3) initiations are resolved for all nodes at once.
        """
        if not isinstance(policy, RoundPolicySpec):
            raise TypeError(
                "EdgeEngine only runs declarative RoundPolicySpec policies; "
                "use the reference engine for arbitrary callbacks"
            )
        if policy.select == "uniform-random" and not is_numpy_generator(policy.rng):
            raise TypeError(
                "the edge backend vectorizes neighbour draws as one numpy vector "
                "per round and needs a numpy Generator rng (the numpy sampling "
                "mode, seed label ('rep', 0)); a random.Random rng only drives "
                "the scalar fast/reference backends"
            )
        sir = policy.gate == "sir"
        if sir:
            if len(self._rumors) != 1:
                raise ValueError(
                    "the 'sir' gate runs single-rumor (one-to-all) tasks only; "
                    f"{len(self._rumors)} rumors are seeded"
                )
            self._sir_ensure()
        self._begin_round()
        self._deliver_due_exchanges()
        if sir:
            self._sir_transition(policy.forget_after)

        n = self._idx.num_nodes
        degrees = self._degrees
        if policy.select == "uniform-random":
            # One uniform vector per round for ALL nodes — every node
            # consumes a draw whether or not it acts, the shared contract
            # that aligns this stream with the fast backend's numpy mode
            # and the batch backend's per-replication columns.
            draws = policy.rng.random(n)
            offsets = uniform_slot_offsets(draws, degrees)
        else:
            offsets = None

        acting = ~self._crashed_mask if self._crashed_mask.any() else np.ones(n, dtype=bool)
        if self.blocking:
            acting = acting & (self._outstanding == 0)
        if policy.gate == "sir":
            acting = acting & ~self._sir_recovered
        elif policy.gate != "all":
            informed = (self._know != 0).any(axis=1)
            acting = acting & (informed if policy.gate == "informed-only" else ~informed)
        acting = acting & (degrees > 0)

        if offsets is None:
            offsets = self._cursors % np.maximum(degrees, 1)
            self._cursors += acting

        nodes_f = np.nonzero(acting)[0]
        if not nodes_f.size:
            return
        slots_f = self._starts[nodes_f] + offsets[nodes_f]
        if self._outstanding is not None:
            self._outstanding[nodes_f] += 1
        if self._track_activations:
            # Each acting node owns a distinct slot this round, so a plain
            # fancy-index add is scatter-safe.
            self._slot_counts[slots_f] += 1
        self.metrics.activations += nodes_f.size
        # Group the round's initiations by latency with one radix sort, then
        # hand each completion round a contiguous slice (payloads are
        # gathered in sorted order, so the slices alias one snapshot block).
        sortkeys_f = self._latencies_sortkey[slots_f]
        order = np.argsort(sortkeys_f, kind="stable")
        slots_s = slots_f[order]
        nodes_s = nodes_f[order]
        latencies_s = sortkeys_f[order]
        responders_s = self._indices[slots_s]
        if self._words == 1:
            flat = self._know.reshape(-1)
            payload_i = flat[nodes_s]
            payload_j = flat[responders_s]
        else:
            payload_i = self._know[nodes_s]
            payload_j = self._know[responders_s]
        boundaries = np.nonzero(np.diff(latencies_s))[0] + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), latencies_s.size]
        for lo, hi in zip(starts, ends):
            completes_at = self.round + int(latencies_s[lo])
            self._due.setdefault(completes_at, []).append(
                (nodes_s[lo:hi], responders_s[lo:hi], payload_i[lo:hi], payload_j[lo:hi])
            )

    def run(
        self,
        policy: Any,
        stop_condition: Callable[["EdgeEngine"], bool],
        max_rounds: int = 1_000_000,
        drain: bool = True,
    ) -> SimulationMetrics:
        """Run rounds under ``policy`` until ``stop_condition`` holds.

        Semantics match the other single-run backends: the stop condition
        is evaluated after deliveries at the start of each round, and
        ``drain`` discards still-pending exchanges once it holds.
        """
        if stop_condition(self):
            self.metrics.completion_time = self.round + self.metrics.charged_time
            self._materialize_edge_activations()
            return self.metrics
        while self.round < max_rounds:
            self.step(policy)
            if stop_condition(self):
                self.metrics.completion_time = self.round + self.metrics.charged_time
                if drain:
                    self._due.clear()
                self._materialize_edge_activations()
                return self.metrics
        raise RuntimeError(
            f"simulation did not reach the stop condition within {max_rounds} rounds"
        )

    def _materialize_edge_activations(self) -> None:
        """Fold per-slot activation counts into the reference-format counter.

        Rebuilt from the ledger plus the live slot counts each time, so a
        repeated call (a multi-phase run reusing the engine) stays exact.
        """
        if not self._track_activations:
            return
        counter = self.metrics.edge_activations
        counter.clear()
        counter.update(
            self._ledger.counters(self._idx.labels, *self._live_activations(self._idx))[0]
        )
