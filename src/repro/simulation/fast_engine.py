"""Bitset-based fast simulation backend.

:class:`FastEngine` implements the same synchronous latency-aware exchange
semantics as the reference :class:`~repro.simulation.engine.GossipEngine`
(see that module's docstring for the model), but trades the per-node Python
callback interface for declarative :class:`RoundPolicySpec` policies so the
whole round runs as one tight loop over the
:class:`~repro.graphs.indexed.IndexedGraph` CSR arrays:

* per-node knowledge is an **integer bitset** over rumor indices — merging
  a delivered payload is one big-int ``or``; snapshotting a payload at
  initiation time is copying an int instead of building a ``frozenset``;
* random neighbour draws go through ``rng.randrange(degree)``, which
  consumes the same underlying stream as the reference policies'
  ``rng.choice(neighbors)``, so seeded runs are **bit-for-bit identical**
  across backends (same completion round, same exchange counts);
* informed counts are maintained **incrementally** on delivery, making
  :meth:`dissemination_complete`, :meth:`all_to_all_complete` and
  :meth:`local_broadcast_complete` O(1) instead of O(n·k) scans;
* per-edge activation counts are accumulated in a flat array indexed by CSR
  slot and materialized into the reference-compatible ``edge_activations``
  counter only when a run finishes.

The engine registers itself as the ``"fast"`` backend; algorithms select it
through :func:`repro.simulation.protocol.create_engine`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from typing import Any, Optional

from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from .dynamics import FaultMirror, TopologyDynamics, apply_events, resync_diff
from .messages import Rumor
from .metrics import SimulationMetrics
from .protocol import RoundPolicySpec, register_engine
from .rng import degrees_array, is_numpy_generator, uniform_slot_offsets

__all__ = ["FastEngine"]


@register_engine("fast")
class FastEngine:
    """Vectorized bitset backend for declarative gossip policies.

    Parameters
    ----------
    graph:
        The network.  The engine snapshots its :meth:`WeightedGraph.indexed`
        CSR core at construction time and re-snapshots whenever the graph's
        structural version moves mid-run (topology dynamics, or direct
        mutation between steps).
    blocking:
        If true, a node with an in-flight exchange skips its turn until the
        exchange completes (same semantics as the reference engine).
    dynamics:
        Optional :class:`~repro.simulation.dynamics.TopologyDynamics`; its
        events are applied to ``graph`` at the start of every round with the
        exact semantics of the reference engine, so seeded declarative runs
        stay bit-identical across backends under a shared schedule.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        blocking: bool = False,
        dynamics: Optional[TopologyDynamics] = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise GraphError("cannot simulate on an empty graph")
        self.graph = graph
        self.blocking = blocking
        self.dynamics = dynamics
        self.metrics = SimulationMetrics()
        self.round = 0
        idx = graph.indexed()
        self._idx = idx
        self._set_csr_lists(idx)
        self._graph_version = graph.version
        n = idx.num_nodes
        # Per-node state, indexed by contiguous node id.
        self._know: list[int] = [0] * n  # bitset over rumor indices
        self._outstanding: list[int] = [0] * n
        self._cursors: list[int] = [0] * n  # round-robin cursors
        # Rumor registry: bit index <-> Rumor, plus each bit's origin index.
        self._rumors: list[Rumor] = []
        self._rumor_bit: dict[Rumor, int] = {}
        self._bit_origin: list[int] = []
        self._informed_count: list[int] = []  # nodes knowing bit b
        # Origin coverage, for the all-to-all / local-broadcast predicates.
        self._origin_seen: list[int] = [0] * n  # bitset over origin node ids
        self._origin_count: list[int] = [0] * n
        self._origin_count_hist: dict[int, int] = {0: n}
        self._seeded_origins: set[int] = set()
        # Local-broadcast bookkeeping, built lazily on first query.
        self._lb_ready = False
        self._lb_neighbor_mask: list[int] = []
        self._lb_missing: list[int] = []
        self._lb_done = 0
        # Fault bookkeeping: the shared label-based state plus index mirrors
        # (stable across CSR re-snapshots because node indices only append).
        self._fault_state = FaultMirror(self)
        self._crashed_idx: set[int] = set()
        self._dropped_pairs: set[tuple[int, int]] = set()
        # SIR recovery state, initialized lazily on first contact with the
        # "sir" gate (a step under it, or one of the sir_* predicates).
        self._sir_infected_at: Optional[list[int]] = None  # -1 = never infected
        self._sir_recovered: list[bool] = []
        self._sir_ever = 0  # survivors ever infected
        # In-flight exchanges, batched by completion round.
        self._due: dict[int, list[tuple[int, int, int, int]]] = {}
        # Activation counts per directed CSR slot (materialized lazily).
        # Counts accrued against CSR snapshots that a topology change retired
        # are folded into the label-keyed counter below at re-snapshot time.
        self._slot_counts: list[int] = [0] * len(idx.indices)
        self._folded_activations: Counter = Counter()
        # Cached numpy degree vector for the numpy sampling mode (a policy
        # whose rng is a numpy Generator); rebuilt after structural resyncs.
        self._np_degrees = None

    def _set_csr_lists(self, idx) -> None:
        """Cache Python-list views of the CSR arrays for the scalar sweep.

        The per-node loop indexes one element at a time, where list reads
        beat numpy scalar reads by a wide margin; the lists are refreshed on
        every re-snapshot so they always mirror ``self._idx``.
        """
        self._indptr_l = idx.indptr.tolist()
        self._indices_l = idx.indices.tolist()
        self._latencies_l = idx.latencies.tolist()

    # ------------------------------------------------------------------
    # Seeding knowledge
    # ------------------------------------------------------------------
    def seed_rumor(self, origin: NodeId, payload: Any = None) -> Rumor:
        """Give ``origin`` a fresh rumor and return it."""
        idx = self._idx
        origin_index = idx.index.get(origin)
        if origin_index is None:
            raise GraphError(f"node {origin!r} is not in the simulated graph")
        rumor = Rumor(origin=origin, payload=payload)
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            bit = len(self._rumors)
            self._rumor_bit[rumor] = bit
            self._rumors.append(rumor)
            self._bit_origin.append(origin_index)
            self._informed_count.append(0)
            self._seeded_origins.add(origin_index)
        self._learn(origin_index, 1 << bit)
        return rumor

    def seed_all_rumors(self) -> dict[NodeId, Rumor]:
        """Give every node its own rumor (the all-to-all starting condition)."""
        return {node: self.seed_rumor(node) for node in self._idx.labels}

    # ------------------------------------------------------------------
    # Knowledge updates (the only writer of the incremental counters)
    # ------------------------------------------------------------------
    def _learn(self, i: int, payload: int) -> int:
        """Merge ``payload`` into node ``i``'s bitset; return # new rumors."""
        new = payload & ~self._know[i]
        if not new:
            return 0
        self._know[i] |= new
        informed = self._informed_count
        bit_origin = self._bit_origin
        hist = self._origin_count_hist
        count = 0
        remaining = new
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            bit = low.bit_length() - 1
            informed[bit] += 1
            count += 1
            origin = bit_origin[bit]
            if not (self._origin_seen[i] >> origin) & 1:
                self._origin_seen[i] |= 1 << origin
                old = self._origin_count[i]
                self._origin_count[i] = old + 1
                hist[old] -= 1
                hist[old + 1] = hist.get(old + 1, 0) + 1
                if self._lb_ready and (self._lb_neighbor_mask[i] >> origin) & 1:
                    self._lb_missing[i] -= 1
                    if self._lb_missing[i] == 0:
                        self._lb_done += 1
        return count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rumors_known(self, node: NodeId) -> set[Rumor]:
        """The set of rumors ``node`` currently knows (materialized)."""
        bits = self._know[self._idx.index[node]]
        known: set[Rumor] = set()
        while bits:
            low = bits & -bits
            bits ^= low
            known.add(self._rumors[low.bit_length() - 1])
        return known

    def informed_nodes(self, rumor: Rumor) -> set[NodeId]:
        """The set of nodes currently knowing ``rumor``."""
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return set()
        labels = self._idx.labels
        know = self._know
        return {labels[i] for i in range(len(labels)) if (know[i] >> bit) & 1}

    def dissemination_complete(self, rumor: Rumor) -> bool:
        """Whether every non-crashed node knows ``rumor`` (O(1)).

        Under fault events the per-bit informed counts track survivors only
        (a crash retires the node's contributions in :meth:`_on_crash`), so
        the predicate stays a single comparison.
        """
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return False
        return self._informed_count[bit] == self._idx.num_nodes - len(self._crashed_idx)

    def all_to_all_complete(self) -> bool:
        """Whether every survivor knows a rumor from every survivor.

        O(1) in the fault-free case via the origin-count histogram; once a
        ``node-crash`` fired the predicate drops to an O(n) bitmask sweep
        over survivors (fault scenarios are run at modest n, and the sweep
        matches the reference engine's survivor semantics exactly).
        """
        n = self._idx.num_nodes
        crashed = self._crashed_idx
        if crashed:
            survivors_mask = 0
            for i in range(n):
                if i not in crashed:
                    survivors_mask |= 1 << i
            origin_seen = self._origin_seen
            for i in range(n):
                if i in crashed:
                    continue
                if (origin_seen[i] & survivors_mask) != survivors_mask:
                    return False
            return True
        if len(self._seeded_origins) < n:
            return False
        return self._origin_count_hist.get(n, 0) == n

    def local_broadcast_complete(self) -> bool:
        """Whether every node knows each neighbour's rumor (O(1) once primed)."""
        if not self._lb_ready:
            self._init_local_broadcast()
        return self._lb_done == self._idx.num_nodes

    def _init_local_broadcast(self) -> None:
        """Build neighbour masks and missing counts from the current state."""
        idx = self._idx
        n = idx.num_nodes
        indptr, indices = idx.indptr.tolist(), idx.indices.tolist()
        masks = []
        missing = []
        done = 0
        for i in range(n):
            mask = 0
            for slot in range(indptr[i], indptr[i + 1]):
                mask |= 1 << indices[slot]
            masks.append(mask)
            gap = (mask & ~self._origin_seen[i]).bit_count()
            missing.append(gap)
            if gap == 0:
                done += 1
        self._lb_neighbor_mask = masks
        self._lb_missing = missing
        self._lb_done = done
        self._lb_ready = True

    # ------------------------------------------------------------------
    # SIR recovery (the "sir" gate: informed nodes forget after k rounds)
    # ------------------------------------------------------------------
    def _sir_ensure(self) -> None:
        """Initialize SIR state, marking currently-informed nodes infected.

        Called both by the sir_* predicates (a run evaluates its stop
        condition before the first step, at round 0 — the seeded source is
        marked with ``infected_at=0``) and by :meth:`step` before the round
        counter advances, so both entry paths mark at the same round.
        """
        if self._sir_infected_at is not None:
            return
        n = self._idx.num_nodes
        infected_at = [-1] * n
        ever = 0
        round_ = self.round
        crashed = self._crashed_idx
        know = self._know
        for i in range(n):
            if know[i]:
                infected_at[i] = round_
                if i not in crashed:
                    ever += 1
        self._sir_infected_at = infected_at
        self._sir_recovered = [False] * n
        self._sir_ever = ever

    def _sir_transition(self, forget_after: int) -> None:
        """Apply the post-delivery SIR transition for the current round.

        Expiry first (an infected survivor whose age reached
        ``forget_after`` recovers: its knowledge is cleared and retired from
        the informed counts, and it stops acting and learning), then marking
        (a node that first learned the rumor this round records the current
        round as its infection time).  The two branches are disjoint per
        node — a node marked this round has age 0 < forget_after — so one
        sweep handles both without ordering hazards.
        """
        round_ = self.round
        infected_at = self._sir_infected_at
        recovered = self._sir_recovered
        know = self._know
        crashed = self._crashed_idx
        informed = self._informed_count
        ever = self._sir_ever
        for i in range(self._idx.num_nodes):
            if recovered[i] or (crashed and i in crashed):
                continue
            t = infected_at[i]
            if t >= 0:
                if round_ - t >= forget_after:
                    recovered[i] = True
                    bits = know[i]
                    know[i] = 0
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        informed[low.bit_length() - 1] -= 1
            elif know[i]:
                infected_at[i] = round_
                ever += 1
        self._sir_ever = ever

    def sir_ever_complete(self) -> bool:
        """Whether every survivor has been infected at some point."""
        self._sir_ensure()
        return self._sir_ever == self._idx.num_nodes - len(self._crashed_idx)

    def sir_quiescent(self) -> bool:
        """Whether the rumor has died out: no infected survivor and no
        infectious payload still in flight."""
        self._sir_ensure()
        if self._informed_count and self._informed_count[0] > 0:
            return False
        for batch in self._due.values():
            for entry in batch:
                if entry[2] or entry[3]:
                    return False
        return True

    def sir_stats(self) -> dict:
        """Survivor-side SIR tallies: ever-infected, recovered, infected."""
        self._sir_ensure()
        crashed = self._crashed_idx
        recovered = sum(
            1
            for i in range(self._idx.num_nodes)
            if self._sir_recovered[i] and i not in crashed
        )
        infected = self._informed_count[0] if self._informed_count else 0
        return {
            "ever_informed": self._sir_ever,
            "recovered": recovered,
            "infected": infected,
        }

    # ------------------------------------------------------------------
    # Fault events (node-crash / edge-fault, via the shared applier)
    # ------------------------------------------------------------------
    def _on_crash(self, i: int) -> None:
        """Index-side bookkeeping for a (new) ``node-crash`` event.

        The node's contributions to the per-bit informed counts are retired
        so the counters track *survivors* from here on — its knowledge is
        frozen (every delivery touching it is suppressed), so the retired
        contribution can never change again.
        """
        self._crashed_idx.add(i)
        informed = self._informed_count
        bits = self._know[i]
        while bits:
            low = bits & -bits
            bits ^= low
            informed[low.bit_length() - 1] -= 1
        if self._sir_infected_at is not None and self._sir_infected_at[i] >= 0:
            self._sir_ever -= 1

    def _on_edge_fault(self, i: int, j: int) -> None:
        """Index-side bookkeeping for a (new) ``edge-fault`` event."""
        self._dropped_pairs.add((i, j))
        self._dropped_pairs.add((j, i))

    # ------------------------------------------------------------------
    # Topology changes (dynamics events and direct graph mutation)
    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        """Advance the round counter and bring the topology up to date.

        Mirrors the reference engine: dynamics events for the new round are
        applied to the graph first, then a structural-version mismatch —
        from those events or from direct mutation between steps — triggers a
        CSR re-snapshot via :meth:`_resync_topology`.
        """
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

    def _resync_topology(self, severed: frozenset = frozenset(), events_only: bool = False) -> None:
        """Re-snapshot the CSR core after the graph mutated.

        Per-node bitset state survives because node indices are stable: the
        node universe only grows (appended labels extend the arrays), and
        removal raises :class:`GraphError` just like the reference engine.
        Activation counts accrued on the retired snapshot's slots are folded
        into a label-keyed counter, and in-flight exchanges over severed or
        no-longer-existing directed pairs are dropped and counted as lost.

        ``events_only`` asserts that dynamics events are the only mutations
        since the last sync, in which case ``severed`` already names every
        removed edge and the O(E) directed-pair diff is skipped.
        """
        old = self._idx
        new = self.graph.indexed()
        structural, removed = resync_diff(old, new, severed, events_only)
        if not structural:
            # Identical edge structure (e.g. drift re-emitting set-latency
            # every round): slots line up one-to-one, so activation counters
            # and neighbour masks stay valid — only severed-and-restored
            # edges can have lost their in-flight exchanges.
            if removed:
                self._drop_pending_over(removed)
            self._idx = new
            self._set_csr_lists(new)
            self._graph_version = self.graph.version
            return
        self._fold_slot_counts(old, self._folded_activations)
        added = new.num_nodes - old.num_nodes
        if added:
            self._know.extend([0] * added)
            self._outstanding.extend([0] * added)
            self._cursors.extend([0] * added)
            self._origin_seen.extend([0] * added)
            self._origin_count.extend([0] * added)
            hist = self._origin_count_hist
            hist[0] = hist.get(0, 0) + added
            if self._sir_infected_at is not None:
                self._sir_infected_at.extend([-1] * added)
                self._sir_recovered.extend([False] * added)
        if removed:
            self._drop_pending_over(removed)
        self._idx = new
        self._set_csr_lists(new)
        self._slot_counts = [0] * len(new.indices)
        self._lb_ready = False
        self._np_degrees = None
        self._graph_version = self.graph.version

    def _drop_pending_over(self, removed: set[tuple[int, int]]) -> None:
        """Drop in-flight exchanges travelling over removed directed pairs."""
        lost = 0
        for completes_at, batch in list(self._due.items()):
            kept = [entry for entry in batch if (entry[0], entry[1]) not in removed]
            if len(kept) == len(batch):
                continue
            for entry in batch:
                if (entry[0], entry[1]) in removed:
                    self._outstanding[entry[0]] -= 1
                    lost += 1
            if kept:
                self._due[completes_at] = kept
            else:
                del self._due[completes_at]
        if lost:
            self.metrics.record_lost(lost)

    def _fold_slot_counts(self, idx, counter: Counter) -> None:
        """Add snapshot ``idx``'s per-slot activation counts to ``counter``.

        Keys are the ``repr``-sorted label pairs of the reference counter.
        A resync folds the retiring snapshot into the retired-edge counter;
        a finished run folds the live one into its metrics.
        """
        reprs: Optional[list[str]] = None
        indptr, indices = idx.indptr.tolist(), idx.indices.tolist()
        slot_counts = self._slot_counts
        for i in range(idx.num_nodes):
            for slot in range(indptr[i], indptr[i + 1]):
                count = slot_counts[slot]
                if not count:
                    continue
                if reprs is None:
                    reprs = [repr(label) for label in idx.labels]
                first, second = reprs[i], reprs[indices[slot]]
                if second < first:
                    first, second = second, first
                counter[(first, second)] += count

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    def initiate_exchange(self, initiator: NodeId, responder: NodeId) -> None:
        """Schedule a bidirectional exchange between neighbours (by label)."""
        idx = self._idx
        try:
            i = idx.index[initiator]
            j = idx.index[responder]
            slot = idx.slot_of(i, j)
        except KeyError as exc:
            raise GraphError(
                f"({initiator!r}, {responder!r}) is not an edge of the graph"
            ) from exc
        self._initiate_slot(i, slot)

    def _initiate_slot(self, i: int, slot: int) -> None:
        j = self._indices_l[slot]
        completes_at = self.round + self._latencies_l[slot]
        self._due.setdefault(completes_at, []).append((i, j, self._know[i], self._know[j]))
        self._outstanding[i] += 1
        self._slot_counts[slot] += 1
        self.metrics.activations += 1

    def _deliver_due_exchanges(self) -> None:
        """Deliver every exchange whose latency has elapsed this round."""
        batch = self._due.pop(self.round, None)
        if batch is None:
            return
        metrics = self.metrics
        outstanding = self._outstanding
        learn = self._learn
        crashed = self._crashed_idx
        dropped = self._dropped_pairs
        fault_active = bool(crashed or dropped)
        # Under SIR, recovered endpoints ignore the payload (the exchange
        # still completes and is charged) — a recovered node must never
        # re-enter the informed counts.
        recovered = self._sir_recovered if self._sir_infected_at is not None else None
        for i, j, payload_i, payload_j in batch:
            outstanding[i] -= 1
            if outstanding[i] < 0:
                raise RuntimeError(
                    f"outstanding-exchange underflow for node {self._idx.labels[i]!r}: "
                    "an exchange completed that was never accounted as initiated"
                )
            if fault_active and (i in crashed or j in crashed or (i, j) in dropped):
                metrics.record_suppressed()
                continue
            new_for_j = 0 if recovered is not None and recovered[j] else learn(j, payload_i)
            new_for_i = 0 if recovered is not None and recovered[i] else learn(i, payload_j)
            metrics.record_exchange_completed(
                payload_size=payload_i.bit_count() + payload_j.bit_count()
            )
            metrics.record_deliveries(new_for_i + new_for_j)

    def step(self, policy: Any) -> None:
        """Advance the simulation by one round under a declarative policy.

        Round order matches the reference engine: (1) the round counter
        advances and topology dynamics for the round are applied (cancelling
        in-flight exchanges over removed edges), (2) due exchanges deliver,
        (3) nodes are swept in index order (= graph insertion order) for new
        initiations.
        """
        if not isinstance(policy, RoundPolicySpec):
            raise TypeError(
                "FastEngine only runs declarative RoundPolicySpec policies; "
                "use the reference engine for arbitrary callbacks"
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

        idx = self._idx
        indptr = self._indptr_l
        indices = self._indices_l
        latencies = self._latencies_l
        know = self._know
        outstanding = self._outstanding
        slot_counts = self._slot_counts
        due = self._due
        blocking = self.blocking
        gate = policy.gate
        uniform = policy.select == "uniform-random"
        offsets = None
        randrange = None
        if uniform:
            if is_numpy_generator(policy.rng):
                # Numpy sampling mode: one uniform vector per round — every
                # node consumes a draw whether or not it acts, which is the
                # contract that lets the batch backend reproduce this run
                # column-for-column (see repro.simulation.rng).
                if self._np_degrees is None or len(self._np_degrees) != idx.num_nodes:
                    self._np_degrees = degrees_array(indptr)
                u = policy.rng.random(idx.num_nodes)
                offsets = uniform_slot_offsets(u, self._np_degrees).tolist()
            else:
                randrange = policy.rng.randrange
        cursors = self._cursors
        crashed = self._crashed_idx
        sir_recovered = self._sir_recovered if sir else None
        round_base = self.round
        activations = 0

        for i in range(idx.num_nodes):
            if crashed and i in crashed:
                # Crash-stop: silent, and consumes no randomness — mirrors
                # the reference engine skipping the policy consult.
                continue
            if sir_recovered is not None and sir_recovered[i]:
                continue
            if blocking and outstanding[i]:
                continue
            knowledge = know[i]
            if gate == "informed-only":
                if not knowledge:
                    continue
            elif gate == "uninformed-only":
                if knowledge:
                    continue
            start = indptr[i]
            degree = indptr[i + 1] - start
            if not degree:
                continue
            if uniform:
                slot = start + (offsets[i] if randrange is None else randrange(degree))
            else:
                cursor = cursors[i]
                slot = start + cursor % degree
                cursors[i] = cursor + 1
            j = indices[slot]
            completes_at = round_base + latencies[slot]
            batch = due.get(completes_at)
            if batch is None:
                due[completes_at] = [(i, j, knowledge, know[j])]
            else:
                batch.append((i, j, knowledge, know[j]))
            outstanding[i] += 1
            slot_counts[slot] += 1
            activations += 1
        self.metrics.activations += activations

    def run(
        self,
        policy: Any,
        stop_condition: Callable[["FastEngine"], bool],
        max_rounds: int = 1_000_000,
        drain: bool = True,
    ) -> SimulationMetrics:
        """Run rounds under ``policy`` until ``stop_condition`` holds.

        Semantics match :meth:`GossipEngine.run`: the stop condition is
        evaluated after deliveries at the start of each round, and ``drain``
        discards still-pending exchanges (freeing their initiators) once it holds.
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
                    self._outstanding = [0] * len(self._outstanding)
                self._materialize_edge_activations()
                return self.metrics
        raise RuntimeError(
            f"simulation did not reach the stop condition within {max_rounds} rounds"
        )

    def _materialize_edge_activations(self) -> None:
        """Fold per-slot activation counts into the reference-format counter.

        Rebuilt each time from the counts folded away at re-snapshots plus
        the cumulative slot counts of the current snapshot, so calling it
        repeatedly (e.g. multi-phase runs reusing one engine) stays
        consistent with the reference engine's incremental counter.
        """
        counter = self.metrics.edge_activations
        counter.clear()
        counter.update(self._folded_activations)
        self._fold_slot_counts(self._idx, counter)
