"""Edge-vectorized single-run backend: the batch kernel at one replication.

:class:`EdgeEngine` runs one large trajectory at numpy speed: every round is
a handful of whole-array operations over the CSR edge set (one uniform draw
vector mapped to neighbour slots; one ``bincount`` tallying the round's
exchanges by latency, delivered-or-suppressed plane and payload size, and a
radix sort of just the informative ones, those whose two payloads differ;
one scatter of the delivered payloads into the knowledge bitplane), on every
run: static or churned, faulted, blocking, one knowledge word or many.
Those rounds are exactly
the rounds of :class:`~repro.simulation.batch_engine.BatchEngine`, so this
module does not re-implement them: :class:`EdgeEngine` *is* the batch
kernel fixed at ``reps=1``, and adds only the single-run
:class:`~repro.simulation.protocol.EngineProtocol` surface — ``step`` and
``run`` under a :class:`~repro.simulation.protocol.RoundPolicySpec`,
boolean completion predicates, a live :attr:`~EdgeEngine.metrics` object,
and label-level queries, all reading replication column 0.  CSR loading,
seeding, SIR state, fault masks, topology resyncs, delivery, activation
counting and the memory guard all live in the kernel.

Parity contract
---------------
A single run on ``engine="edge"`` uses the numpy generator seeded
``derive_seed(seed, "rep", 0)`` and reproduces, bit for bit, replication 0
of the same scenario run with ``reps=1`` on ``engine="fast"`` (and hence
column 0 of the batch backend): same completion round, same exchange /
message / delivery counts, same per-edge activation counters (kept up to
:data:`~repro.simulation.batch_engine.EDGE_ACTIVATION_SLOT_LIMIT` CSR
slots).

Memory guard
------------
The kernel estimates its array footprint up front and raises
:class:`~repro.simulation.protocol.SimulationError` with the estimate
instead of OOM-ing — most importantly for all-to-all seeding, whose
knowledge plane is ``n^2/8`` bytes.  ``memory_limit`` sets the budget.

The engine registers itself as the ``"edge"`` backend; ``engine="auto"``
picks it for declarative single runs on graphs with at least
``EDGE_AUTO_NODE_THRESHOLD`` nodes (see
:func:`repro.simulation.protocol.resolve_backend`).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Optional

import numpy as np

from ..graphs.weighted_graph import NodeId, WeightedGraph
from .batch_engine import BatchEngine

# Rounds apply dynamics events through batch_engine's binding; this one is
# kept so that tools wrapping each engine module's ``apply_events`` still
# resolve it here.
from .dynamics import TopologyDynamics, apply_events  # noqa: F401
from .messages import Rumor
from .metrics import SimulationMetrics
from .protocol import BatchPolicySpec, RoundPolicySpec, register_engine
from .rng import is_numpy_generator

__all__ = ["EdgeEngine"]


@register_engine("edge")
class EdgeEngine(BatchEngine):
    """Single-run backend: the batch kernel at one replication.

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
    memory_limit:
        Byte budget for the engine's arrays (default
        :data:`~repro.simulation.batch_engine.DEFAULT_MEMORY_LIMIT`);
        exceeding the up-front estimate raises
        :class:`~repro.simulation.protocol.SimulationError` instead of
        thrashing into the OOM killer.
    """

    _backend = "edge"
    _memory_remedy = (
        "lower n, seed fewer rumors (all-to-all needs n^2/8 bytes), "
        "or raise EdgeEngine(memory_limit=...)"
    )

    def __init__(
        self,
        graph: WeightedGraph,
        blocking: bool = False,
        dynamics: Optional[TopologyDynamics] = None,
        memory_limit: Optional[int] = None,
    ) -> None:
        self._memory_limit = memory_limit
        super().__init__(graph, reps=1, blocking=blocking, dynamics=dynamics)
        self.metrics = SimulationMetrics()

    # ------------------------------------------------------------------
    # Queries and completion predicates (replication column 0)
    # ------------------------------------------------------------------
    def rumors_known(self, node: NodeId) -> set[Rumor]:
        """The set of rumors ``node`` currently knows (materialized)."""
        row = self._know[self._idx.index[node], 0]
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
        informed = (self._know[:, 0, word] & np.uint64(1 << offset)) != 0
        labels = self._idx.labels
        return {labels[i] for i in np.nonzero(informed)[0].tolist()}

    def dissemination_complete(self, rumor: Rumor) -> bool:
        """Whether every non-crashed node knows ``rumor``."""
        return bool(self.dissemination_complete_mask(rumor)[0])

    def all_to_all_complete(self) -> bool:
        """Whether every survivor knows a rumor from every survivor."""
        return bool(self.all_to_all_complete_mask()[0])

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
        know = self._know[:, 0]
        src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        identity = len(self._rumors) == n and all(
            origin == bit for bit, origin in enumerate(self._bit_origin)
        )
        if identity:
            seen = know
        else:
            seen = np.zeros((n, max(1, -(-n // 64))), dtype=np.uint64)
            for bit, origin in enumerate(self._bit_origin):
                word, offset = divmod(bit, 64)
                knowers = (know[:, word] & np.uint64(1 << offset)) != 0
                seen[knowers, origin >> 6] |= np.uint64(1 << (origin & 63))
        needed = (seen[src, indices >> np.int64(6)] >> (indices & np.int64(63)).astype(np.uint64)) & np.uint64(1)
        return bool(needed.all())

    def sir_ever_complete(self) -> bool:
        """Whether every survivor has been infected at some point."""
        return bool(self.sir_ever_complete_mask()[0])

    def sir_quiescent(self) -> bool:
        """Whether the rumor has died out: no infected survivor and no
        infectious payload still in flight."""
        return bool(self.sir_quiescent_mask()[0])

    def sir_stats(self) -> dict:
        """Survivor-side SIR tallies: ever-infected, recovered, infected."""
        return super().sir_stats()[0]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
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
        uniform = policy.select == "uniform-random"
        if uniform and not is_numpy_generator(policy.rng):
            raise TypeError(
                "the edge backend vectorizes neighbour draws as one numpy vector "
                "per round and needs a numpy Generator rng (the numpy sampling "
                "mode, seed label ('rep', 0)); a random.Random rng only drives "
                "the scalar fast/reference backends"
            )
        column_policy = BatchPolicySpec(
            select=policy.select,
            gate=policy.gate,
            rngs=(policy.rng,) if uniform else (),
            forget_after=policy.forget_after,
        )
        self._start(column_policy)
        self._step(column_policy)
        self.metrics.rounds = self.round
        self._copy_counters(0, self.metrics)

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
            return self._complete()
        while self.round < max_rounds:
            self.step(policy)
            if stop_condition(self):
                if drain:
                    self._drain()
                return self._complete()
        raise RuntimeError(
            f"simulation did not reach the stop condition within {max_rounds} rounds"
        )

    def _complete(self) -> SimulationMetrics:
        """Stamp the completion time and defer the activation counter.

        The counter is built, when first read, from the arrays of the
        kernel's ledger and live counts as they stand now, so a repeated
        call (a multi-phase run reusing the engine) stays exact; it lists
        only edges that were activated.
        """
        metrics = self.metrics
        metrics.completion_time = self.round + metrics.charged_time
        if self._ledger is not None:
            record = self._ledger.record(self._idx.labels)
            metrics.defer_edge_activations(record, 0, keep_live_zeros=False)
        return metrics
