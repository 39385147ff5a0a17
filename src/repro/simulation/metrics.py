"""Cost metrics collected while simulating gossip algorithms.

The paper measures *time* (rounds, where a latency-ℓ exchange costs ℓ time
before it completes).  For completeness we also track message counts and
per-edge activation counts, which make the message-complexity behaviour of
the algorithms visible in benchmarks (e.g. push-pull's Θ(n log n) messages on
a clique).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from ..graphs.weighted_graph import NodeId

__all__ = ["SimulationMetrics"]


@dataclass
class SimulationMetrics:
    """Counters accumulated during a simulation run.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds in which at least one node took an action.
    completion_time:
        The time at which the algorithm's goal was reached (dissemination
        complete), in the same units as rounds; ``None`` until it completes.
    charged_time:
        Extra time charged analytically rather than simulated round-by-round
        (used by the DTG-based algorithms, which simulate one DTG round of the
        latency-thresholded subgraph as ℓ rounds of the real network).
    activations:
        Total number of edge activations (exchange initiations).
    messages:
        Total messages sent (2 per completed exchange: request + response).
    edge_activations:
        Activation count per canonical edge.  The CSR engines hand it over
        as arrays (:meth:`defer_edge_activations`) and the counter is built
        the first time it is read; it is then an ordinary ``Counter``.
    rumor_deliveries:
        Number of (node, rumor) pairs that became newly known.
    lost_exchanges:
        In-flight exchanges dropped because their edge disappeared (a
        topology-dynamics removal or churned endpoint) before the latency
        elapsed.  Lost exchanges were paid for as activations but deliver
        nothing.
    suppressed_exchanges:
        Exchanges that ran to the end of their latency but delivered
        nothing because a fault event (``node-crash`` / ``edge-fault``)
        silenced an endpoint or the edge in the meantime.  Unlike lost
        exchanges the edge still exists — the channel is up, the far side
        is dead — so suppressed exchanges are the fault pipeline's
        signature cost: paid for as activations, counted as neither
        messages nor deliveries.
    """

    rounds: int = 0
    completion_time: Optional[float] = None
    charged_time: float = 0.0
    activations: int = 0
    messages: int = 0
    edge_activations: Counter = field(default_factory=Counter)
    rumor_deliveries: int = 0
    payload_rumors_sent: int = 0
    max_payload_size: int = 0
    lost_exchanges: int = 0
    suppressed_exchanges: int = 0

    def defer_edge_activations(self, source: Any, column: int, keep_live_zeros: bool = True) -> None:
        """Build :attr:`edge_activations` from ``source`` when it is first read.

        ``source`` is an :class:`~repro.simulation.dynamics.EdgeActivations`
        (plain arrays) and ``column`` this run's replication in it.  Until
        the first read the counter does not exist: the attribute is looked
        up through :meth:`__getattr__`, which builds and keeps it.
        """
        self.__dict__.pop("edge_activations", None)
        self.__dict__["_edge_activation_source"] = (source, column, keep_live_zeros)

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes not set on the instance: a deferred
        # ``edge_activations`` is built here, once.
        pending = self.__dict__.get("_edge_activation_source")
        if name != "edge_activations" or pending is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        source, column, keep_live_zeros = pending
        counter = source.counter(column, keep_live_zeros)
        del self.__dict__["_edge_activation_source"]
        self.__dict__["edge_activations"] = counter
        return counter

    def record_activation(self, u: NodeId, v: NodeId) -> None:
        """Record that the edge {u, v} was activated (an exchange initiated)."""
        key = tuple(sorted((repr(u), repr(v))))
        self.activations += 1
        self.edge_activations[key] += 1

    def record_exchange_completed(self, payload_size: int = 0) -> None:
        """Record the two messages of a completed round-trip exchange.

        ``payload_size`` is the total number of rumors carried by the two
        messages; it feeds the Section 6 message-size comparison (push-pull
        works with small messages, the DTG-based algorithms do not).
        """
        self.messages += 2
        self.payload_rumors_sent += payload_size
        self.max_payload_size = max(self.max_payload_size, payload_size)

    def record_deliveries(self, count: int) -> None:
        """Record ``count`` newly-learned (node, rumor) pairs."""
        self.rumor_deliveries += count

    def record_lost(self, count: int = 1) -> None:
        """Record ``count`` in-flight exchanges dropped by a topology change."""
        self.lost_exchanges += count

    def record_suppressed(self, count: int = 1) -> None:
        """Record ``count`` exchanges that completed but a fault silenced."""
        self.suppressed_exchanges += count

    def charge(self, time: float) -> None:
        """Charge analytical time (e.g. a DTG phase simulated at coarse grain)."""
        if time < 0:
            raise ValueError(f"cannot charge negative time {time}")
        self.charged_time += time

    @property
    def total_time(self) -> float:
        """Total time: completion time if known, else simulated + charged time."""
        if self.completion_time is not None:
            return self.completion_time
        return self.rounds + self.charged_time

    def most_activated_edges(self, k: int = 5) -> list[tuple[tuple[str, str], int]]:
        """Return the ``k`` most frequently activated edges (for diagnostics)."""
        return self.edge_activations.most_common(k)

    def as_dict(self) -> dict[str, float]:
        """Flatten the headline numbers for table rendering."""
        return {
            "rounds": self.rounds,
            "time": self.total_time,
            "charged_time": self.charged_time,
            "activations": self.activations,
            "messages": self.messages,
            "rumor_deliveries": self.rumor_deliveries,
            "payload_rumors_sent": self.payload_rumors_sent,
            "max_payload_size": self.max_payload_size,
            "lost_exchanges": self.lost_exchanges,
            "suppressed_exchanges": self.suppressed_exchanges,
        }

    def merge(self, other: "SimulationMetrics") -> None:
        """Accumulate another metrics object into this one (for phased algorithms)."""
        self.rounds += other.rounds
        self.charged_time += other.charged_time
        self.activations += other.activations
        self.messages += other.messages
        self.rumor_deliveries += other.rumor_deliveries
        self.lost_exchanges += other.lost_exchanges
        self.suppressed_exchanges += other.suppressed_exchanges
        self.payload_rumors_sent += other.payload_rumors_sent
        self.max_payload_size = max(self.max_payload_size, other.max_payload_size)
        self.edge_activations.update(other.edge_activations)
        if other.completion_time is not None:
            base = self.completion_time if self.completion_time is not None else 0.0
            self.completion_time = base + other.completion_time
