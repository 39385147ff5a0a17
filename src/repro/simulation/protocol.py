"""Pluggable simulation backends: protocol, capabilities, and registry.

The simulation layer exposes one abstract surface — :class:`EngineProtocol`
— with interchangeable implementations ("backends"):

* ``"reference"`` — :class:`~repro.simulation.engine.GossipEngine`, the
  original per-node-callback engine.  It accepts *arbitrary* exchange
  policies (any callable from :class:`NodeView` to a neighbour) and is kept
  bit-for-bit as the correctness oracle.
* ``"fast"`` — :class:`~repro.simulation.fast_engine.FastEngine`, which
  represents per-node knowledge as integer bitsets over the cached
  :class:`~repro.graphs.indexed.IndexedGraph` CSR core.  It only accepts
  *declarative* policies (:class:`RoundPolicySpec`) so the whole round can
  run as one tight loop with no per-node Python callback dispatch, and it
  maintains informed counts incrementally so completion predicates are O(1).
* ``"batch"`` — :class:`~repro.simulation.batch_engine.BatchEngine`, which
  runs ``reps`` independent replications of one declarative scenario as a
  single numpy computation (knowledge as an ``(n, reps, words)`` uint64
  bitplane tensor, one vectorized round for all replications at once).  It
  accepts :class:`BatchPolicySpec` policies and exposes :meth:`run_batch`
  (the :class:`BatchCapability` surface) instead of ``run``; replication
  ``r`` reproduces, bit for bit, the sequential numpy-mode ``FastEngine``
  run whose policy rng is seeded ``derive_seed(seed, "rep", r)``.
* ``"edge"`` — :class:`~repro.simulation.edge_engine.EdgeEngine`, the
  batch backend's numpy kernel fixed at one replication, so a *single*
  run is vectorized across the whole edge set: one numpy draw vector, one
  ``bincount`` tally of the round's exchanges and a radix sort of just the
  informative ones per round.  It runs the same declarative
  :class:`RoundPolicySpec` surface as the fast backend but requires a
  numpy Generator rng for uniform selection, and reproduces, bit for bit,
  the numpy-mode fast run whose rng is seeded
  ``derive_seed(seed, "rep", 0)`` — i.e. replication 0 of the batched
  form, by construction.  Built for large-n single trajectories (10^6-node
  runs in seconds); ``"auto"`` prefers it from
  :data:`EDGE_AUTO_NODE_THRESHOLD` nodes upward.

The capability contract
-----------------------
A gossip algorithm declares, via
:attr:`repro.gossip.base.GossipAlgorithm.capability`, which policy shape it
needs:

* :attr:`PolicyCapability.UNIFORM_RANDOM` — every round, each (un-gated)
  node picks a neighbour by a declarative rule: uniformly at random or by a
  per-node round-robin cursor.  Anything expressible as a
  :class:`RoundPolicySpec` qualifies; both backends can run it, and the two
  produce *identical* seeded trajectories because ``random.Random.choice``
  on a length-``d`` sequence and ``random.Random.randrange(d)`` consume the
  same underlying random stream.
* :attr:`PolicyCapability.ARBITRARY_CALLBACK` — the algorithm inspects
  per-node state (scratch, knowledge contents, round number) inside a
  Python callback.  Only the reference backend can run it.

Backend selection
-----------------
:func:`resolve_backend` maps the user-facing ``engine=`` knob
(``"reference"`` / ``"fast"`` / ``"batch"`` / ``"auto"``) to a concrete
backend name: ``"auto"`` picks ``"fast"`` exactly when the capability is
``UNIFORM_RANDOM`` and no event trace was requested, and falls back to
``"reference"`` otherwise.  When a replication count is given
(``reps=``), ``"auto"`` resolves to ``"batch"`` instead, ``"fast"``
selects the sequential numpy-mode loop (the batch backend's parity
oracle), and ``"reference"`` is rejected — it has no numpy sampling mode.
Requesting ``"fast"``/``"batch"`` for a callback-only algorithm raises
:class:`EngineSelectionError` rather than silently degrading.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

from ..graphs.weighted_graph import NodeId, WeightedGraph
from .messages import Rumor
from .metrics import SimulationMetrics
from .rng import is_numpy_generator

__all__ = [
    "ENGINE_BACKENDS",
    "EDGE_AUTO_NODE_THRESHOLD",
    "BatchCapability",
    "BatchPolicySpec",
    "EngineProtocol",
    "EngineSelectionError",
    "PolicyCapability",
    "RoundPolicySpec",
    "SimulationError",
    "available_backends",
    "create_engine",
    "register_engine",
    "resolve_backend",
    "set_default_backend",
]


class EngineSelectionError(ValueError):
    """Raised when an ``engine=`` request cannot be satisfied."""


class SimulationError(RuntimeError):
    """Raised when a backend refuses a run it cannot execute safely.

    The guard-rail error for resource limits — most prominently the numpy
    kernel's up-front memory estimate (batch and edge backends), which
    raises this (with the estimate in the message) instead of letting an
    oversized request OOM.
    """


#: Node count from which ``engine="auto"`` prefers the edge backend for
#: declarative single runs: below it the fast backend's per-node sweep is
#: cheap enough that its lower constant factors win.
EDGE_AUTO_NODE_THRESHOLD = 100_000


def _check_forget_after(gate: str, forget_after: Optional[int]) -> None:
    """Validate the SIR recovery delay against the gate (shared by both specs)."""
    if gate == "sir":
        if not isinstance(forget_after, int) or isinstance(forget_after, bool) or forget_after < 1:
            raise ValueError(
                f"the 'sir' gate requires forget_after (an int >= 1), got {forget_after!r}"
            )
    elif forget_after is not None:
        raise ValueError(f"forget_after only applies to the 'sir' gate, not {gate!r}")


class PolicyCapability(enum.Enum):
    """The policy shape a gossip algorithm drives the engine with.

    ``UNIFORM_RANDOM`` covers every per-round choice rule expressible as a
    :class:`RoundPolicySpec` — uniform random neighbour selection (the
    random phone-call family) and deterministic round-robin schedules
    (flooding).  ``ARBITRARY_CALLBACK`` is everything else.
    """

    UNIFORM_RANDOM = "uniform-random"
    ARBITRARY_CALLBACK = "arbitrary-callback"


@dataclass(frozen=True, eq=False)
class RoundPolicySpec:
    """Declarative description of a per-round exchange policy.

    Attributes
    ----------
    select:
        ``"uniform-random"`` — pick a uniformly random neighbour using
        ``rng`` — or ``"round-robin"`` — cycle through the neighbour list
        with a per-node cursor.
    gate:
        Which nodes act each round: ``"all"``, ``"informed-only"`` (only
        nodes knowing at least one rumor; the classical push trigger),
        ``"uninformed-only"`` (only nodes knowing nothing; the one-to-all
        pull trigger), or ``"sir"`` (the epidemic Susceptible–Infected–
        Recovered gate: every node acts until it *recovers* — an informed
        node forgets its knowledge and deactivates ``forget_after`` rounds
        after first learning the rumor).  Gated-out nodes consume no
        randomness, which keeps the two backends' random streams aligned.
    rng:
        The random stream for ``"uniform-random"`` selection.  Must be
        supplied for uniform specs; ignored for round-robin.  Either a
        ``random.Random`` (the classic mode, both backends) or a
        ``numpy.random.Generator`` (the numpy sampling mode: one uniform
        vector drawn per round, fast backend only — see
        :mod:`repro.simulation.rng`).
    forget_after:
        The SIR recovery delay ``k``: an informed node clears its
        knowledge and stops acting ``k`` rounds after infection.  Required
        (an int >= 1) exactly when ``gate == "sir"``; must be ``None``
        otherwise.
    """

    select: str
    gate: str = "all"
    rng: Optional[Any] = None
    forget_after: Optional[int] = None

    _SELECTS = ("uniform-random", "round-robin")
    _GATES = ("all", "informed-only", "uninformed-only", "sir")

    def __post_init__(self) -> None:
        if self.select not in self._SELECTS:
            raise ValueError(f"unknown selection rule {self.select!r}; choose from {self._SELECTS}")
        if self.gate not in self._GATES:
            raise ValueError(f"unknown gate {self.gate!r}; choose from {self._GATES}")
        if self.select == "uniform-random" and self.rng is None:
            raise ValueError("uniform-random selection requires an rng")
        _check_forget_after(self.gate, self.forget_after)

    def compile(self) -> Callable[[Any], Optional[NodeId]]:
        """Compile the spec to a reference-engine exchange policy.

        The compiled callback consumes the random stream exactly like the
        fast backend's vectorized loop (one ``choice``/``randrange`` draw
        per un-gated node with a non-empty neighbour list), which is what
        makes the two backends' seeded runs identical.
        """
        gate = self.gate
        if gate == "sir":
            raise TypeError(
                "the 'sir' gate needs per-node recovery state that only the "
                "fast/edge/batch backends keep; the reference engine cannot run it"
            )
        if self.select == "uniform-random":
            if is_numpy_generator(self.rng):
                raise TypeError(
                    "numpy-mode policies (a numpy Generator rng) draw one uniform "
                    "vector per round and only run on the fast/batch backends; "
                    "the reference engine needs a random.Random rng"
                )
            choice = self.rng.choice

            def policy(view: Any) -> Optional[NodeId]:
                if gate == "informed-only" and not view.knowledge.rumors:
                    return None
                if gate == "uninformed-only" and view.knowledge.rumors:
                    return None
                if not view.neighbors:
                    return None
                return choice(view.neighbors)

        else:

            def policy(view: Any) -> Optional[NodeId]:
                if gate == "informed-only" and not view.knowledge.rumors:
                    return None
                if gate == "uninformed-only" and view.knowledge.rumors:
                    return None
                if not view.neighbors:
                    return None
                cursor = view.scratch.get("cursor", 0)
                choice = view.neighbors[cursor % len(view.neighbors)]
                view.scratch["cursor"] = cursor + 1
                return choice

        return policy


@dataclass(frozen=True, eq=False)
class BatchPolicySpec:
    """Declarative per-round policy for a batched (multi-replication) run.

    The batched analogue of :class:`RoundPolicySpec`: same ``select`` /
    ``gate`` vocabulary, but ``uniform-random`` selection draws from one
    independent ``numpy.random.Generator`` **per replication** instead of a
    single shared ``random.Random``.  Replication ``r``'s generator must be
    seeded ``derive_seed(seed, "rep", r)``
    (:func:`repro.simulation.rng.replication_rngs` builds the tuple), which
    is the parity contract tying batched column ``r`` to its sequential
    numpy-mode :class:`~repro.simulation.fast_engine.FastEngine` twin.

    Attributes
    ----------
    select:
        ``"uniform-random"`` or ``"round-robin"`` (same meaning as on
        :class:`RoundPolicySpec`; round-robin cursors are tracked per
        (node, replication) pair and need no generators).
    gate:
        ``"all"`` / ``"informed-only"`` / ``"uninformed-only"`` / ``"sir"``,
        applied per replication column.
    rngs:
        One numpy Generator per replication for ``"uniform-random"``;
        must be empty for round-robin.
    forget_after:
        The SIR recovery delay (see :class:`RoundPolicySpec`); required
        exactly when ``gate == "sir"``.
    """

    select: str
    gate: str = "all"
    rngs: tuple = ()
    forget_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.select not in RoundPolicySpec._SELECTS:
            raise ValueError(
                f"unknown selection rule {self.select!r}; choose from {RoundPolicySpec._SELECTS}"
            )
        if self.gate not in RoundPolicySpec._GATES:
            raise ValueError(f"unknown gate {self.gate!r}; choose from {RoundPolicySpec._GATES}")
        _check_forget_after(self.gate, self.forget_after)
        if self.select == "uniform-random":
            if not self.rngs:
                raise ValueError("uniform-random batch selection requires per-replication rngs")
            if not all(is_numpy_generator(rng) for rng in self.rngs):
                raise ValueError("batch policies draw with numpy Generators (one per replication)")
        elif self.rngs:
            raise ValueError("round-robin batch selection is deterministic; drop the rngs")


@runtime_checkable
class BatchCapability(Protocol):
    """The extra surface a backend offers when it can run replications batched.

    A batch-capable engine simulates ``reps`` independent replications of
    one scenario in lockstep and returns one
    :class:`~repro.simulation.metrics.SimulationMetrics` per replication,
    each frozen at that replication's own completion round.
    """

    reps: int

    def run_batch(
        self,
        policy: "BatchPolicySpec",
        stop_mask: Callable[[Any], Any],
        max_rounds: int = 1_000_000,
    ) -> list[SimulationMetrics]:
        """Run all replications until each satisfies ``stop_mask``."""
        ...


@runtime_checkable
class EngineProtocol(Protocol):
    """The surface every simulation backend implements.

    ``run``/``step`` accept either an :data:`ExchangePolicy` callback (the
    reference backend) or a :class:`RoundPolicySpec` (both backends); see
    the capability contract in the module docstring.
    """

    graph: WeightedGraph
    blocking: bool
    metrics: SimulationMetrics
    round: int
    dynamics: Any

    def seed_rumor(self, origin: NodeId, payload: Any = None) -> Rumor:
        """Give ``origin`` a fresh rumor and return it."""
        ...

    def seed_all_rumors(self) -> dict[NodeId, Rumor]:
        """Give every node its own rumor."""
        ...

    def informed_nodes(self, rumor: Rumor) -> set[NodeId]:
        """The set of nodes currently knowing ``rumor``."""
        ...

    def dissemination_complete(self, rumor: Rumor) -> bool:
        """Whether every node knows ``rumor``."""
        ...

    def all_to_all_complete(self) -> bool:
        """Whether every node knows a rumor from every node."""
        ...

    def local_broadcast_complete(self) -> bool:
        """Whether every node knows each neighbour's rumor."""
        ...

    def step(self, policy: Any) -> None:
        """Advance the simulation by one round under ``policy``."""
        ...

    def run(
        self,
        policy: Any,
        stop_condition: Callable[["EngineProtocol"], bool],
        max_rounds: int = 1_000_000,
        drain: bool = True,
    ) -> SimulationMetrics:
        """Run rounds under ``policy`` until ``stop_condition`` holds."""
        ...


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
ENGINE_BACKENDS: dict[str, type] = {}


def register_engine(name: str) -> Callable[[type], type]:
    """Class decorator registering a backend under ``name``."""

    def decorator(cls: type) -> type:
        ENGINE_BACKENDS[name] = cls
        return cls

    return decorator


def available_backends() -> list[str]:
    """Sorted names of the registered backends."""
    return sorted(ENGINE_BACKENDS)


# What "auto" prefers; overridable process-wide via set_default_backend so
# harnesses (e.g. the benchmark suite's REPRO_BENCH_ENGINE) can steer every
# auto-resolved run without threading an argument through each call site.
_DEFAULT_BACKEND = "auto"


def set_default_backend(engine: str) -> str:
    """Set what ``engine="auto"`` prefers; return the previous setting.

    ``"reference"`` forces every auto-resolved run onto the reference
    backend; ``"fast"`` prefers the fast backend where the capability
    allows it (callback-only algorithms still fall back to reference —
    the preference is a steering knob, not a hard request); ``"edge"``
    prefers the edge backend for declarative single runs regardless of
    graph size; ``"auto"`` restores the built-in rule (fast below
    :data:`EDGE_AUTO_NODE_THRESHOLD` nodes, edge at or above it).
    Explicit ``engine=`` arguments on individual runs are unaffected.
    """
    global _DEFAULT_BACKEND
    if engine not in ("auto", "fast", "reference", "edge"):
        raise EngineSelectionError(
            f"default backend must be 'auto', 'fast', 'edge', or 'reference', got {engine!r}"
        )
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = engine
    return previous


def resolve_backend(
    engine: str = "auto",
    capability: PolicyCapability = PolicyCapability.ARBITRARY_CALLBACK,
    trace: Any = None,
    reps: Optional[int] = None,
    num_nodes: Optional[int] = None,
) -> str:
    """Map an ``engine=`` request to a concrete backend name.

    ``"auto"`` picks ``"fast"`` when the algorithm's capability allows it
    and no event trace is requested, and ``"reference"`` otherwise — unless
    :func:`set_default_backend` pinned the preference, or ``num_nodes`` is
    at least :data:`EDGE_AUTO_NODE_THRESHOLD`, in which case the
    edge-vectorized backend takes over the declarative single-run case.
    With a replication count (``reps`` is not ``None``) ``"auto"`` resolves
    to ``"batch"`` (the vectorized multi-replication backend), ``"fast"``
    means the sequential numpy-mode replication loop, and ``"reference"``
    and ``"edge"`` are rejected — the former has no numpy sampling mode,
    the latter vectorizes a single run and has no replication axis.
    Explicit requests that cannot be satisfied raise
    :class:`EngineSelectionError`.
    """
    if reps is not None:
        if capability is PolicyCapability.ARBITRARY_CALLBACK:
            raise EngineSelectionError(
                "replicated runs (reps=) are vectorized over declarative "
                "(uniform-random / round-robin) policies; this algorithm needs an "
                "arbitrary callback and must be repeated one run at a time"
            )
        if trace is not None:
            raise EngineSelectionError("replicated runs do not support event traces")
        if engine in ("auto", "batch"):
            if "batch" not in ENGINE_BACKENDS:
                raise EngineSelectionError("the batch backend is not registered")
            return "batch"
        if engine == "fast":
            return "fast"
        if engine == "reference":
            raise EngineSelectionError(
                "the reference backend has no numpy sampling mode; replicated runs "
                "need engine='batch' (vectorized) or engine='fast' (sequential loop)"
            )
        if engine == "edge":
            raise EngineSelectionError(
                "the edge backend vectorizes a single run across the edge set and "
                "has no replication axis; replicated runs need engine='batch' "
                "(vectorized over replications) or engine='fast' (sequential loop)"
            )
        raise EngineSelectionError(
            f"unknown engine {engine!r}; choose from {available_backends() + ['auto']}"
        )
    if engine == "auto":
        if _DEFAULT_BACKEND == "reference":
            return "reference"
        if capability is PolicyCapability.UNIFORM_RANDOM and trace is None:
            if "edge" in ENGINE_BACKENDS and (
                _DEFAULT_BACKEND == "edge"
                or (num_nodes is not None and num_nodes >= EDGE_AUTO_NODE_THRESHOLD)
            ):
                return "edge"
            if "fast" in ENGINE_BACKENDS:
                return "fast"
        return "reference"
    if engine not in ENGINE_BACKENDS:
        raise EngineSelectionError(
            f"unknown engine {engine!r}; choose from {available_backends() + ['auto']}"
        )
    if engine == "batch":
        raise EngineSelectionError(
            "the batch backend runs replicated scenarios; pass a replication count "
            "(reps=) along with engine='batch'"
        )
    if engine in ("fast", "edge"):
        if capability is PolicyCapability.ARBITRARY_CALLBACK:
            raise EngineSelectionError(
                f"the {engine} backend only runs declarative (uniform-random / "
                "round-robin) policies; this algorithm needs an arbitrary callback "
                "— use engine='reference' or 'auto'"
            )
        if trace is not None:
            raise EngineSelectionError(
                f"the {engine} backend does not support event traces"
            )
    return engine


def create_engine(
    graph: WeightedGraph,
    engine: str = "auto",
    capability: PolicyCapability = PolicyCapability.ARBITRARY_CALLBACK,
    blocking: bool = False,
    trace: Any = None,
    dynamics: Any = None,
    reps: Optional[int] = None,
) -> tuple[Any, str]:
    """Instantiate the backend selected by ``engine`` for ``graph``.

    Returns ``(engine_instance, backend_name)`` so callers can record which
    backend actually ran (the ``"auto"`` choice is data-dependent).

    ``dynamics`` is an optional
    :class:`~repro.simulation.dynamics.TopologyDynamics` applied by the
    engine at the start of every round; every backend supports it with
    identical semantics, so it never constrains backend selection.  With a
    replication count (``reps``) the resolved backend is ``"batch"`` — a
    :class:`BatchCapability` engine driven through ``run_batch`` — or
    ``"fast"``, in which case the caller owns the sequential replication
    loop and this function returns a single-replication engine.
    """
    backend = resolve_backend(
        engine,
        capability=capability,
        trace=trace,
        reps=reps,
        num_nodes=graph.num_nodes,
    )
    cls = ENGINE_BACKENDS[backend]
    if backend == "batch":
        return cls(graph, reps=reps, blocking=blocking, dynamics=dynamics), backend
    if backend in ("fast", "edge"):
        return cls(graph, blocking=blocking, dynamics=dynamics), backend
    return cls(graph, blocking=blocking, trace=trace, dynamics=dynamics), backend
