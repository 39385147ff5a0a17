"""Common interfaces and result types for the gossip algorithms.

Every algorithm in :mod:`repro.gossip` solves one of three tasks from the
paper:

* **one-to-all information dissemination** — a designated source has a rumor
  and every node must learn it,
* **all-to-all information dissemination** — every node starts with a rumor
  and every node must learn all of them (Section 4 solves this directly),
* **local broadcast** — every node must learn the rumor of each of its
  neighbours (the building block used by the lower bounds and by DTG).

Algorithms implement :class:`GossipAlgorithm` and return a
:class:`DisseminationResult`, so experiments can sweep over algorithms
uniformly.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Union

from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from ..simulation.dynamics import ComposedDynamics, TopologyDynamics
from ..simulation.faults import FaultPlan, compile_fault_plan
from ..simulation.metrics import SimulationMetrics
from ..simulation.protocol import (
    BatchPolicySpec,
    EngineProtocol,
    EngineSelectionError,
    PolicyCapability,
    RoundPolicySpec,
    create_engine,
    resolve_backend,
)
from ..simulation.rng import make_numpy_rng, make_rng, replication_rngs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..scenario import ScenarioSpec

__all__ = [
    "Task",
    "DisseminationResult",
    "ReplicatedResult",
    "GossipAlgorithm",
    "declarative_policy_spec",
    "engine_run_details",
    "require_connected",
    "seed_engine",
    "task_stop_condition",
]


def declarative_policy_spec(
    backend: str,
    select: str,
    gate: str,
    seed: int,
    label: str,
    options: Optional[dict] = None,
) -> RoundPolicySpec:
    """Build the :class:`RoundPolicySpec` for a declarative run on ``backend``.

    The edge backend draws one uniform vector per round from a numpy
    Generator, so its uniform-random policies take the rng seeded
    ``derive_seed(seed, "rep", 0)`` — the label under which a single edge
    run is, bit for bit, replication 0 of the batched form (and of the
    sequential numpy-mode fast loop).  Every other backend keeps the
    classic per-label ``random.Random`` stream; round-robin selection is
    deterministic and needs no rng anywhere.  ``options`` carries extra
    gate parameters (the SIR gate's ``forget_after``).
    """
    opts = options or {}
    if select != "uniform-random":
        return RoundPolicySpec(select=select, gate=gate, **opts)
    if backend == "edge":
        return RoundPolicySpec(
            select=select, gate=gate, rng=make_numpy_rng(seed, "rep", 0), **opts
        )
    return RoundPolicySpec(select=select, gate=gate, rng=make_rng(seed, label), **opts)


def engine_run_details(
    backend: str,
    dynamics: Optional[TopologyDynamics],
    metrics: SimulationMetrics,
) -> dict[str, Any]:
    """The standard ``details`` block of an engine-driven declarative run.

    Always records which backend ran; under topology dynamics it also
    records the schedule's label, the lost-exchange total, and the
    suppressed-exchange total (always, so sweep tables keyed on details
    never get ragged columns), letting callers read all three without
    digging into the metrics object.
    """
    details: dict[str, Any] = {"engine": backend}
    if dynamics is not None:
        details["dynamics"] = str(dynamics)
        details["lost_exchanges"] = metrics.lost_exchanges
        details["suppressed_exchanges"] = metrics.suppressed_exchanges
    return details


class Task(enum.Enum):
    """The dissemination task an algorithm solves."""

    ONE_TO_ALL = "one-to-all"
    ALL_TO_ALL = "all-to-all"
    LOCAL_BROADCAST = "local-broadcast"


@dataclass
class DisseminationResult:
    """Outcome of running a gossip algorithm on a graph.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name.
    task:
        Which task was solved.
    time:
        Completion time in rounds (including analytically charged phases).
    rounds_simulated:
        Rounds actually simulated by the engine (excludes charged time).
    complete:
        Whether the task goal was reached (should always be true unless an
        explicit round cap was hit).
    metrics:
        Full cost metrics.
    details:
        Algorithm-specific extras (e.g. number of guess-and-double epochs,
        spanner statistics, per-phase timings).
    """

    algorithm: str
    task: Task
    time: float
    rounds_simulated: int
    complete: bool
    metrics: SimulationMetrics
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flatten the headline numbers for table rendering."""
        row = {
            "algorithm": self.algorithm,
            "task": self.task.value,
            "time": self.time,
            "rounds": self.rounds_simulated,
            "complete": self.complete,
            "messages": self.metrics.messages,
            "activations": self.metrics.activations,
        }
        row.update({f"detail_{key}": value for key, value in self.details.items() if isinstance(value, (int, float, str, bool))})
        return row


@dataclass
class ReplicatedResult:
    """Outcome of running ``reps`` seeded replications of one scenario.

    Row ``r`` of :attr:`results` is replication ``r`` — the run whose
    neighbour draws are seeded ``derive_seed(seed, "rep", r)`` — so the
    list is directly comparable, element by element, against sequential
    numpy-mode runs with the same labels (the batch backend's parity
    contract).

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name.
    task:
        Which task every replication solved.
    reps:
        Number of replications.
    results:
        One :class:`DisseminationResult` per replication, in replication
        order, each carrying its own full metrics.
    details:
        Run-level extras (backend, dynamics label, fault plan, exchange
        totals across replications).
    """

    algorithm: str
    task: Task
    reps: int
    results: list[DisseminationResult]
    details: dict[str, Any] = field(default_factory=dict)

    #: The headline per-replication quantities aggregated by :meth:`aggregate`.
    MEASURES = (
        "time",
        "rounds",
        "messages",
        "activations",
        "rumor_deliveries",
        "lost_exchanges",
        "suppressed_exchanges",
    )

    @property
    def complete(self) -> bool:
        """Whether every replication reached its task goal."""
        return all(result.complete for result in self.results)

    def measurements(self, key: str) -> list[float]:
        """The per-replication series of one :data:`MEASURES` quantity."""
        if key in ("time", "rounds"):
            return [
                float(result.time if key == "time" else result.rounds_simulated)
                for result in self.results
            ]
        return [float(getattr(result.metrics, key)) for result in self.results]

    def rows(self) -> list[dict[str, Any]]:
        """One flattened dict per replication (for tables), in order."""
        flattened = []
        for rep, result in enumerate(self.results):
            row = {"rep": rep}
            row.update(result.as_dict())
            flattened.append(row)
        return flattened

    def aggregate(self) -> dict[str, float]:
        """Mean of every headline quantity plus min/max/stdev spread columns.

        Emits the same ``{key}`` / ``{key}_min`` / ``{key}_max`` /
        ``{key}_stdev`` shape as
        :meth:`repro.analysis.experiment.TrialOutcome.aggregate`, so a
        replicated run drops into result tables exactly like a sweep case.
        """
        # Imported here: repro.analysis pulls in the sweep orchestrator and
        # calibration, which the gossip layer should not load at import time.
        from ..analysis.stats import summarize

        aggregated: dict[str, float] = {}
        for key in self.MEASURES:
            summary = summarize(self.measurements(key))
            aggregated[key] = summary.mean
            if self.reps > 1:
                aggregated.update(summary.spread_fields(key))
        return aggregated


def require_connected(graph: WeightedGraph) -> None:
    """Raise :class:`GraphError` unless the graph is connected.

    The paper assumes a connected network throughout; dissemination is
    impossible otherwise, so algorithms fail fast.
    """
    if graph.num_nodes == 0:
        raise GraphError("graph has no nodes")
    if not graph.is_connected():
        raise GraphError("information dissemination requires a connected graph")


def seed_engine(engine: EngineProtocol, task: Task, graph: WeightedGraph, source: Optional[NodeId]):
    """Seed ``engine`` for ``task``; return the tracked rumor (or ``None``).

    One-to-all tasks seed a single rumor at ``source`` (defaulting to the
    first node); the other tasks seed every node with its own rumor and
    track no specific one.
    """
    if task is Task.ONE_TO_ALL:
        if source is None:
            source = graph.nodes()[0]
        if not graph.has_node(source):
            raise GraphError(f"source {source!r} is not in the graph")
        return engine.seed_rumor(source)
    engine.seed_all_rumors()
    return None


def task_stop_condition(task: Task, rumor):
    """Return ``task``'s completion predicate as an engine callback."""
    if task is Task.ONE_TO_ALL:
        return lambda eng: eng.dissemination_complete(rumor)
    if task is Task.ALL_TO_ALL:
        return lambda eng: eng.all_to_all_complete()
    return lambda eng: eng.local_broadcast_complete()


class GossipAlgorithm(abc.ABC):
    """Base class for all gossip algorithms.

    Subclasses provide :meth:`run`; the ``name`` attribute is used in result
    tables.  Algorithms must be stateless across runs (all per-run state
    lives in the engine or in locals) so one instance can be reused across a
    parameter sweep.

    ``capability`` declares which simulation backends can run the
    algorithm's policy (see :mod:`repro.simulation.protocol`): algorithms
    whose per-round choice is declarative — uniform-random neighbour
    selection or a round-robin schedule, optionally gated on being
    (un)informed — declare :attr:`PolicyCapability.UNIFORM_RANDOM` and may
    run vectorized on the fast bitset backend; algorithms that drive the
    engine through arbitrary per-node callbacks keep the default
    :attr:`PolicyCapability.ARBITRARY_CALLBACK` and always use the
    reference backend.

    ``supports_dynamics`` declares whether ``run`` accepts a
    ``dynamics=`` schedule (see :mod:`repro.simulation.dynamics`).
    Algorithms that react to the topology only through the engine's
    per-round views (the random phone-call family, flooding) support it;
    algorithms that precompute structure from the static graph (spanners,
    DTG trees, latency classes) do not — their precomputed artifacts would
    silently go stale mid-run.  Dynamics are also rejected for the
    local-broadcast task regardless of the algorithm: its completion
    predicate is relative to each node's *current* neighbour set, so churn
    would make completion vacuous rather than harder.
    """

    name: str = "gossip"
    task: Task = Task.ONE_TO_ALL
    capability: PolicyCapability = PolicyCapability.ARBITRARY_CALLBACK
    supports_dynamics: bool = False

    def _check_dynamics(self, dynamics: Optional[TopologyDynamics]) -> Optional[TopologyDynamics]:
        """Reject a dynamics schedule the algorithm cannot honour."""
        if dynamics is None:
            return None
        if self.task is Task.LOCAL_BROADCAST:
            raise GraphError(
                f"{self.name} solves local broadcast, whose completion predicate compares "
                "each node's knowledge against its current neighbour set; under topology "
                "dynamics a churned-out node would count as vacuously complete, so the "
                "combination is rejected — run a dissemination task instead"
            )
        if not self.supports_dynamics:
            raise GraphError(
                f"{self.name} precomputes structure from the static topology and does "
                "not support topology dynamics; use an engine-driven algorithm "
                "(push/pull/push-pull/flooding) instead"
            )
        return dynamics

    def batch_policy(self) -> tuple[str, str]:
        """The algorithm's declarative per-round policy as ``(select, gate)``.

        Declarative algorithms (those declaring
        :attr:`PolicyCapability.UNIFORM_RANDOM`) override this; it is the
        single source their ``_run`` builds its
        :class:`~repro.simulation.protocol.RoundPolicySpec` from and the
        shape replicated runs vectorize over.  Callback-driven algorithms
        have no declarative form and raise.
        """
        raise EngineSelectionError(
            f"{self.name} drives the engine through arbitrary per-node callbacks "
            "and has no declarative batch policy; replicated (reps=) runs need a "
            "declarative algorithm (push/pull/push-pull/flooding)"
        )

    def _policy_options(self) -> dict:
        """Extra keyword options for the declarative policy specs.

        Gates that need parameters beyond ``(select, gate)`` contribute
        them here — the SIR protocol's ``forget_after`` — and they are
        spliced into both the single-run :class:`RoundPolicySpec` and the
        replicated :class:`BatchPolicySpec`, keeping the two forms in
        lockstep.
        """
        return {}

    def _single_stop_condition(self, rumor):
        """The single-run stop predicate (default: the task's completion)."""
        return task_stop_condition(self.task, rumor)

    def _single_complete(self, eng) -> bool:
        """Whether a stopped single run reached the task goal.

        The default tasks only stop on completion; protocols with an
        alternative terminal state (SIR die-out) override this.
        """
        return True

    def _batch_stop_mask(self, rumor):
        """The per-replication stop mask (default: the task's completion)."""
        if self.task is Task.ONE_TO_ALL:
            return lambda eng: eng.dissemination_complete_mask(rumor)
        return lambda eng: eng.all_to_all_complete_mask()

    def _finalize_single(self, eng, result: "DisseminationResult") -> None:
        """Post-run hook for algorithm-specific detail annotation."""

    def _finalize_batch(self, eng, results: list["DisseminationResult"]) -> None:
        """Post-run hook over the per-replication rows of a batch run."""

    def run(
        self,
        graph: Optional[WeightedGraph] = None,
        source: Optional[NodeId] = None,
        seed: Optional[int] = None,
        max_rounds: Optional[int] = None,
        engine: str = "auto",
        dynamics: Optional[TopologyDynamics] = None,
        faults: Optional[FaultPlan] = None,
        scenario: Union["ScenarioSpec", str, None] = None,
        reps: Optional[int] = None,
    ) -> Union[DisseminationResult, "ReplicatedResult"]:
        """Run the algorithm and return the result.

        Two call forms share this entry point:

        **Explicit form** — pass ``graph`` (and optionally the rest).
        ``source`` is required for one-to-all algorithms and ignored by
        all-to-all / local-broadcast algorithms.  ``seed`` makes randomized
        algorithms reproducible.  ``max_rounds`` is a safety cap; hitting it
        raises ``RuntimeError`` rather than returning a bogus result.
        ``engine`` selects the simulation backend (``"reference"``,
        ``"fast"``, or ``"auto"``); ``"auto"`` resolves to the fast backend
        exactly when the algorithm's :attr:`capability` allows it; the
        backend that ran is recorded in ``details["engine"]`` by
        engine-driven algorithms.  ``dynamics`` applies a topology-dynamics
        schedule for the duration of the run (mutating ``graph``; see
        :mod:`repro.simulation.dynamics`); ``faults`` is a
        :class:`~repro.simulation.faults.FaultPlan` compiled onto the same
        event pipeline and composed after any ``dynamics`` — both require
        :attr:`supports_dynamics`, both run on either backend, and runs
        under them record ``details["dynamics"]`` /
        ``details["lost_exchanges"]`` (plus ``details["faults"]`` and
        ``details["suppressed_exchanges"]`` for fault runs).

        **Scenario form** — pass ``scenario=`` (a
        :class:`~repro.scenario.ScenarioSpec` or a path to its JSON file):
        the graph, source, seeds, dynamics, fault plan, engine, and round
        cap are all built from the spec (see :mod:`repro.scenario` for the
        derivation discipline), this instance runs in place of the spec's
        named algorithm, and ``details["scenario"]`` records the spec's
        name.  Explicit ``seed=`` / ``max_rounds=`` arguments and an
        ``engine=`` other than ``"auto"`` override the spec's values (the
        engine override is how parity harnesses replay one scenario on
        both backends; the seed override is how sweeps re-seed one spec
        per repetition); ``graph``/``source``/``dynamics``/``faults``
        cannot be combined with a scenario and raise.

        **Replicated form** — pass ``reps=R`` (or ``engine="batch"``, or a
        scenario whose spec sets them): the run executes ``R`` independent
        replications that share the graph, dynamics schedule, and fault
        plan (all derived from ``seed`` as usual) and differ only in the
        per-replication neighbour-draw stream, seeded
        ``derive_seed(seed, "rep", r)``.  ``engine="batch"`` (what
        ``"auto"`` resolves to) vectorizes all replications as one numpy
        computation on the :class:`~repro.simulation.batch_engine.BatchEngine`;
        ``engine="fast"`` runs them as a sequential loop of numpy-mode
        fast-backend runs — bit-for-bit the same per-replication results,
        which is the batch backend's parity oracle.  Returns a
        :class:`ReplicatedResult` (row ``r`` = replication ``r``).  Unlike
        scalar runs, replicated runs never mutate the caller's graph (each
        backend works on a copy).  Requires a declarative algorithm and a
        dissemination task.
        """
        if reps is not None and (not isinstance(reps, int) or reps < 1):
            raise ValueError(f"reps must be a positive integer, got {reps!r}")
        if scenario is not None:
            if graph is not None or source is not None or dynamics is not None or faults is not None:
                raise GraphError(
                    "run(scenario=...) builds the graph, source, dynamics, and faults "
                    "from the spec; do not pass them alongside it (patch the spec instead)"
                )
            from ..scenario import load_scenario, prepare_scenario

            spec = load_scenario(scenario) if isinstance(scenario, str) else scenario
            if engine != "auto":
                spec = spec.patched({"engine": engine})
            if seed is not None:
                spec = spec.patched({"seed": seed})
            if max_rounds is not None:
                spec = spec.patched({"max_rounds": max_rounds})
            if reps is not None:
                spec = spec.patched({"reps": reps})
            prepared = prepare_scenario(spec, algorithm=self)
            return prepared.execute()

        if graph is None:
            raise GraphError("run() needs a graph (or a scenario= spec that builds one)")
        seed = 0 if seed is None else seed
        max_rounds = 1_000_000 if max_rounds is None else max_rounds
        self._check_dynamics(dynamics)
        if faults is not None and faults.empty:
            faults = None
        schedule = None
        if faults is not None:
            # Faults ride the same event pipeline as churn/drift, so the
            # same capability gate applies: algorithms that precompute
            # static structure cannot honour them.
            schedule = compile_fault_plan(faults)
            self._check_dynamics(schedule)
            dynamics = (
                schedule if dynamics is None else ComposedDynamics((dynamics, schedule))
            )
        if reps is not None or engine == "batch":
            result = self._run_replicated(
                graph,
                source=source,
                seed=seed,
                max_rounds=max_rounds,
                engine=engine,
                dynamics=dynamics,
                reps=1 if reps is None else reps,
            )
        else:
            result = self._run(
                graph,
                source=source,
                seed=seed,
                max_rounds=max_rounds,
                engine=engine,
                dynamics=dynamics,
            )
        if schedule is not None:
            result.details["faults"] = str(schedule)
            if isinstance(result, DisseminationResult):
                result.details["suppressed_exchanges"] = result.metrics.suppressed_exchanges
            else:
                for rep_result in result.results:
                    rep_result.details["faults"] = str(schedule)
        return result

    def _run_replicated(
        self,
        graph: WeightedGraph,
        source: Optional[NodeId],
        seed: int,
        max_rounds: int,
        engine: str,
        dynamics: Optional[TopologyDynamics],
        reps: int,
    ) -> "ReplicatedResult":
        """Run ``reps`` replications sharing graph/dynamics/faults.

        The concrete replication harness behind ``run(reps=...)``: resolves
        the backend (``"batch"`` vectorized, or ``"fast"`` as a sequential
        numpy-mode loop), derives one neighbour-draw stream per replication
        with the ``("rep", r)`` labels, and assembles per-replication
        :class:`DisseminationResult` rows.  Works on copies of ``graph`` so
        the caller's graph survives dynamics untouched.
        """
        if self.task is Task.LOCAL_BROADCAST:
            raise GraphError(
                f"{self.name} solves local broadcast, which replicated runs do not "
                "support; run a dissemination task instead"
            )
        backend = resolve_backend(engine, self.capability, reps=reps)
        select, gate = self.batch_policy()
        require_connected(graph)
        results: list[DisseminationResult] = []
        # Engines only mutate the graph while applying dynamics events, so
        # the never-mutate-the-caller's-graph guarantee is free on static
        # runs; only dynamic runs pay for copies.
        if backend == "batch":
            work = graph.copy() if dynamics is not None else graph
            eng, _ = create_engine(
                work, engine, capability=self.capability, dynamics=dynamics, reps=reps
            )
            rumor = seed_engine(eng, self.task, work, source)
            if self.task is Task.ONE_TO_ALL:
                eng.track_curve(rumor)
            stop_mask = self._batch_stop_mask(rumor)
            rngs = tuple(replication_rngs(seed, reps)) if select == "uniform-random" else ()
            policy = BatchPolicySpec(
                select=select, gate=gate, rngs=rngs, **self._policy_options()
            )
            per_rep_metrics = eng.run_batch(policy, stop_mask, max_rounds=max_rounds)
            for rep, metrics in enumerate(per_rep_metrics):
                details = engine_run_details(backend, dynamics, metrics)
                details["rep"] = rep
                if self.task is Task.ONE_TO_ALL:
                    details["informed_curve"] = eng.informed_curve(rep)
                results.append(
                    DisseminationResult(
                        algorithm=self.name,
                        task=self.task,
                        time=metrics.total_time,
                        rounds_simulated=metrics.rounds,
                        complete=True,
                        metrics=metrics,
                        details=details,
                    )
                )
            self._finalize_batch(eng, results)
        else:  # "fast": the sequential numpy-mode loop (the parity oracle)
            for rep in range(reps):
                work = graph.copy() if dynamics is not None else graph
                eng, _ = create_engine(work, "fast", capability=self.capability, dynamics=dynamics)
                rumor = seed_engine(eng, self.task, work, source)
                if select == "uniform-random":
                    spec = RoundPolicySpec(
                        select=select,
                        gate=gate,
                        rng=make_numpy_rng(seed, "rep", rep),
                        **self._policy_options(),
                    )
                else:
                    spec = RoundPolicySpec(select=select, gate=gate, **self._policy_options())
                metrics = eng.run(
                    spec,
                    stop_condition=self._single_stop_condition(rumor),
                    max_rounds=max_rounds,
                )
                details = engine_run_details(backend, dynamics, metrics)
                details["rep"] = rep
                details["sampling"] = "numpy"
                result = DisseminationResult(
                    algorithm=self.name,
                    task=self.task,
                    time=metrics.total_time,
                    rounds_simulated=metrics.rounds,
                    complete=self._single_complete(eng),
                    metrics=metrics,
                    details=details,
                )
                self._finalize_single(eng, result)
                results.append(result)
        details: dict[str, Any] = {"engine": backend, "reps": reps}
        if dynamics is not None:
            details["dynamics"] = str(dynamics)
        details["lost_exchanges"] = sum(r.metrics.lost_exchanges for r in results)
        details["suppressed_exchanges"] = sum(r.metrics.suppressed_exchanges for r in results)
        return ReplicatedResult(
            algorithm=self.name, task=self.task, reps=reps, results=results, details=details
        )

    @abc.abstractmethod
    def _run(
        self,
        graph: WeightedGraph,
        source: Optional[NodeId] = None,
        seed: int = 0,
        max_rounds: int = 1_000_000,
        engine: str = "auto",
        dynamics: Optional[TopologyDynamics] = None,
    ) -> DisseminationResult:
        """Algorithm-specific implementation behind :meth:`run`.

        Receives fully resolved arguments: ``dynamics`` already includes
        any compiled fault schedule, and scenario specs have been expanded.
        Subclasses implement this — never call it directly; :meth:`run`
        owns fault compilation, scenario expansion, and detail annotation.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
