"""Declarative scenarios: one serializable artifact naming an entire run.

A :class:`ScenarioSpec` captures everything that determines a gossip run —
graph builder, latency model, algorithm + task, topology dynamics, fault
plan, simulation backend, round cap, and the seed that every randomized
component derives from — as one frozen, JSON-round-trippable value.  The
same spec therefore *is* the reproduction recipe: run it from Python
(:func:`run_scenario` or ``GossipAlgorithm.run(scenario=...)``), from the
command line (``repro-gossip run --scenario file.json``), or as the base of
a parameter sweep (:func:`repro.analysis.experiment.scenario_sweep` applies
per-case patches to one base spec).

Seed-derivation discipline
--------------------------
A spec carries one ``seed``; every component derives its own stream from it
through :func:`repro.simulation.rng.derive_seed` with a fixed label, so no
two components share randomness and the whole run is reproducible from the
single number:

* the graph builder runs with ``derive_seed(seed, "graph")``;
* dynamics part *i* with ``derive_seed(seed, "dynamics", i, kind)``;
* the crash / drop fault draws with ``derive_seed(seed, "faults", "crash")``
  / ``derive_seed(seed, "faults", "drop")``;
* the algorithm itself runs with ``seed`` (it applies its own labels);
* replication ``r`` of a replicated run (``reps > 1`` / ``engine ==
  "batch"``) draws neighbours from ``derive_seed(seed, "rep", r)`` — the
  graph, dynamics, and fault streams above stay shared across
  replications, so the ensemble varies only the protocol's own coin flips.

Canonical JSON form
-------------------
:meth:`ScenarioSpec.to_json` always emits the *full* schema with keys
sorted, so ``load → dump → load`` is the identity and two specs are equal
iff their files are byte-identical.  The bundled library under
``scenarios/`` at the repository root is validated (and executed on both
backends) by ``tools/check_scenarios.py`` in CI; load its entries by name
with :func:`load_named_scenario`.

Patching
--------
:meth:`ScenarioSpec.patched` applies a mapping of dotted paths (or nested
dicts) onto the spec's canonical dict form and revalidates::

    crashier = base.patched({"faults.crash_fraction": 0.4, "graph.n": 96})

Patches are how sweeps express their grid: each case is one small patch on
one shared base scenario instead of a hand-wired argparse combination.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping, Optional, Sequence, Union

from .gossip import (
    FloodingGossip,
    PatternBroadcast,
    PullGossip,
    PushGossip,
    PushPullGossip,
    SirPushPull,
    SpannerBroadcast,
    Task,
    UnifiedGossip,
)
from .gossip.base import DisseminationResult, GossipAlgorithm
from .graphs import (
    WeightedGraph,
    bimodal_latency,
    constant_latency,
    two_cluster_slow_bridge,
    uniform_latency,
    weighted_barabasi_albert,
    weighted_clique,
    weighted_configuration_model,
    weighted_erdos_renyi,
    weighted_expander,
    weighted_grid,
    weighted_kronecker,
    weighted_watts_strogatz,
)
from .graphs.dynamics import (
    compose_dynamics,
    markov_churn,
    periodic_latency_drift,
    slow_bridge_flapping,
)
from .graphs.weighted_graph import NodeId
from .simulation.dynamics import TopologyDynamics
from .simulation.faults import FaultPlan, random_crash_plan, random_edge_drop_plan
from .simulation.rng import derive_seed
from .store import active_graph_store, active_result_store

__all__ = [
    "SCENARIO_SCHEMA",
    "ScenarioError",
    "GraphSpec",
    "DynamicsSpec",
    "FaultSpec",
    "ScenarioSpec",
    "PreparedScenario",
    "GRAPH_FAMILIES",
    "FAMILY_PARAMS",
    "LATENCY_MODELS",
    "DYNAMICS_KINDS",
    "ALGORITHMS",
    "TASKS",
    "ENGINES",
    "build_graph",
    "build_dynamics",
    "build_fault_plan",
    "build_algorithm",
    "prepare_scenario",
    "run_scenario",
    "load_scenario",
    "dump_scenario",
    "scenario_library_dir",
    "library_scenario_names",
    "load_named_scenario",
]

SCENARIO_SCHEMA = 1


class ScenarioError(ValueError):
    """Raised when a scenario spec is malformed or cannot be built."""


# ----------------------------------------------------------------------
# Registries: the vocabulary a spec's string fields are validated against
# ----------------------------------------------------------------------
GRAPH_FAMILIES = {
    "clique": lambda n, model, seed: weighted_clique(n, model, seed=seed),
    "expander": lambda n, model, seed: weighted_expander(n, 4, model, seed=seed),
    "grid": lambda n, model, seed: weighted_grid(
        max(2, int(n**0.5)), max(2, int(n**0.5)), model, seed=seed
    ),
    "erdos-renyi": lambda n, model, seed: weighted_erdos_renyi(
        n, min(1.0, 8.0 / max(n, 2)), model, seed=seed, csr=True
    ),
    "barabasi-albert": lambda n, model, seed: weighted_barabasi_albert(
        n, 3, model, seed=seed, csr=True
    ),
    # Two fast cliques joined by one slow link — the paper's bottleneck
    # shape.  Its latencies are fixed by construction (1 inside the
    # clusters, 32 on the bridge) and the builder is deterministic, so the
    # latency model and seed play no role; validation pins latency to
    # "unit" so a spec cannot claim a model the graph will not honour.
    "slow-bridge": lambda n, model, seed: two_cluster_slow_bridge(
        max(2, n // 2), fast_latency=1, slow_latency=32, bridges=1
    ),
    # CSR-first families: the builders stream edges straight into CSR above
    # repro.graphs.generators.CSR_AUTO_THRESHOLD, so million-node specs
    # build without ever materializing a python dict-of-dicts.  Their knobs
    # are exposed through ``graph.params`` (validated per family by
    # :data:`FAMILY_PARAMS`).  Every family that takes ``csr`` gets
    # ``csr=True``: below the threshold that is the replayed dict-path
    # realization assembled straight into arrays, so the graph store
    # snapshots it without building a dict.
    "watts-strogatz": lambda n, model, seed, **params: weighted_watts_strogatz(
        n, model=model, seed=seed, csr=True, **params
    ),
    "configuration-model": lambda n, model, seed, **params: weighted_configuration_model(
        n, model=model, seed=seed, csr=True, **params
    ),
    "kronecker": lambda n, model, seed, **params: weighted_kronecker(
        n, model=model, seed=seed, csr=True, **params
    ),
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Per-family ``graph.params`` schema: family -> {param: (default,
#: requirement text, predicate)}.  Families absent from the table take no
#: parameters at all; :meth:`GraphSpec.validate` names the exact parameter
#: that failed (or the unknown key) so a malformed spec is diagnosable
#: without reading the builder's source.
FAMILY_PARAMS: dict[str, dict[str, tuple[Any, str, Any]]] = {
    "watts-strogatz": {
        "k": (6, "an even integer >= 2", lambda v: _is_int(v) and v >= 2 and v % 2 == 0),
        "rewire": (0.1, "a number in [0, 1]", lambda v: _is_number(v) and 0.0 <= v <= 1.0),
    },
    "configuration-model": {
        "gamma": (2.5, "a number > 1", lambda v: _is_number(v) and v > 1.0),
        "min_degree": (2, "an integer >= 1", lambda v: _is_int(v) and v >= 1),
    },
    "kronecker": {
        "edge_factor": (8, "an integer >= 1", lambda v: _is_int(v) and v >= 1),
        "a": (0.57, "a number in (0, 1)", lambda v: _is_number(v) and 0.0 < v < 1.0),
        "b": (0.19, "a number in (0, 1)", lambda v: _is_number(v) and 0.0 < v < 1.0),
        "c": (0.19, "a number in (0, 1)", lambda v: _is_number(v) and 0.0 < v < 1.0),
    },
}

LATENCY_MODELS = {
    "unit": lambda: constant_latency(1),
    "uniform": lambda: uniform_latency(1, 16),
    "bimodal": lambda: bimodal_latency(fast=1, slow=64, slow_fraction=0.5),
}

DYNAMICS_KINDS = ("markov-churn", "latency-drift", "bridge-flap")

TASKS = ("one-to-all", "all-to-all")

ENGINES = ("auto", "fast", "reference", "batch", "edge")

# algorithm name -> (factory taking a Task, tasks the algorithm solves).
ALGORITHMS: dict[str, tuple[Any, tuple[str, ...]]] = {
    "push-pull": (lambda task: PushPullGossip(task=task), TASKS),
    "push": (lambda task: PushGossip(task=task), TASKS),
    "pull": (lambda task: PullGossip(task=task), TASKS),
    "flooding": (lambda task: FloodingGossip(task=task), TASKS),
    "spanner": (lambda task: SpannerBroadcast(), ("all-to-all",)),
    "pattern": (lambda task: PatternBroadcast(), ("all-to-all",)),
    "unified": (lambda task: UnifiedGossip(), ("all-to-all",)),
    # SIR push-pull forgets the rumor forget_after rounds after learning it;
    # the spec's top-level ``forget_after`` field parameterizes the factory
    # (see build_algorithm).  Single-rumor bookkeeping -> one-to-all only.
    "sir-push-pull": (lambda task: SirPushPull(), ("one-to-all",)),
}

#: Algorithms that run on the engine event pipeline and therefore accept
#: dynamics and fault schedules; the others precompute static structure.
_DYNAMIC_ALGORITHMS = ("push-pull", "push", "pull", "flooding", "sir-push-pull")


# ----------------------------------------------------------------------
# Spec dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphSpec:
    """Which network to build: a generator family, its size, its latencies.

    ``params`` carries the family-specific generator knobs (``k`` /
    ``rewire`` for watts-strogatz, ``gamma`` / ``min_degree`` for
    configuration-model, ``edge_factor`` / ``a`` / ``b`` / ``c`` for
    kronecker); omitted knobs take the builder defaults recorded in
    :data:`FAMILY_PARAMS`.  Families without an entry there take no
    parameters, and validation rejects unknown or ill-typed keys naming
    the exact parameter that failed.
    """

    family: str = "erdos-renyi"
    n: int = 64
    latency: str = "uniform"
    params: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on an invalid graph spec."""
        if self.family not in GRAPH_FAMILIES:
            raise ScenarioError(
                f"graph.family {self.family!r} is unknown; choose from {sorted(GRAPH_FAMILIES)}"
            )
        if self.latency not in LATENCY_MODELS:
            raise ScenarioError(
                f"graph.latency {self.latency!r} is unknown; choose from {sorted(LATENCY_MODELS)}"
            )
        if self.family == "slow-bridge" and self.latency != "unit":
            raise ScenarioError(
                "the slow-bridge family has fixed latencies (1 intra-cluster, 32 on the "
                "bridge); set graph.latency to 'unit' — other models would be silently ignored"
            )
        if not isinstance(self.n, int) or self.n < 2:
            raise ScenarioError(f"graph.n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.params, dict):
            raise ScenarioError(
                f"graph.params must be a mapping of generator knobs, got {self.params!r}"
            )
        schema = FAMILY_PARAMS.get(self.family, {})
        unknown = sorted(set(self.params) - set(schema))
        if unknown:
            vocabulary = (
                f"this family takes {sorted(schema)}"
                if schema
                else "this family takes no parameters"
            )
            raise ScenarioError(
                f"graph.params.{unknown[0]} is unknown for family {self.family!r}; {vocabulary}"
            )
        for name, (default, requirement, check) in schema.items():
            if name in self.params and not check(self.params[name]):
                raise ScenarioError(
                    f"graph.params.{name} for family {self.family!r} must be "
                    f"{requirement}, got {self.params[name]!r}"
                )
        # Cross-parameter constraints, still named after the culprit knob.
        resolved = {name: self.params.get(name, spec[0]) for name, spec in schema.items()}
        if self.family == "watts-strogatz" and self.n <= resolved["k"]:
            raise ScenarioError(
                f"graph.params.k must be < graph.n for family 'watts-strogatz', "
                f"got k={resolved['k']} n={self.n}"
            )
        if self.family == "configuration-model" and self.n <= resolved["min_degree"]:
            raise ScenarioError(
                f"graph.params.min_degree must be < graph.n for family "
                f"'configuration-model', got min_degree={resolved['min_degree']} n={self.n}"
            )
        if self.family == "kronecker":
            total = resolved["a"] + resolved["b"] + resolved["c"]
            if total >= 1.0:
                raise ScenarioError(
                    "graph.params.a/b/c for family 'kronecker' must satisfy "
                    f"a + b + c < 1 (d = 1 - a - b - c is the fourth quadrant), "
                    f"got a + b + c = {total}"
                )


@dataclass(frozen=True)
class DynamicsSpec:
    """One topology-dynamics schedule: a generator kind plus its knobs.

    Only the knobs relevant to ``kind`` are consulted (``rate`` / ``rejoin``
    for churn, ``amplitude`` for drift, ``bridges`` for flapping; ``period``
    and ``horizon`` are shared), but every field is always serialized so
    the canonical JSON form is fixed-shape.
    """

    kind: str = "markov-churn"
    rate: float = 0.02
    rejoin: float = 0.25
    amplitude: float = 0.5
    period: int = 32
    horizon: int = 256
    bridges: int = 1

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on an invalid dynamics spec."""
        if self.kind not in DYNAMICS_KINDS:
            raise ScenarioError(
                f"dynamics.kind {self.kind!r} is unknown; choose from {sorted(DYNAMICS_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0 or not 0.0 <= self.rejoin <= 1.0:
            raise ScenarioError("dynamics.rate and dynamics.rejoin must be in [0, 1]")
        if self.amplitude < 0.0:
            raise ScenarioError(f"dynamics.amplitude must be >= 0, got {self.amplitude!r}")
        if not isinstance(self.period, int) or self.period < 2:
            raise ScenarioError(f"dynamics.period must be an integer >= 2, got {self.period!r}")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ScenarioError(f"dynamics.horizon must be an integer >= 1, got {self.horizon!r}")
        if not isinstance(self.bridges, int) or self.bridges < 1:
            raise ScenarioError(f"dynamics.bridges must be an integer >= 1, got {self.bridges!r}")


@dataclass(frozen=True)
class FaultSpec:
    """Crash-stop / edge-drop faults, drawn from the scenario seed.

    ``protect_source`` keeps the (resolved) one-to-all source out of the
    crash draw — without it a crashed source makes dissemination trivially
    impossible; it has no effect on all-to-all runs, which have no single
    source to protect.
    """

    crash_fraction: float = 0.0
    crash_round: int = 1
    drop_fraction: float = 0.0
    drop_round: int = 1
    protect_source: bool = True

    @property
    def empty(self) -> bool:
        """Whether the spec draws no faults at all."""
        return self.crash_fraction == 0.0 and self.drop_fraction == 0.0

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on an invalid fault spec."""
        if not 0.0 <= self.crash_fraction <= 1.0 or not 0.0 <= self.drop_fraction <= 1.0:
            raise ScenarioError("faults.crash_fraction and faults.drop_fraction must be in [0, 1]")
        if not isinstance(self.crash_round, int) or self.crash_round < 0:
            raise ScenarioError(f"faults.crash_round must be an integer >= 0, got {self.crash_round!r}")
        if not isinstance(self.drop_round, int) or self.drop_round < 0:
            raise ScenarioError(f"faults.drop_round must be an integer >= 0, got {self.drop_round!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """The complete declarative description of one gossip run.

    ``reps`` asks for a *replicated* run: ``reps`` independent replications
    that share the spec-seeded graph, dynamics, and faults and differ only
    in the neighbour-draw stream (replication ``r`` draws from
    ``derive_seed(seed, "rep", r)``).  A spec with ``reps > 1`` — or with
    ``engine`` set to ``"batch"``, the vectorized multi-replication
    backend — executes as a
    :class:`~repro.gossip.base.ReplicatedResult`; ``reps == 1`` with any
    other engine is the classic single-run form.

    ``forget_after`` parameterizes the ``sir-push-pull`` algorithm (how
    many rounds an informed node stays infectious before forgetting the
    rumor); ``null`` takes the protocol default, and any other algorithm
    rejects the field.
    """

    name: str
    algorithm: str = "push-pull"
    task: str = "all-to-all"
    graph: GraphSpec = field(default_factory=GraphSpec)
    seed: int = 0
    engine: str = "auto"
    source_index: Optional[int] = None
    max_rounds: int = 100_000
    reps: int = 1
    forget_after: Optional[int] = None
    dynamics: tuple[DynamicsSpec, ...] = ()
    faults: Optional[FaultSpec] = None
    schema: int = SCENARIO_SCHEMA

    # -- validation ------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Validate every field against the registries; return ``self``."""
        if self.schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"unsupported scenario schema {self.schema!r} (this build reads {SCENARIO_SCHEMA})"
            )
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("scenario name must be a non-empty string")
        if self.algorithm not in ALGORITHMS:
            raise ScenarioError(
                f"algorithm {self.algorithm!r} is unknown; choose from {sorted(ALGORITHMS)}"
            )
        if self.task not in TASKS:
            raise ScenarioError(f"task {self.task!r} is unknown; choose from {sorted(TASKS)}")
        _factory, tasks = ALGORITHMS[self.algorithm]
        if self.task not in tasks:
            raise ScenarioError(
                f"algorithm {self.algorithm!r} only solves {tasks}, not {self.task!r}"
            )
        if self.engine not in ENGINES:
            raise ScenarioError(f"engine {self.engine!r} is unknown; choose from {sorted(ENGINES)}")
        if not isinstance(self.seed, int):
            raise ScenarioError(f"seed must be an integer, got {self.seed!r}")
        if self.source_index is not None and (
            not isinstance(self.source_index, int) or self.source_index < 0
        ):
            raise ScenarioError(f"source_index must be a non-negative integer or null, got {self.source_index!r}")
        if not isinstance(self.max_rounds, int) or self.max_rounds < 1:
            raise ScenarioError(f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")
        if not isinstance(self.reps, int) or self.reps < 1:
            raise ScenarioError(f"reps must be an integer >= 1, got {self.reps!r}")
        if self.forget_after is not None:
            if self.algorithm != "sir-push-pull":
                raise ScenarioError(
                    f"forget_after only applies to algorithm 'sir-push-pull', "
                    f"not {self.algorithm!r}"
                )
            if (
                not isinstance(self.forget_after, int)
                or isinstance(self.forget_after, bool)
                or self.forget_after < 1
            ):
                raise ScenarioError(
                    f"forget_after must be an integer >= 1 or null, got {self.forget_after!r}"
                )
        if self.algorithm == "sir-push-pull" and self.engine == "reference":
            raise ScenarioError(
                "algorithm 'sir-push-pull' needs per-node recovery state that only "
                "the fast/edge/batch backends keep; the reference engine cannot run it"
            )
        if (self.reps > 1 or self.engine == "batch") and self.algorithm not in _DYNAMIC_ALGORITHMS:
            raise ScenarioError(
                f"algorithm {self.algorithm!r} drives the engine through arbitrary "
                "callbacks and cannot run replicated (reps > 1 / engine='batch'); "
                f"choose from {_DYNAMIC_ALGORITHMS}"
            )
        if self.reps > 1 and self.engine == "reference":
            raise ScenarioError(
                "the reference engine has no numpy sampling mode; replicated scenarios "
                "(reps > 1) need engine 'batch' (vectorized), 'fast' (sequential "
                "numpy-mode loop), or 'auto'"
            )
        if self.reps > 1 and self.engine == "edge":
            raise ScenarioError(
                "the edge engine vectorizes a single run across the edge set and has "
                "no replication axis; replicated scenarios (reps > 1) need engine "
                "'batch' (vectorized), 'fast' (sequential numpy-mode loop), or 'auto'"
            )
        self.graph.validate()
        for part in self.dynamics:
            part.validate()
        if self.faults is not None:
            self.faults.validate()
        if self.algorithm not in _DYNAMIC_ALGORITHMS:
            if self.dynamics:
                raise ScenarioError(
                    f"algorithm {self.algorithm!r} precomputes static structure and does not "
                    "support topology dynamics"
                )
            if self.faults is not None and not self.faults.empty:
                raise ScenarioError(
                    f"algorithm {self.algorithm!r} precomputes static structure and does not "
                    "support fault schedules (they ride the dynamics event pipeline)"
                )
        return self

    # -- JSON round-trip -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The canonical (full-schema) nested-dict form of the spec."""
        payload = asdict(self)
        payload["dynamics"] = [asdict(part) for part in self.dynamics]
        payload["faults"] = None if self.faults is None else asdict(self.faults)
        return payload

    def to_json(self) -> str:
        """Canonical JSON: full schema, sorted keys, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from its dict form (strict keys)."""
        if not isinstance(payload, Mapping):
            raise ScenarioError(f"scenario payload must be a mapping, got {type(payload).__name__}")
        data = dict(payload)
        graph = _sub_spec(GraphSpec, data.pop("graph", {}), "graph")
        dynamics_raw = data.pop("dynamics", [])
        if not isinstance(dynamics_raw, Sequence) or isinstance(dynamics_raw, (str, bytes)):
            raise ScenarioError("dynamics must be a list of dynamics specs")
        dynamics = tuple(
            _sub_spec(DynamicsSpec, part, f"dynamics[{index}]")
            for index, part in enumerate(dynamics_raw)
        )
        faults_raw = data.pop("faults", None)
        faults = None if faults_raw is None else _sub_spec(FaultSpec, faults_raw, "faults")
        known = {f.name for f in fields(cls)} - {"graph", "dynamics", "faults"}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys {sorted(unknown)!r}")
        if "name" not in data:
            raise ScenarioError("scenario needs a name")
        return cls(graph=graph, dynamics=dynamics, faults=faults, **data).validate()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse and validate a spec from its JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    # -- patching --------------------------------------------------------
    def patched(self, patch: Mapping[str, Any]) -> "ScenarioSpec":
        """A new validated spec with ``patch`` applied to the dict form.

        Patch keys may be nested dicts or dotted paths; a dotted path that
        crosses the ``dynamics`` list uses the part's integer position
        (``"dynamics.0.rate"``).  Setting ``"faults"`` to a dict creates
        the fault spec if absent.
        """
        payload = self.to_dict()
        for key, value in patch.items():
            _assign_path(payload, key.split(".") if isinstance(key, str) else list(key), value)
        return type(self).from_dict(payload)

    # -- numeric-path introspection --------------------------------------
    def numeric_paths(self) -> tuple[str, ...]:
        """Every dotted path at which :meth:`patched` accepts a number.

        The sorted enumeration covers the numeric leaves *present* in the
        canonical dict form plus the ones a patch can **create**: an absent
        ``faults`` block (materialized from :class:`FaultSpec` defaults),
        the current graph family's omitted :data:`FAMILY_PARAMS` knobs, and
        ``forget_after`` when the algorithm is ``sir-push-pull`` (``null``
        in canonical form but patchable to an int).  ``schema`` is excluded
        — patching the format version can only invalidate the spec.  This
        is the vocabulary parameter-fitting layers (e.g.
        ``repro.analysis.calibrate`` priors) validate their targets
        against.
        """
        found: set[str] = set()

        def walk(prefix: str, value: Any) -> None:
            if isinstance(value, dict):
                for key, sub in value.items():
                    walk(f"{prefix}{key}.", sub)
            elif isinstance(value, list):
                for index, sub in enumerate(value):
                    walk(f"{prefix}{index}.", sub)
            elif _is_number(value):
                found.add(prefix[:-1])

        payload = self.to_dict()
        del payload["schema"]
        walk("", payload)
        if self.faults is None:
            defaults = FaultSpec()
            for spec_field in fields(FaultSpec):
                if _is_number(getattr(defaults, spec_field.name)):
                    found.add(f"faults.{spec_field.name}")
        for param in FAMILY_PARAMS.get(self.graph.family, {}):
            found.add(f"graph.params.{param}")
        if self.algorithm == "sir-push-pull":
            found.add("forget_after")
        return tuple(sorted(found))

    def require_numeric_path(self, path: str) -> None:
        """Raise :class:`ScenarioError` unless ``path`` is a patchable numeric leaf.

        The error names the offending path and lists the valid vocabulary,
        mirroring the :data:`FAMILY_PARAMS` validation style.
        """
        known = self.numeric_paths()
        if path not in known:
            raise ScenarioError(
                f"{path!r} is not a patchable numeric leaf of scenario "
                f"{self.name!r}; choose from {list(known)}"
            )

    def numeric_leaf(self, path: str) -> Optional[Union[int, float]]:
        """The current value at a numeric path from :meth:`numeric_paths`.

        Creatable-but-absent leaves resolve to the value a run would use:
        omitted ``graph.params`` knobs return their :data:`FAMILY_PARAMS`
        default, an absent ``faults`` block returns :class:`FaultSpec`
        defaults, and an unset ``forget_after`` returns ``None`` (the
        protocol default is the algorithm's own).
        """
        self.require_numeric_path(path)
        node: Any = self.to_dict()
        for part in path.split("."):
            if isinstance(node, list):
                node = node[int(part)]
            elif isinstance(node, dict) and part in node:
                node = node[part]
            else:
                if path.startswith("graph.params."):
                    return FAMILY_PARAMS[self.graph.family][path.rsplit(".", 1)[1]][0]
                return getattr(FaultSpec(), path.split(".", 1)[1])
        return node


def _sub_spec(cls, payload: Any, where: str):
    """Build a frozen sub-spec from a mapping, rejecting unknown keys."""
    if not isinstance(payload, Mapping):
        raise ScenarioError(f"{where} must be a mapping, got {type(payload).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ScenarioError(f"unknown {where} keys {sorted(unknown)!r}")
    return cls(**dict(payload))


def _assign_path(payload: Any, path: Sequence[Any], value: Any) -> None:
    """Assign ``value`` at a (dotted) ``path`` inside the nested dict form."""
    key: Any = path[0]
    if isinstance(payload, list):
        try:
            key = int(key)
        except (TypeError, ValueError):
            raise ScenarioError(f"list index expected in patch path, got {key!r}") from None
        if not 0 <= key < len(payload):
            raise ScenarioError(f"patch index {key} is out of range (list has {len(payload)} items)")
    elif not isinstance(payload, dict):
        raise ScenarioError(f"patch path walks through a non-container value at {key!r}")
    if len(path) == 1:
        existing = payload[key] if isinstance(payload, list) else payload.get(key)
        if isinstance(value, Mapping) and isinstance(existing, dict):
            # Partial dicts merge into the existing sub-spec — for dict
            # fields ({"graph": {"n": 96}}) and list elements
            # ({"dynamics.0": {"period": 64}}) alike — so untouched
            # sibling knobs keep their values instead of silently
            # resetting to defaults.
            _merge_nested(existing, value)
        else:
            payload[key] = dict(value) if isinstance(value, Mapping) else value
        return
    if isinstance(payload, dict) and payload.get(key) is None:
        payload[key] = {}
    _assign_path(payload[key], path[1:], value)


def _merge_nested(target: dict, patch: Mapping[str, Any]) -> None:
    """Recursively merge a nested patch dict into ``target``."""
    for key, value in patch.items():
        if isinstance(value, Mapping) and isinstance(target.get(key), dict):
            _merge_nested(target[key], value)
        else:
            target[key] = dict(value) if isinstance(value, Mapping) else value


# ----------------------------------------------------------------------
# Building the concrete run from a spec
# ----------------------------------------------------------------------
def _build_graph_fresh(spec: ScenarioSpec, seed: int) -> WeightedGraph:
    """Run the spec's generator directly (no cache): the store's build hook."""
    model = LATENCY_MODELS[spec.graph.latency]()
    return GRAPH_FAMILIES[spec.graph.family](spec.graph.n, model, seed, **spec.graph.params)


def build_graph(spec: ScenarioSpec, graph_seed: Optional[int] = None) -> WeightedGraph:
    """Build the spec's graph with its derived seed (and family params).

    ``graph_seed`` overrides the default ``derive_seed(spec.seed, "graph")``
    builder seed — the pin-graph hook: a sweep or calibration fit that
    passes one fixed ``graph_seed`` conditions every run on the same
    topology regardless of each run's own ``seed``.

    Builds route through the process-wide
    :class:`~repro.store.GraphStore` when one is active: the first build of
    a given (family, n, params, latency, seed) digest snapshots its CSR
    arrays, and every later call returns a cheap pristine
    :class:`~repro.graphs.indexed.CSRGraph` over the shared read-only
    arrays — bit-for-bit identical to a fresh build, safe to mutate (the
    per-checkout wrapper takes the dict fallback; the stored arrays are
    immutable).
    """
    spec.graph.validate()
    seed = derive_seed(spec.seed, "graph") if graph_seed is None else graph_seed
    store = active_graph_store()
    if store is None:
        return _build_graph_fresh(spec, seed)
    return store.checkout(spec, lambda: _build_graph_fresh(spec, seed), graph_seed=seed)


def build_dynamics(spec: ScenarioSpec, graph: WeightedGraph) -> Optional[TopologyDynamics]:
    """Build the spec's (possibly composed) dynamics schedule for ``graph``.

    Must be called on the freshly built graph, before any engine runs on it
    (engines mutate the graph while applying events).
    """
    parts: list[TopologyDynamics] = []
    for index, part in enumerate(spec.dynamics):
        part.validate()
        # The part's position is in the label so two parts of the same
        # kind (e.g. two churn processes at different rates) still draw
        # independent streams.
        part_seed = derive_seed(spec.seed, "dynamics", index, part.kind)
        if part.kind == "markov-churn":
            parts.append(
                markov_churn(
                    graph,
                    horizon=part.horizon,
                    leave_prob=part.rate,
                    rejoin_prob=part.rejoin,
                    seed=part_seed,
                )
            )
        elif part.kind == "latency-drift":
            parts.append(
                periodic_latency_drift(
                    graph,
                    horizon=part.horizon,
                    amplitude=part.amplitude,
                    period=part.period,
                    seed=part_seed,
                )
            )
        else:  # bridge-flap (deterministic: no seed to derive)
            parts.append(
                slow_bridge_flapping(
                    graph, horizon=part.horizon, period=part.period, bridges=part.bridges
                )
            )
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else compose_dynamics(*parts)


def build_fault_plan(
    spec: ScenarioSpec, graph: WeightedGraph, source: Optional[NodeId]
) -> Optional[FaultPlan]:
    """Draw the spec's fault plan for ``graph`` (or ``None`` when empty)."""
    faults = spec.faults
    if faults is None or faults.empty:
        return None
    faults.validate()
    plan = FaultPlan()
    if faults.crash_fraction > 0.0:
        protect = {source} if (faults.protect_source and source is not None) else None
        plan = plan.merge(
            random_crash_plan(
                graph,
                faults.crash_fraction,
                faults.crash_round,
                seed=derive_seed(spec.seed, "faults", "crash"),
                protect=protect,
            )
        )
    if faults.drop_fraction > 0.0:
        plan = plan.merge(
            random_edge_drop_plan(
                graph,
                faults.drop_fraction,
                faults.drop_round,
                seed=derive_seed(spec.seed, "faults", "drop"),
            )
        )
    return plan


def build_algorithm(spec: ScenarioSpec) -> GossipAlgorithm:
    """Instantiate the spec's algorithm for its task."""
    if spec.algorithm == "sir-push-pull":
        # The spec's top-level forget_after knob parameterizes the factory;
        # null means the protocol default.
        if spec.forget_after is not None:
            return SirPushPull(forget_after=spec.forget_after)
        return SirPushPull()
    factory, _tasks = ALGORITHMS[spec.algorithm]
    return factory(Task(spec.task))


@dataclass
class PreparedScenario:
    """A spec resolved into live objects, ready to execute.

    The CLI uses the intermediate form to print the built graph's shape
    before running; :meth:`execute` performs the run and stamps
    ``details["scenario"]`` on the result.  Execute at most once — the run
    mutates :attr:`graph` under dynamics.
    """

    spec: ScenarioSpec
    algorithm: GossipAlgorithm
    graph: WeightedGraph
    source: Optional[NodeId]
    dynamics: Optional[TopologyDynamics]
    fault_plan: Optional[FaultPlan]

    def execute(self) -> DisseminationResult:
        """Run the prepared scenario and return the annotated result.

        A spec with ``reps > 1`` or ``engine == "batch"`` runs replicated
        and returns a :class:`~repro.gossip.base.ReplicatedResult` instead
        (whose per-replication rows are each annotated too).
        """
        reps = self.spec.reps if (self.spec.reps > 1 or self.spec.engine == "batch") else None
        result = self.algorithm.run(
            self.graph,
            source=self.source,
            seed=self.spec.seed,
            max_rounds=self.spec.max_rounds,
            engine=self.spec.engine,
            dynamics=self.dynamics,
            faults=self.fault_plan,
            reps=reps,
        )
        result.details["scenario"] = self.spec.name
        if reps is not None:
            for rep_result in result.results:
                rep_result.details["scenario"] = self.spec.name
        return result


def prepare_scenario(
    spec: ScenarioSpec,
    algorithm: Optional[GossipAlgorithm] = None,
    graph_seed: Optional[int] = None,
) -> PreparedScenario:
    """Resolve a validated spec into a :class:`PreparedScenario`.

    ``algorithm`` substitutes a caller-supplied instance for the spec's
    named one (that is how ``GossipAlgorithm.run(scenario=...)`` runs *its*
    algorithm in the spec's environment); by default the spec's algorithm
    is built from the registry.  ``graph_seed`` passes through to
    :func:`build_graph` (the pin-graph hook).  The graph comes from the
    active :class:`~repro.store.GraphStore`, so a caller that probes the
    prepared graph before executing — or prepares the same spec twice —
    pays for one build, not two.
    """
    spec.validate()
    if algorithm is None:
        algorithm = build_algorithm(spec)
    graph = build_graph(spec, graph_seed=graph_seed)
    source: Optional[NodeId] = None
    if spec.task == "one-to-all" or algorithm.task is Task.ONE_TO_ALL:
        nodes = graph.nodes()
        index = spec.source_index or 0
        if index >= len(nodes):
            raise ScenarioError(
                f"source_index {index} is out of range for a {len(nodes)}-node graph"
            )
        source = nodes[index]
    dynamics = build_dynamics(spec, graph)
    fault_plan = build_fault_plan(spec, graph, source)
    return PreparedScenario(
        spec=spec,
        algorithm=algorithm,
        graph=graph,
        source=source,
        dynamics=dynamics,
        fault_plan=fault_plan,
    )


def run_scenario(
    spec: Union[ScenarioSpec, str],
    reps: Optional[int] = None,
    graph_seed: Optional[int] = None,
) -> DisseminationResult:
    """Run a scenario end to end (spec value or path to its JSON file).

    ``reps`` overrides the spec's replication count (patching the spec, so
    ``reps=R`` returns a :class:`~repro.gossip.base.ReplicatedResult` with
    ``R`` rows even for a spec written with ``reps == 1``).  ``graph_seed``
    pins the topology (see :func:`build_graph`).

    When a :class:`~repro.store.ResultStore` is active the run is memoized
    under the full spec's content digest: a hit decodes and returns the
    stored result — bit-for-bit identical to re-running, because the spec
    determines the run completely — and a miss executes then persists.
    """
    if isinstance(spec, str):
        spec = load_scenario(spec)
    if reps is not None:
        spec = spec.patched({"reps": reps})
    results = active_result_store()
    if results is not None:
        cached = results.fetch(spec, graph_seed=graph_seed)
        if cached is not None:
            return cached
    result = prepare_scenario(spec, graph_seed=graph_seed).execute()
    if results is not None:
        results.save(spec, result, graph_seed=graph_seed)
    return result


# ----------------------------------------------------------------------
# Files and the bundled library
# ----------------------------------------------------------------------
def load_scenario(path: str) -> ScenarioSpec:
    """Load and validate a scenario from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from exc
    return ScenarioSpec.from_json(text)


def dump_scenario(spec: ScenarioSpec, path: str) -> None:
    """Write a spec's canonical JSON form to ``path``."""
    spec.validate()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spec.to_json())


# The default library path is a pure function of this file's location;
# compute it once.  The name and spec caches are keyed by directory/file
# mtime so an edited or added scenario file invalidates them immediately,
# while the common case — the CLI's error paths and every sweep re-reading
# the same base spec — skips the listdir/parse entirely.
_DEFAULT_LIBRARY_DIR: Optional[str] = None
_LIBRARY_NAMES_CACHE: dict[str, tuple[int, list[str]]] = {}
_LIBRARY_SPEC_CACHE: dict[str, tuple[int, int, ScenarioSpec]] = {}


def scenario_library_dir() -> str:
    """The directory holding the bundled scenario library.

    ``REPRO_SCENARIO_DIR`` overrides the default ``scenarios/`` directory
    at the repository root (resolved relative to this file, so it works
    from any working directory in a source checkout).
    """
    override = os.environ.get("REPRO_SCENARIO_DIR")
    if override:
        return override
    global _DEFAULT_LIBRARY_DIR
    if _DEFAULT_LIBRARY_DIR is None:
        here = os.path.dirname(os.path.abspath(__file__))
        _DEFAULT_LIBRARY_DIR = os.path.normpath(
            os.path.join(here, os.pardir, os.pardir, "scenarios")
        )
    return _DEFAULT_LIBRARY_DIR


def library_scenario_names() -> list[str]:
    """Sorted names of the bundled library scenarios (file stem = name).

    Memoized on the directory's mtime: adding, removing, or renaming a
    scenario file bumps it, so the listing is always current without
    re-scanning on every call.
    """
    directory = scenario_library_dir()
    try:
        mtime = os.stat(directory).st_mtime_ns
    except OSError:
        return []
    cached = _LIBRARY_NAMES_CACHE.get(directory)
    if cached is not None and cached[0] == mtime:
        return list(cached[1])
    names = sorted(
        os.path.splitext(entry)[0]
        for entry in os.listdir(directory)
        if entry.endswith(".json")
    )
    _LIBRARY_NAMES_CACHE[directory] = (mtime, names)
    return list(names)


def load_named_scenario(name: str) -> ScenarioSpec:
    """Load a bundled library scenario by name (``scenarios/<name>.json``).

    Parsed specs are memoized on the file's (mtime, size), so repeated
    lookups — one per sweep shard, one per CLI error path — parse the JSON
    once; editing the file invalidates the entry.  The returned spec is
    frozen, so sharing one instance across callers is safe.
    """
    path = os.path.join(scenario_library_dir(), f"{name}.json")
    try:
        stat = os.stat(path)
    except OSError:
        known = ", ".join(library_scenario_names()) or "<library directory missing>"
        raise ScenarioError(f"no library scenario named {name!r}; available: {known}") from None
    cached = _LIBRARY_SPEC_CACHE.get(path)
    if cached is not None and cached[0] == stat.st_mtime_ns and cached[1] == stat.st_size:
        return cached[2]
    spec = load_scenario(path)
    if spec.name != name:
        raise ScenarioError(
            f"library file {path!r} names its scenario {spec.name!r}; file stem and "
            "scenario name must agree"
        )
    _LIBRARY_SPEC_CACHE[path] = (stat.st_mtime_ns, stat.st_size, spec)
    return spec

