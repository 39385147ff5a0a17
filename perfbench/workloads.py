"""The benchmark's three workloads: inputs from a seed, set-up, run, checks.

Each workload exposes the same two steps to the harness in ``run.py``:

* ``setup()`` — from a validated spec to a built graph that is ready to
  run.  The harness clears the graph store before each call, so every
  set-up it times is cold.
* ``run(product)`` — one run on the product of the set-up just before.
  Untimed preparation happens first, then exactly the measured call is
  timed; the outputs are checked and condensed into an :class:`Outcome`.

:func:`install_spans` patches the layer boundaries for a traced run; it is
shared by all workloads, so layers a workload bypasses read zero there.
The program only ever sees the specs built here from ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro import scenario
from repro.analysis import experiment
from repro.core import estimation
from repro.core.spectral import LaplacianOperator
from repro.gossip import base as gossip_base
from repro.gossip import push_pull
from repro.graphs.indexed import IndexedGraph
from repro.scenario import GraphSpec, ScenarioSpec
from repro.simulation import batch_engine, edge_engine
from repro.simulation.batch_engine import BatchEngine
from repro.simulation.edge_engine import EdgeEngine
from repro.simulation.rng import derive_seed
from repro.store import GraphStore
from spans import Clock


@dataclass
class Outcome:
    """One run: its timed wall and CPU seconds, work done, accounting, checks."""

    wall: float
    cpu: float
    ops: int
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    """SHA-256 of canonical JSON (floats keep every digit via ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failure(attempted: int, clock: Clock) -> Outcome:
    """The outcome of a run whose program call raised."""
    wall, cpu = clock.read()
    return Outcome(
        wall=wall,
        cpu=cpu,
        ops=0,
        attempted=attempted,
        failed=attempted,
        digest="raised",
        problems=["the run raised:\n" + traceback.format_exc()],
    )


class EdgeStatic:
    """One-to-all push-pull on the edge engine over a large static ER graph."""

    name = "edge-static"

    def __init__(self, sizes: dict[str, int], seed: int, work_dir: str) -> None:
        self.n = sizes["n"]
        self.spec = ScenarioSpec(
            name=self.name,
            algorithm="push-pull",
            task="one-to-all",
            graph=GraphSpec(family="erdos-renyi", n=self.n, latency="uniform"),
            seed=seed,
            engine="edge",
        ).validate()

    def setup(self) -> scenario.PreparedScenario:
        return scenario.prepare_scenario(self.spec)

    def run(self, prepared: scenario.PreparedScenario) -> Outcome:
        clock = Clock()
        try:
            result = prepared.execute()
        except Exception:  # noqa: BLE001 - a raising run is a failed operation
            return _failure(1, clock)
        wall, cpu = clock.read()
        metrics = result.metrics
        problems = []
        if not result.complete:
            problems.append("the run ended with complete false")
        # One-to-all: every node but the source learns the rumor exactly once.
        informed = metrics.rumor_deliveries + 1
        if informed != self.n:
            problems.append(f"informed {informed} != n {self.n}")
        digest = _digest(
            {
                "time": result.time,
                "rounds": result.rounds_simulated,
                "messages": metrics.messages,
                "activations": metrics.activations,
                "informed": informed,
                "lost": metrics.lost_exchanges,
                "suppressed": metrics.suppressed_exchanges,
            }
        )
        return Outcome(
            wall=wall,
            cpu=cpu,
            ops=metrics.activations,
            attempted=1,
            failed=1 if problems else 0,
            digest=digest,
            problems=problems,
        )


#: The sweep's cases, as patches on the base spec: static; crash + edge-drop
#: faults; the same faults plus Markov churn over a 24-round horizon.
_FAULTS = {"faults.crash_fraction": 0.05, "faults.drop_fraction": 0.02}
SWEEP_CASES = (
    {},
    dict(_FAULTS),
    {
        **_FAULTS,
        "dynamics": [{"kind": "markov-churn", "rate": 0.01, "rejoin": 0.2, "horizon": 24}],
    },
)


class BatchChurnSweep:
    """A serial batch sweep of three fault/churn cases on one pinned graph."""

    name = "batch-churn-sweep"

    def __init__(self, sizes: dict[str, int], seed: int, work_dir: str) -> None:
        self.reps = sizes["reps"]
        self.seed = seed
        self.work_dir = work_dir
        self.base = ScenarioSpec(
            name=self.name,
            algorithm="push-pull",
            task="one-to-all",
            graph=GraphSpec(family="erdos-renyi", n=sizes["n"], latency="uniform"),
            seed=seed,
            engine="batch",
        ).validate()
        # scenario_sweep(pin_graph=True) builds every case from this seed.
        self.graph_seed = derive_seed(seed, "graph")

    def setup(self) -> Any:
        return scenario.build_graph(self.base, graph_seed=self.graph_seed)

    def run(self, product: Any) -> Outcome:
        # The sweep checks the pinned graph out of the store itself: the
        # set-up just before left it there, so every case's checkout is a hit.
        attempted = len(SWEEP_CASES) * self.reps
        directory = tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir)
        try:
            checkpoint = os.path.join(directory, "sweep.jsonl")
            sweep = experiment.scenario_sweep(
                self.name,
                self.base,
                SWEEP_CASES,
                repetitions=self.reps,
                base_seed=self.seed,
                workers="serial",
                batch=True,
                pin_graph=True,
            )
            clock = Clock()
            try:
                sweep.run(checkpoint=checkpoint)
            except Exception:  # noqa: BLE001 - a raising sweep fails every replication
                return _failure(attempted, clock)
            wall, cpu = clock.read()
            size = os.path.getsize(checkpoint)
            with open(checkpoint, "r", encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle if line.strip()]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return self._inspect(records, attempted, (wall, cpu), size)

    def _inspect(
        self, records: list[dict], attempted: int, times: tuple[float, float], size: int
    ) -> Outcome:
        problems = []
        failed = 0
        completed = 0
        rows = []
        by_case = {record["case_index"]: record for record in records}
        for case_index in range(len(SWEEP_CASES)):
            record = by_case.get(case_index)
            if record is None or record["status"] != "ok":
                failed += self.reps
                error = "no checkpoint record" if record is None else record["error"]
                problems.append(f"case {case_index} shard failed: {error}")
                continue
            reps = record["measurement"]["reps"]
            if len(reps) != self.reps:
                failed += self.reps
                problems.append(f"case {case_index} returned {len(reps)} of {self.reps} replications")
                continue
            for rep_index, rep in enumerate(reps):
                if rep["complete"] != 1.0:
                    failed += 1
                    problems.append(f"case {case_index} rep {rep_index} is incomplete")
                else:
                    completed += 1
                if case_index == 0 and (rep["lost_exchanges"] or rep["suppressed_exchanges"]):
                    problems.append(
                        f"static case rep {rep_index} lost {rep['lost_exchanges']} and "
                        f"suppressed {rep['suppressed_exchanges']} exchanges"
                    )
            rows.append([case_index, reps])
        return Outcome(
            wall=times[0],
            cpu=times[1],
            ops=completed,
            attempted=attempted,
            failed=failed,
            digest=_digest(rows),
            problems=problems,
            layers={"experiment.shards": len(records), "experiment.checkpoint_bytes": size},
        )


class SpectralProfile:
    """``estimate_profile`` on a power-law graph with bimodal latencies."""

    name = "spectral-profile"

    def __init__(self, sizes: dict[str, int], seed: int, work_dir: str) -> None:
        self.seed = seed
        self.spec = ScenarioSpec(
            name=self.name,
            graph=GraphSpec(family="configuration-model", n=sizes["n"], latency="bimodal"),
            seed=seed,
        ).validate()
        # Convergence is not part of EstimatedProfile, so every Fiedler
        # solve's result is kept from the name estimate_profile resolves.
        # This one wrapper (a few calls per profile) is the only patch
        # present in untraced runs; the tracer wraps it in traced ones.
        self.solves: list[tuple[tuple, Any]] = []
        self._solve = estimation.fiedler_pair
        estimation.fiedler_pair = self._observed_solve

    def _observed_solve(self, *args: Any, **kwargs: Any) -> Any:
        result = self._solve(*args, **kwargs)
        self.solves.append((args[2:], result))
        return result

    def close(self) -> None:
        estimation.fiedler_pair = self._solve

    def setup(self) -> Any:
        return scenario.build_graph(self.spec)

    def run(self, graph: Any) -> Outcome:
        self.solves.clear()
        clock = Clock()
        try:
            profile = estimation.estimate_profile(graph, seed=self.seed)
        except Exception:  # noqa: BLE001 - count the raise against one profile's solves
            return _failure(max(1, len(self.solves)), clock)
        wall, cpu = clock.read()
        problems = []
        solves = [
            {
                "labels": list(labels),
                "iterations": result.iterations,
                "converged": result.converged,
                "lambda2": result.lambda2,
            }
            for labels, result in self.solves
        ]
        # The critical threshold subgraph's solve is the one whose λ2 the
        # profile reports; its Cheeger interval must hold the swept φ̂.
        critical = [s for s in solves if s["labels"] == ["phi-ell", profile.critical_latency]]
        if not critical:
            problems.append(f"no Fiedler solve for the critical latency {profile.critical_latency}")
        elif critical[0]["lambda2"] != profile.lambda2:
            problems.append("the profile's lambda2 is not its critical solve's")
        elif critical[0]["converged"]:
            low, high = profile.cheeger_interval()
            if not low <= profile.critical_phi <= high:
                problems.append(
                    f"phi* {profile.critical_phi!r} is outside the Cheeger interval [{low!r}, {high!r}]"
                )
        digest = _digest(
            {
                "phi_star": profile.critical_phi,
                "ell_star": profile.critical_latency,
                "phi_avg": profile.phi_avg,
                "lambda2": profile.lambda2,
                "solves": solves,
            }
        )
        return Outcome(
            wall=wall,
            cpu=cpu,
            ops=1,
            attempted=len(solves),
            failed=sum(1 for s in solves if not s["converged"]),
            digest=digest,
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (EdgeStatic, BatchChurnSweep, SpectralProfile)}


def install_spans(tracer: Any) -> None:
    """Patch every layer boundary the per-layer metrics are read from.

    Each function is patched at the name its caller resolves: module
    globals where a module imported the name (``push_pull.create_engine``,
    ``batch_engine.apply_events``, ``estimation.fiedler_pair``), class
    attributes for methods, registry entries for graph generators.
    """
    for family in list(scenario.GRAPH_FAMILIES):
        tracer.patch(scenario.GRAPH_FAMILIES, family, "graphs.build")
    tracer.patch(IndexedGraph, "__init__", "graphs.snapshot")
    tracer.patch(GraphStore, "checkout", "store.checkout")
    tracer.patch(scenario, "prepare_scenario", "scenario.prepare")
    tracer.patch(scenario, "build_dynamics", "scenario.dynamics")
    tracer.patch(scenario, "build_fault_plan", "scenario.faults")
    for module in (push_pull, gossip_base):
        tracer.patch(module, "require_connected", "graphs.connected")
        tracer.patch(module, "create_engine", "engine.create")
    tracer.patch(gossip_base.GossipAlgorithm, "run", "gossip.run")
    tracer.patch(EdgeEngine, "run", "edge.run")
    tracer.patch(EdgeEngine, "step", "edge.step")
    tracer.patch(EdgeEngine, "dissemination_complete", "edge.complete")
    tracer.patch(
        BatchEngine, "run_batch", "batch.run", counts=lambda a, k, r: {"replications": a[0].reps}
    )
    tracer.patch(BatchEngine, "dissemination_complete_mask", "batch.complete")
    for module in (batch_engine, edge_engine):
        tracer.patch(
            module, "apply_events", "dynamics.apply", counts=lambda a, k, r: {"events": len(a[1])}
        )
    tracer.patch(experiment.Experiment, "run", "experiment.run")
    tracer.patch(LaplacianOperator, "from_indexed", "spectral.operator")
    tracer.patch(LaplacianOperator, "matvec", "spectral.matvec")
    tracer.patch(
        estimation,
        "fiedler_pair",
        "spectral.fiedler",
        counts=lambda a, k, r: {"iterations": r.iterations, "unconverged": 0 if r.converged else 1},
    )
    tracer.patch(estimation, "sweep_cut_conductance", "spectral.sweep")
    tracer.patch(estimation, "estimate_profile", "estimation.profile")
