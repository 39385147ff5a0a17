"""Command-line interface: ``repro-gossip`` / ``python -m repro.cli``.

The CLI exposes five things:

* ``run`` — run one gossip scenario and print the result.  The scenario is
  either resolved from flat flags (algorithm, graph family, dynamics and
  fault knobs) or loaded whole from a JSON file via ``--scenario``;
  ``--dump-scenario out.json`` writes the resolved
  :class:`~repro.scenario.ScenarioSpec` so any run can be replayed exactly,
* ``scenario`` — inspect the declarative layer: ``list`` the bundled
  library, ``dump`` one of its entries as canonical JSON, ``validate``
  scenario files (schema + round-trip),
* ``conductance`` — print the weighted-conductance profile of a generated
  graph,
* ``experiment`` — regenerate one of the experiments (E1 .. E24) and print
  its table; the same code paths the benchmark suite uses.  Sweeps built on
  :class:`repro.analysis.Experiment` honour ``--workers``,
  ``--checkpoint-dir``, and ``--resume``,
* ``calibrate`` — ABC-SMC parameter fitting (:mod:`repro.analysis.calibrate`):
  estimate scenario parameters from an observed informed-count curve
  (``--observed file``) or from a synthetic target generated by the scenario
  itself (``--self-test``), with one ``--prior PATH:LOW:HIGH[:log][:int]``
  per fitted parameter, and print the posterior-summary table.

``docs/CLI.md`` documents every subcommand and environment knob with
copy-pasteable examples; ``docs/SCENARIOS.md`` documents the scenario
schema and the bundled library.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import Optional

from .analysis.tables import render_table
from .core import check_theorem5, extract_parameters, spectral_conductance
from .graphs.weighted_graph import GraphError
from .scenario import (
    DynamicsSpec,
    FaultSpec,
    GraphSpec,
    GRAPH_FAMILIES,
    LATENCY_MODELS,
    ScenarioError,
    ScenarioSpec,
    build_graph as _scenario_build_graph,
    dump_scenario,
    library_scenario_names,
    load_named_scenario,
    load_scenario,
    prepare_scenario,
)
from .gossip.base import ReplicatedResult
from .simulation.protocol import EngineSelectionError, SimulationError
from .graphs import WeightedGraph

__all__ = ["main", "build_graph"]

_DYNAMICS = ("static", "markov-churn", "latency-drift", "bridge-flap", "churn-drift")

# The flat `run` flags are a thin veneer over the scenario registries; the
# canonical tables live in repro.scenario so files and flags can never
# drift apart.  (The flat surface offers the all-to-all algorithms plus
# sir-push-pull, which is one-to-all by construction; the plain push/pull
# one-to-all variants are reachable through scenario files.)
_GRAPH_BUILDERS = GRAPH_FAMILIES
_LATENCY_MODELS = LATENCY_MODELS
_ALGORITHMS = ("flooding", "pattern", "push-pull", "sir-push-pull", "spanner", "unified")


def build_graph(family: str, n: int, latency_model: str, seed: int) -> WeightedGraph:
    """Build a graph from CLI arguments (validated through GraphSpec).

    Routed through :func:`repro.scenario.build_graph` so the flat surface
    shares the :mod:`repro.store` graph cache with the scenario layer.  The
    explicit ``graph_seed=seed`` preserves the historical contract: the
    family builder receives ``seed`` unchanged, not a derived label.
    """
    try:
        spec = ScenarioSpec(
            name=f"cli-graph-{family}",
            algorithm="push-pull",
            graph=GraphSpec(family=family, n=n, latency=latency_model),
            seed=seed,
        )
        spec.graph.validate()
    except ScenarioError as exc:
        raise SystemExit(str(exc))
    return _scenario_build_graph(spec, graph_seed=seed)


def _scenario_from_flags(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve the flat ``run`` flags into a validated :class:`ScenarioSpec`."""
    if args.algorithm not in _ALGORITHMS:
        raise SystemExit(f"unknown algorithm {args.algorithm!r}; choose from {sorted(_ALGORITHMS)}")
    dynamics: list[DynamicsSpec] = []
    if args.dynamics not in _DYNAMICS:
        raise SystemExit(f"unknown dynamics {args.dynamics!r}; choose from {sorted(_DYNAMICS)}")
    if args.dynamics in ("markov-churn", "churn-drift"):
        dynamics.append(
            DynamicsSpec(
                kind="markov-churn",
                rate=args.churn_rate,
                period=args.dynamics_period,
                horizon=args.dynamics_horizon,
            )
        )
    if args.dynamics in ("latency-drift", "churn-drift"):
        dynamics.append(
            DynamicsSpec(
                kind="latency-drift",
                amplitude=args.drift_amplitude,
                period=args.dynamics_period,
                horizon=args.dynamics_horizon,
            )
        )
    if args.dynamics == "bridge-flap":
        dynamics.append(
            DynamicsSpec(
                kind="bridge-flap", period=args.dynamics_period, horizon=args.dynamics_horizon
            )
        )
    faults = None
    if args.crash_fraction > 0.0 or args.drop_fraction > 0.0:
        faults = FaultSpec(
            crash_fraction=args.crash_fraction,
            crash_round=args.crash_round,
            drop_fraction=args.drop_fraction,
            drop_round=args.drop_round,
        )
    spec = ScenarioSpec(
        name=f"cli-{args.algorithm}-{args.graph}",
        algorithm=args.algorithm,
        # sir-push-pull tracks a single rumor's infection wave, so it is
        # one-to-all by construction; every other flat-surface algorithm
        # solves the all-to-all task.
        task="one-to-all" if args.algorithm == "sir-push-pull" else "all-to-all",
        graph=GraphSpec(family=args.graph, n=args.nodes, latency=args.latency),
        seed=args.seed if args.seed is not None else 0,
        engine=args.engine or "auto",
        reps=args.reps if args.reps is not None else 1,
        forget_after=args.forget_after,
        dynamics=tuple(dynamics),
        faults=faults,
    )
    return spec


# Flat `run` flag dests that conflict with --scenario: the file provides
# the whole run, so silently ignoring any of these would report numbers
# the user never asked for.  --engine/--seed stay documented overrides and
# --dump-scenario is always allowed.  The defaults themselves come from
# the parser at build time (args._flat_defaults), keeping one source of
# truth.
_FLAT_RUN_CONFLICT_DESTS = (
    "algorithm",
    "graph",
    "latency",
    "nodes",
    "dynamics",
    "churn_rate",
    "drift_amplitude",
    "dynamics_period",
    "dynamics_horizon",
    "crash_fraction",
    "crash_round",
    "drop_fraction",
    "drop_round",
    "forget_after",
)


def _command_run(args: argparse.Namespace) -> int:
    try:
        if args.scenario:
            conflicting = [
                "--" + dest.replace("_", "-")
                for dest, default in args._flat_defaults.items()
                if getattr(args, dest) != default
            ]
            if conflicting:
                raise SystemExit(
                    f"--scenario provides the whole run; drop {', '.join(conflicting)} "
                    "(patch the scenario file instead — only --engine, --seed, and "
                    "--reps override it)"
                )
            spec = load_scenario(args.scenario)
            if args.engine and args.engine != "auto":
                spec = spec.patched({"engine": args.engine})
            if args.seed is not None:
                spec = spec.patched({"seed": args.seed})
            if args.reps is not None:
                spec = spec.patched({"reps": args.reps})
        else:
            spec = _scenario_from_flags(args)
        spec.validate()
    except ScenarioError as exc:
        raise SystemExit(str(exc))
    if args.dump_scenario:
        dump_scenario(spec, args.dump_scenario)
        print(f"scenario   : wrote {args.dump_scenario}")
    try:
        prepared = prepare_scenario(spec)
    except (ScenarioError, GraphError) as exc:
        raise SystemExit(str(exc))
    graph = prepared.graph
    description = f"{spec.graph.family} (n={graph.num_nodes}, m={graph.num_edges}, lmax={graph.max_latency()})"
    # The graph probe above shares the store's single build with the run;
    # the result store then memoizes the execution itself.
    from .store import active_result_store

    results = active_result_store()
    result = results.fetch(spec) if results is not None else None
    if result is None:
        try:
            result = prepared.execute()
        except EngineSelectionError as exc:
            raise SystemExit(f"--engine {spec.engine}: {exc}")
        except (GraphError, SimulationError) as exc:
            raise SystemExit(str(exc))
        if results is not None:
            results.save(spec, result)
    print(f"scenario   : {spec.name}")
    print(f"graph      : {description}")
    print(f"algorithm  : {result.algorithm}")
    print(f"engine     : {result.details.get('engine', 'reference')}")
    print(f"dynamics   : {prepared.dynamics if prepared.dynamics is not None else 'static'}")
    print(f"faults     : {result.details.get('faults', 'none')}")
    print(f"task       : {result.task.value}")
    if isinstance(result, ReplicatedResult):
        aggregate = result.aggregate()
        print(f"reps       : {result.reps}")
        for key in ("time", "messages", "activations", "lost_exchanges", "suppressed_exchanges"):
            line = f"{aggregate[key]:.1f}"
            if result.reps > 1:
                line += (
                    f"  (min {aggregate[f'{key}_min']:.1f}, max {aggregate[f'{key}_max']:.1f}, "
                    f"stdev {aggregate[f'{key}_stdev']:.2f})"
                )
            print(f"{key:11s}: {line}")
        print(f"complete   : {result.complete}")
        for key, value in sorted(result.details.items()):
            print(f"  {key}: {value}")
        return 0
    print(f"time       : {result.time:.1f}")
    print(f"messages   : {result.metrics.messages}")
    print(f"activations: {result.metrics.activations}")
    print(f"lost       : {result.metrics.lost_exchanges}")
    print(f"suppressed : {result.metrics.suppressed_exchanges}")
    print(f"complete   : {result.complete}")
    for key, value in sorted(result.details.items()):
        print(f"  {key}: {value}")
    return 0


def _command_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        names = library_scenario_names()
        if not names:
            print("no bundled scenarios found (is the scenarios/ directory present?)")
            return 1
        broken = 0
        for name in names:
            try:
                spec = load_named_scenario(name)
            except ScenarioError as exc:
                broken += 1
                print(f"{name:32s} INVALID — {exc}", file=sys.stderr)
                continue
            parts = "+".join(part.kind for part in spec.dynamics) or "static"
            fault = "faults" if (spec.faults is not None and not spec.faults.empty) else "no-faults"
            print(
                f"{name:32s} {spec.algorithm:9s} {spec.task:10s} "
                f"{spec.graph.family}(n={spec.graph.n}) {parts} {fault}"
            )
        return 1 if broken else 0
    if args.action == "dump":
        try:
            spec = load_named_scenario(args.target)
        except ScenarioError as exc:
            raise SystemExit(str(exc))
        sys.stdout.write(spec.to_json())
        return 0
    # validate: schema-check each file and require canonical round-tripping.
    failures = 0
    for path in args.target_files:
        try:
            spec = load_scenario(path)
            if ScenarioSpec.from_json(spec.to_json()) != spec:
                raise ScenarioError("load -> dump -> load did not round-trip")
            print(f"{path}: ok ({spec.name})")
        except ScenarioError as exc:
            failures += 1
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
    return 1 if failures else 0


def _command_conductance(args: argparse.Namespace) -> int:
    if args.ell is not None and not args.spectral:
        print(
            "error: --ell only applies with --spectral; the exact profile already "
            "covers every latency threshold",
            file=sys.stderr,
        )
        return 2
    graph = build_graph(args.graph, args.nodes, args.latency, args.seed)
    if args.spectral:
        # The sparse path: implicit CSR Laplacian + Fiedler sweep.  Scales
        # to millions of nodes, where the exact profile below is infeasible.
        import time as _time

        started = _time.perf_counter()
        estimate = spectral_conductance(graph, ell=args.ell, seed=args.seed)
        wall = _time.perf_counter() - started
        lower, upper = estimate.cheeger_interval()
        scope = "all edges" if args.ell is None else f"latency <= {args.ell}"
        print(f"n                = {graph.num_nodes}")
        print(f"edges            = {graph.num_edges}")
        print(f"scope            = {scope}")
        print(f"solver           = {estimate.method}")
        print(f"lambda2          = {estimate.lambda2:.6f}")
        # An unconverged solve certifies only the upper end (lower is 0.0).
        marker = "" if estimate.converged else "  uncertified (solve did not converge)"
        print(f"cheeger interval = [{lower:.6f}, {upper:.6f}]{marker}")
        print(f"phi_hat (sweep)  = {estimate.phi:.6f}")
        print(f"best prefix size = {estimate.prefix}")
        print(f"iterations       = {estimate.iterations}  (converged={estimate.converged})")
        print(f"wall seconds     = {wall:.3f}")
        return 0
    params = extract_parameters(graph, seed=args.seed)
    print(f"n                = {params.n}")
    print(f"weighted diameter= {params.diameter:.1f}")
    print(f"max degree       = {params.max_degree}")
    print(f"phi*             = {params.phi_star:.5f}")
    print(f"ell*             = {params.ell_star}")
    print(f"phi_avg          = {params.phi_avg:.5f}")
    print(f"latency classes  = {params.nonempty_classes}")
    if graph.num_nodes <= 16:
        report = check_theorem5(graph, seed=args.seed)
        print(f"Theorem 5 holds  = {report.holds()}  (lower={report.lower:.5f}, upper={report.upper:.5f})")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    # Imported lazily so the CLI stays usable without the benchmarks on path.
    from benchmarks import registry  # type: ignore[import-not-found]

    from .analysis import resolve_workers

    try:
        resolve_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"--workers: {exc}")
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir (the directory holding sweep checkpoints)")
    table = registry.run_experiment(
        args.experiment,
        quick=args.quick,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    print(render_table(table))
    # Sweeps capture trial errors as a 'failures' column instead of raising;
    # surface them in the exit code so CI does not stay green on a sweep
    # that measured nothing.
    failed_trials = sum(row.get("failures") or 0 for row in table)
    if failed_trials:
        print(f"error: {failed_trials} trial(s) failed (see table notes)", file=sys.stderr)
        return 1
    return 0


def _parse_prior(text: str):
    """Parse one ``--prior PATH:LOW:HIGH[:log][:int]`` flag into a ParamPrior."""
    from .analysis.calibrate import CalibrationError, ParamPrior

    parts = text.split(":")
    if len(parts) < 3:
        raise SystemExit(
            f"--prior must look like PATH:LOW:HIGH[:log][:int], got {text!r}"
        )
    path = parts[0]
    try:
        low, high = float(parts[1]), float(parts[2])
    except ValueError:
        raise SystemExit(f"--prior {text!r}: LOW and HIGH must be numbers") from None
    kind, integer = "uniform", False
    for flag in parts[3:]:
        if flag == "log":
            kind = "log-uniform"
        elif flag == "int":
            integer = True
        else:
            raise SystemExit(
                f"--prior {text!r}: unknown modifier {flag!r} (valid: 'log', 'int')"
            )
    try:
        return ParamPrior(path=path, low=low, high=high, kind=kind, integer=integer).validate()
    except CalibrationError as exc:
        raise SystemExit(f"--prior {text!r}: {exc}") from None


def _load_observed_curve(path: str) -> list[float]:
    """Load an observed informed-count curve from a JSON or CSV file.

    JSON accepts a bare list of numbers or an object with a ``"curve"``
    key; anything else is read as CSV/whitespace-separated numbers (one or
    many per line, ``#`` comments ignored).
    """
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read observed curve {path!r}: {exc}")
    if path.endswith(".json"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"observed curve {path!r} is not valid JSON: {exc}")
        if isinstance(payload, dict):
            payload = payload.get("curve")
        if not isinstance(payload, list):
            raise SystemExit(
                f"observed curve {path!r} must be a JSON list of counts or an "
                "object with a 'curve' list"
            )
        values = payload
    else:
        values = []
        for line in text.splitlines():
            line = line.split("#", 1)[0]
            values.extend(token for token in line.replace(",", " ").split() if token)
    try:
        curve = [float(value) for value in values]
    except (TypeError, ValueError):
        raise SystemExit(f"observed curve {path!r} contains non-numeric entries") from None
    if not curve:
        raise SystemExit(f"observed curve {path!r} is empty")
    return curve


def _command_calibrate(args: argparse.Namespace) -> int:
    from .analysis import resolve_workers
    from .analysis.calibrate import (
        CalibrationConfig,
        CalibrationError,
        calibrate,
    )

    try:
        resolve_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"--workers: {exc}")
    if args.self_test and args.observed:
        raise SystemExit("--self-test generates its own target; drop --observed")
    if not args.self_test and not args.observed:
        raise SystemExit("calibrate needs a target: pass --observed FILE or --self-test")
    priors = tuple(_parse_prior(text) for text in args.prior or ())
    if not priors:
        raise SystemExit("calibrate needs at least one --prior PATH:LOW:HIGH[:log][:int]")
    observed = None if args.self_test else _load_observed_curve(args.observed)
    config = CalibrationConfig(
        particles=args.particles,
        generations=args.generations,
        reps=args.reps,
        distance=args.distance,
        epsilon_quantile=args.epsilon_quantile,
        max_attempts=args.max_attempts,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        pin_graph=args.pin_graph,
    )

    def report(generation) -> None:
        epsilon = "inf" if generation.index == 0 else f"{generation.epsilon:.4g}"
        print(
            f"gen {generation.index}: epsilon={epsilon} "
            f"accepted={generation.acceptance_count}/{len(generation.thetas)} "
            f"sims={generation.simulations}"
        )

    try:
        result = calibrate(
            args.scenario,
            priors,
            observed=observed,
            config=config,
            base_seed=args.seed,
            name=args.name,
            progress=report,
        )
    except (CalibrationError, ScenarioError) as exc:
        raise SystemExit(str(exc))
    true_values = None
    if args.self_test:
        # The self-test target came from the base spec itself, so its own
        # leaf values are the ground truth the posterior should recover.
        true_values = {
            prior.path: result.spec.numeric_leaf(prior.path) for prior in priors
        }
        true_values = {
            path: value for path, value in true_values.items() if value is not None
        }
    print(render_table(result.summary_table(true_values)))
    if true_values:
        missed = [
            path
            for path, value in true_values.items()
            if not (result.interval(path)[0] <= float(value) <= result.interval(path)[1])
        ]
        if missed:
            print(
                f"error: self-test posterior missed {', '.join(sorted(missed))} "
                "(true value outside the central 90% interval)",
                file=sys.stderr,
            )
            return 1
        print("self-test  : all true parameters inside the posterior 90% interval")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description="Reproduction of 'Slow Links, Fast Links, and the Cost of Gossip'.",
    )
    # Content-addressed artifact store knobs (repro.store).  These are
    # global (they precede the subcommand) because every subcommand that
    # builds a graph or runs a scenario goes through the store.
    parser.add_argument(
        "--graph-cache",
        default=None,
        metavar="DIR",
        help="persist built graphs as content-addressed .npz files in DIR "
        "(also settable via REPRO_GRAPH_CACHE); the in-process cache is "
        "always on unless --no-cache",
    )
    parser.add_argument(
        "--result-cache",
        default=None,
        metavar="DIR",
        help="memoize run results as content-addressed JSON in DIR "
        "(also settable via REPRO_RESULT_CACHE); cached and fresh runs "
        "are bit-for-bit identical",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the graph and result caches entirely (every build and "
        "run executes from scratch)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print artifact-store hit/miss counters to stderr after the command",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one gossip scenario (flat flags or --scenario file)")
    run_parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="run a declarative scenario file instead of the flat flags below "
        "(--engine and --seed, when given, override the file's values)",
    )
    run_parser.add_argument(
        "--dump-scenario",
        default=None,
        metavar="OUT",
        help="write the resolved ScenarioSpec as canonical JSON before running, "
        "so this exact run can be replayed with --scenario OUT",
    )
    run_parser.add_argument("--algorithm", default="push-pull", choices=sorted(_ALGORITHMS))
    run_parser.add_argument("--graph", default="erdos-renyi", choices=sorted(_GRAPH_BUILDERS))
    run_parser.add_argument("--latency", default="uniform", choices=sorted(_LATENCY_MODELS))
    run_parser.add_argument("--nodes", type=int, default=64)
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument(
        "--engine",
        default="auto",
        choices=["auto", "fast", "reference", "batch", "edge"],
        help="simulation backend: 'fast' (bitset engine, declarative policies only), "
        "'reference' (callback engine), 'batch' (vectorized multi-replication engine; "
        "combine with --reps), 'edge' (edge-vectorized single-run engine for large "
        "graphs), or 'auto' (fast when the algorithm allows it, edge from 100k nodes, "
        "batch when --reps asks for replications)",
    )
    run_parser.add_argument(
        "--reps",
        type=int,
        default=None,
        metavar="R",
        help="run R independent replications sharing the graph/dynamics/faults and "
        "varying only the protocol's coin flips (seeded derive_seed(seed, 'rep', r)); "
        "executed as one vectorized batch computation unless --engine overrides it",
    )
    run_parser.add_argument(
        "--forget-after",
        type=int,
        default=None,
        metavar="K",
        help="for --algorithm sir-push-pull: rounds a node stays infectious after "
        "learning the rumor before it forgets it (default: the protocol's own "
        "default; rejected for other algorithms)",
    )
    run_parser.add_argument(
        "--dynamics",
        default="static",
        choices=list(_DYNAMICS),
        help="topology dynamics applied during the run: node churn, periodic latency "
        "drift, adversarial flapping of the slowest links, or churn+drift combined "
        "(seeded from --seed; only engine-driven algorithms support dynamics)",
    )
    run_parser.add_argument(
        "--churn-rate",
        type=float,
        default=0.02,
        help="per-round leave probability for markov-churn / churn-drift (default 0.02)",
    )
    run_parser.add_argument(
        "--drift-amplitude",
        type=float,
        default=0.5,
        help="relative latency oscillation amplitude for latency-drift / churn-drift (default 0.5)",
    )
    run_parser.add_argument(
        "--dynamics-period",
        type=int,
        default=32,
        help="oscillation / flapping period in rounds (default 32)",
    )
    run_parser.add_argument(
        "--dynamics-horizon",
        type=int,
        default=2000,
        help="last round with scheduled dynamics events; the topology then freezes "
        "in (for churn: is restored to) its final state (default 2000)",
    )
    run_parser.add_argument(
        "--crash-fraction",
        type=float,
        default=0.0,
        help="crash-stop this fraction of nodes at --crash-round (default 0: no crashes); "
        "faults ride the dynamics event pipeline and run on either engine",
    )
    run_parser.add_argument(
        "--crash-round",
        type=int,
        default=3,
        help="round at whose start the crash faults fire (default 3)",
    )
    run_parser.add_argument(
        "--drop-fraction",
        type=float,
        default=0.0,
        help="permanently fault this fraction of edges at --drop-round (default 0)",
    )
    run_parser.add_argument(
        "--drop-round",
        type=int,
        default=3,
        help="round at whose start the edge faults fire (default 3)",
    )
    run_parser.set_defaults(
        handler=_command_run,
        _flat_defaults={
            dest: run_parser.get_default(dest) for dest in _FLAT_RUN_CONFLICT_DESTS
        },
    )

    scen_parser = subparsers.add_parser(
        "scenario", help="inspect the declarative scenario layer (list / dump / validate)"
    )
    scen_sub = scen_parser.add_subparsers(dest="action", required=True)
    scen_list = scen_sub.add_parser("list", help="list the bundled scenario library")
    scen_list.set_defaults(handler=_command_scenario, action="list")
    scen_dump = scen_sub.add_parser("dump", help="print a bundled scenario as canonical JSON")
    scen_dump.add_argument("target", help="library scenario name (see `scenario list`)")
    scen_dump.set_defaults(handler=_command_scenario, action="dump")
    scen_validate = scen_sub.add_parser(
        "validate", help="schema-validate scenario files (and check JSON round-tripping)"
    )
    scen_validate.add_argument("target_files", nargs="+", metavar="FILE")
    scen_validate.set_defaults(handler=_command_scenario, action="validate")

    cond_parser = subparsers.add_parser("conductance", help="print the weighted-conductance profile")
    cond_parser.add_argument("--graph", default="erdos-renyi", choices=sorted(_GRAPH_BUILDERS))
    cond_parser.add_argument("--latency", default="bimodal", choices=sorted(_LATENCY_MODELS))
    cond_parser.add_argument("--nodes", type=int, default=12)
    cond_parser.add_argument("--seed", type=int, default=0)
    cond_parser.add_argument(
        "--spectral",
        action="store_true",
        help="sparse spectral estimate (lambda2, Cheeger interval, sweep phi) instead of the exact profile",
    )
    cond_parser.add_argument(
        "--ell",
        type=int,
        default=None,
        metavar="L",
        help="with --spectral: estimate the weight-L conductance phi_L (default: all edges)",
    )
    cond_parser.set_defaults(handler=_command_conductance)

    exp_parser = subparsers.add_parser("experiment", help="regenerate a paper experiment (E1..E24)")
    exp_parser.add_argument("experiment", help="experiment id, e.g. E1")
    exp_parser.add_argument("--quick", action="store_true", help="reduced sweep for a fast smoke run")
    exp_parser.add_argument(
        "--workers",
        default=None,
        help="sweep worker pool: 'serial' (default), 'auto' (one per CPU), or an integer",
    )
    exp_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for JSONL sweep checkpoints (one file per experiment sweep)",
    )
    exp_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already recorded as completed in the checkpoint directory",
    )
    exp_parser.set_defaults(handler=_command_experiment)

    cal_parser = subparsers.add_parser(
        "calibrate",
        help="fit scenario parameters to an observed informed-count curve (ABC-SMC)",
    )
    cal_parser.add_argument(
        "--scenario",
        required=True,
        metavar="FILE_OR_NAME",
        help="base scenario template: a JSON file path or a bundled library name "
        "(must be a one-to-all run; the fitted parameters patch this spec)",
    )
    cal_parser.add_argument(
        "--observed",
        default=None,
        metavar="FILE",
        help="observed per-round informed-count curve: a JSON list (or object with "
        "a 'curve' key), or CSV/whitespace-separated numbers",
    )
    cal_parser.add_argument(
        "--self-test",
        action="store_true",
        help="generate the target curve from the scenario itself (seeded "
        "derive_seed(seed, 'abc', 'observed')) and check the posterior recovers "
        "the spec's own parameter values; exit 1 if any true value falls outside "
        "the central 90% interval",
    )
    cal_parser.add_argument(
        "--prior",
        action="append",
        metavar="PATH:LOW:HIGH[:log][:int]",
        help="prior box over one dotted scenario path, e.g. "
        "'faults.crash_fraction:0:0.6' or 'forget_after:1:32:int'; 'log' makes "
        "the box log-uniform; repeat for each fitted parameter",
    )
    cal_parser.add_argument("--particles", type=int, default=32, help="population size per generation (default 32)")
    cal_parser.add_argument("--generations", type=int, default=4, help="SMC generations (default 4)")
    cal_parser.add_argument(
        "--reps",
        type=int,
        default=8,
        help="batch-engine replications averaged per candidate simulation (default 8)",
    )
    cal_parser.add_argument(
        "--distance",
        default="l2",
        choices=["l2", "time-to-quantile"],
        help="trajectory distance: RMS between aligned mean curves, or RMS between "
        "time-to-quantile vectors (default l2)",
    )
    cal_parser.add_argument(
        "--epsilon-quantile",
        type=float,
        default=0.5,
        help="shrinking acceptance schedule: each generation's epsilon is this "
        "quantile of the previous generation's weighted distances (default 0.5)",
    )
    cal_parser.add_argument(
        "--max-attempts",
        type=int,
        default=24,
        help="proposal attempts per particle before keeping its best-seen draw (default 24)",
    )
    cal_parser.add_argument("--seed", type=int, default=0, help="base seed; the whole fit is reproducible from it")
    cal_parser.add_argument("--name", default="calibrate", help="fit name (labels output and checkpoint files)")
    cal_parser.add_argument(
        "--workers",
        default=None,
        help="particle-evaluation pool: 'serial' (default), 'auto' (one per CPU), or an integer",
    )
    cal_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for JSONL generation checkpoints (one file per generation)",
    )
    cal_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip particles already recorded in the checkpoint directory",
    )
    cal_parser.add_argument(
        "--pin-graph",
        action="store_true",
        help="condition the whole fit on the scenario's own fixed topology "
        "(built once from derive_seed(spec.seed, 'graph')); the known-graph "
        "ABC setup — incompatible with priors over graph.* paths",
    )
    cal_parser.set_defaults(handler=_command_calibrate)

    return parser


def _apply_cache_flags(args: argparse.Namespace) -> None:
    """Configure the process-wide artifact stores from the global flags."""
    from .store import configure_graph_store, configure_result_store

    if args.no_cache:
        if args.graph_cache or args.result_cache:
            raise SystemExit("--no-cache conflicts with --graph-cache/--result-cache")
        configure_graph_store(enabled=False)
        configure_result_store(None)
        return
    if args.graph_cache is not None:
        configure_graph_store(directory=args.graph_cache, enabled=True)
    if args.result_cache is not None:
        configure_result_store(args.result_cache)


def _print_cache_stats() -> None:
    """Report the artifact stores' counters on stderr (``--cache-stats``)."""
    from .store import active_graph_store, active_result_store

    for label, store in (("graph cache", active_graph_store()), ("result cache", active_result_store())):
        if store is None:
            print(f"{label:12s}: disabled", file=sys.stderr)
            continue
        counters = ", ".join(f"{key}={value}" for key, value in store.stats.as_dict().items())
        print(f"{label:12s}: {counters}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _apply_cache_flags(args)
    try:
        return args.handler(args)
    finally:
        if args.cache_stats:
            _print_cache_stats()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
