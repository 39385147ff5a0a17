"""Run one workload of the repro-gossip benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload edge-static --seed 3 --seconds 40 --trace 0

Workloads: ``edge-static``, ``batch-churn-sweep``, ``spectral-profile``
(reasons, metric names, units and bounds in ``BENCHMARK.json``; sizes, seeds
and metric definitions in ``perfbench/manifest.json``).  Each runs alone in
this single process, with no worker pool, on the program under ``src/`` of
the same checkout.

``--trace 0`` measures the end-to-end metrics with no spans installed.  One
untimed warm-up cycle comes first; then cycles repeat until ``--seconds`` is
spent, each made of the workload's ``setups_per_run`` cold set-ups (graph
store cleared before each) and one timed run on the product of the last of
them, so the set-up samples span the whole budget like the run samples do.
Every timing is a median of process CPU seconds: the workloads are
single-threaded (BLAS pinned to one thread, no pool, no blocking I/O), so
CPU seconds are the wall time of an uncontended core, without the
hypervisor steal that moves wall medians between runs on a shared VM;
wall-clock medians are printed alongside.  ``--trace 1`` alternates
untraced and traced flows (a cold set-up followed by a run) and reports the
per-layer self times and counts, the share of the traced wall they cover
and the tracing overhead; its spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed check —
results that differ between repetitions, an incomplete run, a missing
span — prints ``"correct": false`` and exits 1.  Without ``src/repro`` next
to this directory the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Any, Optional

from spans import Clock, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")
#: Workload names and reasons, metric names, units and bounds, run_seconds.
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: What BENCHMARK.json cannot hold: sizes, seeds, cycle shapes, per-layer
#: sources and the workloads each per-layer metric is listed for.
MANIFEST_PATH = os.path.join(HERE, "manifest.json")

#: Trace-mode acceptance: the self times must cover this share of the traced
#: wall.  Nested self times add up to their outermost span, so this confirms
#: that the outermost calls of a flow are spanned; a missing inner patch is
#: caught by the non-zero check of each metric listed for the workload.
MIN_COVERAGE = 0.95


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class MissingProgram(RuntimeError):
    """The checkout has no program under ``src/repro`` to benchmark."""


def _isolate_environment() -> None:
    """Pin BLAS to one thread and switch the disk cache tiers off.

    Must run before numpy is imported.  A disk tier left by an earlier run
    would turn a cold set-up into a disk hit, and an active result store
    would memoize repeated runs into no-ops.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for variable in ("REPRO_GRAPH_CACHE", "REPRO_RESULT_CACHE"):
        os.environ.pop(variable, None)


def _load_program() -> Any:
    """Import the checkout's ``repro`` (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program to benchmark: {os.path.join(SRC, 'repro')} is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro import store

    store.configure_graph_store(directory="", enabled=True)
    store.configure_result_store(None)
    return store


def environment_record() -> dict[str, Any]:
    """git sha (when the checkout carries ``.git``), python, numpy, nproc."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _git_sha() -> Optional[str]:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Measurement:
    """One workload's measurement: timings, accounting and checks."""

    def __init__(
        self, workload: Any, graph_store: Any, seconds: float, benchmark: dict, manifest: dict
    ) -> None:
        self.workload = workload
        self.graph_store = graph_store
        self.seconds = seconds
        self.benchmark = benchmark
        self.manifest = manifest
        self.config = manifest["workloads"][workload.name]
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.info: list[str] = []

    # -- steps -----------------------------------------------------------
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def cold_setup(self) -> tuple[tuple[float, float], Any]:
        """Clear the graph store, then time one set-up: ``((wall, cpu), product)``."""
        self.graph_store.clear()
        gc.collect()
        clock = Clock()
        product = self.workload.setup()
        return clock.read(), product

    def account(self, outcome: Any) -> Any:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        self.digests.add(outcome.digest)
        return outcome

    def cycle(self, setups: list[tuple[float, float]]) -> Any:
        """``setups_per_run`` cold set-ups, then one run on the last product."""
        for _ in range(self.config["setups_per_run"]):
            times, product = self.cold_setup()
            setups.append(times)
        gc.collect()
        return self.account(self.workload.run(product))

    def keep_going(self, done: int, minimum: int, last: float) -> bool:
        """Repeat until ``minimum`` samples, then while another fits the budget."""
        return done < minimum or self.elapsed() + last <= self.seconds

    # -- modes -----------------------------------------------------------
    def measure(self) -> dict[str, dict[str, Any]]:
        """End-to-end metrics, tracing off."""
        self.cycle([])  # warm-up: checked and accounted, not timed
        setups: list[tuple[float, float]] = []
        runs = []
        last = 0.0
        while self.keep_going(len(runs), self.config["min_runs"], last):
            begun = self.elapsed()
            runs.append(self.cycle(setups))
            last = self.elapsed() - begun
        rates = [run.ops / run.cpu for run in runs if run.cpu > 0] or [float("nan")]
        setup_cpu = [cpu for _wall, cpu in setups]
        self._describe("setup_s", setup_cpu)
        self._describe("setup wall s", [wall for wall, _cpu in setups])
        self._describe("run cpu s", [run.cpu for run in runs])
        self._describe("run wall s", [run.wall for run in runs])
        self._describe("ops_per_s", rates)
        self._describe("ops per wall s", [run.ops / run.wall for run in runs if run.wall > 0])
        self.info.append(f"ops per run: {sorted({run.ops for run in runs})}")
        values = {
            "setup_s": statistics.median(setup_cpu),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return {
            listed["name"]: {"value": values[listed["name"]], "unit": listed["unit"]}
            for listed in self.benchmark["end_to_end"]
        }

    def trace(self, tracer: Any) -> dict[str, dict[str, Any]]:
        """Per-layer metrics: untraced and traced flows, alternating."""
        import workloads  # imports the program, so only once it is on the path

        self.flow()  # warm-up
        untraced: list[float] = []
        traced: list[float] = []
        totals: Counter = Counter()
        stats = self.graph_store.stats
        last = 0.0
        while self.keep_going(len(traced), 1, last):
            begun = self.elapsed()
            untraced.append(self.flow()[0])
            mark, hits, misses = tracer.mark(), stats.hits, stats.misses
            workloads.install_spans(tracer)
            try:
                wall, outcome = self.flow()
            finally:
                tracer.restore()
            traced.append(wall)
            totals["store:hits"] += stats.hits - hits
            totals["store:misses"] += stats.misses - misses
            for name, entry in tracer.layer_totals(mark).items():
                for key, value in entry.items():
                    totals[f"span:{name}:{key}"] += value
                totals["trace:covered"] += entry["self_s"]
            for key, value in outcome.layers.items():
                totals[f"outcome:{key}"] += value
            last = self.elapsed() - begun
        # Totals over the traced flows become per-flow values; the ratios
        # and the overhead are per flow already.
        per_flow = {source: total / len(traced) for source, total in totals.items()}
        lookups = totals["store:hits"] + totals["store:misses"]
        per_flow["store:hit_ratio"] = totals["store:hits"] / lookups if lookups else 0.0
        per_flow["trace:coverage"] = totals["trace:covered"] / sum(traced)
        per_flow["trace:overhead"] = statistics.median(traced) - statistics.median(untraced)
        self._describe("untraced flow s", untraced)
        self._describe("traced flow s", traced)
        metrics = {}
        for listed in self.benchmark["per_layer"]:
            name = listed["name"]
            entry = self.manifest["per_layer"][name]
            value = per_flow.get(entry["source"], 0.0)
            metrics[name] = {"value": value, "unit": listed["unit"]}
            if self.workload.name in entry["workloads"] and "may_be_zero" not in entry and value <= 0:
                self.problems.append(f"per-layer metric {name} did not register on {self.workload.name}")
        if metrics["trace.coverage"]["value"] < MIN_COVERAGE:
            self.problems.append(
                f"trace.coverage {metrics['trace.coverage']['value']:.4f} < {MIN_COVERAGE}: "
                "an outermost call is not spanned"
            )
        return metrics

    def flow(self) -> tuple[float, Any]:
        """A cold set-up then one run: ``(wall of both, outcome)``."""
        (setup_wall, _cpu), product = self.cold_setup()
        outcome = self.account(self.workload.run(product))
        return setup_wall + outcome.wall, outcome

    def _describe(self, label: str, values: list[float]) -> None:
        if not values:
            self.info.append(f"{label}: no samples")
            return
        q1, median, q3 = _quartiles(values)
        self.info.append(
            f"{label}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"min {min(values):.6g} max {max(values):.6g} samples {len(values)}"
        )

    def verdict(self) -> bool:
        if len(self.digests) > 1:
            self.problems.append(
                f"results differ between repetitions: {len(self.digests)} distinct digests"
            )
        return not self.problems and self.attempted > 0


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv: Optional[list[str]], benchmark: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the manifest's)")
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"], help="measurement budget"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="the manifest's quick sizes (for the benchmark's tests)"
    )
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    benchmark, manifest = load_json(BENCHMARK_PATH), load_json(MANIFEST_PATH)
    args = parse_args(argv, benchmark)
    config = manifest["workloads"][args.workload]
    seed = config["default_seed"] if args.seed is None else args.seed
    # A workload with an input_seed takes the same input whatever --seed is.
    input_seed = config.get("input_seed", seed)
    _isolate_environment()
    try:
        store = _load_program()
    except (MissingProgram, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    sizes = config["quick_sizes"] if args.quick else config["sizes"]
    workload = workloads.WORKLOADS[args.workload](sizes, input_seed, OUTPUT_DIR)
    measurement = Measurement(
        workload, store.active_graph_store(), args.seconds, benchmark, manifest
    )
    print(f"environment: {json.dumps(environment_record(), sort_keys=True)}")
    print(
        f"workload: {args.workload} seed {seed} input seed {input_seed} "
        f"sizes {json.dumps(sizes, sort_keys=True)}"
    )
    try:
        if args.trace:
            tracer = Tracer()
            metrics = measurement.trace(tracer)
            path = os.path.join(OUTPUT_DIR, f"spans-{args.workload}-seed{seed}.jsonl")
            tracer.write(path)
            measurement.info.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        else:
            metrics = measurement.measure()
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    correct = measurement.verdict()
    for line in measurement.info:
        print(line)
    share = measurement.failed / measurement.attempted if measurement.attempted else float("nan")
    print(f"operations: attempted {measurement.attempted} failed {measurement.failed} (failed share {share:.4g})")
    for digest in sorted(measurement.digests):
        print(f"digest {args.workload} seed {seed}: {digest}")
    for problem in measurement.problems:
        print(f"check failed: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
