"""Experiment harness: sharded sweeps, statistics, and tables.

The sweep orchestrator
----------------------
:class:`~repro.analysis.experiment.Experiment` flattens its (case ×
repetition) grid into a deterministic list of
:class:`~repro.analysis.experiment.TrialShard` objects and executes them
serially or on a ``multiprocessing`` worker pool
(``run(workers="serial"|"auto"|N)``).  Shard ``(case_index, rep_index)``
always runs with the seed ``derive_seed(base_seed, experiment_name,
case_index, rep_index)``, so a trial's measurement depends only on its
``(case, seed)`` pair — worker count, scheduling order, and resumption
never change the resulting :class:`~repro.analysis.records.ResultTable`
rows (wall-clock diagnostics aside;
:func:`~repro.analysis.experiment.deterministic_rows` strips them for
parity checks).

Checkpointing: ``run(checkpoint="sweep.jsonl")`` appends one JSON line per
finished shard (``{"experiment", "case_index", "rep_index", "seed",
"status", "measurement", "error", "wall_seconds"}``); ``resume=True`` skips
shards that already have an ``"ok"`` record and retries failures.  Trials
that raise — or exceed a per-trial ``timeout`` — are captured as failures
(a ``failures`` column plus a table note) instead of aborting the sweep.

Harnesses steer every ``Experiment.run`` in the process through
:func:`~repro.analysis.experiment.configure_sweeps` (used by the
``repro-gossip experiment --workers/--resume/--checkpoint-dir`` CLI and the
benchmark suite's ``REPRO_BENCH_WORKERS``).

Calibration
-----------
:mod:`repro.analysis.calibrate` inverts the simulator:
:func:`~repro.analysis.calibrate.calibrate` runs ABC-SMC over the batch
engine to estimate scenario parameters from an observed informed-count
curve, fanning each generation's particles out through the sweep
orchestrator above (same worker pool, same JSONL checkpoint idiom, same
bit-for-bit determinism guarantees).

Golden traces
-------------
Seeded reference trajectories for the declarative gossip algorithms live as
committed JSON fixtures under ``tests/golden/`` and are captured by
:mod:`repro.simulation.golden`.  To add one, register the algorithm or
topology in that module's ``GOLDEN_ALGORITHMS`` / ``GOLDEN_TOPOLOGIES``
tables and run ``python tests/golden/regen.py``; the parity test replays
every fixture on both simulation backends.
"""

from .calibrate import (
    CalibrationConfig,
    CalibrationError,
    CalibrationResult,
    Generation,
    ParamPrior,
    calibrate,
    curve_rmse,
    mean_curve,
    quantile_time_distance,
)
from .experiment import (
    Experiment,
    SweepConfig,
    TrialOutcome,
    TrialRecord,
    TrialShard,
    configure_sweeps,
    current_sweep_config,
    default_scenario_measure,
    deterministic_rows,
    resolve_workers,
    scenario_sweep,
    sweep,
    sweep_config,
)
from .records import ResultRow, ResultTable
from .stats import (
    Summary,
    geometric_mean,
    linear_slope,
    loglog_slope,
    pearson_correlation,
    ratio_statistics,
    summarize,
)
from .tables import format_value, render_comparison, render_table

__all__ = [
    "CalibrationConfig",
    "CalibrationError",
    "CalibrationResult",
    "Experiment",
    "Generation",
    "ParamPrior",
    "ResultRow",
    "ResultTable",
    "Summary",
    "SweepConfig",
    "TrialOutcome",
    "TrialRecord",
    "TrialShard",
    "calibrate",
    "configure_sweeps",
    "curve_rmse",
    "mean_curve",
    "quantile_time_distance",
    "current_sweep_config",
    "default_scenario_measure",
    "deterministic_rows",
    "format_value",
    "geometric_mean",
    "linear_slope",
    "loglog_slope",
    "pearson_correlation",
    "ratio_statistics",
    "render_comparison",
    "render_table",
    "resolve_workers",
    "scenario_sweep",
    "summarize",
    "sweep",
    "sweep_config",
]
