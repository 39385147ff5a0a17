"""Unit tests for the analysis harness (stats, records, tables, experiment)."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.analysis import (
    Experiment,
    TrialOutcome,
    ResultTable,
    format_value,
    geometric_mean,
    linear_slope,
    loglog_slope,
    pearson_correlation,
    ratio_statistics,
    render_comparison,
    render_table,
    summarize,
    sweep,
)


class TestStats:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4
        assert summary.ci95_half_width > 0

    def test_summarize_single_value(self):
        summary = summarize([7.0])
        assert summary.stdev == 0.0
        assert summary.ci95_half_width == 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_loglog_slope_detects_linear(self):
        x = [10, 20, 40, 80]
        y = [3 * v for v in x]
        assert loglog_slope(x, y) == pytest.approx(1.0, abs=1e-9)

    def test_loglog_slope_detects_quadratic(self):
        x = [2, 4, 8, 16]
        y = [v ** 2 for v in x]
        assert loglog_slope(x, y) == pytest.approx(2.0, abs=1e-9)

    def test_loglog_slope_requires_positive_points(self):
        with pytest.raises(ValueError):
            loglog_slope([0, 0], [1, 2])

    def test_linear_slope(self):
        assert linear_slope([0, 1, 2], [1, 3, 5]) == pytest.approx(2.0)

    def test_ratio_statistics(self):
        summary = ratio_statistics([10, 20], [5, 5])
        assert summary.mean == pytest.approx(3.0)

    def test_ratio_statistics_skips_zero_bounds(self):
        summary = ratio_statistics([10, 20], [0, 10])
        assert summary.count == 1

    def test_pearson_correlation(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1, 10, 100]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geometric_mean([-1, 0])


class TestRecordsAndTables:
    def test_result_table_accumulates_rows(self):
        table = ResultTable(title="demo")
        table.add_row(n=8, time=1.5)
        table.add_row(n=16, time=3.0, extra="x")
        assert len(table) == 2
        assert table.columns() == ["n", "time", "extra"]
        assert table.column("time") == [1.5, 3.0]
        assert table.column("extra") == [None, "x"]

    def test_result_table_csv(self):
        table = ResultTable(title="demo")
        table.add_row(n=8, time=1.5)
        csv_text = table.to_csv()
        assert "n,time" in csv_text.splitlines()[0]
        assert "8,1.5" in csv_text

    def test_render_table_contains_values_and_notes(self):
        table = ResultTable(title="demo")
        table.add_row(n=8, time=1.5)
        table.add_note("hello")
        rendered = render_table(table)
        assert "demo" in rendered
        assert "1.5" in rendered
        assert "note: hello" in rendered

    def test_render_empty_table(self):
        assert "(empty)" in render_table(ResultTable(title="empty"))

    def test_format_value_variants(self):
        assert format_value(None) == ""
        assert format_value(True) == "yes"
        assert format_value(1.0) == "1"
        assert format_value(float("nan")) == "nan"
        assert format_value(float("inf")) == "inf"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value("abc") == "abc"

    def test_render_comparison_ratios(self):
        text = render_comparison("cmp", ["a", "b"], [10, 20], [5, 10])
        assert "ratio" in text
        assert "2" in text


class TestExperiment:
    def test_sweep_cartesian_product(self):
        cases = sweep(n=[8, 16], phi=[0.1, 0.2, 0.3])
        assert len(cases) == 6
        assert {"n": 8, "phi": 0.3} in cases

    def test_experiment_runs_all_cases_and_aggregates(self):
        seen_seeds = []

        def trial(case, seed):
            seen_seeds.append(seed)
            return {"time": case["n"] * 1.0, "messages": 10}

        experiment = Experiment(
            name="toy",
            cases=sweep(n=[4, 8]),
            trial=trial,
            repetitions=3,
            base_seed=100,
        )
        table = experiment.run()
        assert len(table) == 2
        assert len(seen_seeds) == 6
        assert len(set(seen_seeds)) == 6  # distinct seeds per repetition and case
        row = table.rows[0]
        assert row["time"] == pytest.approx(4.0)
        assert "wall_seconds" in row.values

    def test_experiment_records_min_max_time(self):
        counter = iter(range(100))

        def trial(case, seed):
            return {"time": float(next(counter))}

        table = Experiment(name="spread", cases=[{}], trial=trial, repetitions=3).run()
        row = table.rows[0]
        assert row["time_min"] <= row["time"] <= row["time_max"]

    def test_trial_outcome_aggregate_emits_spread_for_all_keys(self):
        outcome = TrialOutcome(
            case={"n": 4},
            measurements=[
                {"time": 2.0, "messages": 10.0, "wall_seconds": 0.5},
                {"time": 4.0, "messages": 30.0, "wall_seconds": 0.9},
            ],
        )
        aggregated = outcome.aggregate()
        assert aggregated["time"] == pytest.approx(3.0)
        assert aggregated["time_min"] == 2.0
        assert aggregated["time_max"] == 4.0
        assert aggregated["time_stdev"] == pytest.approx(statistics.stdev([2.0, 4.0]))
        assert aggregated["messages"] == pytest.approx(20.0)
        assert aggregated["messages_min"] == 10.0
        assert aggregated["messages_max"] == 30.0
        assert aggregated["messages_stdev"] == pytest.approx(statistics.stdev([10.0, 30.0]))
        # Wall-clock diagnostics report only their mean — spread is noise.
        assert aggregated["wall_seconds"] == pytest.approx(0.7)
        assert "wall_seconds_min" not in aggregated
        assert "wall_seconds_stdev" not in aggregated

    def test_trial_outcome_aggregate_single_measurement_has_no_spread(self):
        outcome = TrialOutcome(case={}, measurements=[{"time": 5.0}])
        assert outcome.aggregate() == {"time": 5.0}

    def test_trial_outcome_aggregate_empty(self):
        assert TrialOutcome(case={}).aggregate() == {}
