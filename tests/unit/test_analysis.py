"""Tests for the repro.analysis helpers (settings, comparisons, reporting, calibration)."""

import pytest

from repro.analysis.calibration import calibration_report, check_profile_assumptions
from repro.analysis.comparison import geometric_mean, normalized_throughput, relative_gain
from repro.analysis.reporting import FigureTable
from repro.analysis.schemes import SchemeRunner
from repro.analysis.settings import ExperimentSettings
from repro.cloud.config import HeterogeneousConfig
from repro.workload.batch_sizes import GaussianBatchSizes


class TestExperimentSettings:
    def test_defaults(self):
        settings = ExperimentSettings()
        assert settings.budget_per_hour == 2.5
        assert set(settings.models) == {"NCF", "RM2", "WND", "MT-WND", "DIEN"}
        assert settings.workload_spec().num_queries == settings.num_queries

    def test_fast_preset_is_smaller(self):
        fast = ExperimentSettings.fast()
        default = ExperimentSettings.default()
        assert fast.num_queries < default.num_queries
        assert fast.capacity_iterations <= default.capacity_iterations

    def test_scaled_override(self):
        settings = ExperimentSettings().scaled(budget_per_hour=10.0, num_queries=100)
        assert settings.budget_per_hour == 10.0
        assert settings.num_queries == 100

    def test_rng_offsets_differ(self):
        settings = ExperimentSettings()
        a = settings.rng(0).integers(0, 10**9)
        b = settings.rng(1).integers(0, 10**9)
        assert a != b

    def test_monitored_batches_deterministic(self):
        settings = ExperimentSettings(monitor_samples=500)
        assert list(settings.monitored_batches()) == list(settings.monitored_batches())

    def test_custom_distribution(self):
        settings = ExperimentSettings(batch_distribution=GaussianBatchSizes(mean=300, std=50))
        assert isinstance(settings.distribution(), GaussianBatchSizes)

    def test_model_and_billing_access(self):
        settings = ExperimentSettings()
        assert settings.model("RM2").qos_ms == 350.0
        assert settings.billing().max_homogeneous_count("g4dn.xlarge", 2.5) == 4


class TestComparisonHelpers:
    def test_normalized_throughput(self):
        normalized = normalized_throughput({"a": 10.0, "b": 20.0}, "a")
        assert normalized == {"a": 1.0, "b": 2.0}

    def test_normalized_missing_reference(self):
        with pytest.raises(KeyError):
            normalized_throughput({"a": 1.0}, "z")

    def test_normalized_zero_reference(self):
        with pytest.raises(ValueError):
            normalized_throughput({"a": 0.0, "b": 1.0}, "a")

    def test_relative_gain(self):
        assert relative_gain(120.0, 100.0) == pytest.approx(20.0)
        assert relative_gain(80.0, 100.0) == pytest.approx(-20.0)
        with pytest.raises(ValueError):
            relative_gain(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestFigureTable:
    def make_table(self):
        return FigureTable(
            figure_id="figX",
            title="demo",
            headers=["model", "qps"],
            rows=[["RM2", 10.0], ["NCF", 20.0]],
            notes=["a note"],
        )

    def test_format_contains_everything(self):
        text = self.make_table().format()
        assert "figX" in text and "RM2" in text and "note: a note" in text

    def test_save(self, tmp_path):
        path = self.make_table().save(tmp_path / "sub" / "fig.txt")
        assert path.exists()
        assert "demo" in path.read_text()

    def test_host_timed_columns_are_printed_but_not_saved(self, tmp_path):
        table = FigureTable(
            figure_id="figT",
            title="timed",
            headers=["models", "cells", "us_per_round"],
            rows=[[1, 252, 1260.976], [2, 1008, 2559.865]],
            host_timed=["us_per_round"],
        )
        assert "us_per_round" in table.format() and "1260.976" in table.format()
        saved = table.save(tmp_path / "fig.txt").read_text()
        assert "us_per_round" not in saved and "1260.976" not in saved
        assert "cells" in saved and "1008" in saved
        assert table.column("us_per_round") == [1260.976, 2559.865]

    def test_column_and_row_map(self):
        table = self.make_table()
        assert table.column("qps") == [10.0, 20.0]
        assert table.row_map("model", "qps") == {"RM2": 10.0, "NCF": 20.0}
        with pytest.raises(KeyError):
            table.column("nope")


class TestCalibration:
    def test_profile_assumptions_hold(self):
        reports = check_profile_assumptions()
        assert len(reports) == 5
        for report in reports:
            assert report.ok, report

    def test_calibration_report_rows(self):
        table = calibration_report()
        assert len(table.rows) == 20  # 5 models x 4 types
        assert "qos_cutoff_batch" in table.headers


class TestSchemeRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return SchemeRunner(ExperimentSettings.fast().scaled(num_queries=200), "RM2")

    def test_oracle_throughput_positive(self, runner):
        assert runner.oracle_throughput(HeterogeneousConfig((2, 0, 9, 0))) > 0

    def test_policy_factories(self, runner):
        for scheme in ("RIBBON", "DRS", "CLKWRK", "KAIROS"):
            factory = runner.policy_factory(scheme)
            assert factory() is not factory()

    def test_unknown_scheme_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.policy_factory("MAGIC")
        with pytest.raises(ValueError):
            runner.config_evaluator("magic")

    def test_orcl_measure_detailed_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.measure_detailed(HeterogeneousConfig((1, 0, 0, 0)), "ORCL")

    def test_tuned_drs_threshold_bounds(self, runner):
        threshold = runner.tuned_drs_threshold(HeterogeneousConfig((2, 0, 9, 0)))
        assert 1 <= threshold <= 1000
        homog = runner.tuned_drs_threshold(HeterogeneousConfig((4, 0, 0, 0)))
        assert homog == 1000

    def test_homogeneous_baseline_fields(self, runner):
        baseline = runner.homogeneous_baseline()
        assert baseline["config"].counts == (4, 0, 0, 0)
        assert baseline["scale"] > 1.0
        assert baseline["scaled_qps"] >= baseline["raw_qps"]

    def test_evaluator_backends(self, runner):
        oracle_eval = runner.config_evaluator("oracle")
        assert oracle_eval(HeterogeneousConfig((1, 0, 2, 0))) > 0
