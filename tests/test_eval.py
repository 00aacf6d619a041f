"""Tests for metrics, analyses, table formatting, and experiment drivers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bhive import build_dataset
from repro.campaigns import sweep_error_curve
from repro.core.adapters import MCAAdapter
from repro.eval import (case_study_report, error_and_tau, format_results_table, format_table,
                        kendall_tau, mean_absolute_percentage_error, parameter_histograms,
                        per_application_error, per_category_error)
from repro.eval.tables import format_percent
from repro.isa.parser import parse_block
from repro.llvm_mca import MCASimulator
from repro.targets import HASWELL, build_default_mca_table
from repro.targets.hardware import HardwareModel


class TestMetrics:
    def test_mape_basic(self):
        assert mean_absolute_percentage_error([2.0], [1.0]) == pytest.approx(1.0)
        assert mean_absolute_percentage_error([1.0, 1.0], [1.0, 2.0]) == pytest.approx(0.25)

    def test_mape_can_exceed_one(self):
        assert mean_absolute_percentage_error([10.0], [1.0]) > 1.0

    def test_mape_validation(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])

    def test_kendall_tau_perfect_and_inverted(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert kendall_tau([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_kendall_tau_uncorrelated_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=300)
        b = rng.normal(size=300)
        assert abs(kendall_tau(a, b)) < 0.1

    def test_kendall_tau_requires_two(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0], [1.0])

    def test_error_and_tau_tuple(self):
        error, tau = error_and_tau([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert error == pytest.approx(0.0)
        assert tau == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=50), min_size=2, max_size=20))
    def test_perfect_prediction_has_zero_error_and_unit_tau_when_distinct(self, values):
        values = list(dict.fromkeys(values))  # make distinct
        if len(values) < 2:
            values = [1.0, 2.0]
        error, tau = error_and_tau(values, values)
        assert error == pytest.approx(0.0)
        assert tau == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=15),
           st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=15))
    def test_kendall_tau_bounded(self, a, b):
        size = min(len(a), len(b))
        assert -1.0 <= kendall_tau(a[:size], b[:size]) <= 1.0


class TestAnalysis:
    def test_per_application_error_structure(self, small_dataset, haswell_default_table):
        simulator = MCASimulator(haswell_default_table)
        results = per_application_error(small_dataset, simulator.predict_many)
        assert results
        for name, (count, error) in results.items():
            assert count > 0 and error >= 0

    def test_per_category_error_structure(self, small_dataset, haswell_default_table):
        simulator = MCASimulator(haswell_default_table)
        results = per_category_error(small_dataset, simulator.predict_many)
        total = sum(count for count, _ in results.values())
        assert total == len(small_dataset.splits.test)

    def test_parameter_histograms_counts(self, haswell_default_table):
        learned = haswell_default_table.copy()
        learned.write_latency[:] = 0
        histograms = parameter_histograms(haswell_default_table, learned)
        assert set(histograms) == {"NumMicroOps", "WriteLatency", "ReadAdvanceCycles", "PortMap"}
        write_latency = histograms["WriteLatency"]
        assert sum(write_latency["default"]) == len(haswell_default_table.opcode_table)
        assert write_latency["learned"][0] == len(haswell_default_table.opcode_table)

    def test_sensitivity_sweep_shape(self, small_dataset, haswell_default_table):
        sweep = sweep_error_curve(haswell_default_table, small_dataset,
                                  "DispatchWidth", [1, 4, 8], max_blocks=10)
        assert [value for value, _ in sweep] == [1, 4, 8]
        assert all(error > 0 for _, error in sweep)

    def test_sensitivity_dispatch_width_minimum_near_default(self, small_dataset,
                                                             haswell_default_table):
        """Error should be worse at DispatchWidth=1 than at the default 4 (Figure 5)."""
        sweep = dict(sweep_error_curve(haswell_default_table, small_dataset,
                                       "DispatchWidth", [1, 4], max_blocks=25))
        assert sweep[1] > sweep[4]

    def test_sensitivity_rob_insensitive_above_threshold(self, small_dataset,
                                                         haswell_default_table):
        """Above ~70 entries the reorder buffer is rarely the bottleneck (Figure 5)."""
        sweep = dict(sweep_error_curve(haswell_default_table, small_dataset,
                                       "ReorderBufferSize", [100, 300], max_blocks=25))
        assert sweep[100] == pytest.approx(sweep[300], rel=0.1)

    def test_case_study_report(self, haswell_default_table, haswell_hardware):
        learned = haswell_default_table.copy()
        learned.set_latency("PUSH64r", 0)
        blocks = {"PUSH64r": (parse_block("pushq %rbx\ntestl %r8d, %r8d"), "PUSH64r")}
        report = case_study_report(blocks, haswell_default_table, learned,
                                   lambda block: haswell_hardware.measure(block, noisy=False))
        assert len(report) == 1
        case = report[0]
        assert case.default_latency == 2 and case.learned_latency == 0
        assert case.learned_prediction < case.default_prediction
        assert abs(case.learned_prediction - case.true_timing) < \
            abs(case.default_prediction - case.true_timing)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["A", "Metric"], [["x", 1], ["longer", 2.5]], title="Title")
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "A" in lines[1] and "Metric" in lines[1]
        assert len(lines) == 5

    def test_format_percent(self):
        assert format_percent(0.254) == "25.4%"
        assert format_percent(None) == "N/A"

    def test_format_results_table(self):
        results = {"Haswell": {"Default": (0.25, 0.78), "IACA": (None, None)}}
        text = format_results_table(results, title="Table IV")
        assert "Haswell" in text and "25.0%" in text and "N/A" in text


class TestExperimentDrivers:
    def test_table3_statistics(self):
        from repro.eval.experiments import run_table3_dataset_statistics

        results = run_table3_dataset_statistics(num_blocks=80, seed=1, uarches=("haswell",))
        assert "Haswell" in results
        assert results["Haswell"]["num_blocks_total"] > 0

    def test_section2b_measured_tables(self):
        from repro.eval.experiments import run_section2b_measured_tables

        results = run_section2b_measured_tables(num_blocks=80, seed=0)
        assert set(results) == {"default", "min", "median", "max"}
        assert results["max"] > results["default"]

    def test_figure2_surrogate_sweep_smoke(self):
        from repro.eval.experiments import ExperimentScale, run_figure2_surrogate_sweep

        results = run_figure2_surrogate_sweep(ExperimentScale.smoke())
        widths = list(range(1, 11))
        assert [width for width, _ in results["llvm_mca"]] == widths
        assert [width for width, _ in results["surrogate"]] == widths
        predictions = np.array([value for _, value in results["surrogate"]])
        assert np.all(np.isfinite(predictions)) and np.all(predictions > 0)

    def test_figure2_surrogate_curve_matches_per_width_reference(self, monkeypatch):
        """The one batched forward equals a scalar reference forward per width."""
        import repro.core.surrogate_training as surrogate_training
        from repro.api.registries import SIMULATORS
        from repro.autodiff.tensor import no_grad
        from repro.eval.experiments import ExperimentScale, run_figure2_surrogate_sweep
        from repro.targets import get_uarch
        from surrogate_reference import reference_forward

        trained = []
        train_surrogate = surrogate_training.train_surrogate

        def capture(surrogate, *args, **kwargs):
            trained.append(surrogate)
            return train_surrogate(surrogate, *args, **kwargs)

        monkeypatch.setattr(surrogate_training, "train_surrogate", capture)
        results = run_figure2_surrogate_sweep(ExperimentScale.smoke())
        (surrogate,) = trained
        spec = surrogate.spec
        featurized = surrogate.featurizer.featurize(parse_block(results["block"]))
        base_arrays = SIMULATORS.get("mca").create_adapter(
            get_uarch("haswell"), narrow_sampling=True).default_arrays()
        reference = []
        with no_grad():
            for width, _ in results["surrogate"]:
                arrays = base_arrays.copy()
                arrays.global_values[spec.global_field_slice("DispatchWidth")] = width
                normalized = spec.normalize_for_surrogate_training(arrays)
                rows = normalized.per_instruction_values[list(featurized.opcode_indices)]
                reference.append(reference_forward(surrogate, featurized, rows,
                                                   normalized.global_values).item())
        np.testing.assert_allclose([value for _, value in results["surrogate"]],
                                   reference, atol=1e-9, rtol=0)

    def test_experiment_scales(self):
        from repro.eval.experiments import ExperimentScale

        smoke = ExperimentScale.smoke()
        benchmark = ExperimentScale.benchmark()
        assert smoke.num_blocks < benchmark.num_blocks
        assert smoke.difftune.simulated_dataset_size < \
            benchmark.difftune.simulated_dataset_size
