"""Tests for the campaign and matrix report builders and their text tables.

The end-to-end campaign tests (tests/test_campaigns.py) check that a report
is reproducible; these pin what the report says: which records its
statistics and rankings count, and how ``repro campaign report`` and
``repro matrix report`` print it.
"""

import numpy as np
import pytest

from repro.api import CAMPAIGNS, CampaignSpec, SpecValidationError
from repro.campaigns.report import (HISTOGRAM_BINS, TOP_K, _axis_sensitivity,
                                    _delta_histogram, _error_stats, _percent,
                                    build_report, error_stats_table, format_report,
                                    render_assignment, sensitivity_table)
from repro.campaigns.spec import SAMPLE_KEY, AxisSpec
from repro.distributed.report import build_matrix_report, format_matrix_report


def _spec(**overrides):
    payload = {"target": "haswell", "num_blocks": 40, "seed": 0,
               "axes": [{"field": "DispatchWidth", "values": [1, 2, 4]},
                        {"field": "ReorderBufferSize", "values": [10, 50]}]}
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


def _record(error, block_fraction=1.0, **assignment):
    return {"round": 0, "block_fraction": block_fraction,
            "assignment": assignment, "error": error}


class TestErrorStatistics:
    def test_error_stats_summarise_the_distribution(self):
        stats = _error_stats(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert stats["count"] == 5
        assert stats["mean"] == pytest.approx(0.3)
        assert stats["std"] == pytest.approx(np.std([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert (stats["min"], stats["max"]) == (0.1, 0.5)
        assert list(stats["quantiles"]) == ["p05", "p25", "p50", "p75", "p95"]
        assert stats["quantiles"]["p50"] == pytest.approx(0.3)
        assert stats["quantiles"]["p25"] == pytest.approx(0.2)

    def test_delta_histogram_is_relative_to_the_baseline(self):
        histogram = _delta_histogram(np.array([0.5, 0.5, 0.75, 1.0]), 0.5)
        edges, counts = histogram["bin_edges"], histogram["counts"]
        assert len(edges) == HISTOGRAM_BINS + 1 and (edges[0], edges[-1]) == (0.0, 0.5)
        assert (counts[0], counts[HISTOGRAM_BINS // 2], counts[-1]) == (2, 1, 1)
        assert sum(counts) == 4

    def test_axis_sensitivity_ranks_by_spread_of_mean_error(self):
        records = [_record(0.9, DispatchWidth=1), _record(0.3, DispatchWidth=2),
                   _record(0.5, ReorderBufferSize=10), _record(0.4, ReorderBufferSize=50),
                   _record(0.6, ReorderBufferSize=50)]
        ranking = _axis_sensitivity(["ReorderBufferSize", "DispatchWidth"], records)
        assert [entry["axis"] for entry in ranking] == ["DispatchWidth", "ReorderBufferSize"]
        assert ranking[0]["spread"] == pytest.approx(0.6)
        assert ranking[0]["mean_error_by_value"] == [[1, 0.9], [2, 0.3]]
        assert ranking[1]["spread"] == pytest.approx(0.0)
        assert ranking[1]["mean_error_by_value"] == [[10, 0.5], [50, 0.5]]

    def test_axis_sensitivity_skips_single_value_axes(self):
        records = [_record(0.2, A=1, B=1, C=5), _record(0.4, A=2, B=2, C=5)]
        ranking = _axis_sensitivity(["C", "B", "A"], records)
        # A and B tie on spread; the axis name breaks the tie. C never varies.
        assert [entry["axis"] for entry in ranking] == ["A", "B"]


class TestBuildReport:
    def test_screening_rounds_are_left_out_of_statistics_and_ranking(self):
        records = [_record(0.05, block_fraction=0.25, DispatchWidth=1),
                   _record(0.4, DispatchWidth=2), _record(0.2, DispatchWidth=4)]
        report = build_report(_spec(), ["DispatchWidth"], records, 0.3, "complete")
        assert report["num_variants"] == 3
        assert report["num_full_corpus_variants"] == 2
        assert report["error_stats"]["count"] == 2
        assert report["error_stats"]["min"] == 0.2
        assert [variant["error"] for variant in report["best_variants"]] == [0.2, 0.4]
        assert sum(report["error_delta_histogram"]["counts"]) == 2
        # The sensitivity ranking still counts the screening record.
        assert report["axis_sensitivity"][0]["mean_error_by_value"][0] == [1, 0.05]

    def test_screening_only_runs_score_every_record(self):
        records = [_record(0.3, block_fraction=0.5, DispatchWidth=1),
                   _record(0.1, block_fraction=0.5, DispatchWidth=2)]
        report = build_report(_spec(), ["DispatchWidth"], records, 0.3, "running")
        assert report["num_full_corpus_variants"] == 0
        assert report["error_stats"]["count"] == 2
        assert report["best_variants"][0]["error"] == 0.1

    def test_equal_errors_keep_evaluation_order_and_top_k(self):
        records = [_record(0.2, DispatchWidth=value) for value in range(TOP_K + 2)]
        report = build_report(_spec(), ["DispatchWidth"], records, 0.2, "complete")
        assert [variant["assignment"]["DispatchWidth"]
                for variant in report["best_variants"]] == list(range(TOP_K))

    def test_axis_sensitivity_keeps_the_top_k_axes(self):
        labels = [f"axis{index}" for index in range(TOP_K + 1)]
        records = [_record(0.2, **dict.fromkeys(labels, 1)),
                   _record(0.4, **dict.fromkeys(labels, 2))]
        report = build_report(_spec(), labels, records, 0.3, "complete")
        assert [entry["axis"] for entry in report["axis_sensitivity"]] == labels[:TOP_K]

    def test_empty_report_has_no_statistics(self):
        report = build_report(_spec(), ["DispatchWidth"], [], 0.3, "running")
        assert report["num_variants"] == 0
        for key in ("error_stats", "error_delta_histogram", "best_variants",
                    "axis_sensitivity"):
            assert key not in report
        assert report["spec"] == _spec().identity_dict()
        assert "baseline error: 30.00%" in format_report(report)


class TestReportText:
    @pytest.mark.parametrize("value, text", [(None, "-"), (0.1234, "12.34%"),
                                             (1, "100.00%"), ("0.5", "50.00%")])
    def test_percent(self, value, text):
        assert _percent(value) == text

    def test_render_assignment(self):
        assert render_assignment({}) == "<base table>"
        assert render_assignment({SAMPLE_KEY: 3}) == "random table #3"
        assert render_assignment({"WriteLatency@XOR32rr": 0, "DispatchWidth": 4}) == \
            "DispatchWidth=4, WriteLatency@XOR32rr=0"

    def test_error_stats_table_has_one_row_per_label(self):
        stats = _error_stats(np.array([0.1, 0.3]))
        lines = error_stats_table({"haswell__mca": stats, "zen2__mca": stats},
                                  title="per-cell").splitlines()
        assert lines[0] == "per-cell"
        assert lines[1].split() == ["count", "mean", "std", "min", "p05", "p25", "p50",
                                    "p75", "p95", "max"]
        assert lines[3].split() == ["haswell__mca", "2", "20.00%", "10.00%", "10.00%",
                                    "11.00%", "15.00%", "20.00%", "25.00%", "29.00%",
                                    "30.00%"]
        assert lines[4].startswith("zen2__mca")

    def test_missing_quantiles_print_as_dashes(self):
        row = error_stats_table({"old": {"count": 1, "mean": 0.5, "std": 0.0,
                                         "min": 0.5, "max": 0.5}}).splitlines()[-1]
        assert row.split() == ["old", "1", "50.00%", "0.00%", "50.00%",
                               "-", "-", "-", "-", "-", "50.00%"]

    def test_sensitivity_table_lists_mean_error_per_value(self):
        text = sensitivity_table([{"axis": "DispatchWidth", "spread": 0.25,
                                   "mean_error_by_value": [[1, 0.5], [4, 0.25]]}])
        assert text.splitlines()[0] == "axis sensitivity (most sensitive first)"
        assert text.splitlines()[-1].split(None, 3) == [
            "1", "DispatchWidth", "25.00%", "1: 50.00%, 4: 25.00%"]

    def test_format_report_prints_every_section(self):
        records = [_record(0.4, DispatchWidth=1), _record(0.2, DispatchWidth=4)]
        text = format_report(build_report(_spec(), ["DispatchWidth"], records, 0.3,
                                          "complete"))
        lines = text.splitlines()
        assert lines[0] == "campaign report (schema v1, status: complete)"
        assert lines[1] == "  strategy: grid  target: haswell  simulator: mca"
        assert lines[2] == "  variants evaluated: 2 (2 on the full corpus)"
        for title in ("error distribution", "best variants",
                      "axis sensitivity (most sensitive first)"):
            assert title in lines
        assert any(line.split() == ["1", "20.00%", "DispatchWidth=4"] for line in lines)


class _MatrixSpec:
    """The two members of a matrix spec the report builder reads."""

    def resolve_cells(self):
        return [("haswell", "mca"), ("zen2", "mca"), ("skylake", "mca")]

    def identity_dict(self):
        return {"campaign": {"strategy": "grid"}}


def _ok_outcome(target, baseline, errors):
    records = [_record(error, DispatchWidth=index + 1) for index, error in enumerate(errors)]
    return {"target": target, "simulator": "mca", "status": "ok", "attempts": 1,
            "report": build_report(_spec(), ["DispatchWidth"], records, baseline,
                                   "complete")}


class TestMatrixReport:
    def _report(self):
        outcomes = {
            "haswell__mca": _ok_outcome("haswell", 0.5, [0.4, 0.3]),
            "zen2__mca": {"target": "zen2", "simulator": "mca", "status": "failed",
                          "attempts": 3, "error": "RuntimeError: boom",
                          "traceback": "Traceback ..."},
        }
        return build_matrix_report(_MatrixSpec(), outcomes, "running")

    def test_pending_cells_are_absent_and_counted(self):
        report = self._report()
        assert (report["num_cells"], report["num_completed_cells"]) == (3, 1)
        assert list(report["cells"]) == ["haswell__mca", "zen2__mca"]
        assert [row["cell"] for row in report["comparison"]] == ["haswell__mca",
                                                                  "zen2__mca"]

    def test_completed_cell_reports_its_improvement(self):
        report = self._report()
        row = report["comparison"][0]
        assert row["best_error"] == 0.3
        assert row["improvement"] == pytest.approx(0.2)
        assert report["best_variant_per_cell"]["haswell__mca"]["assignment"] == {
            "DispatchWidth": 2}
        cell = report["cells"]["haswell__mca"]
        assert (cell["num_variants"], cell["best_error"]) == (2, 0.3)

    def test_failed_cell_enters_the_ledger(self):
        report = self._report()
        assert report["comparison"][1]["improvement"] is None
        assert report["failed_cells"] == [{
            "cell": "zen2__mca", "target": "zen2", "simulator": "mca", "attempts": 3,
            "error": "RuntimeError: boom", "traceback": "Traceback ..."}]
        assert report["cells"]["zen2__mca"]["error"] == "RuntimeError: boom"

    def test_format_matrix_report(self):
        lines = format_matrix_report(self._report()).splitlines()
        assert lines[:3] == ["matrix report (schema v1, status: running)",
                             "  cells: 1/3 completed, 1 failed", "  strategy: grid"]
        for title in ("cell comparison", "per-cell error distribution",
                      "failed cells (retries exhausted)"):
            assert title in lines
        assert any(line.split() == ["haswell", "mca", "ok", "50.00%", "30.00%",
                                    "20.00%", "DispatchWidth=2"] for line in lines)
        assert any(line.split() == ["zen2", "mca", "failed", "-", "-", "-", "-"]
                   for line in lines)
        assert lines[-1].split(None, 2) == ["zen2__mca", "3", "RuntimeError: boom"]


class TestAxisAndSpecValidation:
    def test_label_names_opcode_and_port(self):
        assert AxisSpec(field="PortMap", opcode="ADD32rr", port=2,
                        values=[0, 1]).label() == "PortMap@ADD32rr#2"
        assert AxisSpec(field="WriteLatency", low=0, high=6, step=3).value_list() == [0, 3, 6]

    @pytest.mark.parametrize("axis, message", [
        ({"field": "", "values": [1]}, "axes[0].field: must name a sweepable field"),
        ({"field": "DispatchWidth", "low": 4, "high": 2}, "axes[0].high: must be >= low (4)"),
        ({"field": "DispatchWidth", "values": [1, True]}, "axes[0].values: expected a "
                                                          "non-empty list of ints"),
        ({"field": "WriteLatency", "opcode": "ADD32rr", "port": 0, "values": [1]},
         "axes[0].port: 'WriteLatency' takes no port index"),
    ], ids=["empty_field", "inverted_range", "bool_value", "port_on_latency"])
    def test_axis_errors_name_the_axis(self, axis, message):
        with pytest.raises(SpecValidationError) as excinfo:
            _spec(axes=[axis])
        assert str(excinfo.value).startswith(message)

    def test_corpus_and_dataset_path_are_exclusive(self):
        with pytest.raises(SpecValidationError, match="corpus_path: mutually exclusive"):
            _spec(dataset_path="blocks.json", corpus_path="corpus")

    def test_split_choices_depend_on_the_source(self):
        with pytest.raises(SpecValidationError,
                           match="split: expected 'train' or 'test', got 'validation'"):
            _spec(split="validation")
        assert _spec(corpus_path="corpus", split="validation").split == "validation"
        with pytest.raises(SpecValidationError, match="expected 'train', 'validation'"):
            _spec(corpus_path="corpus", split="holdout")

    def test_fig5_preset_sweeps_both_global_axes_one_at_a_time(self):
        spec = CAMPAIGNS.get("fig5_global_sensitivity")(num_blocks=60, max_blocks=20,
                                                        chunk_size=8)
        assert [axis["field"] for axis in spec.axes] == ["DispatchWidth",
                                                          "ReorderBufferSize"]
        assert spec.axes[0]["values"] == list(range(1, 11))
        assert (spec.strategy_options, spec.max_blocks, spec.chunk_size) == (
            {"mode": "one_at_a_time"}, 20, 8)
