"""Tests for the ASCII plots and figure-data CSV export."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.plots import (Series, ascii_bar_chart, ascii_histogram, ascii_line_plot,
                              read_series_csv, write_histogram_csv, write_series_csv)


class TestSeries:
    def test_requires_aligned_values(self):
        with pytest.raises(ValueError):
            Series("bad", x=[1.0, 2.0], y=[1.0])

    def test_requires_non_empty(self):
        with pytest.raises(ValueError):
            Series("empty", x=[], y=[])


class TestAsciiLinePlot:
    def _figure2_series(self):
        """The Figure 2 shape: a staircase simulator curve and a smooth surrogate."""
        dispatch_widths = list(range(1, 11))
        simulator = Series("llvm-mca", x=[float(v) for v in dispatch_widths],
                           y=[3.0 if v == 1 else 1.0 for v in dispatch_widths])
        surrogate = Series("surrogate", x=[float(v) for v in dispatch_widths],
                           y=[3.0 / v + 1.0 for v in dispatch_widths])
        return [simulator, surrogate]

    def test_plot_contains_markers_and_legend(self):
        text = ascii_line_plot(self._figure2_series(), title="Figure 2",
                               x_label="DispatchWidth", y_label="Timing")
        assert "Figure 2" in text
        assert "o=llvm-mca" in text and "x=surrogate" in text
        assert "DispatchWidth" in text
        assert "o" in text and "x" in text

    def test_requires_series_and_minimum_size(self):
        with pytest.raises(ValueError):
            ascii_line_plot([])
        with pytest.raises(ValueError):
            ascii_line_plot(self._figure2_series(), width=4, height=2)

    def test_constant_series_does_not_divide_by_zero(self):
        flat = Series("flat", x=[1.0, 2.0, 3.0], y=[5.0, 5.0, 5.0])
        text = ascii_line_plot([flat])
        assert "flat" in text

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20))
    def test_plot_always_renders_property(self, values):
        series = Series("s", x=[float(i) for i in range(len(values))],
                        y=[float(v) for v in values])
        text = ascii_line_plot([series], width=30, height=8)
        lines = text.splitlines()
        assert len(lines) >= 8


class TestAsciiHistogram:
    def test_renders_counts_per_bin(self):
        text = ascii_histogram({"default": [0, 1, 1, 2], "learned": [0, 0, 0, 5]},
                               bins=[0, 1, 2, 6], title="WriteLatency")
        assert "WriteLatency" in text
        assert "default:" in text and "learned:" in text
        assert "#" in text

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            ascii_histogram({"x": [1.0]}, bins=[0])

    def test_empty_collection_renders_zero_bars(self):
        text = ascii_histogram({"empty": []}, bins=[0, 1, 2])
        assert "empty:" in text


class TestAsciiBarChart:
    def test_renders_labelled_bars(self):
        text = ascii_bar_chart(["Redis", "SQLite"], [41.2, 32.8], title="Per-application")
        assert "Per-application" in text
        assert "Redis" in text and "SQLite" in text
        assert text.count("#") > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            ascii_bar_chart([], [])


class TestCSVRoundTrip:
    def test_series_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "figures", "fig2.csv")
        series = [
            Series("llvm-mca", x=[1.0, 2.0, 3.0], y=[3.0, 1.0, 1.0]),
            Series("surrogate", x=[1.0, 2.0, 3.0], y=[3.2, 1.8, 1.4]),
        ]
        write_series_csv(path, series, x_name="DispatchWidth")
        x_name, loaded = read_series_csv(path)
        assert x_name == "DispatchWidth"
        assert [entry.name for entry in loaded] == ["llvm-mca", "surrogate"]
        np.testing.assert_allclose(loaded[0].y, [3.0, 1.0, 1.0])
        np.testing.assert_allclose(loaded[1].x, [1.0, 2.0, 3.0])

    def test_series_csv_bytes(self, tmp_path):
        path = os.path.join(tmp_path, "fig2.csv")
        write_series_csv(path, [Series("llvm-mca", x=[1.0, 2.0], y=[3.0, 1.0]),
                                Series("surrogate", x=[1.0, 2.0], y=[3.2, 1.8])],
                         x_name="DispatchWidth")
        with open(path, "rb") as handle:
            assert handle.read() == (b"DispatchWidth,llvm-mca,surrogate\r\n"
                                     b"1.0,3.0,3.2\r\n2.0,1.0,1.8\r\n")

    def test_series_csv_requires_shared_x(self, tmp_path):
        path = os.path.join(tmp_path, "fig.csv")
        series = [Series("a", x=[1.0], y=[2.0]), Series("b", x=[3.0], y=[4.0])]
        with pytest.raises(ValueError):
            write_series_csv(path, series)
        with pytest.raises(ValueError):
            write_series_csv(path, [])

    def test_histogram_csv_contains_counts(self, tmp_path):
        path = os.path.join(tmp_path, "hist.csv")
        write_histogram_csv(path, {"default": [0, 1, 1], "learned": [0, 0, 0]},
                            bins=[0, 1, 2])
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "bin_low,bin_high,default,learned"
        assert lines[1].endswith("1,3")
        with pytest.raises(ValueError):
            write_histogram_csv(path, {"x": [1.0]}, bins=[0])

    def test_histogram_csv_bytes(self, tmp_path):
        path = os.path.join(tmp_path, "hist.csv")
        write_histogram_csv(path, {"default": [0.5, 1.5, 1.5]}, bins=[0, 1, 2])
        with open(path, "rb") as handle:
            assert handle.read() == b"bin_low,bin_high,default\r\n0,1,1\r\n1,2,2\r\n"

    def test_read_series_rejects_narrow_csv(self, tmp_path):
        path = os.path.join(tmp_path, "narrow.csv")
        with open(path, "w") as handle:
            handle.write("x\n1\n")
        with pytest.raises(ValueError):
            read_series_csv(path)
