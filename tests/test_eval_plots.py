"""Tests for the ASCII line plot ``repro sweep`` draws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.plots import Series, ascii_line_plot


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
