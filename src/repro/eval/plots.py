"""Text plots and figure-data export for the paper's figures.

The paper's evaluation contains three figures built from simple series data:
the surrogate-vs-simulator sweep (Figure 2), the default-vs-learned parameter
histograms (Figure 4), and the global-parameter sensitivity sweeps (Figure 5).
This module renders those as terminal-friendly ASCII plots — which is what the
benchmark harness prints — and exports the underlying series as CSV so the
figures can be regenerated in any plotting tool.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import storage


@dataclass
class Series:
    """One named data series: aligned x and y values."""

    name: str
    x: List[float]
    y: List[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"series {self.name}: x and y must be the same length")
        if not self.x:
            raise ValueError(f"series {self.name}: must not be empty")


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------
def ascii_line_plot(series: Sequence[Series], width: int = 60, height: int = 16,
                    title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render one or more series as an ASCII scatter/line chart.

    Each series gets its own marker character; the y-range is shared so
    curves can be compared (exactly the comparison Figure 2 makes between
    llvm-mca's staircase and the surrogate's smooth curve).
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 10 or height < 4:
        raise ValueError("plot must be at least 10x4 characters")
    markers = "ox+*#@%&"
    all_x = np.concatenate([np.asarray(entry.x, dtype=np.float64) for entry in series])
    all_y = np.concatenate([np.asarray(entry.y, dtype=np.float64) for entry in series])
    x_min, x_max = float(all_x.min()), float(all_x.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, entry in enumerate(series):
        marker = markers[index % len(markers)]
        for x_value, y_value in zip(entry.x, entry.y):
            column = int(round((float(x_value) - x_min) / x_span * (width - 1)))
            row = int(round((float(y_value) - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        level = y_max - (y_max - y_min) * row_index / (height - 1)
        lines.append(f"{level:8.2f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{x_min:<10.2f}{'':^{max(width - 20, 0)}}{x_max:>10.2f}")
    if x_label:
        lines.append(" " * 10 + x_label)
    legend = "  ".join(f"{markers[index % len(markers)]}={entry.name}"
                       for index, entry in enumerate(series))
    lines.append("legend: " + legend)
    if y_label:
        lines.insert(1 if title else 0, f"y: {y_label}")
    return "\n".join(lines)


def ascii_histogram(values: Mapping[str, Sequence[float]], bins: Sequence[float],
                    width: int = 40, title: str = "") -> str:
    """Render one histogram bar chart per named value collection.

    Used for the Figure 4 parameter-distribution comparison: pass
    ``{"default": [...], "learned": [...]}`` and a shared bin specification.
    """
    if len(bins) < 2:
        raise ValueError("need at least two bin edges")
    lines: List[str] = []
    if title:
        lines.append(title)
    max_count = 1
    counted: Dict[str, np.ndarray] = {}
    for name, collection in values.items():
        counts, _ = np.histogram(np.asarray(list(collection), dtype=np.float64), bins=bins)
        counted[name] = counts
        max_count = max(max_count, int(counts.max()) if counts.size else 1)
    for name, counts in counted.items():
        lines.append(f"{name}:")
        for bin_index, count in enumerate(counts):
            bar = "#" * int(round(count / max_count * width))
            low, high = bins[bin_index], bins[bin_index + 1]
            lines.append(f"  [{low:6.1f}, {high:6.1f}) {count:6d} {bar}")
    return "\n".join(lines)


def ascii_bar_chart(labels: Sequence[str], values: Sequence[float], width: int = 40,
                    title: str = "", value_format: str = "{:.1f}") -> str:
    """Render labelled horizontal bars (used for per-application error tables)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must be aligned")
    if not labels:
        raise ValueError("need at least one bar")
    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = max(len(label) for label in labels)
    maximum = max(max(values), 1e-12)
    for label, value in zip(labels, values):
        bar = "#" * int(round(value / maximum * width))
        rendered = value_format.format(value)
        lines.append(f"{label:<{label_width}} {rendered:>8} {bar}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------
def write_series_csv(path: str, series: Sequence[Series], x_name: str = "x") -> None:
    """Write aligned series to CSV: one x column plus one column per series.

    Series must share their x values (as the figure sweeps do); a mismatch is
    an error rather than a silent reindexing.
    """
    if not series:
        raise ValueError("need at least one series")
    reference = list(series[0].x)
    for entry in series[1:]:
        if list(entry.x) != reference:
            raise ValueError("all series must share the same x values for CSV export")
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow([x_name] + [entry.name for entry in series])
    for row_index, x_value in enumerate(reference):
        writer.writerow([x_value] + [entry.y[row_index] for entry in series])
    storage.atomic_write(path, buffer.getvalue().encode())


def write_histogram_csv(path: str, values: Mapping[str, Sequence[float]],
                        bins: Sequence[float]) -> None:
    """Write histogram counts to CSV: bin edges plus one count column per name."""
    if len(bins) < 2:
        raise ValueError("need at least two bin edges")
    names = list(values)
    counts = {name: np.histogram(np.asarray(list(values[name]), dtype=np.float64),
                                 bins=bins)[0]
              for name in names}
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["bin_low", "bin_high"] + names)
    for bin_index in range(len(bins) - 1):
        writer.writerow([bins[bin_index], bins[bin_index + 1]]
                        + [int(counts[name][bin_index]) for name in names])
    storage.atomic_write(path, buffer.getvalue().encode())


def read_series_csv(path: str) -> Tuple[str, List[Series]]:
    """Read a CSV produced by :func:`write_series_csv` back into series."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if len(header) < 2:
            raise ValueError("series CSV needs an x column and at least one series")
        rows = [[float(cell) for cell in row] for row in reader if row]
    x_values = [row[0] for row in rows]
    series = [Series(name=name, x=list(x_values),
                     y=[row[column] for row in rows])
              for column, name in enumerate(header[1:], start=1)]
    return header[0], series
