"""A terminal ASCII line plot of named series; ``repro sweep`` draws its
error-against-parameter curve (the shape of the paper's Figure 5) with it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


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
