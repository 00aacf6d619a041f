"""Evaluation: metrics, error analyses, and per-table/figure experiment drivers.

* :mod:`~repro.eval.metrics` — mean absolute percentage error and Kendall's
  tau rank correlation, the two measures used throughout the paper's
  evaluation.
* :mod:`~repro.eval.analysis` — per-application and per-category error
  breakdowns (Table V), parameter-distribution histograms (Figure 4), and
  the case studies of Section VI-C (the Figure 5 sensitivity sweeps are
  :func:`repro.campaigns.sweep_error_curve`).
* :mod:`~repro.eval.tables` — plain-text rendering of result tables.
* :mod:`~repro.eval.plots` — the ASCII line plot ``repro sweep`` prints.
* :mod:`~repro.eval.experiments` — one driver function per paper table or
  figure; the benchmark scenarios (:mod:`repro.bench.scenarios`) and the
  examples call these.
"""

from repro.eval.metrics import mean_absolute_percentage_error, kendall_tau, error_and_tau
from repro.eval.analysis import (per_application_error, per_category_error,
                                 parameter_histograms, case_study_report)
from repro.eval.tables import format_table, format_results_table
from repro.eval.plots import Series, ascii_line_plot

__all__ = [
    "mean_absolute_percentage_error",
    "kendall_tau",
    "error_and_tau",
    "per_application_error",
    "per_category_error",
    "parameter_histograms",
    "case_study_report",
    "format_table",
    "format_results_table",
    "Series",
    "ascii_line_plot",
]
