"""Campaign report assembly and formatting.

The report is a schema-versioned plain-JSON document, rewritten atomically
after every evaluated chunk so a long campaign can be watched (and a killed
one inspected) mid-flight.  It deliberately contains only *result-determined*
data — no wall-clock times, no cache counters, no execution knobs — so an
interrupted campaign resumed from its checkpoints produces a byte-identical
file to an uninterrupted run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro import storage

#: Bump when the report layout changes shape (consumers check this).
CAMPAIGN_REPORT_VERSION = 1

#: Quantile grid reported for the error distribution.
_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _error_stats(errors: np.ndarray) -> Dict[str, Any]:
    return {
        "count": int(errors.size),
        "mean": float(errors.mean()),
        "std": float(errors.std()),
        "min": float(errors.min()),
        "max": float(errors.max()),
        "quantiles": {f"p{int(q * 100):02d}": float(np.quantile(errors, q))
                      for q in _QUANTILES},
    }


def _delta_histogram(errors: np.ndarray, baseline: float,
                     bins: int) -> Dict[str, List[float]]:
    deltas = errors - baseline
    counts, edges = np.histogram(deltas, bins=bins)
    return {"bin_edges": [float(edge) for edge in edges],
            "counts": [int(count) for count in counts]}


def _axis_sensitivity(axis_labels: Sequence[str],
                      records: Sequence[Dict[str, Any]],
                      top_k: int) -> List[Dict[str, Any]]:
    """Per-axis spread of mean error across swept values, most sensitive first.

    A record contributes to an axis when its assignment pins that axis; the
    spread (max minus min of the per-value mean errors) ranks how much the
    axis moves the error distribution.
    """
    entries = []
    for label in axis_labels:
        by_value: Dict[int, List[float]] = {}
        for record in records:
            value = record["assignment"].get(label)
            if value is None:
                continue
            by_value.setdefault(int(value), []).append(record["error"])
        if len(by_value) < 2:
            continue
        means = {value: float(np.mean(errors))
                 for value, errors in sorted(by_value.items())}
        spread = max(means.values()) - min(means.values())
        entries.append({
            "axis": label,
            "spread": spread,
            "mean_error_by_value": [[value, mean] for value, mean in means.items()],
        })
    entries.sort(key=lambda entry: (-entry["spread"], entry["axis"]))
    return entries[:top_k]


def build_report(spec: Any, axis_labels: Sequence[str],
                 records: Sequence[Dict[str, Any]], baseline_error: float,
                 status: str) -> Dict[str, Any]:
    """Assemble the campaign report from evaluated variant records.

    ``records`` carry ``{"round", "block_fraction", "assignment", "error"}``
    in evaluation order.  Distribution statistics and best-variant ranking
    consider only full-corpus rounds (``block_fraction == 1``) so adaptive
    screening rounds don't pollute the comparison; the sensitivity ranking
    uses every record.
    """
    final = [record for record in records if record["block_fraction"] >= 1.0]
    scored = final or list(records)
    report: Dict[str, Any] = {
        "schema_version": CAMPAIGN_REPORT_VERSION,
        "status": status,
        "spec": spec.identity_dict(),
        "baseline_error": baseline_error,
        "num_variants": len(records),
        "num_full_corpus_variants": len(final),
        "variants": list(records),
    }
    if scored:
        errors = np.array([record["error"] for record in scored], dtype=np.float64)
        report["error_stats"] = _error_stats(errors)
        report["error_delta_histogram"] = _delta_histogram(
            errors, baseline_error, spec.histogram_bins)
        order = sorted(range(len(scored)),
                       key=lambda i: (scored[i]["error"], i))
        report["best_variants"] = [scored[i] for i in order[:spec.top_k]]
        report["axis_sensitivity"] = _axis_sensitivity(
            axis_labels, records, spec.top_k)
    return report


def write_report(path: str, report: Dict[str, Any]) -> None:
    """Atomically serialize the report to ``path`` (canonical JSON form)."""
    storage.write_json(path, report)


def _percent(value: Any) -> str:
    return "-" if value is None else f"{float(value) * 100:.2f}%"


def render_assignment(assignment: Dict[str, Any]) -> str:
    """One variant assignment as ``axis=value`` text (CLI/report tables)."""
    if not assignment:
        return "<base table>"
    return ", ".join(
        f"random table #{value}" if key == "__sample__" else f"{key}={value}"
        for key, value in sorted(assignment.items()))


def error_stats_table(stats_by_label: Dict[str, Dict[str, Any]],
                      title: str = "error distribution") -> str:
    """Quantile table of one or many error distributions.

    Keyed by a row label: the single campaign report passes one row, the
    matrix report one row per cell — the same renderer serves
    ``repro campaign report`` and ``repro matrix report``.
    """
    from repro.eval.tables import format_table

    headers = ["", "count", "mean", "std", "min", "p05", "p25", "p50",
               "p75", "p95", "max"]
    rows = []
    for label, stats in stats_by_label.items():
        quantiles = stats.get("quantiles", {})
        rows.append([label, stats["count"], _percent(stats["mean"]),
                     _percent(stats["std"]), _percent(stats["min"])]
                    + [_percent(quantiles.get(f"p{int(q * 100):02d}"))
                       for q in _QUANTILES]
                    + [_percent(stats["max"])])
    return format_table(headers, rows, title=title)


def sensitivity_table(sensitivity: Sequence[Dict[str, Any]],
                      title: str = "axis sensitivity (most sensitive first)"
                      ) -> str:
    """Axis-sensitivity ranking table (spread of mean error per axis)."""
    from repro.eval.tables import format_table

    rows = []
    for rank, entry in enumerate(sensitivity, start=1):
        by_value = ", ".join(f"{value}: {_percent(mean)}"
                             for value, mean in entry["mean_error_by_value"])
        rows.append([rank, entry["axis"], _percent(entry["spread"]), by_value])
    return format_table(["#", "axis", "spread", "mean error by value"], rows,
                        title=title)


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a campaign report (CLI ``campaign report``)."""
    lines = [
        f"campaign report (schema v{report.get('schema_version', '?')}, "
        f"status: {report.get('status', '?')})",
        f"  strategy: {report['spec']['strategy']}  "
        f"target: {report['spec']['target']}  "
        f"simulator: {report['spec']['simulator']}",
        f"  variants evaluated: {report['num_variants']} "
        f"({report['num_full_corpus_variants']} on the full corpus)",
        f"  baseline error: {_percent(report['baseline_error'])}",
    ]
    stats = report.get("error_stats")
    if stats:
        lines.append("")
        lines.append(error_stats_table({"error": stats}))
    best = report.get("best_variants", [])
    if best:
        from repro.eval.tables import format_table

        lines.append("")
        lines.append(format_table(
            ["#", "error", "variant"],
            [[rank, _percent(variant["error"]),
              render_assignment(variant["assignment"])]
             for rank, variant in enumerate(best, start=1)],
            title="best variants"))
    sensitivity = report.get("axis_sensitivity", [])
    if sensitivity:
        lines.append("")
        lines.append(sensitivity_table(sensitivity))
    return "\n".join(lines)
