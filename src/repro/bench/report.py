"""Markdown report of one ``BENCH_<suite>.json`` payload.

``python -m repro.bench report BENCH_smoke.json --output REPORT_smoke.md``
renders one section per scenario, titled by the entry's own
``description``, with its tier, seed, best wall time and metrics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_value(item) for item in value)
    return str(value)


def _is_flat_sequence(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(item, (int, float, str, bool)) for item in value)


def _render_payload(payload, indent: int = 0) -> List[str]:
    """Render a JSON value as nested markdown bullet lists."""
    prefix = "  " * indent
    lines: List[str] = []
    if isinstance(payload, Mapping):
        for key, value in payload.items():
            if isinstance(value, (Mapping, list)) and value and not _is_flat_sequence(value):
                lines.append(f"{prefix}- **{key}**:")
                lines.extend(_render_payload(value, indent + 1))
            else:
                lines.append(f"{prefix}- **{key}**: {_format_value(value)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (Mapping, list)) and item and not _is_flat_sequence(item):
                lines.append(f"{prefix}-")
                lines.extend(_render_payload(item, indent + 1))
            else:
                lines.append(f"{prefix}- {_format_value(item)}")
    else:
        lines.append(f"{prefix}- {_format_value(payload)}")
    return lines


def render_report(payload: Dict[str, Any]) -> str:
    """Render a schema-valid payload as markdown, one section per scenario."""
    environment = payload["environment"]
    lines = [f"# Benchmark results: `BENCH_{payload['suite']}.json`", "",
             f"{len(payload['scenarios'])} scenario(s) at tier {payload['tier']} with "
             f"{payload['workers']} engine worker(s), "
             f"{payload['total_wall_time_seconds']:.2f}s in total. Python "
             f"{environment['python']}, numpy {environment['numpy']}, "
             f"{environment['cpu_count']} CPU(s), git {environment.get('git_sha') or 'unknown'}.",
             ""]
    for name, entry in payload["scenarios"].items():
        lines += [f"## {entry['description']}", "",
                  f"Scenario `{name}`: tier {entry['tier']}, seed {entry['seed']}, "
                  f"min wall time {entry['wall_time_seconds']['min']:.3f}s.", ""]
        lines.extend(_render_payload(entry["metrics"]))
        lines.append("")
    return "\n".join(lines)
