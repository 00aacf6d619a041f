"""Markdown report generation from recorded benchmark results.

Every benchmark under ``benchmarks/`` writes its raw rows to
``benchmarks/results/<name>.json`` (via the harness' ``record_result``
helper).  This module turns that directory into a single markdown report —
the measured half of EXPERIMENTS.md — so the paper-vs-measured record can be
regenerated mechanically after a benchmark run instead of being edited by
hand:

* :func:`load_results` reads every recorded result.
* :func:`render_report` formats them into markdown sections, pairing each
  known experiment with its paper reference.
* :func:`write_report` writes the report to a file (used by
  ``python -m repro.eval.reports``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro import storage

#: Human-readable titles and paper references for known result files.
KNOWN_EXPERIMENTS: Dict[str, str] = {
    "table03_dataset": "Table III — dataset summary statistics",
    "table04_ivybridge": "Table IV — main results (Ivy Bridge)",
    "table04_haswell": "Table IV — main results (Haswell)",
    "table04_skylake": "Table IV — main results (Skylake)",
    "table04_zen2": "Table IV — main results (Zen 2)",
    "table05_per_application": "Table V — per-application / per-category error",
    "table06_fig4_fig5": "Table VI + Figures 4/5 — global parameters, histograms, sweeps",
    "fig02_surrogate_sweep": "Figure 2 — surrogate vs simulator DispatchWidth sweep",
    "sec2b_measured_tables": "Section II-B — measured-latency tables",
    "sec5a_random_tables": "Section V-A — random parameter tables",
    "sec6b_writelatency_only": "Section VI-B — WriteLatency-only learning",
    "sec6c_case_studies": "Section VI-C — case studies",
    "table08_llvm_sim": "Table VIII — llvm_sim transfer",
    "ablation_surrogate": "Ablation — surrogate structure and refinement",
    "ablation_port_groups": "Ablation — port-group semantics",
    "baseline_search": "Black-box search baselines beyond OpenTuner",
}


@dataclass
class ExperimentResult:
    """One recorded benchmark result."""

    name: str
    title: str
    payload: object

    @property
    def is_known(self) -> bool:
        return self.name in KNOWN_EXPERIMENTS


def load_results(results_directory: str) -> List[ExperimentResult]:
    """Read every ``*.json`` result under ``results_directory``.

    Unknown files are included (titled by their stem) so ad-hoc benchmarks
    still show up in the report; missing directories yield an empty list.
    """
    if not os.path.isdir(results_directory):
        return []
    results: List[ExperimentResult] = []
    for entry in sorted(os.listdir(results_directory)):
        if not entry.endswith(".json"):
            continue
        name = entry[:-len(".json")]
        path = os.path.join(results_directory, entry)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            payload = {"error": f"could not read {entry}: {error}"}
        results.append(ExperimentResult(name=name,
                                        title=KNOWN_EXPERIMENTS.get(name, name),
                                        payload=payload))
    return results


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_value(item) for item in value)
    return str(value)


def _render_payload(payload, indent: int = 0) -> List[str]:
    """Render a JSON payload as nested markdown bullet lists."""
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


def _is_flat_sequence(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(item, (int, float, str, bool)) for item in value)


def render_report(results: Sequence[ExperimentResult],
                  title: str = "Measured benchmark results") -> str:
    """Render loaded results as a markdown document."""
    lines = [f"# {title}", "",
             "Generated from `benchmarks/results/*.json`; see EXPERIMENTS.md for the",
             "paper-side numbers each section is compared against.", ""]
    if not results:
        lines.append("_No recorded results found — run "
                     "`pytest benchmarks/ --benchmark-only` first._")
        return "\n".join(lines) + "\n"
    for result in results:
        lines.append(f"## {result.title}")
        lines.append("")
        lines.append(f"Source: `benchmarks/results/{result.name}.json`")
        lines.append("")
        lines.extend(_render_payload(result.payload))
        lines.append("")
    return "\n".join(lines)


def write_report(results_directory: str, output_path: str,
                 title: str = "Measured benchmark results") -> str:
    """Load results, render the report, write it to ``output_path``."""
    report = render_report(load_results(results_directory), title=title)
    storage.atomic_write(output_path, report.encode())
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover - thin CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default="benchmarks/results",
                        help="directory of recorded benchmark results")
    parser.add_argument("--output", default="benchmarks/results/REPORT.md")
    arguments = parser.parse_args(argv)
    write_report(arguments.results, arguments.output)
    print(f"Wrote {arguments.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
