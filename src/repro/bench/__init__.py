"""Unified benchmark-scenario subsystem.

Every experiment from the paper's evaluation grid is a registered
:class:`~repro.bench.registry.Scenario`; a shared
:class:`~repro.bench.runner.Runner` executes selections of them at a scale
tier (smoke / quick / full), times them, and emits one uniform
``BENCH_<suite>.json`` payload (:mod:`repro.bench.schema`).
:mod:`repro.bench.compare` diffs two payloads and gates CI on wall-time or
coverage regressions; :mod:`repro.bench.report` renders one as markdown.

Entry points::

    python -m repro.bench list
    python -m repro.bench run --tier smoke --suite smoke
    python -m repro.bench compare benchmarks/baselines/BENCH_smoke.json BENCH_smoke.json
    python -m repro.bench report BENCH_smoke.json --output REPORT_smoke.md
    python -m repro.cli bench run --tier smoke   # same thing via the main CLI

Importing this package loads :mod:`repro.bench.scenarios`, which populates
:data:`~repro.bench.registry.DEFAULT_REGISTRY`.
"""

from repro.bench.registry import (DEFAULT_REGISTRY, Scenario, ScenarioContext, scenario,
                                  select)
from repro.bench.runner import Runner, RunnerConfig, environment_fingerprint, load_payload
from repro.bench.schema import SCHEMA_VERSION, SchemaError, jsonify, validate_payload
from repro.bench.compare import (CompareConfig, CompareReport, check_min_metrics,
                                 compare_payloads, parse_min_metric)
from repro.bench.report import render_report
from repro.bench import scenarios as _scenarios  # noqa: F401  (registers the catalog)

__all__ = [
    "DEFAULT_REGISTRY",
    "Scenario",
    "ScenarioContext",
    "scenario",
    "select",
    "Runner",
    "RunnerConfig",
    "environment_fingerprint",
    "load_payload",
    "SCHEMA_VERSION",
    "SchemaError",
    "jsonify",
    "validate_payload",
    "CompareConfig",
    "CompareReport",
    "check_min_metrics",
    "compare_payloads",
    "parse_min_metric",
    "render_report",
]
