"""Shared scenario runner: timing, environment fingerprint, result emission.

One :class:`Runner` executes a selection of registered scenarios at a scale
tier, times each with warmup/round control, and produces the uniform payload
described in :mod:`repro.bench.schema`.  Datasets are memoized across
scenarios in a single invocation, and the worker count is threaded into
every :class:`ScenarioContext` so engine batch calls fan out across
processes when ``--workers`` is set.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro import storage
from repro.api.registry import Registry
from repro.bench.registry import DEFAULT_REGISTRY, Scenario, ScenarioContext, select
from repro.bench.schema import (SCHEMA_MINOR_VERSION, SCHEMA_VERSION, SchemaError,
                                collect_problems, jsonify, validate_payload)
from repro.eval.experiments import ExperimentScale

logger = logging.getLogger(__name__)


@dataclass
class RunnerConfig:
    """Knobs shared by every scenario in one runner invocation."""

    tier: str = "smoke"
    suite: Optional[str] = None  # defaults to the tier name
    workers: int = 0
    rounds: int = 1
    warmup: int = 0
    seed: Optional[int] = None  # overrides each scale preset's seed when set
    output_dir: str = "."

    @property
    def suite_name(self) -> str:
        return self.suite or self.tier


def peak_rss_bytes() -> Optional[int]:
    """Process high-water resident set size in bytes (None if unavailable).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalize to
    bytes.  This is a whole-process high-water mark, so per-scenario values
    are monotone across a suite — only the first scenario to hit a new peak
    moves it.  Still useful: the committed smoke baseline records where the
    suite's memory ceiling is, and a scenario suddenly dominating it shows
    up as every later entry sharing its value.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def environment_fingerprint() -> Dict[str, Any]:
    """Where a result came from: interpreter, platform, numpy, git revision."""
    import numpy as np

    try:
        git_sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha,
    }


class Runner:
    """Executes registered scenarios and emits ``BENCH_<suite>.json``."""

    def __init__(self, config: Optional[RunnerConfig] = None,
                 registry: Optional[Registry] = None) -> None:
        self.config = config or RunnerConfig()
        # `is not None`, not truthiness: an empty registry has len() == 0.
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._dataset_cache: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # Single-scenario execution
    # ------------------------------------------------------------------
    def _scale(self) -> ExperimentScale:
        """The tier's preset, with the configured seed when one is set."""
        scale = ExperimentScale.for_tier(self.config.tier)
        if self.config.seed is not None:
            scale = replace(scale, seed=self.config.seed)
        return scale

    def context_for(self, scenario: Scenario, uarch: Optional[str] = None
                    ) -> ScenarioContext:
        return ScenarioContext(tier=self.config.tier, scale=self._scale(), uarch=uarch,
                               workers=self.config.workers,
                               dataset_cache=self._dataset_cache)

    def _run_once(self, scenario: Scenario) -> Any:
        if scenario.uarches is None:
            return scenario.run(self.context_for(scenario))
        return {uarch: scenario.run(self.context_for(scenario, uarch=uarch))
                for uarch in scenario.uarches}

    def run_scenario(self, scenario: Scenario) -> Dict[str, Any]:
        """Time one scenario (warmup + rounds) and build its result entry."""
        for _ in range(self.config.warmup):
            self._run_once(scenario)
        durations: List[float] = []
        metrics: Any = None
        for _ in range(max(1, self.config.rounds)):
            start = time.perf_counter()
            metrics = self._run_once(scenario)
            durations.append(time.perf_counter() - start)
        # The scale context_for() ran the scenario at, seed override included.
        scale = self._scale()
        return {
            "name": scenario.name,
            "description": scenario.description,
            "tier": self.config.tier,
            "seed": scale.seed,
            "workers": self.config.workers,
            "uarches": list(scenario.uarches) if scenario.uarches else None,
            "scale": scale.describe(),
            "rounds": max(1, self.config.rounds),
            "warmup": self.config.warmup,
            "wall_time_seconds": {
                "rounds": durations,
                "min": min(durations),
                "mean": sum(durations) / len(durations),
            },
            "metrics": jsonify(metrics),
            "peak_rss_bytes": peak_rss_bytes(),
        }

    # ------------------------------------------------------------------
    # Suite execution
    # ------------------------------------------------------------------
    def run(self, names: Optional[Sequence[str]] = None,
            tags: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """Run the selected scenarios and return the schema-valid payload."""
        selected = select(self.registry, names=names, tags=tags)
        if not selected:
            raise ValueError("no scenarios selected")
        entries: Dict[str, Dict[str, Any]] = {}
        for scenario in selected:
            logger.info(f"{scenario.name} (tier={self.config.tier}, "
                        f"workers={self.config.workers}) ...")
            entry = self.run_scenario(scenario)
            entries[scenario.name] = entry
            logger.info(f"{scenario.name}: "
                        f"{entry['wall_time_seconds']['min']:.3f}s")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "suite": self.config.suite_name,
            "tier": self.config.tier,
            "workers": self.config.workers,
            "environment": environment_fingerprint(),
            "scenarios": entries,
            "total_wall_time_seconds": sum(
                entry["wall_time_seconds"]["min"] for entry in entries.values()),
            "schema_minor": SCHEMA_MINOR_VERSION,
        }
        return validate_payload(payload)

    def output_path(self) -> str:
        return os.path.join(self.config.output_dir,
                            f"BENCH_{self.config.suite_name}.json")

    def write(self, payload: Dict[str, Any]) -> str:
        """Persist a payload as ``BENCH_<suite>.json``; returns the path."""
        path = self.output_path()
        storage.atomic_write(path, (json.dumps(payload, indent=2) + "\n").encode())
        return path


def load_payload(path: str) -> Dict[str, Any]:
    """Load and schema-validate a ``BENCH_*.json`` file.

    Unparseable JSON raises :class:`~repro.storage.CorruptArtifactError` and a
    schema violation :class:`~repro.bench.schema.SchemaError`, both naming
    ``path``; a missing file raises :class:`FileNotFoundError`.
    """
    payload = storage.read_json(path)
    problems = collect_problems(payload)
    if problems:
        raise SchemaError([f"{path}: {problem}" for problem in problems])
    return payload
