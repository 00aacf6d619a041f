"""Compatibility shim between pytest-benchmark and ``repro.bench``.

The benchmark scripts in this directory are thin wrappers over the scenario
registry in :mod:`repro.bench.scenarios`; the shared logic (scales, timing,
result schema) lives in ``src/repro/bench/``.  This conftest keeps the old
pytest entry path working::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

(``benchmarks/pytest.ini`` teaches pytest to collect ``bench_*`` files and
functions.)  The preferred entry point is the registry runner::

    PYTHONPATH=src python -m repro.bench run --tier quick

Results still land under ``benchmarks/results/`` via :func:`record_result`,
now stamped with scale-tier and seed metadata so they are joinable with the
uniform ``BENCH_<suite>.json`` files the runner emits.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

import pytest

from repro.bench import DEFAULT_REGISTRY, Runner, RunnerConfig, jsonify
from repro.eval.experiments import SCALE_TIERS, ExperimentScale

RESULTS_DIRECTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The scale tier the pytest harness runs at (BENCH_TIER=smoke|quick|full).
BENCH_TIER = os.environ.get("BENCH_TIER", "quick")
if BENCH_TIER not in SCALE_TIERS:
    raise ValueError(f"BENCH_TIER={BENCH_TIER!r} must be one of {SCALE_TIERS}")


def record_result(name: str, payload: Any,
                  scale: Optional[ExperimentScale] = None,
                  tier: str = BENCH_TIER,
                  seed: Optional[int] = None) -> None:
    """Persist a benchmark's output rows under ``benchmarks/results/``.

    Every file is stamped with the scale tier, scale knobs, and seed so
    these ad-hoc results are joinable with the schema-uniform
    ``BENCH_<suite>.json`` files ``repro.bench run`` emits.
    """
    scale = scale or ExperimentScale.for_tier(tier)
    document: Dict[str, Any] = {
        "name": name,
        "tier": tier,
        "scale": scale.describe(),
        "seed": scale.seed if seed is None else seed,
        "results": jsonify(payload),
    }
    os.makedirs(RESULTS_DIRECTORY, exist_ok=True)
    path = os.path.join(RESULTS_DIRECTORY, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, default=str)


def run_scenario_benchmark(benchmark, runner: Runner, name: str) -> Dict[str, Any]:
    """Run one registered scenario under pytest-benchmark and record it."""
    entry_holder = DEFAULT_REGISTRY.get(name)
    entry = benchmark.pedantic(runner.run_scenario, args=(entry_holder,),
                               rounds=1, iterations=1)
    if entry_holder.formatter is not None:
        print("\n" + entry_holder.formatter(entry["metrics"]))
    record_result(name, entry["metrics"],
                  scale=entry_holder.scale_for(runner.config.tier),
                  tier=runner.config.tier, seed=entry["seed"])
    return entry


@pytest.fixture(scope="session")
def bench_runner() -> Runner:
    """One shared runner per pytest session (shares the dataset cache)."""
    return Runner(RunnerConfig(tier=BENCH_TIER, suite=f"pytest_{BENCH_TIER}"))


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """Deprecated fixture kept for out-of-tree benchmark code."""
    return ExperimentScale.for_tier(BENCH_TIER)


@pytest.fixture(scope="session")
def haswell_dataset(scale):
    """Deprecated fixture kept for out-of-tree benchmark code."""
    from repro.bhive import build_dataset

    return build_dataset("haswell", num_blocks=scale.num_blocks, seed=scale.seed)
