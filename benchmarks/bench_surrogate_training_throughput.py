"""Surrogate-training throughput of the batch-major training path.

Thin wrapper over the registered ``surrogate_training_throughput`` scenario
(:mod:`repro.bench.scenarios`); the workload trains a seeded pooled
surrogate and reports examples/second.  Run it without pytest via::

    python -m repro.bench run surrogate_training_throughput --tier quick
"""

from conftest import run_scenario_benchmark


def bench_surrogate_training_throughput(benchmark, bench_runner):
    run_scenario_benchmark(benchmark, bench_runner, "surrogate_training_throughput")
