"""Phase-two table-optimization throughput of the batch-major path.

Thin wrapper over the registered ``table_optimization_throughput`` scenario
(:mod:`repro.bench.scenarios`); the workload optimizes a seeded initial
table with :func:`repro.core.table_optimization.optimize_parameter_table`
and reports examples/second.  Run it without pytest via::

    python -m repro.bench run table_optimization_throughput --tier quick
"""

from conftest import run_scenario_benchmark


def bench_table_optimization_throughput(benchmark, bench_runner):
    run_scenario_benchmark(benchmark, bench_runner, "table_optimization_throughput")
