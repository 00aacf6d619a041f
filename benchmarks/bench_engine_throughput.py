"""Simulation-engine throughput micro-benchmark.

Thin wrapper over the registered ``engine_throughput`` scenario
(:mod:`repro.bench.scenarios`): scalar loop vs the megabatch kernel and the
engine's megabatch/cached/parallel paths, plus the collection-shape
``run_pairs`` call against its own scalar loop, bit-identity asserted
between all of them.  Run it without pytest via::

    python -m repro.bench run engine_throughput --tier smoke
"""

from conftest import run_scenario_benchmark


def bench_engine_throughput(benchmark, bench_runner):
    run_scenario_benchmark(benchmark, bench_runner, "engine_throughput")
