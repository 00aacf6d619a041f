"""The repository benchmark: ``tune``, ``sweep`` and ``serve`` in reference-speed units.

Usage, from the repository root::

    python3 perfbench/run.py --workload tune --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` installs the layer wrappers of :mod:`spans`, reports the
per-layer metrics, and writes every span to ``.perfbench/traces/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are
diagnostics (raw wall seconds, speed factors, throughput, input digest).

Host times are reference-speed seconds (see :mod:`refspeed`).  The measured
phase runs the workload's fixed unit of work, each time on fresh state,
until the measured units add up to ``--seconds`` and number at least the
workload's ``REPLAYS``; ``main_s`` is the median unit.  The set-up before
each unit is a set-up repetition, with more added to make at least
:data:`SETUP_REPEATS`; ``setup_s`` is the import time (the program and
every module the workload uses) plus the median repetition.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Sequence, Tuple  # noqa: E402

import refspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Set-up repetitions per untraced run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

#: End-to-end metric units (the order results are printed in).
UNITS = {"setup_s": "s", "main_s": "s", "peak_rss_mb": "MB", "p50_ms": "ms",
         "p99_ms": "ms"}


def import_program(modules: Sequence[str]) -> None:
    """Import ``repro`` from this checkout's ``src/``, then ``modules``.

    Every component registry is readied too (a registry imports its
    components and scans its entry points on first lookup), so no import
    is left to the first set-up repetition, which the median drops.
    """
    sys.path.insert(0, SOURCE)
    import repro

    location = os.path.dirname(os.path.abspath(repro.__file__))
    if not location.startswith(os.path.abspath(SOURCE) + os.sep):
        raise ImportError(f"repro was imported from {location}, not {SOURCE}")
    for module in modules:
        importlib.import_module(module)
    from repro.api import registries

    for registry in registries().values():
        registry.names()


def diagnose(label: str, payload: Dict[str, Any]) -> None:
    print(f"# {label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def pool(workload: Any, units: List[List[float]]) -> List[float]:
    """The latencies the percentiles are taken over: every unit's
    operations, or the per-operation medians of the first ``REPLAYS``
    units."""
    if workload.REPLAYS > 1:
        return refspeed.replay_medians(units[:workload.REPLAYS])
    return [latency for unit in units for latency in unit]


def run_untraced(workload: Any, seed: int, seconds: float,
                 probe: refspeed.SpeedProbe, imported: Tuple[float, float],
                 work: str) -> Dict[str, Any]:
    inputs = workload.inputs(seed)
    setups: List[Tuple[float, float]] = []
    units: List[Tuple[float, float]] = []
    checks, operations, peak_rss, state = [], [], None, None

    def set_up() -> Any:
        # Collect the previous unit's garbage first, so that the collector
        # does not do it inside the timed set-up.
        gc.collect()
        started = time.perf_counter()
        fresh = workload.setup(inputs, os.path.join(work, f"setup{len(setups)}"))
        setups.append((started, time.perf_counter()))
        return fresh

    try:
        while (len(units) < workload.REPLAYS
               or sum(end - start for start, end in units) < seconds):
            state = set_up()
            if not units:
                diagnose("inputs", {"workload": workload.name, "seed": seed,
                                    "digest": workload.input_digest(state)})
            started = time.perf_counter()
            outcome, timed = workload.main(state)
            units.append((started, time.perf_counter()))
            if peak_rss is None:
                peak_rss = workload.peak_rss_mb(state)
            operations.append(timed)
            checks.append(workload.check(state, outcome))
            workload.close(state)
            state = outcome = None
        while len(setups) < SETUP_REPEATS:
            state = set_up()
            workload.close(state)
            state = None
    finally:
        if state is not None:
            workload.close(state)

    setup_ref, setup_factor = probe.measure([imported] + setups)
    unit_refs, unit_factors, unit_latencies = [], [], []
    for (start, end), timed in zip(units, operations):
        (unit_ref,), factor = probe.measure([(start, end)])
        unit_refs.append(unit_ref)
        unit_factors.append(factor)
        unit_latencies.append(refspeed.operation_seconds(timed, probe.samples))
    latencies = pool(workload, unit_latencies)
    # One unit's operation count picks the tail percentile, so that it does
    # not change with the number of units a run fits in.
    tail = refspeed.tail_fraction(min(len(timed) for timed in operations))
    metrics = {
        "setup_s": setup_ref[0] + statistics.median(setup_ref[1:]),
        "main_s": statistics.median(unit_refs),
        "peak_rss_mb": peak_rss,
        "p50_ms": refspeed.percentile(latencies, 0.50) * 1e3,
        "p99_ms": refspeed.percentile(latencies, tail) * 1e3,
    }
    raw_main = statistics.median(end - start for start, end in units)
    raw_latencies = pool(workload, [[op[1] - op[0] for op in timed]
                                    for timed in operations])
    diagnose("raw", {
        "p50_wall_ms": refspeed.percentile(raw_latencies, 0.50) * 1e3,
        "p99_wall_ms": refspeed.percentile(raw_latencies, tail) * 1e3,
        "p99_ms_percentile": tail * 100,
        "setup_wall_s": (imported[1] - imported[0])
        + statistics.median(end - start for start, end in setups),
        "main_wall_s": raw_main,
        "setup_speed_factor": setup_factor,
        "main_speed_factor": statistics.median(unit_factors),
        "main_stolen_share": statistics.median(
            refspeed.stolen_share([unit], probe.samples) for unit in units),
        "units": len(units), "operations": len(latencies),
        "speed_samples": len(probe.samples)})
    diagnose("throughput", workload.throughput(checks[0], metrics["main_s"],
                                               raw_main))
    diagnose("checks", checks[0].notes)
    for name, value in metrics.items():
        print(f"{workload.name:>6} {name:<12} {value:12.4f} {UNITS[name]}")
    return {"correct": all(check.correct for check in checks),
            "attempted": sum(check.attempted for check in checks),
            "failed": sum(check.failed for check in checks),
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def run_traced(workload: Any, seed: int, probe: refspeed.SpeedProbe,
               work: str) -> Dict[str, Any]:
    import spans
    from repro.core.surrogate import featurization_cache_stats

    inputs = workload.inputs(seed)
    trace_dir = os.path.join(WORK, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    server_trace = os.path.join(trace_dir, f"{workload.name}-seed{seed}-server.json")
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    before = featurization_cache_stats()
    try:
        state = workload.setup(inputs, os.path.join(work, "traced"),
                               trace_path=server_trace)
        try:
            started = time.perf_counter()
            outcome, _ = workload.main(state, tracer=tracer)
            traced = (started, time.perf_counter())
            tracer.restore()
            after = featurization_cache_stats()
            check = workload.check(state, outcome)
        finally:
            workload.close(state)
    finally:
        tracer.restore()

    # The same unit untraced, on fresh state, gives the tracing overhead.
    state = workload.setup(inputs, os.path.join(work, "untraced"))
    try:
        started = time.perf_counter()
        workload.main(state)
        untraced = (started, time.perf_counter())
    finally:
        workload.close(state)

    (traced_ref,), factor = probe.measure([traced])
    (untraced_ref,), _ = probe.measure([untraced])
    traces = [tracer.to_dict()]
    if os.path.exists(server_trace):
        with open(server_trace) as handle:
            traces.append(json.load(handle))
    featurization = {key: after[key] - before[key] for key in after}
    metrics = spans.layer_metrics(traces, factor, featurization,
                                  check.notes.get("cache_hit_ratio", 0.0))
    metrics["trace.main_s"] = traced_ref
    metrics["trace.overhead"] = traced_ref / untraced_ref
    path = os.path.join(trace_dir, f"{workload.name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload.name, "seed": seed, "speed_factor": factor,
                   "traces": traces}, handle)
    diagnose("trace", {"path": os.path.relpath(path, ROOT),
                       "spans": sum(len(trace["spans"]) for trace in traces),
                       "traced_main_s": traced_ref, "untraced_main_s": untraced_ref,
                       "overhead": metrics["trace.overhead"]})
    for name, value in metrics.items():
        print(f"{workload.name:>6} {name:<28} {value:14.4f} "
              f"{spans.LAYER_METRICS[name][0]}")
    return {"correct": check.correct, "attempted": check.attempted,
            "failed": check.failed,
            "metrics": {name: {"value": value,
                               "unit": spans.LAYER_METRICS[name][0]}
                        for name, value in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tune", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()

    probe = refspeed.SpeedProbe()
    probe.start()
    try:
        import workloads

        workload = workloads.WORKLOADS[arguments.workload]()
        try:
            import_program(workload.IMPORTS)
        except ImportError as error:
            print(f"error: cannot import the program: {error}", file=sys.stderr)
            return 2
        imported = (STARTED, time.perf_counter())
        work = os.path.join(WORK, f"{arguments.workload}-{os.getpid()}")
        try:
            if arguments.trace:
                result = run_traced(workload, arguments.seed, probe, work)
            else:
                result = run_untraced(workload, arguments.seed, arguments.seconds,
                                      probe, imported, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        probe.stop()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
