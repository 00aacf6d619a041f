"""Run every workload over sets of seeds; report spreads and compare the sets.

Usage, from the repository root::

    python3 perfbench/steady.py --seeds 1 --first-seeds 7           # all three, seed 7
    python3 perfbench/steady.py --seeds 10 --first-seeds 100 200    # two sets of ten

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
each run's metrics with their units, its checks and its failure count.
Seeds ``first .. first + seeds - 1`` form one set per first seed.  For a
set of two or more runs it then prints, for every end-to-end metric, the
median and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each
host-time metric's spread in reference-speed units is printed next to the
spread of the same measurement in raw wall time, and flagged ``WIDE`` when
it is not below a third of the metric's bound from ``BENCHMARK.json``.
With two sets it prints both sets' medians side by side and the second's
change against the first, flagged ``OUT`` when it exceeds the bound.
Every run's output is appended to ``.perfbench/steady/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune", "sweep", "serve")

#: End-to-end metric -> the raw-wall diagnostic of the same measurement.
RAW = {"setup_s": "setup_wall_s", "main_s": "main_wall_s",
       "p50_ms": "p50_wall_ms", "p99_ms": "p99_wall_ms"}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    for line in lines:
        for label in ("raw", "checks"):
            if line.startswith(f"# {label}: "):
                record[label] = json.loads(line[len(label) + 4:])
    record["seed"] = seed
    return record


def summarize(records: List[Dict[str, Any]],
              bounds: Dict[str, float]) -> Dict[str, float]:
    """Print one set's medians and spreads; return the medians."""
    print(f"  {'metric':<12} {'median':>10} {'spread':>8} {'bound/3':>8} "
          f"{'raw spread':>10}")
    medians = {}
    for name, bound in bounds.items():
        values = [record["metrics"][name]["value"] for record in records]
        medians[name] = statistics.median(values)
        raw = RAW.get(name)
        raw_spread = (f"{spread([r['raw'][raw] for r in records]):10.4f}"
                      if raw else f"{'-':>10}")
        flag = "" if spread(values) < bound / 3 else "  WIDE"
        print(f"  {name:<12} {medians[name]:10.4f} {spread(values):8.4f} "
              f"{bound / 3:8.4f} {raw_spread}{flag}")
    return medians


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seeds", type=int, nargs="+", default=[100, 200])
    arguments = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    out_dir = os.path.join(ROOT, ".perfbench", "steady")
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        sets = []
        for first in arguments.first_seeds:
            records = []
            for seed in range(first, first + arguments.seeds):
                record = run_once(workload, seed, benchmark["run_seconds"])
                records.append(record)
                with open(os.path.join(out_dir, f"{workload}.jsonl"), "a") as handle:
                    handle.write(json.dumps(record) + "\n")
                accuracy = record["checks"].get("test_mape")
                print(f"{workload} seed {seed}: correct={record['correct']} "
                      f"attempted={record['attempted']} failed={record['failed']} "
                      + " ".join(f"{name}={metric['value']:.4f} {metric['unit']}"
                                 for name, metric in record["metrics"].items())
                      + ("" if accuracy is None else f" test_mape={accuracy:.4f}"),
                      flush=True)
            if len(records) >= 2:
                print(f"\n{workload}: seeds {first}-{first + len(records) - 1}")
                sets.append(summarize(records, bounds))
                print(flush=True)
        if len(sets) >= 2:
            print(f"{workload}: medians of the first two sets")
            print(f"  {'metric':<12} {'first':>10} {'second':>10} {'change':>8} "
                  f"{'bound':>6}")
            for name, bound in bounds.items():
                change = sets[1][name] / sets[0][name] - 1
                flag = "" if abs(change) <= bound else "  OUT"
                print(f"  {name:<12} {sets[0][name]:10.4f} {sets[1][name]:10.4f} "
                      f"{change:+8.4f} {bound:6.2f}{flag}")
            print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
