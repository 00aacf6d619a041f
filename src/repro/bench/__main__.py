"""``python -m repro.bench`` — list, run, compare and report benchmark scenarios.

Examples::

    python -m repro.bench list
    python -m repro.bench list --tag ci
    python -m repro.bench run --tier smoke
    python -m repro.bench run table04_main_results sec5a_random_tables --tier quick
    python -m repro.bench run --tag ci --tier smoke --suite smoke --workers 2
    python -m repro.bench compare benchmarks/baselines/BENCH_smoke.json \\
        BENCH_smoke.json --max-wall-ratio 2.0
    python -m repro.bench report BENCH_smoke.json --output REPORT_smoke.md

A missing, truncated or schema-invalid ``BENCH_*.json`` ends the command
with one ``error: <message naming the file>`` line on stderr and exit
status 2, as a malformed ``--min-metric`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import storage
from repro.bench import (DEFAULT_REGISTRY, CompareConfig, Runner, RunnerConfig,
                         SchemaError, check_min_metrics, compare_payloads,
                         load_payload, parse_min_metric, render_report, select)
from repro.eval.experiments import SCALE_TIERS


def _command_list(arguments: argparse.Namespace) -> int:
    selected = select(DEFAULT_REGISTRY, tags=arguments.tag or None)
    print(f"{len(selected)} registered scenario(s):")
    for entry in selected:
        uarches = ", ".join(entry.uarches) if entry.uarches else "self-managed"
        tags = ", ".join(entry.tags) or "-"
        print(f"  {entry.name:26s} [{tags}] ({uarches})")
        print(f"      {entry.description}")
    return 0


def _command_run(arguments: argparse.Namespace) -> int:
    config = RunnerConfig(tier=arguments.tier, suite=arguments.suite,
                          workers=arguments.workers, rounds=arguments.rounds,
                          warmup=arguments.warmup, seed=arguments.seed,
                          output_dir=arguments.output_dir)
    runner = Runner(config)
    payload = runner.run(names=arguments.scenarios or None, tags=arguments.tag or None)
    path = runner.write(payload)
    print(f"{len(payload['scenarios'])} scenario(s), "
          f"{payload['total_wall_time_seconds']:.2f}s total")
    print(f"wrote {path}")
    return 0


def _command_compare(arguments: argparse.Namespace) -> int:
    # The current results file must exist and be schema-valid even when the
    # baseline is tolerated as missing — a green gate with an unreadable
    # results file would mean zero checks actually ran.
    current = load_payload(arguments.current)
    try:
        min_metrics = [parse_min_metric(raw)
                       for raw in (arguments.min_metric or [])]
    except ValueError as error:
        print(f"error: --min-metric: {error}", file=sys.stderr)
        return 2
    config = CompareConfig(max_wall_ratio=arguments.max_wall_ratio,
                           min_seconds=arguments.min_seconds,
                           max_metric_ratio=arguments.max_metric_ratio,
                           allow_missing=arguments.allow_missing,
                           min_metrics=min_metrics)
    if arguments.allow_missing and not os.path.exists(arguments.baseline):
        print(f"note: baseline {arguments.baseline!r} does not exist; "
              f"current results validated ({len(current['scenarios'])} "
              "scenario(s)) but nothing to compare against (--allow-missing)")
        if not min_metrics:
            return 0
        # Absolute floors do not need a baseline — gate them regardless.
        report = check_min_metrics(current, config)
        print(report.render())
        return 0 if report.ok else 1
    baseline = load_payload(arguments.baseline)
    report = compare_payloads(baseline, current, config)
    print(report.render())
    return 0 if report.ok else 1


def _command_report(arguments: argparse.Namespace) -> int:
    report = render_report(load_payload(arguments.payload))
    if arguments.output is None:
        sys.stdout.write(report)
        return 0
    storage.atomic_write(arguments.output, report.encode())
    print(f"wrote {arguments.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--tag", action="append",
                             help="only scenarios with this tag (repeatable)")
    list_parser.set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser("run", help="run scenarios and write BENCH_<suite>.json")
    run_parser.add_argument("scenarios", nargs="*",
                            help="scenario names (default: all registered)")
    run_parser.add_argument("--tier", default="smoke", choices=list(SCALE_TIERS))
    run_parser.add_argument("--tag", action="append",
                            help="only scenarios with this tag (repeatable)")
    run_parser.add_argument("--suite", help="result-file suffix (default: the tier name)")
    run_parser.add_argument("--workers", type=int, default=0,
                            help="engine worker processes for batched simulation")
    run_parser.add_argument("--rounds", type=int, default=1,
                            help="timed repetitions per scenario")
    run_parser.add_argument("--warmup", type=int, default=0,
                            help="untimed repetitions before measuring")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override every scale preset's seed")
    run_parser.add_argument("--output-dir", default=".",
                            help="where BENCH_<suite>.json is written")
    run_parser.set_defaults(handler=_command_run)

    compare_parser = subparsers.add_parser(
        "compare", help="diff two BENCH_*.json files and fail on regressions")
    compare_parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    compare_parser.add_argument("current", help="freshly produced BENCH_*.json")
    compare_parser.add_argument("--max-wall-ratio", type=float, default=2.0,
                                help="fail when wall time grows past this factor")
    compare_parser.add_argument("--min-seconds", type=float, default=0.25,
                                help="ignore wall regressions on scenarios faster "
                                     "than this baseline time (timer noise)")
    compare_parser.add_argument("--max-metric-ratio", type=float, default=None,
                                help="optionally fail when a numeric metric drifts "
                                     "past this relative factor")
    compare_parser.add_argument("--min-metric", action="append", metavar="SPEC",
                                help="absolute floor on a current metric, as "
                                     "'scenario:dotted.path:floor' (repeatable); "
                                     "e.g. engine_throughput:speedups_vs_scalar"
                                     ".engine_megabatch:5 — fails when the "
                                     "metric is below the floor or missing")
    compare_parser.add_argument("--allow-missing", action="store_true",
                                help="tolerate a missing baseline file, absent "
                                     "scenarios/metrics, and tier mismatches "
                                     "(cross-tier runs skip wall-time gates)")
    compare_parser.set_defaults(handler=_command_compare)

    report_parser = subparsers.add_parser(
        "report", help="render a BENCH_*.json file as markdown, one section per scenario")
    report_parser.add_argument("payload", help="BENCH_*.json file to render")
    report_parser.add_argument("--output", help="write the report here (default: stdout)")
    report_parser.set_defaults(handler=_command_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except (FileNotFoundError, storage.CorruptArtifactError, SchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    from repro.cli import print_messages

    with print_messages():
        sys.exit(main())
