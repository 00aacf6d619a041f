"""Command-line interface for the DiffTune reproduction.

Fifteen subcommands cover the day-to-day workflow:

* ``dataset``  — generate and measure a BHive-like dataset and save it to JSON.
* ``corpus``   — build / inspect sharded on-disk block corpora
  (:mod:`repro.corpus`): ``build`` streams generation and measurement into
  fixed-size shards (resumable at every shard boundary, ``--featurize`` adds
  the memory-mapped featurization store); ``stat`` prints — and with
  ``--verify`` digest-checks — a corpus's manifest.  A corpus plugs into
  ``tune --corpus`` and ``TuneSpec(corpus_path=...)``.
* ``learn``    — run DiffTune on a dataset (or a freshly generated one) and
  save the learned parameter table.
* ``tune``     — the pipeline-backed multi-target tuner: one checkpointable
  DiffTune run per target, resumable with ``--resume`` at the first
  incomplete stage, fanned out across processes with ``--workers``.
* ``evaluate`` — report error / Kendall's tau of a parameter table (default or
  learned) on a dataset's test split.
* ``compare``  — run the full Table IV comparison for one microarchitecture.
* ``timeline`` — print the llvm-mca style timeline / bottleneck report for a
  basic block under a (default or learned) parameter table.
* ``sweep``    — sweep one global parameter and report the error curve
  (the Figure 5 analysis) as a text plot.  Internally a single-axis grid
  campaign (see ``campaign``).
* ``campaign`` — declarative sweep campaigns (:mod:`repro.campaigns`):
  ``run`` a preset, a JSON spec file, or inline ``--axis`` flags through
  the checkpointable campaign runner; ``list`` the registered presets and
  sampling strategies; ``report`` summarizes a ``campaign_report.json``.
* ``matrix``   — distributed matrix campaigns (:mod:`repro.distributed`):
  ``run`` fans one campaign body across every ``target x simulator`` cell
  through a fault-tolerant scheduler (inline / process-pool / remote
  executors, per-cell retry with backoff, checkpointed ``--resume`` that
  skips completed cells); ``report`` summarizes a ``matrix_report.json``;
  ``list`` shows the registered executors and the default cell grid.
* ``worker``   — serve matrix cells over HTTP for ``matrix run --executor
  remote`` (``POST /run``, ``GET /healthz``).
* ``tune-baseline`` — run one of the black-box baselines (OpenTuner-style,
  genetic, annealing, coordinate descent, random search) for comparison
  with DiffTune.
* ``bundle``   — export a tuned parameter table (plus, when available, the
  trained surrogate) into a single-file deployment bundle, or inspect and
  digest-verify an existing bundle.
* ``serve``    — run the stdlib-only HTTP/JSON inference server on a bundle
  or a table, with request coalescing into engine megabatches.
* ``bench``    — the benchmark-scenario subsystem: list registered paper
  experiments, run them at a scale tier, and compare result files
  (forwards to ``python -m repro.bench``).

Every component choice — target microarchitecture, simulator, configuration
preset, baseline method — resolves through the :mod:`repro.api` registries,
so registered third-party plugins are first-class here: ``--simulator
llvm_sim`` (or any entry-point-registered simulator) works wherever a
simulator is constructed, and argument choices are generated from the
registries rather than hard-coded.

Examples::

    python -m repro.cli dataset --uarch haswell --blocks 500 --output haswell.json
    python -m repro.cli corpus build --uarch haswell --blocks 100000 \\
        --directory corpora/haswell --featurize
    python -m repro.cli corpus stat corpora/haswell --verify
    python -m repro.cli tune --targets haswell --corpus corpora/haswell \\
        --checkpoint-dir runs/
    python -m repro.cli learn --dataset haswell.json --output learned.json
    python -m repro.cli tune --targets haswell skylake --checkpoint-dir runs/
    python -m repro.cli tune --targets haswell skylake --checkpoint-dir runs/ --resume
    python -m repro.cli evaluate --dataset haswell.json --table learned.json
    python -m repro.cli evaluate --dataset haswell.json --simulator llvm_sim
    python -m repro.cli compare --uarch zen2 --blocks 300
    python -m repro.cli timeline --block "addq %rax, %rbx; imulq %rbx, %rcx"
    python -m repro.cli sweep --dataset haswell.json --field DispatchWidth
    python -m repro.cli campaign list
    python -m repro.cli campaign run --preset sec6c --blocks 120
    python -m repro.cli campaign run --dataset haswell.json \\
        --axis "WriteLatency@ADD32rr=0:5" --axis "DispatchWidth=1,2,4,8" \\
        --checkpoint-dir runs/campaign --output campaign_report.json
    python -m repro.cli campaign report campaign_report.json
    python -m repro.cli matrix run --axis "WriteLatency@ADD32rr=1,3,5" \\
        --executor pool --workers 4 --checkpoint-dir runs/matrix \\
        --output matrix_report.json
    python -m repro.cli matrix report matrix_report.json
    python -m repro.cli worker --port 8101
    python -m repro.cli tune-baseline --dataset haswell.json --method genetic
    python -m repro.cli bundle export --uarch haswell --table learned.json --output hsw.bundle
    python -m repro.cli bundle inspect hsw.bundle
    python -m repro.cli serve --bundle hsw.bundle --port 8000
    python -m repro.cli bench list
    python -m repro.cli bench run --tier smoke --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

import repro
from repro import storage
from repro.api import (BASELINES, PRESETS, SIMULATORS, TARGETS, BundleError,
                       CapabilityError, EvaluateSpec, PredictSpec, Session,
                       SpecValidationError, TuneSpec)
from repro.api.plugins import search_baseline_names


def _target_choices() -> List[str]:
    return TARGETS.names()


def _simulator_choices() -> List[str]:
    return SIMULATORS.names()


def _search_baseline_choices() -> List[str]:
    choices: List[str] = []
    for name in search_baseline_names(BASELINES):
        choices.append(name)
        choices.extend(BASELINES.entry(name).aliases)
    return sorted(choices)


def _sweep_field_choices() -> List[str]:
    fields = set()
    for _name, plugin in SIMULATORS.items():
        fields.update(plugin.sweep_fields)
    return sorted(fields)


def _add_simulator_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--simulator", default="mca", choices=_simulator_choices(),
                        help="simulator whose adapter/tables to use "
                             "(from the repro.api SIMULATORS registry)")


def _command_dataset(arguments: argparse.Namespace) -> int:
    from repro.bhive import build_dataset

    dataset = build_dataset(arguments.uarch, num_blocks=arguments.blocks,
                            seed=arguments.seed)
    dataset.save_json(arguments.output)
    stats = dataset.summary_statistics()
    print(f"Wrote {stats['num_blocks_total']} measured blocks for {dataset.uarch_name} "
          f"to {arguments.output}")
    print(f"  median length {stats['block_length_median']:.1f}, "
          f"median timing {stats['median_block_timing']:.2f} cycles/iteration, "
          f"{stats['unique_opcodes_total']} unique opcodes")
    return 0


def _command_learn(arguments: argparse.Namespace) -> int:
    session = Session.from_spec(
        TuneSpec(target=arguments.uarch,
                 simulator=arguments.simulator,
                 preset="paper" if arguments.paper_config else "fast",
                 num_blocks=arguments.blocks,
                 seed=arguments.seed,
                 dataset_path=arguments.dataset,
                 learn_fields=arguments.learn_fields,
                 narrow_sampling=not arguments.paper_sampling,
                 engine_workers=arguments.workers),
        log=lambda message: print(f"[difftune] {message}"))
    outcome = session.tune()
    outcome.learned_table.save_json(arguments.output)
    print(f"Saved learned table to {arguments.output}")
    print(f"Test error: default {outcome.default_test_error * 100:.1f}%, "
          f"learned {outcome.test_error * 100:.1f}%")
    return 0


def _command_tune(arguments: argparse.Namespace) -> int:
    from repro.pipeline import TargetSpec, tune_targets

    # Validate the per-target spec shape once, up front, so capability
    # mismatches (e.g. --learn-fields with a simulator that learns its full
    # parameter set) fail cleanly before dataset generation or pool fan-out.
    TuneSpec(target=arguments.targets[0], simulator=arguments.simulator,
             preset=arguments.config, num_blocks=arguments.blocks,
             seed=arguments.seed, learn_fields=arguments.learn_fields).validate()

    if arguments.corpus is not None and len(arguments.targets) > 1:
        raise SystemExit("--corpus names one target's corpus directory; "
                         "pass a single --targets entry with it")
    os.makedirs(arguments.output_dir, exist_ok=True)
    sequential = arguments.workers <= 1 or len(arguments.targets) == 1
    specs = [TargetSpec(
        target=target,
        simulator=arguments.simulator,
        num_blocks=arguments.blocks,
        seed=arguments.seed,
        corpus_path=arguments.corpus,
        config_preset=arguments.config,
        checkpoint_dir=os.path.join(arguments.checkpoint_dir, target),
        resume=arguments.resume,
        stop_after=arguments.stop_after,
        output_path=os.path.join(arguments.output_dir, f"{target}.json"),
        learn_fields=arguments.learn_fields,
        # Per-target process fan-out and engine fan-out compose poorly on a
        # laptop; give the engine the workers only when targets run serially.
        engine_workers=0 if not sequential else arguments.workers,
        verbose=sequential,
    ) for target in arguments.targets]
    outcomes = tune_targets(specs, workers=arguments.workers,
                            log=lambda message: print(f"[tune] {message}"))

    for target in arguments.targets:
        outcome = outcomes[target]
        if not outcome.completed:
            print(f"{target}: stopped after stage '{outcome.stopped_after}' "
                  f"({outcome.elapsed_seconds:.1f}s); rerun with --resume to finish")
            continue
        resumed = (f", resumed {len(outcome.resumed_stages)} stages"
                   if outcome.resumed_stages else "")
        print(f"{target}: train error {outcome.train_error * 100:.1f}%, "
              f"test error {outcome.test_error * 100:.1f}% "
              f"(default table {outcome.default_test_error * 100:.1f}%) "
              f"in {outcome.elapsed_seconds:.1f}s{resumed}")
        print(f"  saved learned table to {outcome.output_path}")
    return 0


def _command_evaluate(arguments: argparse.Namespace) -> int:
    session = Session.from_spec(EvaluateSpec(simulator=arguments.simulator,
                                             dataset_path=arguments.dataset,
                                             table_path=arguments.table))
    report = session.evaluate()
    label = arguments.table if arguments.table else "default parameters"
    print(f"{session.dataset().uarch_name} {report['split']} split "
          f"({report['num_blocks']} blocks), {label} [{report['simulator']}]:")
    print(f"  error {report['error'] * 100:.1f}%, Kendall's tau {report['tau']:.3f}")
    return 0


def _command_compare(arguments: argparse.Namespace) -> int:
    from repro.eval.experiments import ExperimentScale, run_table4_for_uarch
    from repro.eval.tables import format_results_table

    scale = ExperimentScale.benchmark()
    scale.num_blocks = arguments.blocks
    scale.seed = arguments.seed
    results = run_table4_for_uarch(arguments.uarch, scale,
                                   include_opentuner=not arguments.skip_opentuner,
                                   include_ithemal=not arguments.skip_ithemal)
    name = TARGETS.get(arguments.uarch).name
    print(format_results_table({name: results}, title="Table IV analogue"))
    return 0


def _command_timeline(arguments: argparse.Namespace) -> int:
    session = Session.from_spec(PredictSpec(target=arguments.uarch,
                                            simulator=arguments.simulator,
                                            table_path=arguments.table))
    try:
        print(session.timeline(arguments.block))
    except CapabilityError as error:
        raise SystemExit(str(error))
    return 0


def _command_sweep(arguments: argparse.Namespace) -> int:
    from repro.eval.plots import Series, ascii_line_plot

    session = Session.from_spec(EvaluateSpec(simulator=arguments.simulator,
                                             dataset_path=arguments.dataset,
                                             table_path=arguments.table,
                                             engine_workers=arguments.workers))
    field = arguments.field
    plugin = SIMULATORS.get(arguments.simulator)
    if field not in plugin.sweep_fields:
        supported = ", ".join(sorted(plugin.sweep_fields)) or "<none>"
        raise SystemExit(f"simulator {plugin.name!r} cannot sweep {field!r}; "
                         f"sweepable fields: {supported}")
    values = list(range(arguments.low, arguments.high + 1, arguments.step))
    # A single-axis grid campaign: one batched engine call — the test blocks
    # are compiled once for the whole sweep, and tables fan out across
    # processes with --workers.  `repro campaign run` is the general form.
    result = session.run_campaign(
        {"strategy": "grid", "axes": [{"field": field, "values": values}]})
    errors = [variant["error"] * 100.0 for variant in result.variants]
    series = Series(field, x=[float(value) for value in values], y=errors)
    print(ascii_line_plot([series],
                          title=f"{field} sensitivity ({session.dataset().uarch_name})",
                          x_label=field, y_label="error %"))
    best = values[int(np.argmin(errors))]
    print(f"Best {field}: {best} (error {min(errors):.1f}%)")
    return 0


def _parse_axis(text: str) -> dict:
    """Parse one ``--axis`` flag into an :class:`AxisSpec` payload dict.

    Grammar: ``FIELD[@OPCODE][#PORT]=V1,V2,...`` or
    ``FIELD[@OPCODE][#PORT]=LOW:HIGH[:STEP]`` — e.g. ``DispatchWidth=1,2,4``
    or ``WriteLatency@ADD32rr=0:5`` or ``PortMap@XOR32rr#2=0,1``.
    """
    label, separator, values_text = text.partition("=")
    if not separator or not label or not values_text:
        raise SystemExit(f"bad --axis {text!r}: expected "
                         f"FIELD[@OPCODE][#PORT]=V1,V2,... or =LOW:HIGH[:STEP]")
    axis: dict = {}
    try:
        if "#" in label:
            label, _, port = label.rpartition("#")
            axis["port"] = int(port)
        if "@" in label:
            label, _, opcode = label.partition("@")
            axis["opcode"] = opcode
        axis["field"] = label
        if ":" in values_text:
            bounds = [int(part) for part in values_text.split(":")]
            if len(bounds) not in (2, 3):
                raise ValueError(values_text)
            axis["low"], axis["high"] = bounds[0], bounds[1]
            if len(bounds) == 3:
                axis["step"] = bounds[2]
        else:
            axis["values"] = [int(part) for part in values_text.split(",")]
    except ValueError:
        raise SystemExit(f"bad --axis {text!r}: values must be integers "
                         f"(V1,V2,... or LOW:HIGH[:STEP])")
    return axis


def _command_campaign(arguments: argparse.Namespace) -> int:
    import json

    from repro.api import CAMPAIGNS, STRATEGIES
    from repro.campaigns import CampaignSpec, format_report, run_campaign

    if arguments.campaign_command == "list":
        print("campaign presets (repro campaign run --preset NAME):")
        for name in CAMPAIGNS.names():
            entry = CAMPAIGNS.entry(name)
            aliases = (f" (aliases: {', '.join(entry.aliases)})"
                       if entry.aliases else "")
            print(f"  {name:<26} {entry.summary}{aliases}")
        print("sampling strategies (--strategy NAME):")
        for name in STRATEGIES.names():
            print(f"  {name:<26} {STRATEGIES.entry(name).summary}")
        return 0

    if arguments.campaign_command == "report":
        report = storage.read_json(arguments.path)
        if arguments.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_report(report))
        return 0

    # run: preset / spec file / inline flags, merged in that order.
    payload: dict = {}
    if arguments.spec:
        payload.update(storage.read_json(arguments.spec))
    overrides = {key: value for key, value in (
        ("target", arguments.uarch),
        ("simulator", arguments.simulator),
        ("dataset_path", arguments.dataset),
        ("table_path", arguments.table),
        ("strategy", arguments.strategy),
        ("num_variants", arguments.num_variants),
        ("num_blocks", arguments.blocks),
        ("max_blocks", arguments.max_blocks),
        ("seed", arguments.seed),
        ("chunk_size", arguments.chunk_size),
        ("checkpoint_dir", arguments.checkpoint_dir),
        ("report_path", arguments.output),
        ("engine_workers", arguments.workers),
    ) if value is not None}
    if arguments.axis:
        overrides["axes"] = [_parse_axis(axis) for axis in arguments.axis]
    if arguments.resume:
        overrides["resume"] = True
    if arguments.preset:
        spec = CAMPAIGNS.get(arguments.preset)(**{**payload, **overrides})
    else:
        payload.update(overrides)
        spec = CampaignSpec.from_dict(payload)
    result = run_campaign(spec, log=print)
    print(format_report(result.report))
    if result.resumed_chunks:
        print(f"  resumed {result.resumed_chunks} chunks from "
              f"{spec.checkpoint_dir}")
    if result.report_path:
        print(f"  wrote report to {result.report_path}")
    return 0


def _command_matrix(arguments: argparse.Namespace) -> int:
    import json

    from repro.api import EXECUTORS
    from repro.distributed import (MatrixCampaignSpec, format_matrix_report,
                                   run_matrix)

    if arguments.matrix_command == "list":
        print("cell executors (repro matrix run --executor NAME):")
        for name in EXECUTORS.names():
            entry = EXECUTORS.entry(name)
            aliases = (f" (aliases: {', '.join(entry.aliases)})"
                       if entry.aliases else "")
            print(f"  {name:<10} {entry.summary}{aliases}")
        print("default cell grid (targets x simulators):")
        for target in TARGETS.names():
            for simulator in SIMULATORS.names():
                print(f"  {target}__{simulator}")
        return 0

    if arguments.matrix_command == "report":
        report = storage.read_json(arguments.path)
        if arguments.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_matrix_report(report))
        return 0

    # run: spec file merged with inline flags; campaign-body flags nest
    # under the shared "campaign" payload, matrix flags sit at the top.
    payload: dict = {}
    if arguments.spec:
        payload.update(storage.read_json(arguments.spec))
    campaign = dict(payload.get("campaign", {}))
    for key, value in (("strategy", arguments.strategy),
                       ("num_variants", arguments.num_variants),
                       ("num_blocks", arguments.blocks),
                       ("max_blocks", arguments.max_blocks),
                       ("seed", arguments.seed),
                       ("chunk_size", arguments.chunk_size),
                       ("engine_workers", arguments.engine_workers)):
        if value is not None:
            campaign[key] = value
    if arguments.axis:
        campaign["axes"] = [_parse_axis(axis) for axis in arguments.axis]
    payload["campaign"] = campaign
    for key, value in (("targets", arguments.targets),
                       ("simulators", arguments.simulators),
                       ("executor", arguments.executor),
                       ("workers", arguments.workers),
                       ("worker_urls", arguments.worker_url),
                       ("max_retries", arguments.max_retries),
                       ("retry_backoff_seconds", arguments.retry_backoff),
                       ("cell_timeout_seconds", arguments.cell_timeout),
                       ("corpus_dir", arguments.corpus_dir),
                       ("checkpoint_dir", arguments.checkpoint_dir),
                       ("report_path", arguments.output),
                       ("cell_report_dir", arguments.cell_report_dir)):
        if value is not None:
            payload[key] = value
    if arguments.resume:
        payload["resume"] = True
    result = run_matrix(MatrixCampaignSpec.from_dict(payload), log=print)
    print(format_matrix_report(result.report))
    if result.resumed_cells:
        print(f"  resumed {len(result.resumed_cells)} completed cells from "
              f"{payload.get('checkpoint_dir')}")
    if result.report_path:
        print(f"  wrote matrix report to {result.report_path}")
    return 1 if result.failed_cells else 0


def _command_worker(arguments: argparse.Namespace) -> int:
    from repro.distributed import CampaignWorker

    worker = CampaignWorker(host=arguments.host, port=arguments.port,
                            log=lambda message: print(f"[worker] {message}"),
                            drain_seconds=arguments.drain_seconds)
    worker.serve()
    return 0


def _command_tune_baseline(arguments: argparse.Namespace) -> int:
    from repro.eval.metrics import error_and_tau

    # The search baselines are inherently sequential (each proposal depends
    # on the previous evaluation), so no --workers flag here; they still
    # benefit from the session engine's result cache and compile sharing.
    session = Session.from_spec(TuneSpec(simulator=arguments.simulator,
                                         dataset_path=arguments.dataset,
                                         narrow_sampling=True,
                                         seed=arguments.seed))
    plugin = BASELINES.get(arguments.method)
    if plugin.kind != "search":
        raise SystemExit(f"baseline {arguments.method!r} is a predictor, not a "
                         f"parameter-table search; choose one of "
                         f"{', '.join(search_baseline_names(BASELINES))}")
    train_blocks, train_timings = session.split("train")
    test_blocks, test_timings = session.split("test")
    arrays = plugin.run(session.adapter, train_blocks, train_timings,
                        budget=arguments.budget, seed=arguments.seed)

    adapter = session.adapter
    error, tau = error_and_tau(adapter.predict_timings(arrays, test_blocks),
                               test_timings)
    default_error, _ = error_and_tau(
        adapter.predict_timings(adapter.default_arrays(), test_blocks), test_timings)
    print(f"{arguments.method} on {session.dataset().uarch_name}: "
          f"test error {error * 100:.1f}% (tau {tau:.3f}), "
          f"default parameters {default_error * 100:.1f}%")
    if arguments.output:
        session.table_from_arrays(arrays).save_json(arguments.output)
        print(f"Saved tuned table to {arguments.output}")
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    from repro.api import ServeSpec
    from repro.serving import InferenceServer

    spec = ServeSpec(target=arguments.uarch,
                     simulator=arguments.simulator,
                     bundle_path=arguments.bundle,
                     table_path=arguments.table,
                     host=arguments.host,
                     port=arguments.port,
                     max_batch_size=arguments.max_batch,
                     max_batch_wait_ms=arguments.max_wait_ms,
                     cache_size=arguments.cache_size,
                     engine_workers=arguments.workers)
    server = InferenceServer.from_spec(
        spec, log=lambda message: print(f"[serve] {message}"))
    server.serve()
    return 0


def _command_bundle(arguments: argparse.Namespace) -> int:
    import json

    from repro.api import BundleSpec, Session, inspect_bundle

    if arguments.bundle_command == "export":
        session = Session.from_spec(BundleSpec(target=arguments.uarch,
                                               simulator=arguments.simulator,
                                               table_path=arguments.table))
        manifest = session.export_bundle(arguments.output)
        surrogate_note = (" + surrogate" if manifest.surrogate is not None
                          else "")
        print(f"Wrote {manifest.target}/{manifest.simulator} bundle"
              f"{surrogate_note} to {arguments.output}")
        print(f"  table digest {manifest.table_digest}")
        return 0
    # inspect: verify digests and print the plain-data summary.
    print(json.dumps(inspect_bundle(arguments.path), indent=2))
    return 0


def _command_corpus(arguments: argparse.Namespace) -> int:
    import json

    from repro.api import CorpusSpec, Session

    if arguments.corpus_command == "build":
        session = Session.from_spec(CorpusSpec(
            target=arguments.uarch,
            directory=arguments.directory,
            num_blocks=arguments.blocks,
            shard_size=arguments.shard_size,
            seed=arguments.seed,
            featurize=arguments.featurize,
            resume=arguments.resume))
        corpus = session.build_corpus(
            progress=lambda done, total: print(
                f"[corpus] generated {done}/{total} blocks"))
        stats = corpus.describe()
        print(f"Built {stats['num_blocks']} blocks "
              f"({stats['num_shards']} shards of <= {stats['shard_size']}) "
              f"for {stats['uarch']} at {arguments.directory}")
        if arguments.featurize:
            print(f"  featurization store: "
                  f"{len(session.featurization_store())} blocks mmap-ready")
        return 0
    # stat: open, optionally verify every shard digest, print the summary.
    from repro.corpus import ShardedCorpus

    corpus = ShardedCorpus(arguments.directory)
    if arguments.verify:
        corpus.verify()
        print(f"verified {corpus.num_shards} shard digests "
              f"and {len(corpus)} block digests")
    print(json.dumps(corpus.describe(), indent=2, sort_keys=True))
    return 0


def _command_bench(arguments: argparse.Namespace) -> int:
    # Forward to the benchmark subsystem's own CLI so `repro bench ...` and
    # `python -m repro.bench ...` stay identical.
    from repro.bench.__main__ import main as bench_main

    return bench_main(arguments.bench_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro.__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    dataset_parser = subparsers.add_parser("dataset", help="generate and measure a dataset")
    dataset_parser.add_argument("--uarch", default="haswell", choices=_target_choices())
    dataset_parser.add_argument("--blocks", type=int, default=500)
    dataset_parser.add_argument("--seed", type=int, default=0)
    dataset_parser.add_argument("--output", required=True)
    dataset_parser.set_defaults(handler=_command_dataset)

    learn_parser = subparsers.add_parser("learn", help="run DiffTune and save the learned table")
    learn_parser.add_argument("--dataset", help="dataset JSON produced by the dataset command")
    learn_parser.add_argument("--uarch", default="haswell", choices=_target_choices(),
                              help="target (used when no dataset file is given)")
    _add_simulator_argument(learn_parser)
    learn_parser.add_argument("--blocks", type=int, default=400)
    learn_parser.add_argument("--seed", type=int, default=0)
    learn_parser.add_argument("--output", required=True)
    learn_parser.add_argument("--paper-config", action="store_true",
                              help="use the paper-faithful (slow) configuration")
    learn_parser.add_argument("--paper-sampling", action="store_true",
                              help="use the paper's wide sampling ranges")
    learn_parser.add_argument("--learn-fields", nargs="*", default=None,
                              help="subset of fields to learn (e.g. WriteLatency)")
    learn_parser.add_argument("--workers", type=int, default=0,
                              help="engine worker processes for parallel simulated-dataset "
                                   "collection")
    learn_parser.set_defaults(handler=_command_learn)

    tune_parser = subparsers.add_parser(
        "tune", help="pipeline-backed multi-target tuning with checkpoints and --resume")
    tune_parser.add_argument("--targets", nargs="+", default=["haswell"],
                             choices=_target_choices(),
                             help="microarchitectures to tune (one pipeline each)")
    _add_simulator_argument(tune_parser)
    tune_parser.add_argument("--blocks", type=int, default=300,
                             help="measured blocks per target dataset")
    tune_parser.add_argument("--corpus", default=None,
                             help="tune against a pre-built sharded corpus "
                                  "directory ('repro corpus build') instead of "
                                  "generating an in-memory dataset; single "
                                  "target only")
    tune_parser.add_argument("--seed", type=int, default=0)
    tune_parser.add_argument("--config", default="fast", choices=PRESETS.names(),
                             help="configuration preset (test = tiny smoke scale)")
    tune_parser.add_argument("--checkpoint-dir", default="difftune_checkpoints",
                             help="root directory for per-target stage checkpoints")
    tune_parser.add_argument("--output-dir", default=".",
                             help="directory for the learned <target>.json tables")
    tune_parser.add_argument("--resume", action="store_true",
                             help="restore completed stages from the checkpoint "
                                  "directory and continue at the first incomplete one")
    tune_parser.add_argument("--stop-after", default=None,
                             help="stop (checkpointed) after this stage, e.g. "
                                  "train_surrogate or refinement_round_01")
    tune_parser.add_argument("--workers", type=int, default=0,
                             help=">= 2 fans targets out across a process pool; "
                                  "otherwise targets run sequentially and the "
                                  "engine gets the workers")
    tune_parser.add_argument("--learn-fields", nargs="*", default=None,
                             help="subset of fields to learn (e.g. WriteLatency)")
    tune_parser.set_defaults(handler=_command_tune)

    evaluate_parser = subparsers.add_parser("evaluate", help="evaluate a parameter table")
    evaluate_parser.add_argument("--dataset", required=True)
    evaluate_parser.add_argument("--table", help="learned table JSON (defaults to expert table)")
    _add_simulator_argument(evaluate_parser)
    evaluate_parser.set_defaults(handler=_command_evaluate)

    compare_parser = subparsers.add_parser("compare", help="run the Table IV comparison")
    compare_parser.add_argument("--uarch", default="haswell", choices=_target_choices())
    compare_parser.add_argument("--blocks", type=int, default=300)
    compare_parser.add_argument("--seed", type=int, default=0)
    compare_parser.add_argument("--skip-opentuner", action="store_true")
    compare_parser.add_argument("--skip-ithemal", action="store_true")
    compare_parser.set_defaults(handler=_command_compare)

    timeline_parser = subparsers.add_parser(
        "timeline", help="print the timeline / bottleneck report for a basic block")
    timeline_parser.add_argument("--uarch", default="haswell", choices=_target_choices())
    _add_simulator_argument(timeline_parser)
    timeline_parser.add_argument("--table", help="learned table JSON (defaults to expert table)")
    timeline_parser.add_argument("--block", required=True,
                                 help="assembly text; separate instructions with ';'")
    timeline_parser.set_defaults(handler=_command_timeline)

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep a global parameter and plot the error curve (Figure 5)")
    sweep_parser.add_argument("--dataset", required=True)
    sweep_parser.add_argument("--table", help="learned table JSON (defaults to expert table)")
    _add_simulator_argument(sweep_parser)
    sweep_parser.add_argument("--field", default="DispatchWidth",
                              choices=_sweep_field_choices())
    sweep_parser.add_argument("--low", type=int, default=1)
    sweep_parser.add_argument("--high", type=int, default=10)
    sweep_parser.add_argument("--step", type=int, default=1)
    sweep_parser.add_argument("--workers", type=int, default=0,
                              help="engine worker processes (megabatches are chunked "
                                   "across them)")
    sweep_parser.set_defaults(handler=_command_sweep)

    campaign_parser = subparsers.add_parser(
        "campaign", help="declarative sweep campaigns: run / list / report "
                         "(repro.campaigns)")
    campaign_subparsers = campaign_parser.add_subparsers(dest="campaign_command",
                                                         required=True)
    campaign_run_parser = campaign_subparsers.add_parser(
        "run", help="run a campaign from a preset, a JSON spec file, or "
                    "inline --axis flags")
    campaign_run_parser.add_argument("--preset", default=None,
                                     help="named campaign preset (see "
                                          "'repro campaign list'); other flags "
                                          "override its spec fields")
    campaign_run_parser.add_argument("--spec", default=None,
                                     help="CampaignSpec JSON file (as written by "
                                          "CampaignSpec.to_dict)")
    campaign_run_parser.add_argument("--axis", action="append", default=None,
                                     metavar="FIELD[@OPCODE][#PORT]=VALUES",
                                     help="sweep axis, repeatable; VALUES is "
                                          "V1,V2,... or LOW:HIGH[:STEP], e.g. "
                                          "WriteLatency@ADD32rr=0:5")
    campaign_run_parser.add_argument("--strategy", default=None,
                                     help="sampling strategy (grid, random, "
                                          "adaptive)")
    campaign_run_parser.add_argument("--num-variants", type=int, default=None,
                                     help="variant budget (required by the "
                                          "random/adaptive strategies)")
    campaign_run_parser.add_argument("--dataset", default=None,
                                     help="dataset JSON (defaults to a "
                                          "generated corpus for --uarch)")
    campaign_run_parser.add_argument("--uarch", default=None,
                                     choices=_target_choices())
    campaign_run_parser.add_argument("--simulator", default=None,
                                     choices=_simulator_choices())
    campaign_run_parser.add_argument("--table", default=None,
                                     help="base parameter table JSON (defaults "
                                          "to the expert table)")
    campaign_run_parser.add_argument("--blocks", type=int, default=None,
                                     help="generated-corpus size when no "
                                          "--dataset is given")
    campaign_run_parser.add_argument("--max-blocks", type=int, default=None,
                                     help="evaluate on only the first N split "
                                          "blocks")
    campaign_run_parser.add_argument("--seed", type=int, default=None)
    campaign_run_parser.add_argument("--chunk-size", type=int, default=None,
                                     help="variants per engine call / "
                                          "checkpoint unit")
    campaign_run_parser.add_argument("--checkpoint-dir", default=None,
                                     help="persist per-chunk checkpoints here "
                                          "(enables --resume)")
    campaign_run_parser.add_argument("--resume", action="store_true",
                                     help="replay completed chunks from "
                                          "--checkpoint-dir (byte-identical "
                                          "report)")
    campaign_run_parser.add_argument("--output", default=None,
                                     help="stream the campaign_report.json "
                                          "here (rewritten after every chunk)")
    campaign_run_parser.add_argument("--workers", type=int, default=None,
                                     help="engine worker processes")
    campaign_run_parser.set_defaults(handler=_command_campaign)
    campaign_list_parser = campaign_subparsers.add_parser(
        "list", help="list registered campaign presets and sampling strategies")
    campaign_list_parser.set_defaults(handler=_command_campaign)
    campaign_report_parser = campaign_subparsers.add_parser(
        "report", help="summarize a campaign_report.json")
    campaign_report_parser.add_argument("path", help="campaign report JSON file")
    campaign_report_parser.add_argument("--json", action="store_true",
                                        help="print the raw report JSON "
                                             "instead of the summary tables")
    campaign_report_parser.set_defaults(handler=_command_campaign)

    matrix_parser = subparsers.add_parser(
        "matrix", help="matrix campaigns: fan one campaign across "
                       "target x simulator cells (repro.distributed)")
    matrix_subparsers = matrix_parser.add_subparsers(dest="matrix_command",
                                                     required=True)
    matrix_run_parser = matrix_subparsers.add_parser(
        "run", help="run a matrix campaign from a JSON spec file and/or "
                    "inline flags")
    matrix_run_parser.add_argument("--spec", default=None,
                                   help="MatrixCampaignSpec JSON file (as "
                                        "written by MatrixCampaignSpec.to_dict)")
    matrix_run_parser.add_argument("--axis", action="append", default=None,
                                   metavar="FIELD[@OPCODE][#PORT]=VALUES",
                                   help="campaign sweep axis, repeatable "
                                        "(same grammar as campaign run)")
    matrix_run_parser.add_argument("--targets", nargs="+", default=None,
                                   choices=_target_choices(),
                                   help="cell targets (default: every "
                                        "registered target)")
    matrix_run_parser.add_argument("--simulators", nargs="+", default=None,
                                   choices=_simulator_choices(),
                                   help="cell simulators (default: every "
                                        "registered simulator)")
    matrix_run_parser.add_argument("--executor", default=None,
                                   help="cell executor from the EXECUTORS "
                                        "registry (inline, pool, remote)")
    matrix_run_parser.add_argument("--workers", type=int, default=None,
                                   help="concurrent cells for --executor pool")
    matrix_run_parser.add_argument("--worker-url", action="append", default=None,
                                   metavar="URL",
                                   help="worker base URL for --executor "
                                        "remote, repeatable (start workers "
                                        "with 'repro worker')")
    matrix_run_parser.add_argument("--max-retries", type=int, default=None,
                                   help="retries per failed cell before it "
                                        "lands in the failed-cell ledger")
    matrix_run_parser.add_argument("--retry-backoff", type=float, default=None,
                                   help="first-retry delay in seconds "
                                        "(doubles per retry)")
    matrix_run_parser.add_argument("--cell-timeout", type=float, default=None,
                                   help="cancel a cell attempt running "
                                        "longer than this many seconds")
    matrix_run_parser.add_argument("--strategy", default=None,
                                   help="campaign sampling strategy")
    matrix_run_parser.add_argument("--num-variants", type=int, default=None,
                                   help="campaign variant budget")
    matrix_run_parser.add_argument("--blocks", type=int, default=None,
                                   help="shared-corpus blocks per target")
    matrix_run_parser.add_argument("--max-blocks", type=int, default=None,
                                   help="evaluate on only the first N split "
                                        "blocks")
    matrix_run_parser.add_argument("--seed", type=int, default=None)
    matrix_run_parser.add_argument("--chunk-size", type=int, default=None,
                                   help="variants per engine call / "
                                        "checkpoint unit within a cell")
    matrix_run_parser.add_argument("--engine-workers", type=int, default=None,
                                   help="engine worker processes inside each "
                                        "cell (compose carefully with "
                                        "--executor pool)")
    matrix_run_parser.add_argument("--corpus-dir", default=None,
                                   help="directory for the shared per-target "
                                        "corpora (default: under "
                                        "--checkpoint-dir, or a temp dir)")
    matrix_run_parser.add_argument("--checkpoint-dir", default=None,
                                   help="persist per-cell outcomes and "
                                        "per-chunk checkpoints here "
                                        "(enables --resume)")
    matrix_run_parser.add_argument("--resume", action="store_true",
                                   help="skip cells already completed in "
                                        "--checkpoint-dir (byte-identical "
                                        "aggregate report)")
    matrix_run_parser.add_argument("--output", default=None,
                                   help="write the aggregate "
                                        "matrix_report.json here")
    matrix_run_parser.add_argument("--cell-report-dir", default=None,
                                   help="directory for per-cell "
                                        "campaign_report.json files")
    matrix_run_parser.set_defaults(handler=_command_matrix)
    matrix_list_parser = matrix_subparsers.add_parser(
        "list", help="list registered cell executors and the default cell grid")
    matrix_list_parser.set_defaults(handler=_command_matrix)
    matrix_report_parser = matrix_subparsers.add_parser(
        "report", help="summarize a matrix_report.json")
    matrix_report_parser.add_argument("path", help="matrix report JSON file")
    matrix_report_parser.add_argument("--json", action="store_true",
                                      help="print the raw report JSON "
                                           "instead of the summary tables")
    matrix_report_parser.set_defaults(handler=_command_matrix)

    worker_parser = subparsers.add_parser(
        "worker", help="run a matrix-campaign worker serving cells over HTTP "
                       "(for 'repro matrix run --executor remote')")
    worker_parser.add_argument("--host", default="127.0.0.1")
    worker_parser.add_argument("--port", type=int, default=8100,
                               help="TCP port (0 picks an ephemeral port)")
    worker_parser.add_argument("--drain-seconds", type=float, default=0.5,
                               help="how long shutdown waits for an in-flight "
                                    "cell before dropping the connection")
    worker_parser.set_defaults(handler=_command_worker)

    baseline_parser = subparsers.add_parser(
        "tune-baseline", help="run a black-box baseline tuner for comparison with DiffTune")
    baseline_parser.add_argument("--dataset", required=True)
    baseline_parser.add_argument("--method", default="opentuner",
                                 choices=_search_baseline_choices())
    _add_simulator_argument(baseline_parser)
    baseline_parser.add_argument("--budget", type=int, default=5000,
                                 help="total block evaluations allowed")
    baseline_parser.add_argument("--seed", type=int, default=0)
    baseline_parser.add_argument("--output", help="where to save the tuned table JSON")
    baseline_parser.set_defaults(handler=_command_tune_baseline)

    serve_parser = subparsers.add_parser(
        "serve", help="run the HTTP/JSON inference server (repro.serving)")
    serve_parser.add_argument("--bundle", default=None,
                              help="deployment bundle to serve (from "
                                   "'repro bundle export'); mutually "
                                   "exclusive with --table")
    serve_parser.add_argument("--uarch", default="haswell", choices=_target_choices(),
                              help="target (ignored when --bundle is given)")
    _add_simulator_argument(serve_parser)
    serve_parser.add_argument("--table", help="learned table JSON to serve "
                                              "(defaults to expert table)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8000,
                              help="TCP port (0 picks an ephemeral port)")
    serve_parser.add_argument("--max-batch", type=int, default=64,
                              help="most blocks coalesced into one engine batch")
    serve_parser.add_argument("--max-wait-ms", type=float, default=2.0,
                              help="how long a non-full batch waits for "
                                   "company before executing")
    serve_parser.add_argument("--cache-size", type=int, default=4096,
                              help="entries per result-cache shard")
    serve_parser.add_argument("--workers", type=int, default=0,
                              help="engine worker processes")
    serve_parser.set_defaults(handler=_command_serve)

    bundle_parser = subparsers.add_parser(
        "bundle", help="export / inspect single-file deployment bundles")
    bundle_subparsers = bundle_parser.add_subparsers(dest="bundle_command",
                                                     required=True)
    export_parser = bundle_subparsers.add_parser(
        "export", help="freeze a parameter table (+ optional surrogate) into "
                       "a deployment bundle")
    export_parser.add_argument("--uarch", default="haswell", choices=_target_choices())
    _add_simulator_argument(export_parser)
    export_parser.add_argument("--table",
                               help="learned table JSON (defaults to expert table)")
    export_parser.add_argument("--output", required=True,
                               help="bundle path to write (single zip file)")
    export_parser.set_defaults(handler=_command_bundle)
    inspect_parser = bundle_subparsers.add_parser(
        "inspect", help="verify a bundle's digests and print its manifest summary")
    inspect_parser.add_argument("path", help="bundle file to inspect")
    inspect_parser.set_defaults(handler=_command_bundle)

    corpus_parser = subparsers.add_parser(
        "corpus", help="build / inspect sharded on-disk block corpora "
                       "(repro.corpus)")
    corpus_subparsers = corpus_parser.add_subparsers(dest="corpus_command",
                                                     required=True)
    corpus_build_parser = corpus_subparsers.add_parser(
        "build", help="generate, measure, and shard a block corpus to disk "
                      "(resumable at every shard boundary)")
    corpus_build_parser.add_argument("--uarch", default="haswell",
                                     choices=_target_choices())
    corpus_build_parser.add_argument("--directory", required=True,
                                     help="corpus directory to create")
    corpus_build_parser.add_argument("--blocks", type=int, default=2000,
                                     help="blocks to generate and measure")
    corpus_build_parser.add_argument("--shard-size", type=int, default=1024,
                                     help="blocks per on-disk shard")
    corpus_build_parser.add_argument("--seed", type=int, default=0)
    corpus_build_parser.add_argument("--featurize", action="store_true",
                                     help="also materialize the memory-mapped "
                                          "featurization store")
    corpus_build_parser.add_argument("--resume", action="store_true",
                                     help="continue an interrupted build from "
                                          "its last complete shard "
                                          "(bit-identical to uninterrupted)")
    corpus_build_parser.set_defaults(handler=_command_corpus)
    corpus_stat_parser = corpus_subparsers.add_parser(
        "stat", help="print a corpus's manifest summary (optionally verifying "
                     "every shard and block digest)")
    corpus_stat_parser.add_argument("directory", help="corpus directory")
    corpus_stat_parser.add_argument("--verify", action="store_true",
                                    help="re-hash every shard payload and "
                                         "block entry against the manifest")
    corpus_stat_parser.set_defaults(handler=_command_corpus)

    bench_parser = subparsers.add_parser(
        "bench", add_help=False,
        help="benchmark scenarios: list / run / compare (python -m repro.bench)")
    bench_parser.add_argument("bench_args", nargs=argparse.REMAINDER,
                              help="arguments forwarded to repro.bench")
    bench_parser.set_defaults(handler=_command_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except SpecValidationError as error:
        # Spec validation names the bad field and suggests fixes; surface it
        # as a clean CLI error instead of a traceback.
        raise SystemExit(f"error: {error}")
    except BundleError as error:
        # Bundle verification failures likewise name the offending field.
        raise SystemExit(f"error: {error}")


if __name__ == "__main__":
    sys.exit(main())
