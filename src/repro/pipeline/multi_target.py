"""Fan a tuning run out over several microarchitecture targets.

``repro tune --targets haswell ivybridge skylake zen2`` runs one full
(checkpointable, resumable) pipeline per target.  Targets are independent —
separate datasets, adapters, checkpoints — so they fan out across a process
pool exactly the way the simulation engine fans tables out
(:meth:`repro.engine.engine.SimulationEngine.run_pairs`): a module-level,
picklable task function, a ``fork``-preferring multiprocessing context, and
deterministic per-target results regardless of scheduling.  ``workers <= 1``
runs the targets sequentially in-process with full logging.

Every target writes its checkpoints under ``<checkpoint_root>/<target>/``,
so a killed multi-target run resumes per target: finished targets replay
instantly from their final-stage artifacts, the interrupted one picks up at
its first incomplete stage.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass
class TargetSpec:
    """Everything one target task needs, in picklable plain-data form.

    ``target``, ``simulator``, and ``config_preset`` are registry keys
    (:data:`repro.api.registries.TARGETS` / ``SIMULATORS`` / ``PRESETS``),
    so entry-point-registered plugins work here unchanged.
    """

    target: str
    simulator: str = "mca"
    num_blocks: int = 300
    seed: int = 0
    #: Directory of a pre-built :class:`~repro.corpus.sharded.ShardedCorpus`
    #: to tune against instead of building an in-memory dataset.  The corpus
    #: is opened read-only in every pool worker — its shards and the mmap
    #: featurization store next to it are shared OS pages, not copies.
    corpus_path: Optional[str] = None
    #: Build/open the mmap featurization store beside the corpus and serve
    #: per-block arrays from it during surrogate training.
    corpus_featurize: bool = True
    config_preset: str = "fast"  # any key of the PRESETS registry
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    stop_after: Optional[str] = None
    output_path: Optional[str] = None
    learn_fields: Optional[List[str]] = None
    narrow_sampling: bool = True
    engine_workers: int = 0
    verbose: bool = False


@dataclass
class TargetOutcome:
    """Result of tuning one target (plain data, returned across processes)."""

    target: str
    completed: bool
    train_error: Optional[float] = None
    test_error: Optional[float] = None
    default_test_error: Optional[float] = None
    elapsed_seconds: float = 0.0
    resumed_stages: List[str] = field(default_factory=list)
    output_path: Optional[str] = None
    stopped_after: Optional[str] = None
    #: ``"ExceptionType: message"`` when the target's pipeline raised (the
    #: fan-out records the failure instead of sinking its siblings).
    error: Optional[str] = None
    #: Full traceback text of the failure, for post-mortem without re-running.
    traceback: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _config_from_preset(spec: TargetSpec):
    from repro.api.registries import PRESETS
    from repro.api.registry import UnknownKeyError

    try:
        factory = PRESETS.get(spec.config_preset)
    except UnknownKeyError as error:
        # Keep the historical ValueError contract of this layer.
        raise ValueError(f"unknown config preset: {error}") from error
    return factory(spec.seed)


def tune_target(spec: TargetSpec) -> TargetOutcome:
    """Run one target's pipeline end to end (module-level: pool-picklable).

    Imports are deferred to runtime both to keep worker start-up lean and to
    keep this module importable from :mod:`repro.core.difftune`'s package
    initialization without a cycle.
    """
    from repro.api.registries import SIMULATORS, TARGETS
    from repro.bhive import build_dataset
    from repro.core.difftune import DiffTune
    from repro.eval.metrics import error_and_tau

    import numpy as np

    start_time = time.time()
    corpus = None
    if spec.corpus_path is not None:
        from repro.corpus import ShardedCorpus

        from repro.api.registries import same_target

        corpus = ShardedCorpus(spec.corpus_path)
        if not same_target(corpus.uarch_name, spec.target):
            raise ValueError(
                f"corpus at {spec.corpus_path!r} was generated for "
                f"{corpus.uarch_name!r}, not {spec.target!r}")
        train_blocks = corpus.split_view("train")
        test_blocks = corpus.split_view("test")
        train_timings = train_blocks.timings()
        test_timings = test_blocks.timings()
    else:
        dataset = build_dataset(spec.target, num_blocks=spec.num_blocks,
                                seed=spec.seed)
        train = dataset.train_examples
        test = dataset.test_examples
        train_blocks = [example.block for example in train]
        train_timings = np.array([example.timing for example in train])
        test_blocks = [example.block for example in test]
        test_timings = np.array([example.timing for example in test])

    kwargs = {"narrow_sampling": spec.narrow_sampling,
              "engine_workers": spec.engine_workers}
    if spec.learn_fields is not None:
        kwargs["learn_fields"] = spec.learn_fields
    adapter = SIMULATORS.get(spec.simulator).create_adapter(
        TARGETS.get(spec.target), **kwargs)
    log = (lambda message: print(f"[{spec.target}] {message}")) if spec.verbose \
        else (lambda message: None)
    featurization_store = None
    if corpus is not None and spec.corpus_featurize:
        import os

        from repro.core.surrogate import BlockFeaturizer
        from repro.corpus import ShardedFeaturizationStore

        featurization_store = ShardedFeaturizationStore(
            os.path.join(spec.corpus_path, "featurization"),
            BlockFeaturizer(adapter.opcode_table)).ensure(corpus)
    difftune = DiffTune(adapter, _config_from_preset(spec), log=log)
    result = difftune.learn(train_blocks, train_timings,
                            checkpoint_dir=spec.checkpoint_dir,
                            resume=spec.resume, stop_after=spec.stop_after,
                            featurization_store=featurization_store)
    elapsed = time.time() - start_time
    if result is None:
        return TargetOutcome(target=spec.target, completed=False,
                             elapsed_seconds=elapsed,
                             stopped_after=spec.stop_after)

    output_path = spec.output_path
    if output_path is not None:
        adapter.table_from_arrays(result.learned_arrays).save_json(output_path)
    test_error, _ = error_and_tau(
        adapter.predict_timings(result.learned_arrays, test_blocks), test_timings)
    default_test_error, _ = error_and_tau(
        adapter.predict_timings(adapter.default_arrays(), test_blocks), test_timings)
    return TargetOutcome(target=spec.target, completed=True,
                         train_error=result.train_error,
                         test_error=float(test_error),
                         default_test_error=float(default_test_error),
                         elapsed_seconds=elapsed,
                         resumed_stages=list(result.resumed_stages),
                         output_path=output_path)


def _tune_target_guarded(spec: TargetSpec) -> TargetOutcome:
    """``tune_target`` with failures captured as data (module-level: picklable).

    One crashing target must not abort the pool fan-out; the exception and
    its traceback come back in the outcome instead, so siblings finish and
    the caller decides what a partial result is worth.
    """
    import traceback as traceback_module

    start_time = time.time()
    try:
        return tune_target(spec)
    except Exception as error:  # noqa: BLE001 - converted to outcome data
        return TargetOutcome(
            target=spec.target, completed=False,
            elapsed_seconds=time.time() - start_time,
            error=f"{type(error).__name__}: {error}",
            traceback=traceback_module.format_exc())


def tune_targets(specs: Sequence[TargetSpec], workers: int = 0,
                 log: Optional[Callable[[str], None]] = None,
                 strict: bool = False) -> Dict[str, TargetOutcome]:
    """Tune every target, fanning out across processes when ``workers > 1``.

    Returns outcomes keyed by target name, in input order.  The parallel
    path produces the same outcomes as the sequential one — each target's
    pipeline is fully determined by its spec.

    A target whose pipeline raises is recorded as a failed
    :class:`TargetOutcome` (``error`` + ``traceback`` set) while its
    siblings run to completion; pass ``strict=True`` to re-raise the first
    failure instead (the historical abort-the-fan-out behavior).
    """
    log = log or (lambda message: None)
    names = [spec.target for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate targets: {names}")
    task = tune_target if strict else _tune_target_guarded
    if workers > 1 and len(specs) > 1:
        start_methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in start_methods else start_methods[0])
        processes = min(workers, len(specs))
        log(f"tuning {len(specs)} targets across {processes} worker processes")
        with context.Pool(processes=processes) as pool:
            outcomes = pool.map(task, list(specs))
    else:
        outcomes = []
        for spec in specs:
            log(f"tuning target {spec.target}")
            outcomes.append(task(spec))
    for outcome in outcomes:
        if outcome.error is not None:
            log(f"target {outcome.target} failed: {outcome.error}")
    return {outcome.target: outcome for outcome in outcomes}
