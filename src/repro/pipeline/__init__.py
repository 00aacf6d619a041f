"""Orchestrated, checkpointable, multi-target DiffTune runs.

This package turns the end-to-end DiffTune run into an explicit pipeline of
resumable stages:

1. :mod:`~repro.pipeline.stages` — the :class:`~repro.pipeline.stages.Stage`
   abstraction and the concrete stage sequence (simulated-dataset collection,
   surrogate training, table optimization, refinement rounds,
   extraction/eval), each with ``run`` / ``save`` / ``load``.
2. :mod:`~repro.pipeline.checkpoint` — the on-disk
   :class:`~repro.pipeline.checkpoint.CheckpointStore` (per-stage artifact
   archives plus a manifest recording completion and rng stream positions).
3. :mod:`~repro.pipeline.pipeline` — the
   :class:`~repro.pipeline.pipeline.TuningPipeline` driver: runs the stage
   sequence, checkpoints after every stage, and resumes bit-identically at
   the first incomplete stage.
4. :mod:`~repro.pipeline.multi_target` — fan-out of independent per-target
   :meth:`Session.tune() <repro.api.session.Session.tune>` runs
   (``repro tune --targets ...``) over a process pool.

:class:`~repro.core.difftune.DiffTune` runs on this layer; ``repro tune``
exposes it on the command line.
"""

from repro.pipeline.checkpoint import CheckpointMismatchError, CheckpointStore
from repro.pipeline.multi_target import TargetOutcome, tune_target, tune_targets
from repro.pipeline.pipeline import TuningPipeline, run_fingerprint
from repro.pipeline.stages import (CollectDatasetStage, ExtractEvaluateStage,
                                   OptimizeTableStage, PipelineState,
                                   RefinementRoundStage, Stage, TrainSurrogateStage,
                                   build_stages, collect_examples)

__all__ = [
    "CheckpointMismatchError",
    "CheckpointStore",
    "TargetOutcome",
    "tune_target",
    "tune_targets",
    "TuningPipeline",
    "run_fingerprint",
    "Stage",
    "PipelineState",
    "CollectDatasetStage",
    "TrainSurrogateStage",
    "OptimizeTableStage",
    "RefinementRoundStage",
    "ExtractEvaluateStage",
    "build_stages",
    "collect_examples",
]
