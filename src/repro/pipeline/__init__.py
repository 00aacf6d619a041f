"""Checkpointable, multi-target DiffTune runs.

This package holds the end-to-end DiffTune run as a sequence of resumable
stages, which :meth:`DiffTune.learn <repro.core.difftune.DiffTune.learn>`
runs in order:

1. :mod:`~repro.pipeline.stages` — the :class:`~repro.pipeline.stages.Stage`
   abstraction and the concrete stage sequence (simulated-dataset collection,
   surrogate training, table optimization, refinement rounds,
   extraction/eval), each with ``run`` / ``save`` / ``load``.
2. :mod:`~repro.pipeline.checkpoint` — the on-disk
   :class:`~repro.pipeline.checkpoint.CheckpointStore` (per-stage artifact
   archives plus a manifest recording completion and rng stream positions).
3. :mod:`~repro.pipeline.pipeline` —
   :func:`~repro.pipeline.pipeline.run_fingerprint`, the digest a
   checkpoint directory is bound to, so a resume never restores another
   run's artifacts.
4. :mod:`~repro.pipeline.multi_target` — fan-out of independent per-target
   :meth:`Session.tune() <repro.api.session.Session.tune>` runs
   (``repro tune --targets ...``) over a process pool.

``DiffTune.learn`` checkpoints after every stage and resumes
bit-identically at the first incomplete one; ``repro tune`` exposes it on
the command line.
"""

from repro.pipeline.checkpoint import CheckpointMismatchError, CheckpointStore
from repro.pipeline.multi_target import TargetOutcome, tune_target, tune_targets
from repro.pipeline.pipeline import run_fingerprint
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
