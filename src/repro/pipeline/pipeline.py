"""The orchestrated, checkpointable tuning pipeline.

:class:`TuningPipeline` executes the stage sequence of
:func:`repro.pipeline.stages.build_stages` over one adapter/dataset pair.
With a checkpoint directory configured, every completed stage persists its
artifacts and the pipeline's random-stream position; ``resume=True`` then
restores completed stages from disk and re-enters the run at the first
incomplete stage, reproducing an uninterrupted run bit for bit.

:class:`~repro.core.difftune.DiffTune` is a thin wrapper over this class;
``repro tune`` drives it per target (optionally fanned out across processes
by :mod:`repro.pipeline.multi_target`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro import storage
from repro.core.surrogate import BlockFeaturizer
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.stages import PipelineState, build_stages


def run_fingerprint(adapter: Any, config: Any, blocks: Sequence[Any],
                    true_timings: np.ndarray) -> str:
    """Digest identifying one (adapter, config, dataset) tuning problem.

    Checkpoints from one fingerprint must never be resumed into another run:
    stage artifacts encode sampled tables, surrogate weights, and rng stream
    positions that are only meaningful for the exact same problem.
    """
    digest = storage.hasher()
    digest.update(type(adapter).__name__.encode())
    uarch = getattr(adapter, "uarch", None)
    digest.update(getattr(uarch, "name", "").encode())
    learn_fields = getattr(adapter, "learn_fields", None)
    digest.update(repr(sorted(learn_fields) if learn_fields else None).encode())
    digest.update(repr(getattr(adapter, "narrow_sampling", None)).encode())
    digest.update(repr(config).encode())
    digest.update(np.ascontiguousarray(
        np.asarray(true_timings, dtype=np.float64)).tobytes())
    if hasattr(blocks, "content_fingerprint"):
        # Corpus-backed sources carry a digest over their shard manifest;
        # hashing it avoids parsing every block just to fingerprint the run.
        digest.update(blocks.content_fingerprint().encode())
    else:
        for block in blocks:
            digest.update(repr(block.structural_key()).encode())
    return digest.hexdigest()[:16]


class TuningPipeline:
    """Run the DiffTune stage sequence, optionally checkpointed and resumable."""

    def __init__(self, adapter: Any, config: Any,
                 log: Optional[Callable[[str], None]] = None,
                 featurizer: Optional[BlockFeaturizer] = None,
                 checkpoint_dir: Optional[str] = None,
                 featurization_store: Any = None) -> None:
        self.adapter = adapter
        self.config = config
        self.log = log or (lambda message: None)
        self.featurizer = featurizer or BlockFeaturizer(adapter.opcode_table)
        self.checkpoint_dir = checkpoint_dir
        self.featurization_store = featurization_store

    def stage_names(self) -> list:
        return [stage.name for stage in build_stages(self.config)]

    def run(self, blocks: Sequence[Any], true_timings: np.ndarray,
            simulated_examples: Optional[Sequence[Any]] = None,
            resume: bool = False, stop_after: Optional[str] = None) -> PipelineState:
        """Execute (or resume) the pipeline; returns the final state.

        Args:
            blocks: Ground-truth training blocks.
            true_timings: Measured timings aligned with ``blocks``.
            simulated_examples: Optional pre-collected simulated dataset; the
                collection stage becomes a no-op.
            resume: Restore completed stages from the checkpoint directory
                instead of re-running them.  Requires ``checkpoint_dir``.
            stop_after: Stop (checkpoint included) after the named stage —
                the hook the resume tests and staged CLI runs use.
        """
        true_timings = np.asarray(true_timings, dtype=np.float64)
        if len(blocks) != len(true_timings):
            raise ValueError("blocks and true_timings must be aligned")
        stages = build_stages(self.config)
        names = [stage.name for stage in stages]
        if stop_after is not None and stop_after not in names:
            raise ValueError(f"unknown stage {stop_after!r}; expected one of {names}")
        if stop_after is not None and self.checkpoint_dir is None:
            raise ValueError("stop_after without a checkpoint directory would "
                             "discard the completed stages' work")

        store: Optional[CheckpointStore] = None
        if self.checkpoint_dir is not None:
            store = CheckpointStore(self.checkpoint_dir)
            store.bind_fingerprint(
                run_fingerprint(self.adapter, self.config, blocks, true_timings),
                resume)
            if not resume:
                store.reset()
        elif resume:
            raise ValueError("resume=True requires a checkpoint directory")

        # Corpus-backed block sources stay lazy (list() would parse the whole
        # corpus); plain iterables are materialized as before.
        kept_blocks = (blocks if hasattr(blocks, "content_fingerprint")
                       else list(blocks))
        if simulated_examples is not None and not hasattr(simulated_examples,
                                                          "block_arrays"):
            simulated_examples = list(simulated_examples)
        state = PipelineState(
            adapter=self.adapter, config=self.config, blocks=kept_blocks,
            true_timings=true_timings, rng=np.random.default_rng(self.config.seed),
            featurizer=self.featurizer, log=self.log,
            simulated_examples=simulated_examples,
            featurization_store=self.featurization_store,
            checkpoint_store=store, resume=resume)

        for stage in stages:
            if store is not None and resume and store.is_complete(stage.name):
                stage.load(state, store)
                store.restore_rng(stage.name, state.rng)
                state.resumed_stages.append(stage.name)
                self.log(f"resume: restored completed stage '{stage.name}' "
                         f"from {self.checkpoint_dir}")
            else:
                stage.run(state)
                if store is not None:
                    stage.save(state, store)
                    store.mark_complete(stage.name, state.rng)
            if stop_after == stage.name:
                self.log(f"stopping after stage '{stage.name}' as requested")
                break
        return state
