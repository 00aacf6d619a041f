"""The end-to-end DiffTune driver.

Ties the four stages of Figure 1 together:

1. collect the ground-truth dataset (provided by the caller, usually a
   :class:`~repro.bhive.dataset.BasicBlockDataset`);
2. collect the simulated dataset by running the original simulator with
   sampled parameter tables;
3. train the differentiable surrogate on the simulated dataset;
4. train the parameter table against the ground truth through the frozen
   surrogate, then extract the learned table back into the simulator.

:meth:`DiffTune.learn` runs that sequence itself: the stages and their
checkpoint artifacts live in :mod:`repro.pipeline.stages`.  Passing
``checkpoint_dir`` persists every completed stage; ``resume=True`` then
picks the run up at the first incomplete stage and reproduces an
uninterrupted run bit for bit (the random stream is snapshotted between
stages).  Where a block's featurized arrays come from is the block
source's business: a corpus view bound to a featurization store serves
them from it (:meth:`~repro.core.surrogate.BlockFeaturizer.lookup`).
Otherwise they come from the run's one :class:`BlockFeaturizer`, whose
per-block cache every stage shares, so each distinct block is featurized
once per run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.adapters import SimulatorAdapter
from repro.core.losses import mape_loss_value
from repro.core.parameters import ParameterArrays
from repro.core.simulated_dataset import SimulatedDataset
from repro.core.surrogate import BlockFeaturizer, SurrogateConfig, build_surrogate
from repro.core.surrogate_training import SurrogateTrainingConfig, SurrogateTrainingResult
from repro.core.table_optimization import TableOptimizationConfig, TableOptimizationResult
from repro.isa.basic_block import BasicBlock
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.pipeline import run_fingerprint
from repro.pipeline.stages import PipelineState, build_stages, collect_dataset

logger = logging.getLogger(__name__)


@dataclass
class DiffTuneConfig:
    """All hyper-parameters of a DiffTune run.

    ``refinement_rounds`` enables iterative local-surrogate refinement: after
    the initial (global-distribution) run, additional rounds re-collect a
    simulated dataset sampled *near* the current parameter estimate, fine-tune
    the surrogate on it, and re-optimize the table starting from the current
    estimate.  This is the strategy the paper points to (Shirobokov et al.) for
    keeping the surrogate accurate in the region the optimizer actually visits;
    at this reproduction's reduced scale it is what makes learned tables
    consistently competitive with the expert defaults.
    """

    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    surrogate_training: SurrogateTrainingConfig = field(default_factory=SurrogateTrainingConfig)
    table_optimization: TableOptimizationConfig = field(default_factory=TableOptimizationConfig)
    simulated_dataset_size: int = 2000
    blocks_per_table: int = 16
    refinement_rounds: int = 0
    refinement_dataset_size: int = 1500
    refinement_spread: float = 0.25
    refinement_epochs: int = 2
    seed: int = 0


@dataclass
class DiffTuneResult:
    """Everything produced by one DiffTune run."""

    learned_arrays: ParameterArrays
    surrogate_result: SurrogateTrainingResult
    table_result: TableOptimizationResult
    simulated_dataset_size: int
    train_error: float
    elapsed_seconds: float
    #: Stage names served from checkpoints instead of executed (empty for
    #: non-resumed runs).
    resumed_stages: List[str] = field(default_factory=list)
    #: The trained surrogate module (what a deployment bundle embeds).
    surrogate: Optional[object] = None


class DiffTune:
    """Learns a simulator's parameters from end-to-end measurements."""

    def __init__(self, adapter: SimulatorAdapter,
                 config: Optional[DiffTuneConfig] = None) -> None:
        self.adapter = adapter
        self.config = config or DiffTuneConfig()
        self.featurizer = BlockFeaturizer(adapter.opcode_table)

    # ------------------------------------------------------------------
    # Individual stages (exposed for tests and ablations)
    # ------------------------------------------------------------------
    def collect_simulated_dataset(self, blocks: Sequence[BasicBlock],
                                  rng: np.random.Generator) -> SimulatedDataset:
        return collect_dataset(self.adapter, self.config, blocks, rng)

    def build_surrogate(self):
        return build_surrogate(self.adapter.parameter_spec(), self.featurizer,
                               self.config.surrogate)

    # ------------------------------------------------------------------
    # End-to-end run
    # ------------------------------------------------------------------
    def learn(self, blocks: Sequence[BasicBlock], true_timings: np.ndarray,
              checkpoint_dir: Optional[str] = None, resume: bool = False,
              stop_after: Optional[str] = None) -> Optional[DiffTuneResult]:
        """Run DiffTune end to end on a ground-truth training set.

        Executes the stage sequence of
        :func:`~repro.pipeline.stages.build_stages` over ``blocks``: a
        block list, or a lazy corpus view (which may carry a featurization
        store serving both training phases).

        Args:
            blocks: Training basic blocks.
            true_timings: Measured timings aligned with ``blocks``.
            checkpoint_dir: Persist every completed stage's artifacts here,
                bound to the run's :func:`~repro.pipeline.pipeline.run_fingerprint`.
            resume: Restore completed stages from ``checkpoint_dir`` and
                continue at the first incomplete one.  A resumed run yields
                a bit-identical result to an uninterrupted run.
            stop_after: Stop once the named stage has completed (and been
                checkpointed).  Returns ``None`` when the run stops before
                the final stage — resume later to finish it.
        """
        start_time = time.time()
        true_timings = np.asarray(true_timings, dtype=np.float64)
        if len(blocks) != len(true_timings):
            raise ValueError("blocks and true_timings must be aligned")
        stages = build_stages(self.config)
        names = [stage.name for stage in stages]
        if stop_after is not None and stop_after not in names:
            raise ValueError(f"unknown stage {stop_after!r}; expected one of {names}")
        if stop_after is not None and checkpoint_dir is None:
            raise ValueError("stop_after without a checkpoint directory would "
                             "discard the completed stages' work")

        checkpoints: Optional[CheckpointStore] = None
        if checkpoint_dir is not None:
            checkpoints = CheckpointStore(checkpoint_dir)
            checkpoints.bind_fingerprint(
                run_fingerprint(self.adapter, self.config, blocks, true_timings),
                resume)
            if not resume:
                checkpoints.reset()
        elif resume:
            raise ValueError("resume=True requires a checkpoint directory")

        # Corpus-backed block sources stay lazy (list() would parse the whole
        # corpus); plain iterables are materialized.
        kept_blocks = (blocks if hasattr(blocks, "content_fingerprint")
                       else list(blocks))
        state = PipelineState(
            adapter=self.adapter, config=self.config, blocks=kept_blocks,
            true_timings=true_timings, rng=np.random.default_rng(self.config.seed),
            featurizer=self.featurizer)
        for stage in stages:
            if resume and checkpoints.is_complete(stage.name):
                stage.load(state, checkpoints)
                checkpoints.restore_rng(stage.name, state.rng)
                state.resumed_stages.append(stage.name)
                logger.info(f"resume: restored completed stage '{stage.name}' "
                            f"from {checkpoint_dir}")
            else:
                stage.run(state)
                if checkpoints is not None:
                    stage.save(state, checkpoints)
                    checkpoints.mark_complete(stage.name, state.rng)
            if stop_after == stage.name:
                logger.info(f"stopping after stage '{stage.name}' as requested")
                break

        if state.learned_arrays is None:
            logger.info(f"run stopped after stage '{stop_after}'; "
                        f"resume from {checkpoint_dir} to finish it")
            return None
        elapsed = time.time() - start_time
        logger.info(f"learned-table training error: {state.train_error:.3f} "
                    f"({elapsed:.1f}s end to end)")
        return DiffTuneResult(learned_arrays=state.learned_arrays,
                              surrogate_result=state.surrogate_result,
                              table_result=state.table_result,
                              simulated_dataset_size=len(state.simulated_dataset),
                              train_error=state.train_error,
                              elapsed_seconds=elapsed,
                              resumed_stages=list(state.resumed_stages),
                              surrogate=state.surrogate)

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def evaluate(self, arrays: ParameterArrays, blocks: Sequence[BasicBlock],
                 true_timings: np.ndarray) -> float:
        """MAPE of the original simulator under ``arrays`` on a dataset."""
        predictions = self.adapter.predict_timings(arrays, blocks)
        return mape_loss_value(predictions, np.asarray(true_timings, dtype=np.float64))
