"""The stages of a DiffTune tuning run, with per-stage checkpoint artifacts.

Each :class:`Stage` implements the same small contract:

* ``run(state)``    — execute the stage, mutating the shared
  :class:`PipelineState`;
* ``save(state, store)``  — persist the stage's artifacts (NumPy archives,
  JSON for scalars) through a
  :class:`~repro.pipeline.checkpoint.CheckpointStore`;
* ``load(state, store)``  — restore those artifacts into the state instead of
  re-running, when a resumed pipeline finds the stage already complete (the
  store checks each file against the digest recorded at completion).

The stage sequence mirrors Figure 1 of the paper plus the local-refinement
extension: simulated-dataset collection, surrogate training, parameter-table
optimization, zero or more refinement rounds, and final extraction/eval.

Imports deliberately target ``repro.core.<module>`` submodules (never the
``repro.core`` package root): :mod:`repro.core.difftune` imports this package
at module level, and the submodule form keeps that cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.extraction import extract_parameter_arrays
from repro.core.losses import mape_loss_value
from repro.core.parameters import ParameterArrays
from repro.core.simulated_dataset import SimulatedExample, collect_simulated_dataset
from repro.core.surrogate import (BlockFeaturizer, FeaturizationCache,
                                  build_surrogate)
from repro.core.surrogate_training import (SurrogateTrainingConfig, SurrogateTrainingResult,
                                           train_surrogate)
from repro.core.table_optimization import (TableOptimizationResult,
                                           optimize_parameter_table)
from repro.corpus.streaming import (CollectionCheckpoint, StreamingExamples,
                                    StreamingSimulatedDataset,
                                    collect_simulated_dataset_streaming)
from repro.pipeline.checkpoint import CheckpointStore


def corpus_backed(blocks: Any) -> bool:
    """Whether ``blocks`` is a corpus-backed (disk-sharded, lazy) source.

    Corpus views advertise a :meth:`content_fingerprint`; plain block lists
    do not.  Corpus-backed runs stream dataset collection and training so
    peak memory stays proportional to one shard, not the corpus.
    """
    return hasattr(blocks, "content_fingerprint")


@dataclass
class PipelineState:
    """Everything a tuning run accumulates as its stages execute.

    ``config`` is a :class:`~repro.core.difftune.DiffTuneConfig` (typed as
    ``Any`` to keep this module import-cycle-free).
    """

    adapter: Any
    config: Any
    blocks: Sequence[Any]
    true_timings: np.ndarray
    rng: np.random.Generator
    featurizer: BlockFeaturizer
    log: Callable[[str], None] = lambda message: None

    simulated_examples: Optional[Sequence[Any]] = None
    #: Round-grouped streaming dataset backing ``simulated_examples`` when the
    #: run is corpus-backed (collection streamed to/from disk).
    streaming_dataset: Optional[StreamingSimulatedDataset] = None
    #: Optional mmap featurization store serving per-block arrays to training.
    featurization_store: Any = None
    #: Set by the pipeline when checkpointing, for mid-stage partial saves.
    checkpoint_store: Optional[CheckpointStore] = None
    resume: bool = False
    surrogate: Any = None
    surrogate_result: Optional[SurrogateTrainingResult] = None
    table_result: Optional[TableOptimizationResult] = None
    best_arrays: Optional[ParameterArrays] = None
    best_error: float = float("inf")
    learned_arrays: Optional[ParameterArrays] = None
    train_error: Optional[float] = None
    #: Stage names restored from a checkpoint rather than executed.
    resumed_stages: List[str] = field(default_factory=list)

    def log_engine_stats(self) -> None:
        """Report the shared engine's cache behaviour (engine-backed adapters)."""
        try:
            stats = self.adapter.engine.stats
        except NotImplementedError:
            return
        self.log(f"engine: {stats['executed']} simulations, "
                 f"{stats['result_hits']} cache hits, "
                 f"{stats['compile_misses']} blocks compiled "
                 f"(reused {stats['compile_hits']} times)")


class Stage:
    """One resumable unit of a tuning pipeline."""

    name: str = "stage"

    def run(self, state: PipelineState) -> None:
        raise NotImplementedError

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        raise NotImplementedError

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared (de)serialization of a simulated dataset
# ----------------------------------------------------------------------
def _examples_to_arrays(examples: Sequence[SimulatedExample]) -> Dict[str, np.ndarray]:
    """Pack a simulated dataset into flat arrays.

    Sampled tables are shared by reference across the examples drawn with
    them (``blocks_per_table`` at a time); dedup by identity keeps the
    archive proportional to the number of *tables*, mirroring the in-memory
    layout.  Blocks are stored as indices into the ground-truth block list.
    """
    table_index_by_id: Dict[int, int] = {}
    tables: List[ParameterArrays] = []
    example_table = np.empty(len(examples), dtype=np.int64)
    example_block = np.empty(len(examples), dtype=np.int64)
    example_timing = np.empty(len(examples), dtype=np.float64)
    for position, example in enumerate(examples):
        key = id(example.arrays)
        table_index = table_index_by_id.get(key)
        if table_index is None:
            table_index = len(tables)
            table_index_by_id[key] = table_index
            tables.append(example.arrays)
        example_table[position] = table_index
        example_block[position] = example.block_index
        example_timing[position] = example.simulated_timing
    return {
        "table_global_values": np.stack([table.global_values for table in tables]),
        "table_per_instruction_values": np.stack(
            [table.per_instruction_values for table in tables]),
        "example_table": example_table,
        "example_block": example_block,
        "example_timing": example_timing,
    }


def _examples_from_arrays(arrays: Dict[str, np.ndarray],
                          blocks: Sequence[Any]) -> List[SimulatedExample]:
    tables = [ParameterArrays(global_values=arrays["table_global_values"][index],
                              per_instruction_values=arrays["table_per_instruction_values"][index])
              for index in range(arrays["table_global_values"].shape[0])]
    examples: List[SimulatedExample] = []
    for table_index, block_index, timing in zip(arrays["example_table"],
                                                arrays["example_block"],
                                                arrays["example_timing"]):
        examples.append(SimulatedExample(arrays=tables[int(table_index)],
                                         block_index=int(block_index),
                                         block=blocks[int(block_index)],
                                         simulated_timing=float(timing)))
    return examples


def collect_examples(adapter: Any, config: Any, blocks: Sequence[Any],
                     rng: np.random.Generator,
                     num_examples: Optional[int] = None,
                     table_sampler: Optional[Callable] = None
                     ) -> List[SimulatedExample]:
    """Collect a simulated dataset with the adapter's field freezing applied.

    Shared by the collection stage, the refinement stages, and
    :meth:`repro.core.difftune.DiffTune.collect_simulated_dataset`.
    """
    spec = adapter.parameter_spec()
    if table_sampler is None:
        def table_sampler(generator: np.random.Generator) -> ParameterArrays:
            return adapter.freeze_unlearned_fields(spec.sample(generator))
    return collect_simulated_dataset(
        adapter, blocks,
        config.simulated_dataset_size if num_examples is None else num_examples,
        rng, blocks_per_table=config.blocks_per_table, table_sampler=table_sampler)


# ----------------------------------------------------------------------
# Concrete stages
# ----------------------------------------------------------------------
def _streaming_examples(state: PipelineState,
                        dataset: StreamingSimulatedDataset) -> StreamingExamples:
    """Index-addressed training view over a streamed dataset."""
    return StreamingExamples(dataset, state.blocks,
                             FeaturizationCache(state.featurizer),
                             store=state.featurization_store)


def _collection_checkpoint_interval(blocks: Any, config: Any) -> int:
    """Examples between partial saves: one corpus shard's worth (floor 1)."""
    corpus = getattr(blocks, "corpus", blocks)
    return max(int(getattr(corpus, "shard_size", 0)) or 1024, 1)


class CollectDatasetStage(Stage):
    """Stage 1: sample parameter tables and record the simulator's timings.

    With corpus-backed blocks the stage streams: examples accumulate in a
    :class:`~repro.corpus.streaming.StreamingSimulatedDataset` (arrays, not
    per-example objects), partial progress checkpoints to the stage directory
    every corpus-shard's worth of examples, and a killed run resumes from the
    last partial bit-identically (the rng stream position is saved with it).
    """

    name = "collect_dataset"
    DATASET_FILE = "simulated_dataset.npz"

    def run(self, state: PipelineState) -> None:
        if state.simulated_examples is not None:
            # A pre-collected dataset was handed in (tests, shared-dataset
            # ablations); nothing to do — and nothing was logged before.
            return
        if corpus_backed(state.blocks):
            self._run_streaming(state)
            return
        state.log(f"collecting simulated dataset "
                  f"({state.config.simulated_dataset_size} examples)")
        state.simulated_examples = collect_examples(state.adapter, state.config,
                                                    state.blocks, state.rng)
        state.log_engine_stats()

    def _run_streaming(self, state: PipelineState) -> None:
        config = state.config
        state.log(f"collecting simulated dataset "
                  f"({config.simulated_dataset_size} examples, streaming)")
        spec = state.adapter.parameter_spec()

        def table_sampler(generator: np.random.Generator) -> ParameterArrays:
            return state.adapter.freeze_unlearned_fields(spec.sample(generator))

        checkpoint = None
        checkpoint_every = 0
        if state.checkpoint_store is not None:
            checkpoint = CollectionCheckpoint(
                state.checkpoint_store.stage_dir(self.name))
            if not state.resume:
                # reset() only clears completion entries; a stale partial
                # from an earlier run must not leak into this one.
                checkpoint.clear()
            checkpoint_every = _collection_checkpoint_interval(state.blocks,
                                                               config)
        dataset = collect_simulated_dataset_streaming(
            state.adapter, state.blocks, config.simulated_dataset_size,
            state.rng, blocks_per_table=config.blocks_per_table,
            table_sampler=table_sampler, checkpoint=checkpoint,
            checkpoint_every=checkpoint_every)
        state.streaming_dataset = dataset
        state.simulated_examples = _streaming_examples(state, dataset)
        state.log_engine_stats()

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        dataset = (state.streaming_dataset
                   or getattr(state.simulated_examples, "dataset", None))
        if dataset is not None:
            store.save_arrays(self.name, self.DATASET_FILE, dataset.to_arrays())
            return
        store.save_arrays(self.name, self.DATASET_FILE,
                          _examples_to_arrays(state.simulated_examples))

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        arrays = store.load_arrays(self.name, self.DATASET_FILE)
        if corpus_backed(state.blocks):
            state.streaming_dataset = StreamingSimulatedDataset.from_arrays(arrays)
            state.simulated_examples = _streaming_examples(
                state, state.streaming_dataset)
            return
        state.simulated_examples = _examples_from_arrays(arrays, state.blocks)


def _save_surrogate_outcome(stage_name: str, state: PipelineState,
                            store: CheckpointStore) -> None:
    store.save_arrays(stage_name, "surrogate_state.npz",
                      state.surrogate.state_dict())
    result = state.surrogate_result
    store.save_json(stage_name, "surrogate_result.json", {
        "epoch_losses": result.epoch_losses,
        "final_training_error": result.final_training_error,
        "examples_per_second": result.examples_per_second,
    })


def _load_surrogate_outcome(stage_name: str, state: PipelineState,
                            store: CheckpointStore) -> None:
    state.surrogate.load_state_dict(
        store.load_arrays(stage_name, "surrogate_state.npz"))
    payload = store.load_json(stage_name, "surrogate_result.json")
    state.surrogate_result = SurrogateTrainingResult(
        epoch_losses=[float(value) for value in payload["epoch_losses"]],
        final_training_error=float(payload["final_training_error"]),
        examples_per_second=float(payload["examples_per_second"]))


class TrainSurrogateStage(Stage):
    """Stage 2: fit the differentiable surrogate to the simulated dataset."""

    name = "train_surrogate"

    def run(self, state: PipelineState) -> None:
        state.surrogate = build_surrogate(state.adapter.parameter_spec(),
                                          state.featurizer, state.config.surrogate)
        state.log(f"training surrogate on {len(state.simulated_examples)} "
                  f"simulated examples")
        state.surrogate_result = train_surrogate(state.surrogate,
                                                 state.simulated_examples,
                                                 state.config.surrogate_training)
        state.log(f"surrogate training error: "
                  f"{state.surrogate_result.final_training_error:.3f}")

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        _save_surrogate_outcome(self.name, state, store)

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        state.surrogate = build_surrogate(state.adapter.parameter_spec(),
                                          state.featurizer, state.config.surrogate)
        _load_surrogate_outcome(self.name, state, store)


def _optimize_and_extract(state: PipelineState,
                          initial_arrays: ParameterArrays) -> ParameterArrays:
    """Run phase two from ``initial_arrays`` and return the extracted table."""
    per_mask, global_mask = state.adapter.unlearned_dimension_masks()
    state.table_result = optimize_parameter_table(
        state.surrogate, state.blocks, state.true_timings,
        state.config.table_optimization,
        initial_arrays=initial_arrays,
        frozen_per_instruction_mask=per_mask,
        frozen_global_mask=global_mask)
    return extract_parameter_arrays(state.adapter.parameter_spec(),
                                    state.table_result.learned_arrays)


def _save_table_outcome(stage_name: str, state: PipelineState,
                        store: CheckpointStore) -> None:
    result = state.table_result
    store.save_parameter_arrays(stage_name, "table_learned.npz", result.learned_arrays)
    store.save_parameter_arrays(stage_name, "table_initial.npz", result.initial_arrays)
    store.save_parameter_arrays(stage_name, "best_arrays.npz", state.best_arrays)
    store.save_json(stage_name, "table_result.json", {
        "epoch_losses": result.epoch_losses,
        "examples_per_second": result.examples_per_second,
        "best_error": state.best_error,
    })


def _load_table_outcome(stage_name: str, state: PipelineState,
                        store: CheckpointStore) -> None:
    payload = store.load_json(stage_name, "table_result.json")
    state.table_result = TableOptimizationResult(
        learned_arrays=store.load_parameter_arrays(stage_name, "table_learned.npz"),
        epoch_losses=[float(value) for value in payload["epoch_losses"]],
        initial_arrays=store.load_parameter_arrays(stage_name, "table_initial.npz"),
        examples_per_second=float(payload["examples_per_second"]))
    state.best_arrays = store.load_parameter_arrays(stage_name, "best_arrays.npz")
    state.best_error = float(payload["best_error"])


class OptimizeTableStage(Stage):
    """Stage 3: train the parameter table through the frozen surrogate."""

    name = "optimize_table"

    def run(self, state: PipelineState) -> None:
        state.log("optimizing the parameter table through the frozen surrogate")
        spec = state.adapter.parameter_spec()
        initial_arrays = state.adapter.freeze_unlearned_fields(spec.sample(state.rng))
        learned = _optimize_and_extract(state, initial_arrays)
        error = mape_loss_value(state.adapter.predict_timings(learned, state.blocks),
                                state.true_timings)
        state.log(f"round 0 learned-table training error: {error:.3f}")
        state.best_arrays, state.best_error = learned, error

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        _save_table_outcome(self.name, state, store)

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        _load_table_outcome(self.name, state, store)


class RefinementRoundStage(Stage):
    """One local-surrogate refinement round (re-collect, fine-tune, re-optimize).

    Re-collects a simulated dataset sampled *near* the current estimate,
    fine-tunes the surrogate on it, re-optimizes the table starting from the
    current best estimate, and keeps the candidate if it improves the
    training error — the strategy the paper points to (Shirobokov et al.)
    for keeping the surrogate accurate where the optimizer actually goes.
    """

    def __init__(self, round_index: int) -> None:
        self.round_index = round_index
        self.name = f"refinement_round_{round_index + 1:02d}"

    def run(self, state: PipelineState) -> None:
        config = state.config
        round_number = self.round_index + 1
        state.log(f"refinement round {round_number}: resampling near the estimate")
        spec = state.adapter.parameter_spec()
        center = state.best_arrays

        def sample_near(generator: np.random.Generator) -> ParameterArrays:
            return state.adapter.freeze_unlearned_fields(
                spec.sample_near(center, generator, config.refinement_spread))

        local_examples = collect_examples(state.adapter, config, state.blocks,
                                          state.rng,
                                          num_examples=config.refinement_dataset_size,
                                          table_sampler=sample_near)
        refinement_training = SurrogateTrainingConfig(
            learning_rate=config.surrogate_training.learning_rate,
            batch_size=config.surrogate_training.batch_size,
            epochs=config.refinement_epochs,
            gradient_clip=config.surrogate_training.gradient_clip,
            seed=config.surrogate_training.seed + round_number,
            log_every=config.surrogate_training.log_every)
        state.surrogate_result = train_surrogate(state.surrogate, local_examples,
                                                 refinement_training)
        state.log(f"refined surrogate error: "
                  f"{state.surrogate_result.final_training_error:.3f}")
        candidate = _optimize_and_extract(state, center)
        candidate_error = mape_loss_value(
            state.adapter.predict_timings(candidate, state.blocks), state.true_timings)
        state.log(f"refinement round {round_number} training error: "
                  f"{candidate_error:.3f}")
        if candidate_error < state.best_error:
            state.best_arrays, state.best_error = candidate, candidate_error

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        _save_surrogate_outcome(self.name, state, store)
        _save_table_outcome(self.name, state, store)

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        _load_surrogate_outcome(self.name, state, store)
        _load_table_outcome(self.name, state, store)


class ExtractEvaluateStage(Stage):
    """Final stage: promote the best candidate to the run's learned table."""

    name = "extract_evaluate"

    def run(self, state: PipelineState) -> None:
        state.learned_arrays = state.best_arrays
        state.train_error = state.best_error

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_parameter_arrays(self.name, "learned_arrays.npz",
                                    state.learned_arrays)
        store.save_json(self.name, "summary.json", {"train_error": state.train_error})

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        state.learned_arrays = store.load_parameter_arrays(self.name,
                                                           "learned_arrays.npz")
        state.train_error = float(store.load_json(self.name, "summary.json")
                                  ["train_error"])


def build_stages(config: Any) -> List[Stage]:
    """The stage sequence for one :class:`~repro.core.difftune.DiffTuneConfig`."""
    stages: List[Stage] = [CollectDatasetStage(), TrainSurrogateStage(),
                           OptimizeTableStage()]
    stages.extend(RefinementRoundStage(index)
                  for index in range(config.refinement_rounds))
    stages.append(ExtractEvaluateStage())
    return stages
