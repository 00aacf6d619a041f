"""Phase one of DiffTune: training the surrogate on the simulated dataset.

Solves Equation (2) of the paper: fit the differentiable surrogate so that
``surrogate(theta, x) ≈ simulator(theta, x)`` over the simulated dataset, with
Adam and MAPE loss.

Training is batch-major: every block is featurized once per dataset through a
:class:`~repro.core.surrogate.FeaturizationCache`, each sampled parameter
table is normalized once, and a whole padded minibatch advances per autodiff
op via the surrogate's ``forward_batch``.  The property tests pin it within
1e-9 to a per-example reference built on the scalar ``forward``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import no_grad
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.parameters import ParameterSpec
from repro.core.simulated_dataset import SimulatedExample
from repro.core.surrogate import (FeaturizationCache, _SurrogateBase,
                                  pack_block_arrays)
from repro.core.training_loop import run_minibatch_loop


@dataclass
class SurrogateTrainingConfig:
    """Hyper-parameters for surrogate training.

    Defaults follow the paper where feasible (Adam, learning rate 0.001,
    batch-based updates); batch size and epoch count are scaled down for CPU
    training and can be overridden.
    """

    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 2
    gradient_clip: float = 5.0
    shuffle: bool = True
    seed: int = 0
    log_every: int = 0  # batches; 0 disables logging callbacks


@dataclass
class SurrogateTrainingResult:
    """Summary of a surrogate training run."""

    epoch_losses: List[float]
    final_training_error: float
    examples_per_second: float = 0.0


def _batch_inputs(spec: ParameterSpec, cache: FeaturizationCache,
                  examples: Sequence[SimulatedExample], featurized: Sequence,
                  batch_indices: np.ndarray):
    """Packed batch + parameter inputs + targets for one minibatch."""
    rows = [int(index) for index in batch_indices]
    batch_featurized = [featurized[row] for row in rows]
    packed = cache.pack(batch_featurized)
    per_instruction, global_values = cache.batch_parameters(
        spec, batch_featurized, [examples[row].arrays for row in rows],
        max_instructions=packed.max_instructions)
    targets = [examples[row].simulated_timing for row in rows]
    return packed, per_instruction, global_values, targets


def is_streaming_examples(examples: Sequence) -> bool:
    """Whether ``examples`` is an index-addressed streaming source.

    Streaming sources (e.g. :class:`repro.corpus.streaming.StreamingExamples`)
    expose per-index accessors instead of per-example objects, so training
    never materializes a featurized list for the whole dataset.
    """
    return hasattr(examples, "block_arrays")


def _streaming_batch_inputs(spec: ParameterSpec, cache: FeaturizationCache,
                            examples, batch_indices: np.ndarray):
    """Streaming counterpart of :func:`_batch_inputs` (same float math)."""
    rows = [int(index) for index in batch_indices]
    packed = pack_block_arrays([examples.block_arrays(row) for row in rows])
    per_instruction = np.zeros((len(rows), packed.max_instructions,
                                spec.per_instruction_dim))
    global_values = np.zeros((len(rows), spec.global_dim))
    for position, row in enumerate(rows):
        normalized = cache.normalized_arrays(spec, examples.table(row))
        opcodes = examples.opcode_indices(row)
        per_instruction[position, :len(opcodes)] = \
            normalized.per_instruction_values[opcodes]
        global_values[position] = normalized.global_values
    targets = [examples.timing(row) for row in rows]
    return packed, per_instruction, global_values, targets


def train_surrogate(surrogate: _SurrogateBase, examples: Sequence[SimulatedExample],
                    config: SurrogateTrainingConfig,
                    progress: Optional[Callable[[int, int, float], None]] = None
                    ) -> SurrogateTrainingResult:
    """Train ``surrogate`` to mimic the simulator on ``examples``.

    Args:
        surrogate: The surrogate model (weights are updated in place).
        examples: The simulated dataset.
        config: Training hyper-parameters.
        progress: Optional callback ``(epoch, batch, loss)``; with
            ``log_every=N`` it fires every N batches and always on the final
            (possibly partial) batch of each epoch.

    Returns:
        Per-epoch mean losses and the final full-pass training error.
    """
    if not examples:
        raise ValueError("cannot train the surrogate on an empty dataset")
    spec = surrogate.spec
    optimizer = Adam(surrogate.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    streaming = is_streaming_examples(examples)

    # Featurize each distinct block once for the whole run; the cache also
    # memoizes per-table normalization and per-block packed arrays.  A
    # streaming source serves per-block arrays itself (possibly memory-mapped
    # from disk), so no whole-dataset featurized list is materialized.
    cache = FeaturizationCache(surrogate.featurizer)
    featurized = ([] if streaming
                  else [cache.featurize(example.block) for example in examples])

    def _batched_loss(batch_indices: np.ndarray):
        if streaming:
            packed, per_instruction, global_values, targets = \
                _streaming_batch_inputs(spec, cache, examples, batch_indices)
        else:
            packed, per_instruction, global_values, targets = _batch_inputs(
                spec, cache, examples, featurized, batch_indices)
        predictions = surrogate.forward_batch(packed, per_instruction, global_values)
        return surrogate_loss(predictions, targets)

    surrogate.train()
    loop = run_minibatch_loop(
        len(examples), _batched_loss, optimizer, rng,
        batch_size=config.batch_size, epochs=config.epochs,
        shuffle=config.shuffle, gradient_clip=config.gradient_clip,
        log_every=config.log_every, progress=progress)

    surrogate.eval()
    final_error = evaluate_surrogate(surrogate, examples, batch_size=64,
                                     cache=cache)
    return SurrogateTrainingResult(
        epoch_losses=loop.epoch_losses, final_training_error=final_error,
        examples_per_second=loop.examples_per_second)


def evaluate_surrogate(surrogate: _SurrogateBase,
                       examples: Sequence[SimulatedExample],
                       batch_size: int = 64,
                       cache: Optional[FeaturizationCache] = None) -> float:
    """MAPE of the surrogate against the simulator on ``examples``.

    Runs the surrogate's batched forward in ``batch_size`` chunks.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    spec = surrogate.spec
    cache = cache or FeaturizationCache(surrogate.featurizer)
    streaming = is_streaming_examples(examples)
    predictions: List[float] = []
    if streaming:
        targets = [examples.timing(row) for row in range(len(examples))]
    else:
        targets = [example.simulated_timing for example in examples]
    with no_grad():
        featurized = ([] if streaming else
                      [cache.featurize(example.block) for example in examples])
        for chunk_start in range(0, len(examples), batch_size):
            chunk = np.arange(chunk_start,
                              min(chunk_start + batch_size, len(examples)))
            if streaming:
                packed, per_instruction, global_values, _ = \
                    _streaming_batch_inputs(spec, cache, examples, chunk)
            else:
                packed, per_instruction, global_values, _ = _batch_inputs(
                    spec, cache, examples, featurized, chunk)
            chunk_predictions = surrogate.forward_batch(
                packed, per_instruction, global_values)
            predictions.extend(float(value)
                               for value in chunk_predictions.numpy())
    return mape_loss_value(np.array(predictions), np.array(targets))
