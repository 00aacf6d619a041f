"""Phase one of DiffTune: training the surrogate on the simulated dataset.

Solves Equation (2) of the paper: fit the differentiable surrogate so that
``surrogate(theta, x) ≈ simulator(theta, x)`` over the simulated dataset, with
Adam and MAPE loss.

Training is batch-major.  Before the minibatch loop, one
:meth:`~repro.core.surrogate.BlockFeaturizer.lookup` over the dataset's
block source decides where each block's packed arrays come from (resolved
up front for a block list, the featurization store a corpus view carries,
or the featurizer's per-block cache on demand for a view without one); the
featurizer's cache outlives the call, so a DiffTune run featurizes each
distinct block once across all its training calls.  Each minibatch is
padded from that lookup,
its examples' parameter rows are gathered from the dataset's stacked
tables in one index and normalized together
(:func:`~repro.core.surrogate.batch_parameter_inputs`), and the whole
padded minibatch advances per autodiff op via the surrogate's
``forward_batch``.  The property tests pin it within 1e-9 to the
per-example reference forwards in ``tests/surrogate_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import no_grad
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.parameters import ParameterSpec
from repro.core.simulated_dataset import SimulatedDataset
from repro.core.surrogate import (BlockFeaturizer, _SurrogateBase,
                                  batch_parameter_inputs)
from repro.core.training_loop import run_minibatch_loop

#: Examples per ``forward_batch`` call when predicting without gradients.
PREDICT_BATCH_SIZE = 64


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
    seed: int = 0
    log_every: int = 0  # batches; 0 disables the per-batch DEBUG log


@dataclass
class SurrogateTrainingResult:
    """Summary of a surrogate training run."""

    epoch_losses: List[float]
    final_training_error: float
    examples_per_second: float = 0.0


def _batch_inputs(spec: ParameterSpec, dataset: SimulatedDataset,
                  block_arrays: Callable[[int], Dict[str, np.ndarray]],
                  rows: Sequence[int]):
    """Packed batch + parameter inputs + targets for the examples at ``rows``.

    ``block_arrays`` maps a block position to its per-block arrays
    (:meth:`BlockFeaturizer.lookup`).
    """
    rows = [int(row) for row in rows]
    packed = BlockFeaturizer.pack(
        [block_arrays(dataset.example_block[row]) for row in rows])
    per_instruction, global_values = batch_parameter_inputs(
        spec, packed, dataset.tables, [dataset.example_table[row] for row in rows])
    targets = [dataset.example_timing[row] for row in rows]
    return packed, per_instruction, global_values, targets


def train_surrogate(surrogate: _SurrogateBase, dataset: SimulatedDataset,
                    config: SurrogateTrainingConfig) -> SurrogateTrainingResult:
    """Train ``surrogate`` to mimic the simulator on ``dataset``.

    Args:
        surrogate: The surrogate model (weights are updated in place).
        dataset: The simulated dataset.
        config: Training hyper-parameters; with ``log_every=N`` the
            training loop logs ``(epoch, batch, loss)`` at DEBUG every N
            batches and always on the final (possibly partial) batch of
            each epoch.

    Returns:
        Per-epoch mean losses and the final full-pass training error.
    """
    if not dataset:
        raise ValueError("cannot train the surrogate on an empty dataset: "
                         "it needs at least one example")
    spec = surrogate.spec
    optimizer = Adam(surrogate.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    # One lookup serves every minibatch and the final evaluation.
    block_arrays = surrogate.featurizer.lookup(dataset.blocks)

    def _batched_loss(batch_indices: np.ndarray):
        packed, per_instruction, global_values, targets = _batch_inputs(
            spec, dataset, block_arrays, batch_indices)
        predictions = surrogate.forward_batch(packed, per_instruction, global_values)
        return surrogate_loss(predictions, targets)

    surrogate.train()
    loop = run_minibatch_loop(
        len(dataset), _batched_loss, optimizer, rng,
        batch_size=config.batch_size, epochs=config.epochs,
        log_every=config.log_every)

    surrogate.eval()
    final_error = mape_loss_value(predict_examples(surrogate, dataset, block_arrays),
                                  np.array(dataset.example_timing))
    return SurrogateTrainingResult(
        epoch_losses=loop.epoch_losses, final_training_error=final_error,
        examples_per_second=loop.examples_per_second)


def evaluate_surrogate(surrogate: _SurrogateBase, dataset: SimulatedDataset,
                       batch_size: int = PREDICT_BATCH_SIZE) -> float:
    """MAPE of the surrogate against the simulator on ``dataset``.

    Runs the surrogate's batched forward in ``batch_size`` chunks, reading
    the per-block arrays from the same lookup training uses.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    predictions = predict_examples(surrogate, dataset,
                                   surrogate.featurizer.lookup(dataset.blocks), batch_size)
    return mape_loss_value(predictions, np.array(dataset.example_timing))


def predict_examples(surrogate: _SurrogateBase, dataset: SimulatedDataset,
                     block_arrays: Callable[[int], Dict[str, np.ndarray]],
                     batch_size: int = PREDICT_BATCH_SIZE) -> np.ndarray:
    """The surrogate's prediction for every example of ``dataset``, in order.

    Runs the batched forward without gradients in ``batch_size`` chunks;
    ``block_arrays`` maps a block position to its per-block arrays
    (:meth:`BlockFeaturizer.lookup` over ``dataset.blocks``).
    """
    predictions: List[float] = []
    with no_grad():
        for chunk_start in range(0, len(dataset), batch_size):
            rows = range(chunk_start, min(chunk_start + batch_size, len(dataset)))
            packed, per_instruction, global_values, _ = _batch_inputs(
                surrogate.spec, dataset, block_arrays, rows)
            chunk_predictions = surrogate.forward_batch(
                packed, per_instruction, global_values)
            predictions.extend(float(value)
                               for value in chunk_predictions.numpy())
    return np.array(predictions, dtype=np.float64)
