"""The shared minibatch training loop behind both DiffTune phases.

Phase one (surrogate training, Equation 2), phase two (parameter-table
optimization, Equation 3) and the Ithemal baseline all run the same
epoch/minibatch machinery: shuffle an index permutation, slice it into
batches, run forward/backward, clip the global gradient norm, step the
optimizer, and log throttled per-batch losses at DEBUG.  This module is its
single implementation.

The loop is deliberately ignorant of *what* is being trained — it receives
an optimizer and a ``compute_batch_loss`` callable mapping a batch index
array to a scalar loss tensor.  Everything phase-specific (featurization,
packing, the forward pass, frozen-dimension restoration) lives in the
callable and the optional ``post_step`` hook.

Determinism contract: the only randomness consumed from ``rng`` is one
``shuffle`` call per epoch.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.autodiff.optim import Optimizer
from repro.autodiff.tensor import Tensor

logger = logging.getLogger(__name__)

#: Global gradient-norm bound applied before every optimizer step.
GRADIENT_CLIP = 5.0


@dataclass
class MinibatchLoopResult:
    """Timing and loss summary of one :func:`run_minibatch_loop` call."""

    epoch_losses: List[float]
    examples_processed: int
    elapsed_seconds: float

    @property
    def examples_per_second(self) -> float:
        return self.examples_processed / max(self.elapsed_seconds, 1e-9)


def run_minibatch_loop(num_examples: int,
                       compute_batch_loss: Callable[[np.ndarray], Tensor],
                       optimizer: Optimizer,
                       rng: np.random.Generator,
                       *,
                       batch_size: int,
                       epochs: int,
                       log_every: int = 0,
                       post_step: Optional[Callable[[], None]] = None
                       ) -> MinibatchLoopResult:
    """Run the shared epoch/minibatch optimization loop.

    Each epoch reshuffles the index permutation, and each step clips the
    gradients to a global norm of :data:`GRADIENT_CLIP`.  A batch whose
    loss or pre-clip gradient norm is not finite raises
    ``FloatingPointError`` naming the epoch and batch before the optimizer
    steps, so the parameters keep their last finite values.

    Args:
        num_examples: Dataset size; batches are index slices of
            ``np.arange(num_examples)``.
        compute_batch_loss: Maps one batch index array to the scalar loss
            tensor to backpropagate.
        optimizer: Steps after each batch; its parameters' gradients are
            zeroed before each backward pass.
        rng: Source of the per-epoch shuffle (one draw per epoch).
        batch_size: Minibatch size (the final batch may be partial).
        epochs: Number of passes over the dataset.
        log_every: Log ``(epoch, batch_index, loss)`` at DEBUG every N
            batches, plus always on the final (possibly partial) batch of
            each epoch; ``0`` logs nothing.
        post_step: Optional hook run after every optimizer step (e.g.
            restoring frozen parameter dimensions).

    Returns:
        Per-epoch mean losses plus wall-time/throughput counters.
    """
    if num_examples < 1:
        raise ValueError("the training loop needs at least one example")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(num_examples)
    num_batches = (num_examples + batch_size - 1) // batch_size
    epoch_losses: List[float] = []
    start_time = time.perf_counter()
    for epoch in range(epochs):
        rng.shuffle(order)
        batch_losses: List[float] = []
        for batch_start in range(0, num_examples, batch_size):
            batch_index = batch_start // batch_size
            batch_indices = order[batch_start:batch_start + batch_size]
            loss = compute_batch_loss(batch_indices)
            value = loss.item()
            if not math.isfinite(value):
                raise FloatingPointError(
                    f"epoch {epoch} batch {batch_index}: loss is {value}")
            optimizer.zero_grad()
            loss.backward()
            norm = optimizer.clip_grad_norm(GRADIENT_CLIP)
            if not math.isfinite(norm):
                raise FloatingPointError(
                    f"epoch {epoch} batch {batch_index}: gradient norm is {norm}")
            optimizer.step()
            if post_step is not None:
                post_step()
            batch_losses.append(value)
            if log_every and logger.isEnabledFor(logging.DEBUG):
                is_final_batch = batch_index == num_batches - 1
                if batch_index % log_every == 0 or is_final_batch:
                    logger.debug("epoch %d batch %d loss %.6f", epoch,
                                 batch_index, batch_losses[-1])
        epoch_losses.append(float(np.mean(batch_losses)))
    elapsed = time.perf_counter() - start_time
    return MinibatchLoopResult(epoch_losses=epoch_losses,
                               examples_processed=num_examples * epochs,
                               elapsed_seconds=elapsed)
