"""Phase two of DiffTune: optimizing the parameter table through the surrogate.

Solves Equation (3) of the paper: with the surrogate's weights frozen, the
parameter table itself becomes the trainable object.  It is initialized to a
random sample from the parameter sampling distribution, and trained with Adam
against the ground-truth dataset under MAPE loss.  During this phase the
absolute value of lower-bounded parameters is taken before they are passed to
the surrogate (Section IV, "Solving the optimization problems").

Like surrogate training (phase one), optimization is batch-major: every
block is featurized and resolved to its packed arrays once per run, before
the minibatch loop, through a
:class:`~repro.core.surrogate.FeaturizationCache`; each minibatch is packed
into one padded :class:`~repro.core.surrogate.PackedBlockBatch`, the trainable
table's rows for the whole batch are gathered with the scatter-add ``gather``
primitive (so gradients of repeated opcodes accumulate into the same table
row), and the minibatch advances through the surrogate's ``forward_batch`` on
the shared :mod:`~repro.core.training_loop` implementation.  The property
tests pin it within 1e-9 to a per-block reference built on the per-example
forwards in ``tests/surrogate_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.modules import Parameter
from repro.autodiff.optim import Adam
from repro.autodiff.tensor import Tensor, gather
from repro.core.losses import surrogate_loss
from repro.core.parameters import ParameterArrays, ParameterSpec
from repro.core.surrogate import FeaturizationCache, PackedBlockBatch, _SurrogateBase
from repro.core.training_loop import run_minibatch_loop
from repro.isa.basic_block import BasicBlock


@dataclass
class TableOptimizationConfig:
    """Hyper-parameters for parameter-table training.

    The paper trains the table with Adam at learning rate 0.05 for one epoch
    over the ground-truth training set.  Because the learned values are
    normalized by their field scales before entering the surrogate here, the
    same relative step is achieved with a comparable learning rate in
    normalized space.

    ``log_every`` throttles the progress callback (every N batches plus the
    final batch of each epoch; the default of 1 preserves the historical
    every-batch behaviour).
    """

    learning_rate: float = 0.05
    batch_size: int = 16
    epochs: int = 1
    gradient_clip: float = 5.0
    shuffle: bool = True
    seed: int = 0
    log_every: int = 1


@dataclass
class TableOptimizationResult:
    """Outcome of parameter-table training."""

    learned_arrays: ParameterArrays
    epoch_losses: List[float]
    initial_arrays: ParameterArrays
    examples_per_second: float = 0.0


class _TrainableTable:
    """The parameter table as trainable tensors in surrogate input space.

    The stored values live in the surrogate's *normalized, lower-bound-free*
    space; :meth:`to_parameter_arrays` undoes the normalization and restores
    the lower bounds (with the absolute-value convention) to produce values in
    the simulator's own units.
    """

    def __init__(self, spec: ParameterSpec, initial: ParameterArrays) -> None:
        self.spec = spec
        normalized = spec.normalize_for_surrogate_training(initial)
        self.per_instruction = Parameter(normalized.per_instruction_values,
                                         name="per_instruction_parameters")
        self.global_values = Parameter(normalized.global_values, name="global_parameters")

    def parameters(self) -> List[Parameter]:
        parameters = [self.per_instruction]
        if self.global_values.size > 0:
            parameters.append(self.global_values)
        return parameters

    def surrogate_inputs_batch(self, batch: PackedBlockBatch) -> Tuple[Tensor, Tensor]:
        """Batch-major inputs: gathered ``(B, I, D)`` rows plus ``(B, G)`` globals.

        The absolute value enforces the lower bound as in the paper; the upper
        clamp at 1 (the top of the normalized sampling range) keeps the inputs
        inside the region the surrogate was trained on — the paper's Section
        VII notes that the surrogate cannot be trusted to extrapolate outside
        its sampling distribution, and at this reproduction's scale the
        optimizer readily wanders there without the clamp.

        ``gather`` scatter-adds gradients, so every occurrence of an opcode —
        across instructions and across blocks of the minibatch — accumulates
        into the same trainable row.  Padded instruction slots gather row 0,
        but the surrogate's masked reductions route zero gradient to them.
        """
        rows = gather(self.per_instruction, batch.opcode_indices).abs().clamp(0.0, 1.0)
        global_vector = self.global_values.abs().clamp(0.0, 1.0)
        global_matrix = global_vector.reshape(1, global_vector.size).broadcast_to(
            (batch.batch_size, global_vector.size))
        return rows, global_matrix

    def to_parameter_arrays(self) -> ParameterArrays:
        """Convert back to simulator units: clamp(|x|, 0, 1) * scale + lower_bound."""
        spec = self.spec
        per_instruction = (np.clip(np.abs(self.per_instruction.data), 0.0, 1.0)
                           * spec.per_instruction_scales()
                           + spec.per_instruction_lower_bounds())
        global_values = (np.clip(np.abs(self.global_values.data), 0.0, 1.0)
                         * spec.global_scales()
                         + spec.global_lower_bounds())
        return ParameterArrays(global_values=global_values,
                               per_instruction_values=per_instruction)


def optimize_parameter_table(surrogate: _SurrogateBase,
                             blocks: Sequence[BasicBlock],
                             true_timings: np.ndarray,
                             config: TableOptimizationConfig,
                             initial_arrays: Optional[ParameterArrays] = None,
                             progress: Optional[Callable[[int, int, float], None]] = None,
                             frozen_per_instruction_mask: Optional[np.ndarray] = None,
                             frozen_global_mask: Optional[np.ndarray] = None
                             ) -> TableOptimizationResult:
    """Optimize the simulator's parameter table through the frozen surrogate.

    Args:
        surrogate: A trained surrogate; its weights are *not* updated.
        blocks: Ground-truth training blocks.
        true_timings: Measured timings aligned with ``blocks``.
        config: Optimization hyper-parameters.
        initial_arrays: Starting point; defaults to a random sample from the
            parameter sampling distribution, as in the paper.
        progress: Optional callback ``(epoch, batch, loss)``.
        frozen_per_instruction_mask: Optional boolean mask over per-instruction
            parameter dimensions; ``True`` dimensions are held at their initial
            values.  Used when only a subset of fields is learned (e.g. the
            WriteLatency-only experiment), so the optimizer cannot "spend" its
            loss reduction on fields the extracted table will not use.
        frozen_global_mask: Same, for the global parameter vector.
    """
    if len(blocks) != len(true_timings):
        raise ValueError("blocks and true_timings must be aligned")
    if len(blocks) == 0:
        raise ValueError("cannot optimize the table against an empty dataset")
    spec = surrogate.spec
    rng = np.random.default_rng(config.seed)
    if initial_arrays is None:
        initial_arrays = spec.sample(rng)
    table = _TrainableTable(spec, initial_arrays)
    optimizer = Adam(table.parameters(), lr=config.learning_rate)
    frozen_per_instruction_values = table.per_instruction.data.copy()
    frozen_global_values = table.global_values.data.copy()

    def restore_frozen() -> None:
        if frozen_per_instruction_mask is not None:
            table.per_instruction.data[:, frozen_per_instruction_mask] = \
                frozen_per_instruction_values[:, frozen_per_instruction_mask]
        if frozen_global_mask is not None and table.global_values.size > 0:
            table.global_values.data[frozen_global_mask] = \
                frozen_global_values[frozen_global_mask]

    surrogate.eval()
    targets = np.asarray(true_timings, dtype=np.float64)
    # Resolve every block's packed arrays once for the whole run.
    cache = FeaturizationCache(surrogate.featurizer)
    block_arrays = cache.resolve([cache.featurize(block) for block in blocks])

    def _batched_loss(batch_indices: np.ndarray):
        rows = [int(index) for index in batch_indices]
        packed = cache.pack([block_arrays[row] for row in rows])
        per_instruction, global_matrix = table.surrogate_inputs_batch(packed)
        predictions = surrogate.forward_batch(packed, per_instruction, global_matrix)
        return surrogate_loss(predictions, [float(targets[row]) for row in rows])

    loop = run_minibatch_loop(
        len(blocks), _batched_loss, optimizer, rng,
        batch_size=config.batch_size, epochs=config.epochs,
        shuffle=config.shuffle, gradient_clip=config.gradient_clip,
        log_every=config.log_every, post_step=restore_frozen, progress=progress)

    return TableOptimizationResult(learned_arrays=table.to_parameter_arrays(),
                                   epoch_losses=loop.epoch_losses,
                                   initial_arrays=initial_arrays,
                                   examples_per_second=loop.examples_per_second)
