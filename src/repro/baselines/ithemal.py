"""Ithemal-style learned throughput baseline.

In Table IV the paper reports Ithemal (Mendis et al., 2019) as the most
accurate predictor: a learned model trained directly on the ground-truth
measurements, with no simulator in the loop.  It serves as the accuracy
lower bound that the parameterized simulators are compared against.

The baseline here reuses the repository's surrogate architectures with the
parameter inputs removed (an all-zero parameter vector is fed instead), and
trains them directly on the measured timings — which is exactly what Ithemal
is: a block → timing regressor.  It trains through
:func:`~repro.core.surrogate_training.train_surrogate` on a one-table
:class:`~repro.core.simulated_dataset.SimulatedDataset` (the all-zero table,
example *i* = block *i*, target = measured timing), and predicts through the
same chunked predictor as
:func:`~repro.core.surrogate_training.evaluate_surrogate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.losses import mape_loss_value
from repro.core.parameters import ParameterField, ParameterSpec, TableStack
from repro.core.simulated_dataset import SimulatedDataset
from repro.core.surrogate import BlockFeaturizer, SurrogateConfig, build_surrogate
from repro.core.surrogate_training import (SurrogateTrainingConfig, predict_examples,
                                           train_surrogate)
from repro.isa.basic_block import BasicBlock
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable


#: Adam learning rate and minibatch size of :meth:`IthemalBaseline.fit`.
LEARNING_RATE = 0.002
BATCH_SIZE = 16


@dataclass
class IthemalConfig:
    """Training configuration for the Ithemal baseline."""

    epochs: int = 6
    seed: int = 0


class IthemalBaseline:
    """A learned basic-block timing predictor trained on measurements."""

    def __init__(self, opcode_table: Optional[OpcodeTable] = None,
                 config: Optional[IthemalConfig] = None) -> None:
        self.opcode_table = opcode_table or DEFAULT_OPCODE_TABLE
        self.config = config or IthemalConfig()
        # A dummy one-dimensional parameter space: the model architecture
        # expects parameter inputs, which the baseline zeroes out.
        self._spec = ParameterSpec(
            global_fields=[],
            per_instruction_fields=[ParameterField("Unused", 1, 0, True, 0, 1)],
            num_opcodes=len(self.opcode_table))
        self.featurizer = BlockFeaturizer(self.opcode_table)
        self.model = build_surrogate(self._spec, self.featurizer, SurrogateConfig(
            kind="pooled", embedding_size=24, hidden_size=48, num_lstm_layers=2))
        self._zero_table = TableStack(
            global_values=np.zeros((1, self._spec.global_dim)),
            per_instruction_values=np.zeros((1, self._spec.num_opcodes,
                                             self._spec.per_instruction_dim)))

    # ------------------------------------------------------------------
    # Training and prediction
    # ------------------------------------------------------------------
    def _dataset(self, blocks: Sequence[BasicBlock],
                 timings: Sequence[float]) -> SimulatedDataset:
        """Example ``i``: block ``i`` under the all-zero table, timed ``timings[i]``."""
        return SimulatedDataset(list(blocks), self._zero_table, [0] * len(blocks),
                                list(range(len(blocks))),
                                [float(timing) for timing in timings])

    def fit(self, blocks: Sequence[BasicBlock], timings: np.ndarray) -> List[float]:
        """Train on measured timings; returns per-epoch mean losses."""
        if len(blocks) != len(timings):
            raise ValueError("blocks and timings must be aligned")
        result = train_surrogate(self.model, self._dataset(blocks, timings),
                                 SurrogateTrainingConfig(
                                     learning_rate=LEARNING_RATE,
                                     batch_size=BATCH_SIZE,
                                     epochs=self.config.epochs,
                                     seed=self.config.seed))
        return result.epoch_losses

    def predict_many(self, blocks: Sequence[BasicBlock]) -> np.ndarray:
        dataset = self._dataset(blocks, np.zeros(len(blocks)))
        return predict_examples(self.model, dataset, self.featurizer.lookup(dataset.blocks))

    def evaluate(self, blocks: Sequence[BasicBlock], timings: np.ndarray) -> float:
        """MAPE against measured timings."""
        return mape_loss_value(self.predict_many(blocks), np.asarray(timings, dtype=np.float64))
