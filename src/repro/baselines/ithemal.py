"""Ithemal-style learned throughput baseline.

In Table IV the paper reports Ithemal (Mendis et al., 2019) as the most
accurate predictor: a learned model trained directly on the ground-truth
measurements, with no simulator in the loop.  It serves as the accuracy
lower bound that the parameterized simulators are compared against.

The baseline here reuses the repository's surrogate architectures with the
parameter inputs removed (an all-zero parameter vector is fed instead), and
trains them directly on the measured timings — which is exactly what Ithemal
is: a block → timing regressor.  It trains and predicts through the
surrogate's batched ``forward_batch`` on the same minibatch loop as both
DiffTune phases (:func:`~repro.core.training_loop.run_minibatch_loop`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import Tensor, no_grad
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.parameters import ParameterField, ParameterSpec
from repro.core.surrogate import BlockFeaturizer, SurrogateConfig, build_surrogate
from repro.core.training_loop import run_minibatch_loop
from repro.isa.basic_block import BasicBlock
from repro.isa.opcodes import DEFAULT_OPCODE_TABLE, OpcodeTable

#: Blocks per ``forward_batch`` call when predicting.
PREDICT_CHUNK = 64


@dataclass
class IthemalConfig:
    """Training configuration for the Ithemal baseline.

    ``gradient_clip <= 0`` disables clipping, as in both DiffTune phases.
    """

    surrogate: SurrogateConfig = field(default_factory=lambda: SurrogateConfig(
        kind="pooled", embedding_size=24, hidden_size=48, num_lstm_layers=2))
    learning_rate: float = 0.002
    batch_size: int = 16
    epochs: int = 6
    gradient_clip: float = 5.0
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
        self.model = build_surrogate(self._spec, self.featurizer, self.config.surrogate)

    # ------------------------------------------------------------------
    # Training and prediction
    # ------------------------------------------------------------------
    def _block_arrays(self, blocks: Sequence[BasicBlock]) -> List[Dict[str, np.ndarray]]:
        return [self.featurizer.arrays(block) for block in blocks]

    def _forward(self, block_arrays: Sequence[Dict[str, np.ndarray]]) -> Tensor:
        """Predictions for one minibatch, with all-zero parameter inputs."""
        packed = BlockFeaturizer.pack(block_arrays)
        per_instruction = np.zeros((packed.batch_size, packed.max_instructions,
                                    self._spec.per_instruction_dim))
        global_values = np.zeros((packed.batch_size, self._spec.global_dim))
        return self.model.forward_batch(packed, per_instruction, global_values)

    def fit(self, blocks: Sequence[BasicBlock], timings: np.ndarray) -> List[float]:
        """Train on measured timings; returns per-epoch mean losses."""
        if len(blocks) != len(timings):
            raise ValueError("blocks and timings must be aligned")
        timings = np.asarray(timings, dtype=np.float64)
        block_arrays = self._block_arrays(blocks)

        def batch_loss(batch_indices: np.ndarray) -> Tensor:
            rows = [int(index) for index in batch_indices]
            predictions = self._forward([block_arrays[row] for row in rows])
            return surrogate_loss(predictions, [float(timings[row]) for row in rows])

        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        self.model.train()
        loop = run_minibatch_loop(
            len(blocks), batch_loss, optimizer,
            np.random.default_rng(self.config.seed),
            batch_size=self.config.batch_size, epochs=self.config.epochs,
            gradient_clip=self.config.gradient_clip)
        self.model.eval()
        return loop.epoch_losses

    def predict_many(self, blocks: Sequence[BasicBlock]) -> np.ndarray:
        block_arrays = self._block_arrays(blocks)
        predictions = np.zeros(len(blocks), dtype=np.float64)
        with no_grad():
            for start in range(0, len(blocks), PREDICT_CHUNK):
                chunk = block_arrays[start:start + PREDICT_CHUNK]
                predictions[start:start + len(chunk)] = self._forward(chunk).numpy()
        return predictions

    def evaluate(self, blocks: Sequence[BasicBlock], timings: np.ndarray) -> float:
        """MAPE against measured timings."""
        return mape_loss_value(self.predict_many(blocks), np.asarray(timings, dtype=np.float64))
