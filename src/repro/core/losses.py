"""Loss functions used by the two DiffTune optimization phases.

Both phases optimize the mean absolute percentage error (MAPE), matching the
error definition of Section V-A.  During surrogate training the target is the
*simulated* timing; during parameter-table training the target is the
*measured* (ground-truth) timing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor, stack


def mape_loss_value(predictions: np.ndarray, targets: np.ndarray,
                    epsilon: float = 1e-9) -> float:
    """Plain NumPy MAPE (for evaluation, not differentiation)."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return float(np.mean(np.abs(predictions - targets) / np.maximum(np.abs(targets), epsilon)))


def surrogate_loss(predictions, targets: Sequence[float],
                   epsilon: float = 1e-6) -> Tensor:
    """Differentiable MAPE over a batch of predictions.

    ``predictions`` is either a sequence of scalar tensors (stacked first; the
    per-example Ithemal baseline passes these) or a single 1-D
    :class:`Tensor` of shape ``(B,)`` (both DiffTune phases hand the whole
    minibatch over at once).  Both routes compute the identical loss
    expression.
    """
    if isinstance(predictions, Tensor):
        if predictions.ndim != 1:
            raise ValueError(
                f"batched surrogate loss expects a 1-D prediction tensor, "
                f"got shape {predictions.shape}")
        prediction_vector = predictions
    else:
        if not predictions:
            raise ValueError("cannot compute a loss over an empty batch")
        prediction_vector = stack(list(predictions))
    if len(prediction_vector) != len(targets):
        raise ValueError("predictions and targets must have the same length")
    target_array = np.maximum(np.abs(np.asarray(targets, dtype=np.float64)), epsilon)
    diff = (prediction_vector - Tensor(target_array)).abs()
    return (diff / Tensor(target_array)).mean()
