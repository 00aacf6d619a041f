"""Loss functions used by the two DiffTune optimization phases.

Both phases optimize the mean absolute percentage error (MAPE), matching the
error definition of Section V-A.  During surrogate training the target is the
*simulated* timing; during parameter-table training the target is the
*measured* (ground-truth) timing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autodiff.tensor import Tensor


def mape_loss_value(predictions: np.ndarray, targets: np.ndarray,
                    epsilon: float = 1e-9) -> float:
    """Plain NumPy MAPE (for evaluation, not differentiation)."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return float(np.mean(np.abs(predictions - targets) / np.maximum(np.abs(targets), epsilon)))


def surrogate_loss(predictions: Tensor, targets: Sequence[float],
                   epsilon: float = 1e-6) -> Tensor:
    """Differentiable MAPE over one minibatch of predictions.

    ``predictions`` is the ``(B,)`` tensor a surrogate's ``forward_batch``
    returns; both DiffTune phases and the Ithemal baseline hand the whole
    minibatch over at once.
    """
    if not isinstance(predictions, Tensor) or predictions.ndim != 1:
        raise ValueError(
            f"surrogate loss expects a 1-D prediction tensor, got "
            f"{getattr(predictions, 'shape', type(predictions).__name__)}")
    if len(predictions) == 0:
        raise ValueError("cannot compute a loss over an empty batch")
    if len(predictions) != len(targets):
        raise ValueError("predictions and targets must have the same length")
    target_array = np.maximum(np.abs(np.asarray(targets, dtype=np.float64)), epsilon)
    diff = (predictions - Tensor(target_array)).abs()
    return (diff / Tensor(target_array)).mean()
