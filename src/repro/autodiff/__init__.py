"""Reverse-mode automatic differentiation substrate.

This package replaces PyTorch in the DiffTune pipeline.  It provides a small
reverse-mode autodiff engine built on NumPy:

* :class:`~repro.autodiff.tensor.Tensor` — an n-dimensional array that records
  the operations applied to it and can back-propagate gradients; the module
  also holds the differentiable functions (concatenation, stacking, masked
  reductions, ``gather``) and the fused single-node ones (``linear``,
  ``gather_masked_mean``, ``masked_longest_path``).
* :mod:`~repro.autodiff.modules` — neural-network building blocks (Linear,
  Embedding, LSTM cells and stacks, MLPs) with a ``Module`` container that
  tracks parameters.
* :mod:`~repro.autodiff.optim` — stochastic first-order optimizers (SGD, Adam)
  that update one flat parameter buffer in place.
* :mod:`~repro.autodiff.gradcheck` — finite-difference gradient checks.
* :mod:`~repro.autodiff.serialization` — the ``.npz`` codec of a learned
  parameter table.

The engine is intentionally small: it implements exactly what the DiffTune
surrogates and the parameter-table optimization loop require, with shapes
and semantics chosen to mirror the corresponding PyTorch operations.
"""

from repro.autodiff.tensor import (Tensor, no_grad, is_grad_enabled, gather,
                                   masked_mean, masked_sum)
from repro.autodiff.modules import (
    Module,
    Parameter,
    Linear,
    Embedding,
    LSTMCell,
    LSTM,
    StackedLSTM,
    MLP,
    Sequential,
    ReLU,
)
from repro.autodiff.optim import Optimizer, SGD, Adam
from repro.autodiff.gradcheck import gradcheck, assert_gradients_close
from repro.autodiff import init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "gather",
    "masked_sum",
    "masked_mean",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LSTMCell",
    "LSTM",
    "StackedLSTM",
    "MLP",
    "Sequential",
    "ReLU",
    "Optimizer",
    "SGD",
    "Adam",
    "gradcheck",
    "assert_gradients_close",
    "init",
]
