"""Stochastic first-order optimizers for autodiff parameters.

DiffTune trains both the surrogate weights and the simulator parameter table
with Adam (Kingma & Ba, 2015).  SGD with optional momentum is also provided;
the tests train with it.  Optimizer state is not persisted: a resumed
pipeline stage starts with a fresh optimizer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.autodiff.tensor import Tensor


class Optimizer:
    """Base optimizer over a list of tensors with ``requires_grad=True``."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer requires at least one parameter")
        for parameter in self.parameters:
            if not isinstance(parameter, Tensor):
                raise TypeError("optimizer parameters must be Tensors")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; return the pre-clip norm."""
        total = 0.0
        for parameter in self.parameters:
            if parameter.grad is not None:
                total += float(np.sum(parameter.grad ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.grad = parameter.grad * scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self._velocity.get(id(parameter))
                if velocity is None:
                    velocity = np.zeros_like(parameter.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(parameter)] = velocity
                update = velocity
            else:
                update = grad
            parameter.data = parameter.data - self.lr * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015).

    Both the surrogate and the parameter table are trained with Adam in the
    paper (batch size 256, learning rates 0.001 and 0.05 respectively).
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.001,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            key = id(parameter)
            first = self._first_moment.get(key)
            second = self._second_moment.get(key)
            if first is None:
                first = np.zeros_like(parameter.data)
                second = np.zeros_like(parameter.data)
            first = self.beta1 * first + (1.0 - self.beta1) * grad
            second = self.beta2 * second + (1.0 - self.beta2) * grad * grad
            self._first_moment[key] = first
            self._second_moment[key] = second
            corrected_first = first / bias1
            corrected_second = second / bias2
            parameter.data = parameter.data - self.lr * corrected_first / (
                np.sqrt(corrected_second) + self.eps)
