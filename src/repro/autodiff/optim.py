"""Stochastic first-order optimizers for autodiff parameters.

DiffTune trains both the surrogate weights and the simulator parameter table
with Adam (Kingma & Ba, 2015).  SGD with optional momentum is also provided;
the tests train with it.  Optimizer state is not persisted: a resumed
pipeline stage starts with a fresh optimizer.

An optimizer owns its parameters' storage: one contiguous ``float64``
buffer, of which every parameter's ``.data`` is a reshaped view.  Each step
lands the gradients in one flat array and updates the buffer in place with
preallocated scratch, so a step costs the same dozen array ops whatever the
number of parameter tensors.  The elementwise expressions are the
per-tensor ones, in the same order, so the updated values equal stepping
each tensor on its own bit for bit.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.autodiff.tensor import Tensor


class Optimizer:
    """Base optimizer over a list of tensors with ``requires_grad=True``.

    The constructor moves every parameter's values into the optimizer's
    flat buffer and rebinds ``.data`` to a view of it.  Writing into
    ``.data`` in place (``Module.load_state_dict``, frozen-dimension
    restores) updates the buffer directly; a ``.data`` rebound to a new
    array is copied back into the buffer (and rebound to its view) at the
    next :meth:`clip_grad_norm` or :meth:`step`.
    """

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer requires at least one parameter")
        for parameter in self.parameters:
            if not isinstance(parameter, Tensor):
                raise TypeError("optimizer parameters must be Tensors")
        if len({id(parameter) for parameter in self.parameters}) != len(self.parameters):
            raise ValueError("optimizer parameters must be distinct tensors")
        bounds = np.cumsum([0] + [parameter.data.size for parameter in self.parameters])
        self._slices = [slice(int(start), int(end))
                        for start, end in zip(bounds[:-1], bounds[1:])]
        self._everything = [slice(0, int(bounds[-1]))]
        self._flat = np.empty(int(bounds[-1]))
        self._flat_grad = np.zeros(int(bounds[-1]))
        self._scratch = (np.empty(int(bounds[-1])), np.empty(int(bounds[-1])))
        self._views: List[np.ndarray] = []
        self._grad_views: List[np.ndarray] = []
        for parameter, segment in zip(self.parameters, self._slices):
            shape = parameter.data.shape
            view = self._flat[segment].reshape(shape)
            view[...] = parameter.data
            parameter.data = view
            self._views.append(view)
            self._grad_views.append(self._flat_grad[segment].reshape(shape))

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _rehome(self) -> None:
        """Copy any rebound ``.data`` into the buffer and view it again."""
        for index, (parameter, view) in enumerate(zip(self.parameters, self._views)):
            if parameter.data is view:
                continue
            data = np.asarray(parameter.data, dtype=np.float64)
            if data.shape != view.shape:
                name = parameter.name or f"#{index}"
                raise ValueError(
                    f"parameter {name} was rebound to shape {data.shape}; "
                    f"the optimizer holds shape {view.shape}")
            view[...] = data
            parameter.data = view

    def _gather(self) -> List[slice]:
        """Land the gradients in the flat gradient buffer.

        Every ``.grad`` becomes a view of the buffer.  Returns the buffer
        slices of the parameters that have a gradient, adjacent ones merged:
        a parameter whose ``grad`` is ``None`` is skipped by the update, so
        its values and optimizer state stay untouched.
        """
        self._rehome()
        grads = [parameter.grad for parameter in self.parameters]
        if all(grad is not None for grad in grads):
            if any(grad is not view for grad, view in zip(grads, self._grad_views)):
                np.concatenate([np.ravel(grad) for grad in grads], out=self._flat_grad)
                for parameter, view in zip(self.parameters, self._grad_views):
                    parameter.grad = view
            return self._everything
        segments: List[slice] = []
        for parameter, grad, view, segment in zip(self.parameters, grads,
                                                  self._grad_views, self._slices):
            if grad is None:
                continue
            if grad is not view:
                view[...] = grad
                parameter.grad = view
            if segments and segments[-1].stop == segment.start:
                segments[-1] = slice(segments[-1].start, segment.stop)
            else:
                segments.append(segment)
        return segments

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; return the pre-clip norm.

        The squared norm adds each parameter's ``sum(grad ** 2)`` in
        parameter order, as a per-tensor loop would.
        """
        segments = self._gather()
        squares = np.square(self._flat_grad, out=self._scratch[0])
        total = 0.0
        for parameter, segment in zip(self.parameters, self._slices):
            if parameter.grad is not None:
                total += float(squares[segment].sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for segment in segments:
                grad = self._flat_grad[segment]
                np.multiply(grad, scale, out=grad)
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
        self._velocity = np.zeros_like(self._flat) if momentum else None

    def step(self) -> None:
        for segment in self._gather():
            data = self._flat[segment]
            grad = self._flat_grad[segment]
            decayed, update = (scratch[segment] for scratch in self._scratch)
            if self.weight_decay:
                # grad + weight_decay * data
                np.multiply(data, self.weight_decay, out=decayed)
                grad = np.add(grad, decayed, out=decayed)
            if self.momentum:
                # velocity = momentum * velocity + grad
                velocity = self._velocity[segment]
                np.multiply(velocity, self.momentum, out=velocity)
                grad = np.add(velocity, grad, out=velocity)
            # data - lr * update
            np.multiply(grad, self.lr, out=update)
            np.subtract(data, update, out=data)


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
        self._first_moment = np.zeros_like(self._flat)
        self._second_moment = np.zeros_like(self._flat)

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for segment in self._gather():
            data = self._flat[segment]
            grad = self._flat_grad[segment]
            first = self._first_moment[segment]
            second = self._second_moment[segment]
            work, denominator = (scratch[segment] for scratch in self._scratch)
            if self.weight_decay:
                # grad + weight_decay * data
                np.multiply(data, self.weight_decay, out=work)
                grad = np.add(grad, work, out=work)
            # first = beta1 * first + (1 - beta1) * grad
            np.multiply(first, self.beta1, out=first)
            np.multiply(grad, 1.0 - self.beta1, out=denominator)
            np.add(first, denominator, out=first)
            # second = beta2 * second + (1 - beta2) * grad * grad
            np.multiply(second, self.beta2, out=second)
            np.multiply(grad, 1.0 - self.beta2, out=denominator)
            np.multiply(denominator, grad, out=denominator)
            np.add(second, denominator, out=second)
            # data - lr * (first / bias1) / (sqrt(second / bias2) + eps)
            np.divide(second, bias2, out=denominator)
            np.sqrt(denominator, out=denominator)
            np.add(denominator, self.eps, out=denominator)
            np.divide(first, bias1, out=work)
            np.multiply(work, self.lr, out=work)
            np.divide(work, denominator, out=work)
            np.subtract(data, work, out=data)
