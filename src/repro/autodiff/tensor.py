"""A reverse-mode automatic differentiation tensor.

The :class:`Tensor` class wraps a NumPy array and records the computation
graph of operations applied to it.  Calling :meth:`Tensor.backward` on a
scalar result propagates gradients back to every tensor in the graph that has
``requires_grad=True``.

The design mirrors PyTorch's eager autograd at a much smaller scale:

* every operation creates a new ``Tensor`` whose ``_backward`` closure knows
  how to push its output gradient onto its parents;
* ``backward`` performs a topological sort of the graph and applies the
  closures in reverse order;
* gradients accumulate into ``Tensor.grad`` (a plain NumPy array).

Broadcasting is supported for element-wise operations; gradients of broadcast
operands are reduced back to the operand's original shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used for evaluation passes (e.g. computing validation error of the
    surrogate) where building the graph would only waste memory.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _is_basic_index(index) -> bool:
    """Whether ``index`` uses only ints, slices, ``...`` and ``None``."""
    entries = index if isinstance(index, tuple) else (index,)
    return all(entry is None or entry is Ellipsis
               or isinstance(entry, (int, np.integer, slice))
               for entry in entries)


def _matmul_left_grad(grad: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``a``."""
    if b.ndim == 1 and a.ndim == 1:
        return grad * b
    if b.ndim == 1:
        return np.outer(grad, b) if a.ndim == 2 else grad[..., None] * b
    if grad.ndim == 1:
        return (grad[None, :] @ b.swapaxes(-1, -2)).reshape(a.shape)
    return _unbroadcast(grad @ b.swapaxes(-1, -2), a.shape)


def _matmul_right_grad(grad: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``b``."""
    if a.ndim == 1 and b.ndim == 1:
        return grad * a
    if a.ndim == 1:
        return np.outer(a, grad)
    if grad.ndim == 1:
        return (a.swapaxes(-1, -2) @ grad[:, None]).reshape(b.shape)
    return _unbroadcast(a.swapaxes(-1, -2) @ grad, b.shape)


class Tensor:
    """An n-dimensional array that supports reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents if is_grad_enabled() else ()
        self._backward = _backward if is_grad_enabled() else None
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        # Every op's result comes through here, so it sets the slots
        # directly rather than through ``__init__``.
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data, dtype=np.float64)
        out.grad = None
        out.name = ""
        if _GRAD_ENABLED and any(parent.requires_grad for parent in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad or p._parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Args:
            grad: The gradient of some scalar loss with respect to this
                tensor.  Defaults to ``1.0`` which requires this tensor to be
                a scalar.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad), dtype=np.float64)

        order: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)

        # Seed the output gradient.  Even if this tensor does not itself
        # require grad, its backward closure still needs the seed to push
        # gradients onto its ancestors.
        seeded_temporarily = False
        if self.requires_grad:
            self._accumulate(grad)
        else:
            self.grad = grad
            seeded_temporarily = True

        for node in reversed(order):
            if node._backward is None:
                continue
            node_grad = node.grad
            if node_grad is None:
                continue
            node._backward(node_grad)

        if seeded_temporarily:
            self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic operations
    # ------------------------------------------------------------------
    def _binary(
        self,
        other: ArrayLike,
        forward: Callable[[np.ndarray, np.ndarray], np.ndarray],
        backward_self: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        backward_other: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = forward(self.data, other_t.data)

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(backward_self(grad, self.data, other_t.data))
            if other_t.requires_grad:
                other_t._accumulate(backward_other(grad, self.data, other_t.data))

        return Tensor._make(data, (self, other_t), _backward)

    def __add__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a + b,
            lambda g, a, b: g,
            lambda g, a, b: g,
        )

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a - b,
            lambda g, a, b: g,
            lambda g, a, b: -g,
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a * b,
            lambda g, a, b: g * b,
            lambda g, a, b: g * a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return self._binary(
            other,
            lambda a, b: a / b,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data ** exponent

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(data, (self,), _backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_matmul_left_grad(grad, self.data, other_t.data))
            if other_t.requires_grad:
                other_t._accumulate(_matmul_right_grad(grad, self.data, other_t.data))

        return Tensor._make(data, (self, other_t), _backward)

    # ------------------------------------------------------------------
    # Element-wise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), _backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), _backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data * data))

        return Tensor._make(data, (self,), _backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), _backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), _backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(data, (self,), _backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(data, 1e-12))

        return Tensor._make(data, (self,), _backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        """Differentiable lower clamp (gradient passes where data > minimum)."""
        mask = self.data > minimum
        data = np.maximum(self.data, minimum)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), _backward)

    def clamp(self, minimum: float, maximum: float) -> "Tensor":
        """Differentiable two-sided clamp (gradient passes inside the range)."""
        if minimum > maximum:
            raise ValueError("clamp requires minimum <= maximum")
        mask = (self.data > minimum) & (self.data < maximum)
        data = np.clip(self.data, minimum, maximum)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), _backward)

    def softplus(self) -> "Tensor":
        data = np.logaddexp(0.0, self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (1.0 + np.exp(-self.data)))

        return Tensor._make(data, (self,), _backward)

    # ------------------------------------------------------------------
    # Reductions and shape manipulation
    # ------------------------------------------------------------------
    def sum(self, axis: Union[int, Tuple[int, ...], None] = None,
            keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def _backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(g, self.data.shape)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                expanded = np.broadcast_to(g, self.data.shape)
            self._accumulate(expanded)

        return Tensor._make(data, (self,), _backward)

    def mean(self, axis: Union[int, Tuple[int, ...], None] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[entry] for entry in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        """Broadcast to ``shape``; gradients are summed back over the new dims."""
        data = np.broadcast_to(self.data, shape)

        def _backward(grad: np.ndarray) -> None:
            # _accumulate's _unbroadcast reduces the gradient back to our shape.
            self._accumulate(np.asarray(grad))

        return Tensor._make(np.array(data), (self,), _backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return Tensor._make(data, (self,), _backward)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        data = np.transpose(self.data, axes)

        def _backward(grad: np.ndarray) -> None:
            if axes is None:
                self._accumulate(np.transpose(grad))
            else:
                inverse = np.argsort(axes)
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(data, (self,), _backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def _backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if _is_basic_index(index):
                # Ints and slices select each element at most once, so a
                # plain in-place add equals the scatter-add.
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), _backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return NumPy arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise maximum with gradient routed to the larger operand.

    Ties send the gradient to the first operand, matching NumPy's behaviour
    for ``np.maximum`` subgradients.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.maximum(a.data, b.data)
    a_wins = a.data >= b.data

    def _backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if a.requires_grad:
            a._accumulate(grad * a_wins)
        if b.requires_grad:
            b._accumulate(grad * (~a_wins))

    return Tensor._make(data, (a, b), _backward)


def linear(x: ArrayLike, weight: Tensor, bias: Optional[Tensor] = None,
           relu: bool = False) -> Tensor:
    """``x @ weight + bias``, then ReLU when ``relu``, as one tape node.

    The forward runs the NumPy ops of the ``matmul``/``+``/``relu``
    composition in the same order, and the backward routes the gradient
    back through them, so values and gradients equal the composition's
    bit for bit.  ``x`` may be a single ``(F,)`` row or any batch of rows.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    data = x.data @ weight.data
    if bias is not None:
        data = data + bias.data
    active = None
    if relu:
        active = data > 0
        data = data * active
    parents = (x, weight) if bias is None else (x, weight, bias)

    def _backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if active is not None:
            grad = grad * active
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad)
        if x.requires_grad:
            x._accumulate(_matmul_left_grad(grad, x.data, weight.data))
        if weight.requires_grad:
            weight._accumulate(_matmul_right_grad(grad, x.data, weight.data))

    return Tensor._make(data, parents, _backward)


def masked_longest_path(weights: Tensor, dependency_mask, sink_mask) -> Tensor:
    """Per-row longest weighted path through a dependency DAG: ``(B, N) -> (B,)``.

    ``dependency_mask[b, i, p]`` is nonzero when node ``p < i`` feeds node
    ``i`` and ``sink_mask[b, i]`` when a path may end at node ``i``.  Node
    ``i`` finishes at ``max(0, finish[p] over its producers) + weights[b, i]``
    and the result is ``max(0, finish[s] over the sinks)``: the same values
    as a left fold of :func:`maximum` from zero over each node's producers
    and then over the sinks, recorded as one tape node instead of one per
    (node, producer) pair.

    Ties follow that fold: a candidate takes over only when strictly
    greater, so the zero start wins a tie and the earliest of equal
    candidates wins.  The backward routes each row's gradient along its
    winners in reverse node order.
    """
    weights = weights if isinstance(weights, Tensor) else Tensor(weights)
    dependency = np.asarray(dependency_mask) != 0
    sinks = np.asarray(sink_mask) != 0
    batch, nodes = weights.data.shape
    rows = np.arange(batch)
    # Without a gradient to route (surrogate training feeds constant
    # parameters), the winners are not recorded.
    track = weights.requires_grad and is_grad_enabled()

    def strongest(candidates: np.ndarray, allowed: np.ndarray
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-row max over ``allowed`` candidates, floored at zero, and the
        winner's column (-1 where the zero start wins; ``None`` untracked)."""
        masked = np.where(allowed, candidates, -np.inf)
        if not track:
            value = masked.max(axis=1)
            return np.where(value > 0.0, value, 0.0), None
        best = masked.argmax(axis=1)
        value = masked[rows, best]
        wins = value > 0.0
        return np.where(wins, value, 0.0), np.where(wins, best, -1)

    finish = np.zeros((batch, nodes))
    winners = np.full((batch, nodes), -1, dtype=np.int64) if track else None
    for node in range(nodes):
        producers = dependency[:, node, :node]
        ready = 0.0
        if producers.any():
            ready, winner = strongest(finish[:, :node], producers)
            if track:
                winners[:, node] = winner
        finish[:, node] = ready + weights.data[:, node]
    data, sink_winners = strongest(finish, sinks)

    def _backward(grad: np.ndarray) -> None:
        routed = np.zeros((batch, nodes))
        won = sink_winners >= 0
        routed[rows[won], sink_winners[won]] += np.asarray(grad)[won]
        for node in range(nodes - 1, 0, -1):
            producer = winners[:, node]
            fed = producer >= 0
            if fed.any():
                routed[rows[fed], producer[fed]] += routed[fed, node]
        weights._accumulate(routed)

    return Tensor._make(data, (weights,), _backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, end)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tuple(tensors), _backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def _backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for index, tensor in enumerate(tensors):
            if not tensor.requires_grad:
                continue
            tensor._accumulate(np.take(grad, index, axis=axis))

    return Tensor._make(data, tuple(tensors), _backward)


def gather(source: Tensor, indices, axis: int = 0) -> Tensor:
    """Index ``source`` along ``axis`` with an integer array, scatter-adding grads.

    The batched analogue of ``source[indices]``: ``indices`` may have any
    shape, and the result replaces ``axis`` with the index shape (NumPy
    ``take`` semantics).  Repeated indices accumulate gradient into the same
    source row, which is what embedding lookups over whole minibatches need.
    """
    source = source if isinstance(source, Tensor) else Tensor(source)
    idx = np.asarray(indices, dtype=np.int64)
    axis_norm = axis % max(source.data.ndim, 1)
    data = np.take(source.data, idx, axis=axis_norm)

    def _backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        # The result axes [axis, axis + idx.ndim) index into `axis` of the
        # source; move them (and the source axis) to the front, so every
        # gathered row is a (row, column) block of one flat bin array.
        moved_shape = np.moveaxis(source.data, axis_norm, 0).shape
        num_rows = moved_shape[0]
        width = int(np.prod(moved_shape[1:], dtype=np.int64))
        moved_grad = np.moveaxis(grad,
                                 tuple(range(axis_norm, axis_norm + idx.ndim)),
                                 tuple(range(idx.ndim)))
        flat_idx = idx.reshape(-1)
        flat_idx = np.where(flat_idx < 0, flat_idx + num_rows, flat_idx)
        bins = (flat_idx[:, None] * width + np.arange(width)).reshape(-1)
        # bincount adds each bin's weights in input order, exactly as
        # np.add.at would, so repeated indices accumulate bit-identically.
        summed = np.bincount(bins, weights=moved_grad.reshape(-1),
                             minlength=num_rows * width)
        source._accumulate(np.moveaxis(summed.reshape(moved_shape), 0, axis_norm))

    return Tensor._make(data, (source,), _backward)


def masked_sum(x: Tensor, mask, axis: Union[int, Tuple[int, ...], None] = None,
               keepdims: bool = False) -> Tensor:
    """Sum of ``x * mask`` over ``axis``; gradients flow only where mask != 0.

    ``mask`` is a constant (NumPy) array broadcastable against ``x`` — the
    padding masks of ragged minibatches.  A single fused primitive avoids
    materializing the masked intermediate in the autodiff graph.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    mask_array = np.asarray(mask, dtype=np.float64)
    data = (x.data * mask_array).sum(axis=axis, keepdims=keepdims)

    def _backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, np.broadcast(x.data, mask_array).shape)
                      * mask_array)

    return Tensor._make(data, (x,), _backward)


def masked_mean(x: Tensor, mask, axis: Union[int, Tuple[int, ...], None] = None,
                keepdims: bool = False, minimum_count: float = 1.0) -> Tensor:
    """Mean of the unmasked entries of ``x`` over ``axis``.

    Divides each output element by the number of mask-selected inputs that
    contributed to it (clamped to ``minimum_count`` so fully masked slots —
    padded instructions past a block's real length — yield 0, not NaN).  The
    division is implemented as multiplication by a reciprocal so values match
    :meth:`Tensor.mean` bit patterns on fully unmasked inputs.  ``mask``
    holds 0/1 selectors (padding masks).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    mask_array = np.asarray(mask, dtype=np.float64)
    # One mask axis per axis of ``x``, so ``axis`` indexes both.
    mask_array = mask_array.reshape((1,) * (x.data.ndim - mask_array.ndim)
                                    + mask_array.shape)
    full_shape = np.broadcast_shapes(x.data.shape, mask_array.shape)
    # Counted on the mask itself, times the size of each reduced axis it
    # is broadcast along: exact for 0/1 masks, so the same counts as
    # reducing the mask broadcast to the full shape, without building it.
    reduced = (range(len(full_shape)) if axis is None
               else np.atleast_1d(axis) % len(full_shape))
    repeats = int(np.prod([full_shape[entry] for entry in reduced
                           if mask_array.shape[entry] == 1]))
    counts = mask_array.sum(axis=axis, keepdims=keepdims) * repeats
    inverse = 1.0 / np.maximum(counts, minimum_count)
    data = (x.data * mask_array).sum(axis=axis, keepdims=keepdims) * inverse

    def _backward(grad: np.ndarray) -> None:
        g = np.asarray(grad) * inverse
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, full_shape) * mask_array)

    return Tensor._make(data, (x,), _backward)


def gather_masked_mean(source: Tensor, indices, mask) -> Tensor:
    """Mean of the gathered rows ``source[indices]`` over the last index axis.

    ``source`` is ``(num_rows, width)``, ``indices`` is ``(..., T)`` and
    ``mask`` (same shape) is 1 on the entries that count and 0 on padding:
    the result is ``(..., width)``, the values of
    ``masked_mean(gather(source, indices), mask[..., None], axis=-2)``
    recorded as one tape node (an embedding bag).  The forward runs the
    same NumPy ops; the backward scatters with the same ``np.bincount``
    but only the selected entries.  A padding entry would add ``0.0`` to
    its bin, which leaves every bin's sum unchanged, so the gradients
    equal the composition's bit for bit.
    """
    source = source if isinstance(source, Tensor) else Tensor(source)
    idx = np.asarray(indices, dtype=np.int64)
    mask_array = np.asarray(mask, dtype=np.float64)[..., None]
    inverse = 1.0 / np.maximum(mask_array.sum(axis=-2), 1.0)
    data = (np.take(source.data, idx, axis=0) * mask_array).sum(axis=-2) * inverse

    def _backward(grad: np.ndarray) -> None:
        num_rows, width = source.data.shape
        selected = np.flatnonzero(mask_array)
        # Each selected entry's gradient is its output row's, times 1.
        weights = np.take((np.asarray(grad) * inverse).reshape(-1, width),
                          selected // idx.shape[-1], axis=0)
        rows = np.take(idx, selected)
        rows = np.where(rows < 0, rows + num_rows, rows)
        bins = np.add.outer(rows * width, np.arange(width)).reshape(-1)
        summed = np.bincount(bins, weights=weights.reshape(-1),
                             minlength=num_rows * width)
        source._accumulate(summed.reshape(num_rows, width))

    return Tensor._make(data, (source,), _backward)
