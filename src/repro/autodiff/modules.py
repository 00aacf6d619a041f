"""Neural-network modules built on the autodiff tensor.

The module hierarchy mirrors the pieces the DiffTune surrogate needs:

* :class:`Linear` — fully connected layer.
* :class:`Embedding` — token-id → vector lookup table.
* :class:`LSTMCell` / :class:`LSTM` / :class:`StackedLSTM` — recurrent layers
  used for the per-instruction and per-block sequence models.
* :class:`MLP`, :class:`Sequential`, :class:`ReLU` — glue for the
  prediction heads.

All modules expose ``parameters()`` / ``named_parameters()`` /
``state_dict()`` / ``load_state_dict()`` so that optimizers, checkpoints and
bundles can treat them uniformly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import init
from repro.autodiff.tensor import Tensor, gather


class Parameter(Tensor):
    """A tensor that is registered as a learnable module parameter."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically by ``parameters()`` and
    ``state_dict()``.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield (prefix + name, parameter)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix + module_name + ".")

    def parameters(self) -> List[Parameter]:
        return [parameter for _, parameter in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module."""
        return int(sum(parameter.size for parameter in self.parameters()))

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {parameter.data.shape}, got {value.shape}"
                )
            parameter.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.has_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.has_bias:
            out = out + self.bias
        return out


class Embedding(Module):
    """A lookup table mapping integer token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.uniform_embedding((num_embeddings, embedding_dim), rng),
                                name="weight")

    def forward(self, token_ids: Sequence[int]) -> Tensor:
        """Look up ``token_ids`` (any shape — scalars, sequences, or padded
        ``(B, I, T)`` id arrays); the result appends the embedding dim."""
        indices = np.asarray(token_ids, dtype=np.int64)
        if np.any(indices < 0) or np.any(indices >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): {indices.tolist()}"
            )
        return gather(self.weight, indices)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers."""

    def __init__(self, sizes: Sequence[int], rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP requires at least an input and an output size")
        rng = rng or np.random.default_rng(0)
        layers: List[Module] = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            if index < len(sizes) - 2:
                layers.append(ReLU())
        self.network = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)


class LSTMCell(Module):
    """A single LSTM cell following the standard gate formulation."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates are ordered: input, forget, cell, output.
        self.weight_input = Parameter(
            init.xavier_uniform((input_size, 4 * hidden_size), rng), name="weight_input")
        self.weight_hidden = Parameter(
            init.xavier_uniform((hidden_size, 4 * hidden_size), rng), name="weight_hidden")
        bias = np.zeros(4 * hidden_size)
        # Initialize forget-gate bias to 1, a standard trick for trainability.
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Parameter(bias, name="bias")

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        hidden, cell = state
        gates = x.matmul(self.weight_input) + hidden.matmul(self.weight_hidden) + self.bias
        h = self.hidden_size
        input_gate = gates[..., 0:h].sigmoid()
        forget_gate = gates[..., h:2 * h].sigmoid()
        cell_candidate = gates[..., 2 * h:3 * h].tanh()
        output_gate = gates[..., 3 * h:4 * h].sigmoid()
        new_cell = forget_gate * cell + input_gate * cell_candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell

    def initial_state(self, batch_shape: Tuple[int, ...] = ()) -> Tuple[Tensor, Tensor]:
        shape = tuple(batch_shape) + (self.hidden_size,)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


class LSTM(Module):
    """Process a sequence of vectors with a single-layer LSTM.

    The input is a sequence of tensors of shape ``(input_size,)`` (or
    ``(batch, input_size)``); the output is the final hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def forward(self, sequence: Sequence[Tensor],
                state: Optional[Tuple[Tensor, Tensor]] = None) -> Tensor:
        outputs = self.forward_all(sequence, state)
        return outputs[-1]

    def forward_all(self, sequence: Sequence[Tensor],
                    state: Optional[Tuple[Tensor, Tensor]] = None) -> List[Tensor]:
        """Return the hidden state after every element of the sequence."""
        if len(sequence) == 0:
            raise ValueError("LSTM.forward requires a non-empty sequence")
        first = sequence[0]
        batch_shape = first.shape[:-1]
        if state is None:
            state = self.cell.initial_state(batch_shape)
        hidden_states: List[Tensor] = []
        hidden, cell = state
        for element in sequence:
            hidden, cell = self.cell(element, (hidden, cell))
            hidden_states.append(hidden)
        return hidden_states

    def forward_batch(self, steps: Sequence[Tensor], mask: np.ndarray) -> Tensor:
        """Final hidden state of a padded minibatch: ``steps[t]`` is ``(B, D)``.

        ``mask`` has shape ``(T, B)`` with 1 where the step is real and 0 on
        padding.  Masked steps hold the previous state, so after the loop each
        row's hidden state equals its state after its own last real step —
        identical to running that example alone through :meth:`forward`.
        """
        return self.forward_all_batch(steps, mask)[-1]

    def forward_all_batch(self, steps: Sequence[Tensor],
                          mask: np.ndarray) -> List[Tensor]:
        """Per-step hidden states of a padded minibatch (masked state holds)."""
        if len(steps) == 0:
            raise ValueError("LSTM.forward_batch requires a non-empty sequence")
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape[0] != len(steps):
            raise ValueError(f"mask covers {mask.shape[0]} steps, got {len(steps)}")
        hidden, cell = self.cell.initial_state(steps[0].shape[:-1])
        hidden_states: List[Tensor] = []
        for index, element in enumerate(steps):
            step_mask = mask[index]
            new_hidden, new_cell = self.cell(element, (hidden, cell))
            if step_mask.all():
                hidden, cell = new_hidden, new_cell
            else:
                keep = step_mask[..., None]
                hidden = new_hidden * keep + hidden * (1.0 - keep)
                cell = new_cell * keep + cell * (1.0 - keep)
            hidden_states.append(hidden)
        return hidden_states


class StackedLSTM(Module):
    """A stack of LSTM layers, as used by the DiffTune surrogate.

    The paper replaces each of Ithemal's LSTMs with a stack of 4 LSTMs to give
    the surrogate enough capacity to model the dependence on the parameter
    table (Section IV).  The stack depth is configurable here.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 4,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("StackedLSTM requires at least one layer")
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self.input_size = input_size
        rng = rng or np.random.default_rng(0)
        self._layer_names: List[str] = []
        for index in range(num_layers):
            layer = LSTM(input_size if index == 0 else hidden_size, hidden_size, rng=rng)
            name = f"lstm{index}"
            setattr(self, name, layer)
            self._layer_names.append(name)

    def forward(self, sequence: Sequence[Tensor]) -> Tensor:
        outputs = self.forward_all(sequence)
        return outputs[-1]

    def forward_all(self, sequence: Sequence[Tensor]) -> List[Tensor]:
        """Return the top layer's hidden state after every sequence element."""
        current: List[Tensor] = list(sequence)
        for name in self._layer_names:
            layer: LSTM = getattr(self, name)
            current = layer.forward_all(current)
        return current

    def forward_batch(self, steps: Sequence[Tensor], mask: np.ndarray) -> Tensor:
        """Final top-layer hidden state over a padded minibatch (see LSTM).

        Masked steps hold every layer's state, so each lower layer feeds the
        next exactly the per-step hidden states the per-example path would
        produce; padding never leaks across layers.
        """
        current: List[Tensor] = list(steps)
        for name in self._layer_names:
            layer: LSTM = getattr(self, name)
            current = layer.forward_all_batch(current, mask)
        return current[-1]
