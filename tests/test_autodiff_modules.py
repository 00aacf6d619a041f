"""Tests for neural-network modules and optimizers."""

import numpy as np
import pytest

from repro import storage
from repro.autodiff import (Adam, Embedding, LSTM, LSTMCell, Linear, MLP, Module,
                            SGD, Sequential, StackedLSTM, ReLU, Tensor, init)
from repro.autodiff.gradcheck import assert_gradients_close


class TestModuleBasics:
    def test_parameter_registration(self):
        class TwoLayer(Module):
            def __init__(self):
                super().__init__()
                self.first = Linear(3, 4)
                self.second = Linear(4, 2)

        model = TwoLayer()
        names = dict(model.named_parameters())
        assert "first.weight" in names
        assert "second.bias" in names
        assert len(model.parameters()) == 4

    def test_num_parameters(self):
        layer = Linear(3, 4)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad_clears_gradients(self):
        layer = Linear(2, 2)
        out = layer(Tensor(np.ones(2))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_train_eval_mode_propagates(self):
        model = Sequential(Linear(2, 2), ReLU())
        model.eval()
        assert not model.training
        for module in model._modules.values():
            assert not module.training

    def test_state_dict_roundtrip(self):
        source = Linear(3, 3)
        target = Linear(3, 3, rng=np.random.default_rng(99))
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(source.weight.data, target.weight.data)

    def test_load_state_dict_shape_mismatch(self):
        layer = Linear(3, 3)
        bad_state = {name: np.zeros((1, 1)) for name in layer.state_dict()}
        with pytest.raises(ValueError):
            layer.load_state_dict(bad_state)

    def test_load_state_dict_missing_key(self):
        layer = Linear(3, 3)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((3, 3))})

    def test_load_state_dict_unexpected_key(self):
        layer = Linear(3, 3)
        state = layer.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected=\\['extra'\\]"):
            layer.load_state_dict(state)

    def test_state_dict_is_a_copy(self):
        layer = Linear(2, 2)
        original = layer.weight.data.copy()
        state = layer.state_dict()
        state["weight"][:] = 42.0
        np.testing.assert_array_equal(layer.weight.data, original)
        layer.load_state_dict(state)
        state["weight"][:] = -1.0
        np.testing.assert_array_equal(layer.weight.data, np.full((2, 2), 42.0))

    def test_state_dict_survives_the_array_codec(self):
        """Bundles store module weights as ``state_dict`` through ``encode_arrays``."""
        source = StackedLSTM(3, 4, num_layers=2, rng=np.random.default_rng(1))
        target = StackedLSTM(3, 4, num_layers=2, rng=np.random.default_rng(2))
        payload = storage.encode_arrays(source.state_dict())
        target.load_state_dict(storage.decode_arrays(payload, "weights.npz"))
        sequence = [Tensor(np.random.default_rng(0).normal(size=3)) for _ in range(3)]
        np.testing.assert_array_equal(target(sequence).data, source(sequence).data)


class TestLayers:
    def test_linear_shape(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.ones((4, 5))))
        assert out.shape == (4, 3)

    def test_linear_no_bias(self):
        layer = Linear(5, 3, bias=False)
        assert len(layer.parameters()) == 1

    def test_embedding_lookup(self):
        embedding = Embedding(10, 4)
        out = embedding([1, 3, 3])
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[1], out.data[2])

    def test_embedding_out_of_range(self):
        embedding = Embedding(4, 2)
        with pytest.raises(IndexError):
            embedding([5])

    def test_embedding_gradient_accumulates(self):
        embedding = Embedding(5, 3)
        out = embedding([2, 2]).sum()
        out.backward()
        np.testing.assert_allclose(embedding.weight.grad[2], np.full(3, 2.0))
        np.testing.assert_allclose(embedding.weight.grad[0], np.zeros(3))

    def test_relu_module(self):
        assert ReLU()(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]

    def test_linear_gradcheck(self):
        generator = np.random.default_rng(0)
        layer = Linear(4, 3, rng=generator)
        layer.bias.data = generator.normal(size=3)
        x = Tensor(generator.normal(size=(2, 4)), requires_grad=True)
        assert_gradients_close(
            lambda inputs: (layer(inputs[0]) * layer(inputs[0])).sum(),
            [x, layer.weight, layer.bias])

    def test_mlp_shapes_and_depth(self):
        mlp = MLP([4, 8, 8, 1])
        assert mlp(Tensor(np.ones(4))).shape == (1,)
        with pytest.raises(ValueError):
            MLP([4])

    def test_sequential_order(self):
        model = Sequential(Linear(2, 2), ReLU(), Linear(2, 1))
        assert len(model) == 3
        assert model(Tensor(np.ones(2))).shape == (1,)


class TestLSTM:
    def test_lstm_cell_state_shapes(self):
        cell = LSTMCell(3, 5)
        hidden, carry = cell.initial_state()
        new_hidden, new_carry = cell(Tensor(np.ones(3)), (hidden, carry))
        assert new_hidden.shape == (5,)
        assert new_carry.shape == (5,)

    def test_lstm_forward_all_lengths(self):
        lstm = LSTM(3, 4)
        sequence = [Tensor(np.ones(3)) for _ in range(5)]
        outputs = lstm.forward_all(sequence)
        assert len(outputs) == 5
        assert outputs[-1].shape == (4,)

    def test_lstm_empty_sequence_raises(self):
        lstm = LSTM(3, 4)
        with pytest.raises(ValueError):
            lstm([])

    def test_stacked_lstm_depth_validation(self):
        with pytest.raises(ValueError):
            StackedLSTM(3, 4, num_layers=0)

    def test_stacked_lstm_output_and_gradients(self):
        lstm = StackedLSTM(3, 4, num_layers=2)
        sequence = [Tensor(np.random.default_rng(0).normal(size=3)) for _ in range(3)]
        out = lstm(sequence)
        out.sum().backward()
        assert out.shape == (4,)
        assert all(parameter.grad is not None for parameter in lstm.parameters())

    def test_lstm_output_bounded(self):
        lstm = LSTM(2, 3)
        sequence = [Tensor(np.full(2, 100.0)) for _ in range(4)]
        out = lstm(sequence)
        assert np.all(np.abs(out.data) <= 1.0)

    def test_lstm_cell_gradcheck(self):
        generator = np.random.default_rng(0)
        cell = LSTMCell(3, 2, rng=generator)
        inputs = [Tensor(generator.normal(size=3), requires_grad=True),
                  Tensor(generator.normal(size=2), requires_grad=True),
                  Tensor(generator.normal(size=2), requires_grad=True)]

        def function(values):
            hidden, carry = cell(values[0], (values[1], values[2]))
            return (hidden * 2.0 + carry).sum()

        assert_gradients_close(function, inputs)

    def test_lstm_gradcheck_through_time(self):
        generator = np.random.default_rng(1)
        lstm = LSTM(2, 3, rng=generator)
        steps = [Tensor(generator.normal(size=2), requires_grad=True) for _ in range(3)]
        parameters = [lstm.cell.weight_input, lstm.cell.weight_hidden, lstm.cell.bias]
        assert_gradients_close(lambda values: lstm(values[:3]).sum(), steps + parameters)

    def test_lstm_batch_rows_match_single_sequences(self):
        generator = np.random.default_rng(2)
        lstm = LSTM(3, 4, rng=generator)
        batch = generator.normal(size=(5, 2, 3))
        batched = lstm([Tensor(step) for step in batch]).data
        for row in range(2):
            single = lstm([Tensor(step[row]) for step in batch]).data
            np.testing.assert_allclose(batched[row], single, atol=1e-12, rtol=0)

    def test_lstm_starts_from_a_given_state(self):
        lstm = LSTM(2, 3)
        sequence = [Tensor(np.ones(2)) for _ in range(2)]
        state = (Tensor(np.full(3, 0.5)), Tensor(np.full(3, -0.5)))
        assert not np.allclose(lstm(sequence, state).data, lstm(sequence).data)
        np.testing.assert_array_equal(
            lstm(sequence, lstm.cell.initial_state()).data, lstm(sequence).data)


class TestInit:
    @pytest.mark.parametrize("shape", [(3, 5), (40, 7), (6,)])
    def test_xavier_uniform_within_glorot_limit(self, shape):
        fan_out = shape[1] if len(shape) > 1 else shape[0]
        limit = np.sqrt(6.0 / (shape[0] + fan_out))
        values = init.xavier_uniform(shape, np.random.default_rng(0))
        assert values.shape == shape
        assert np.all(np.abs(values) <= limit)
        assert np.max(np.abs(values)) > 0.5 * limit

    def test_xavier_uniform_is_seeded(self):
        first = init.xavier_uniform((4, 4), np.random.default_rng(7))
        np.testing.assert_array_equal(
            first, init.xavier_uniform((4, 4), np.random.default_rng(7)))
        assert not np.array_equal(
            first, init.xavier_uniform((4, 4), np.random.default_rng(8)))

    def test_uniform_embedding_within_scale(self):
        values = init.uniform_embedding((50, 4), np.random.default_rng(0), scale=0.2)
        assert values.shape == (50, 4)
        assert np.all(np.abs(values) <= 0.2)
        assert np.max(np.abs(values)) > 0.1


class TestOptimizers:
    def _training_loss(self, optimizer_factory, steps=150):
        rng = np.random.default_rng(0)
        model = MLP([3, 12, 1], rng=rng)
        inputs = Tensor(rng.normal(size=(16, 3)))
        targets = Tensor(rng.normal(size=(16, 1)))
        optimizer = optimizer_factory(model.parameters())
        loss_value = None
        for _ in range(steps):
            optimizer.zero_grad()
            difference = model(inputs) - targets
            loss = (difference * difference).mean()
            loss.backward()
            optimizer.step()
            loss_value = loss.item()
        return loss_value

    def test_sgd_reduces_loss(self):
        assert self._training_loss(lambda p: SGD(p, lr=0.05)) < 0.5

    def test_sgd_momentum_reduces_loss(self):
        assert self._training_loss(lambda p: SGD(p, lr=0.02, momentum=0.9)) < 0.5

    def test_adam_reduces_loss(self):
        assert self._training_loss(lambda p: Adam(p, lr=0.02)) < 0.1

    def test_adam_weight_decay(self):
        parameter = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            optimizer.zero_grad()
            (parameter * 0.0).sum().backward()
            optimizer.step()
        assert abs(parameter.data[0]) < 10.0

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=-1.0)

    def test_empty_parameter_list(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_clip_grad_norm(self):
        parameter = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        (parameter * 100.0).sum().backward()
        norm_before = optimizer.clip_grad_norm(1.0)
        assert norm_before > 1.0
        assert np.linalg.norm(parameter.grad) <= 1.0 + 1e-9

    def test_sgd_step_is_exact(self):
        parameter = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.5)
        (parameter * Tensor(np.array([3.0, 4.0]))).sum().backward()
        optimizer.step()
        np.testing.assert_array_equal(parameter.data, [1.0 - 1.5, -2.0 - 2.0])

    def test_sgd_momentum_accumulates_velocity(self):
        parameter = Tensor(np.array([0.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1, momentum=0.5)
        for _ in range(2):
            optimizer.zero_grad()
            (parameter * 2.0).sum().backward()
            optimizer.step()
        # Velocities 2 then 0.5 * 2 + 2 = 3, so the steps are 0.2 and 0.3.
        np.testing.assert_allclose(parameter.data, [-0.5], atol=1e-15)

    def test_sgd_weight_decay_adds_l2_gradient(self):
        parameter = Tensor(np.array([2.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1, weight_decay=0.5)
        (parameter * 0.0).sum().backward()
        optimizer.step()
        np.testing.assert_allclose(parameter.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_adam_first_step_moves_each_entry_by_learning_rate(self):
        parameter = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.01)
        (parameter * Tensor(np.array([100.0, -0.5, 3.0]))).sum().backward()
        optimizer.step()
        # Bias correction makes the first step lr * g / (|g| + eps).
        np.testing.assert_allclose(parameter.data, [0.99, 1.01, 0.99], atol=1e-9)

    def test_clip_grad_norm_keeps_small_gradients(self):
        parameter = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        (parameter * Tensor(np.array([0.3, 0.4]))).sum().backward()
        assert optimizer.clip_grad_norm(1.0) == pytest.approx(0.5)
        np.testing.assert_array_equal(parameter.grad, [0.3, 0.4])

    def test_invalid_momentum_and_betas(self):
        with pytest.raises(ValueError, match="momentum"):
            SGD([Tensor([1.0], requires_grad=True)], momentum=1.0)
        with pytest.raises(ValueError, match="betas"):
            Adam([Tensor([1.0], requires_grad=True)], betas=(1.0, 0.999))

    def test_non_tensor_parameter_rejected(self):
        with pytest.raises(TypeError):
            SGD([np.zeros(2)], lr=0.1)

    def test_step_skips_parameters_without_grad(self):
        used = Tensor(np.array([1.0]), requires_grad=True)
        unused = Tensor(np.array([5.0]), requires_grad=True)
        optimizer = Adam([used, unused], lr=0.1)
        (used * 2.0).sum().backward()
        optimizer.step()
        np.testing.assert_allclose(unused.data, [5.0])


# ----------------------------------------------------------------------
# Flat in-place optimizers against per-tensor references
# ----------------------------------------------------------------------
class PerTensorSGD:
    """SGD stepping each tensor on its own: the flat optimizer's oracle."""

    def __init__(self, parameters, lr, momentum=0.0, weight_decay=0.0):
        self.parameters, self.lr = list(parameters), lr
        self.momentum, self.weight_decay = momentum, weight_decay
        self.velocity = {}

    def step(self):
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self.velocity.get(id(parameter))
                if velocity is None:
                    velocity = np.zeros_like(parameter.data)
                velocity = self.momentum * velocity + grad
                self.velocity[id(parameter)] = velocity
                grad = velocity
            parameter.data = parameter.data - self.lr * grad


class PerTensorAdam:
    """Adam stepping each tensor on its own: the flat optimizer's oracle."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.parameters, self.lr, self.eps = list(parameters), lr, eps
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.count, self.first, self.second = 0, {}, {}

    def step(self):
        self.count += 1
        bias1 = 1.0 - self.beta1 ** self.count
        bias2 = 1.0 - self.beta2 ** self.count
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            key = id(parameter)
            first = self.first.get(key, np.zeros_like(parameter.data))
            second = self.second.get(key, np.zeros_like(parameter.data))
            first = self.beta1 * first + (1.0 - self.beta1) * grad
            second = self.beta2 * second + (1.0 - self.beta2) * grad * grad
            self.first[key], self.second[key] = first, second
            parameter.data = parameter.data - self.lr * (first / bias1) / (
                np.sqrt(second / bias2) + self.eps)


def per_tensor_clip(parameters, max_norm):
    """The per-tensor global-norm clip: each ``sum(g ** 2)`` added in order."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float(np.sum(parameter.grad ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        for parameter in parameters:
            if parameter.grad is not None:
                parameter.grad = parameter.grad * (max_norm / norm)
    return norm


SHAPES = [(7, 3), (3,), (), (2, 4, 5), (1,)]


def _parameters(seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in SHAPES]


def _train_both(flat_factory, reference_factory, steps=6, clip=None, skipped=()):
    """Run the flat and the reference optimizer on identical gradients.

    ``skipped`` maps a step to the parameter indices left without a gradient.
    Returns both parameter lists.
    """
    flat_params, reference_params = _parameters(0), _parameters(0)
    flat, reference = flat_factory(flat_params), reference_factory(reference_params)
    rng = np.random.default_rng(1)
    for step in range(steps):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-2, 2)
                 for shape in SHAPES]
        for params in (flat_params, reference_params):
            for index, (parameter, grad) in enumerate(zip(params, grads)):
                parameter.grad = (None if index in dict(skipped).get(step, ())
                                  else grad.copy())
        if clip is not None:
            assert flat.clip_grad_norm(clip) == per_tensor_clip(reference_params, clip)
        flat.step()
        reference.step()
    return flat_params, reference_params


def _assert_same_bits(actual, expected):
    for left, right in zip(actual, expected):
        assert left.data.shape == right.data.shape
        assert left.data.tobytes() == right.data.tobytes()


class TestFlatOptimizers:
    @pytest.mark.parametrize("options", [{}, {"weight_decay": 0.1},
                                         {"betas": (0.8, 0.99), "eps": 1e-6}])
    @pytest.mark.parametrize("clip", [None, 1.0])
    def test_adam_equals_per_tensor_adam(self, options, clip):
        _assert_same_bits(*_train_both(lambda p: Adam(p, lr=0.01, **options),
                                       lambda p: PerTensorAdam(p, 0.01, **options),
                                       clip=clip))

    @pytest.mark.parametrize("options", [{}, {"momentum": 0.9},
                                         {"weight_decay": 0.05},
                                         {"momentum": 0.5, "weight_decay": 0.05}])
    @pytest.mark.parametrize("clip", [None, 1.0])
    def test_sgd_equals_per_tensor_sgd(self, options, clip):
        _assert_same_bits(*_train_both(lambda p: SGD(p, lr=0.03, **options),
                                       lambda p: PerTensorSGD(p, 0.03, **options),
                                       clip=clip))

    @pytest.mark.parametrize("make", [
        (lambda p: Adam(p, lr=0.01, weight_decay=0.1),
         lambda p: PerTensorAdam(p, 0.01, weight_decay=0.1)),
        (lambda p: SGD(p, lr=0.03, momentum=0.9),
         lambda p: PerTensorSGD(p, 0.03, momentum=0.9))])
    def test_parameters_without_grad_are_skipped(self, make):
        # Step 0 leaves parameter 1 untouched (moments included: its first
        # update comes at step 1); later steps skip runs of neighbours.
        skipped = {0: (1,), 2: (0, 1), 3: (1, 2, 3), 4: (0, 1, 2, 3, 4)}
        flat, reference = _train_both(*make, clip=1.0, skipped=skipped)
        _assert_same_bits(flat, reference)

    def test_parameters_view_one_buffer(self):
        params = _parameters(2)
        values = [parameter.data.copy() for parameter in params]
        optimizer = Adam(params, lr=0.1)
        for parameter, value in zip(params, values):
            np.testing.assert_array_equal(parameter.data, value)
            assert parameter.data.base is optimizer._flat
        with pytest.raises(ValueError, match="distinct"):
            SGD([params[0], params[0]], lr=0.1)

    def test_load_state_dict_after_the_optimizer_was_built(self):
        model, reference = MLP([3, 4, 1]), MLP([3, 4, 1])
        state = MLP([3, 4, 1], rng=np.random.default_rng(7)).state_dict()
        optimizer = SGD(model.parameters(), lr=0.1)
        model.load_state_dict(state)
        reference.load_state_dict(state)
        for parameter in model.parameters():
            assert parameter.data.base is optimizer._flat
        inputs = Tensor(np.random.default_rng(8).normal(size=(5, 3)))
        for net in (model, reference):
            net.zero_grad()
            (net(inputs) ** 2.0).sum().backward()
        optimizer.step()
        PerTensorSGD(reference.parameters(), 0.1).step()
        _assert_same_bits(model.parameters(), reference.parameters())

    def test_rebound_data_is_rehomed(self):
        params = _parameters(3)
        optimizer = SGD(params, lr=0.5)
        params[1].data = np.array([1.0, 2.0, 3.0])
        for parameter in params:
            parameter.grad = np.ones(parameter.data.shape)
        optimizer.step()
        assert params[1].data.base is optimizer._flat
        np.testing.assert_array_equal(params[1].data, [0.5, 1.5, 2.5])

    def test_rebound_data_of_another_shape_raises(self):
        params = _parameters(4)
        params[0].name = "weights"
        optimizer = Adam(params, lr=0.1)
        params[0].data = np.zeros((2, 2))
        for parameter in params:
            parameter.grad = np.ones(parameter.data.shape)
        with pytest.raises(ValueError, match=r"weights was rebound to shape \(2, 2\)"):
            optimizer.step()

    @pytest.mark.parametrize("seed", range(5))
    def test_clip_norm_adds_per_parameter_sums_in_order(self, seed):
        # Enough entries of similar magnitude that summing the flat buffer
        # in one pass would round differently from per-tensor sums.
        rng = np.random.default_rng(seed)
        shapes = [(50, 30), (200,), (7, 9, 11), (3,)]
        grads = [rng.normal(size=shape) for shape in shapes]
        flat = [Tensor(np.zeros(shape), requires_grad=True) for shape in shapes]
        reference = [Tensor(np.zeros(shape), requires_grad=True) for shape in shapes]
        optimizer = SGD(flat, lr=0.1)
        for params in (flat, reference):
            for parameter, grad in zip(params, grads):
                parameter.grad = grad.copy()
        assert optimizer.clip_grad_norm(1.0) == per_tensor_clip(reference, 1.0)
        for flat_parameter, reference_parameter in zip(flat, reference):
            assert flat_parameter.grad.tobytes() == reference_parameter.grad.tobytes()
