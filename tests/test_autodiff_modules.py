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
