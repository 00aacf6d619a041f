"""Gradient checks and equivalence tests for the batched autodiff primitives.

The batched surrogate-training fast path leans on four new pieces of the
autodiff engine: stacked (batch) matmul broadcasting, per-row gather with
scatter-add gradients, masked reductions over ragged (padded) batches, and
masked batch-major LSTM stepping.  Every primitive is validated against
central finite differences via :mod:`repro.autodiff.gradcheck`, and the
batched LSTM is pinned to the per-example path.
"""

import numpy as np
import pytest

from repro.autodiff.gradcheck import assert_gradients_close
from repro.autodiff.modules import LSTM, Embedding, StackedLSTM
from repro.autodiff.tensor import Tensor, gather, masked_mean, masked_sum


@pytest.fixture
def generator():
    return np.random.default_rng(42)


class TestStackedMatmul:
    def test_batched_times_shared_matrix(self, generator):
        a = Tensor(generator.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(generator.normal(size=(5, 2)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (3, 4, 2)
        assert_gradients_close(lambda inputs: inputs[0].matmul(inputs[1]).sum(), [a, b])

    def test_batched_times_batched(self, generator):
        a = Tensor(generator.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(generator.normal(size=(3, 5, 2)), requires_grad=True)
        assert_gradients_close(lambda inputs: inputs[0].matmul(inputs[1]).sum(), [a, b])

    def test_shared_matrix_times_batched(self, generator):
        a = Tensor(generator.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(generator.normal(size=(3, 5, 2)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (3, 4, 2)
        assert_gradients_close(lambda inputs: inputs[0].matmul(inputs[1]).sum(), [a, b])

    def test_batched_matmul_matches_per_example(self, generator):
        a = generator.normal(size=(6, 3, 5))
        b = generator.normal(size=(5, 4))
        batched = Tensor(a).matmul(Tensor(b)).numpy()
        for row in range(6):
            single = Tensor(a[row]).matmul(Tensor(b)).numpy()
            np.testing.assert_allclose(batched[row], single, atol=1e-12)


class TestGather:
    def test_forward_shape_replaces_axis_with_index_shape(self, generator):
        weight = Tensor(generator.normal(size=(7, 4)))
        out = gather(weight, np.array([[0, 2, 2], [6, 0, 1]]))
        assert out.shape == (2, 3, 4)
        np.testing.assert_array_equal(out.numpy()[0, 1], weight.numpy()[2])

    def test_repeated_indices_accumulate_gradient(self, generator):
        weight = Tensor(generator.normal(size=(5, 3)), requires_grad=True)
        indices = np.array([1, 1, 1, 4])
        gather(weight, indices).sum().backward()
        expected = np.zeros((5, 3))
        expected[1] = 3.0
        expected[4] = 1.0
        np.testing.assert_allclose(weight.grad, expected)

    def test_gradcheck_axis0_and_axis1(self, generator):
        source = Tensor(generator.normal(size=(2, 6, 3)), requires_grad=True)
        indices = np.array([[1, 1], [5, 0]])
        assert_gradients_close(
            lambda inputs: gather(inputs[0], indices, axis=1).sum(), [source])
        assert_gradients_close(
            lambda inputs: gather(inputs[0], np.array([0, 0, 1]), axis=0).sum(),
            [source])

    def test_embedding_accepts_batched_index_arrays(self, generator):
        embedding = Embedding(9, 4, rng=generator)
        ids = np.array([[0, 3], [8, 3]])
        out = embedding(ids)
        assert out.shape == (2, 2, 4)
        gathered = gather(embedding.weight, ids)
        np.testing.assert_allclose(out.numpy(), gathered.numpy())

    def test_embedding_batched_lookup_still_validates_range(self, generator):
        # np.take would silently wrap -1 to the last row; the Embedding
        # module's range check must fire for batched id arrays too.
        embedding = Embedding(9, 4, rng=generator)
        with pytest.raises(IndexError, match="token id out of range"):
            embedding(np.array([[0, -1], [2, 3]]))
        with pytest.raises(IndexError, match="token id out of range"):
            embedding(np.array([[0, 9], [2, 3]]))


class TestMaskedReductions:
    def test_masked_sum_ignores_padding(self, generator):
        values = generator.normal(size=(2, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])[..., None]
        out = masked_sum(Tensor(values), mask, axis=1)
        np.testing.assert_allclose(out.numpy()[0], values[0, :2].sum(axis=0))
        np.testing.assert_allclose(out.numpy()[1], values[1, :3].sum(axis=0))

    def test_masked_mean_divides_by_unmasked_count(self, generator):
        values = generator.normal(size=(2, 4))
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        out = masked_mean(Tensor(values), mask, axis=1)
        np.testing.assert_allclose(out.numpy()[0], values[0, :3].mean())
        np.testing.assert_allclose(out.numpy()[1], values[1, 0])

    def test_masked_mean_fully_masked_rows_are_zero_not_nan(self, generator):
        values = generator.normal(size=(2, 3))
        mask = np.zeros((2, 3))
        out = masked_mean(Tensor(values), mask, axis=1)
        np.testing.assert_array_equal(out.numpy(), np.zeros(2))

    def test_gradcheck_masked_reductions(self, generator):
        x = Tensor(generator.normal(size=(2, 5, 3)), requires_grad=True)
        mask = (generator.random((2, 5, 1)) > 0.4).astype(np.float64)
        assert_gradients_close(
            lambda inputs: masked_sum(inputs[0], mask, axis=1).sum(), [x])
        assert_gradients_close(
            lambda inputs: masked_mean(inputs[0], mask, axis=1).sum(), [x])
        assert_gradients_close(
            lambda inputs: masked_sum(inputs[0], mask, axis=(1, 2)).sum(), [x])
        assert_gradients_close(
            lambda inputs: masked_sum(inputs[0], mask, axis=1, keepdims=True).sum(),
            [x])

    def test_no_gradient_flows_through_masked_entries(self, generator):
        x = Tensor(generator.normal(size=(4,)), requires_grad=True)
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        masked_sum(x, mask).backward()
        np.testing.assert_array_equal(x.grad, mask)


class TestTupleAxisReductions:
    def test_sum_and_mean_over_axis_tuples(self, generator):
        x = Tensor(generator.normal(size=(2, 5, 3)), requires_grad=True)
        np.testing.assert_allclose(x.sum(axis=(1, 2)).numpy(),
                                   x.numpy().sum(axis=(1, 2)))
        np.testing.assert_allclose(x.mean(axis=(0, 2)).numpy(),
                                   x.numpy().mean(axis=(0, 2)))
        assert_gradients_close(lambda inputs: inputs[0].sum(axis=(0, 2)).sum(), [x])
        assert_gradients_close(lambda inputs: inputs[0].mean(axis=(1, 2)).sum(), [x])


class TestBroadcastTo:
    def test_values_and_gradient_reduction(self, generator):
        x = Tensor(generator.normal(size=(2, 1, 3)), requires_grad=True)
        out = x.broadcast_to((2, 4, 3))
        np.testing.assert_allclose(out.numpy(),
                                   np.broadcast_to(x.numpy(), (2, 4, 3)))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 1, 3), 4.0))


class TestMaskedBatchLSTM:
    @staticmethod
    def _padded_batch(generator, lengths, width):
        sequences = [generator.normal(size=(length, width)) for length in lengths]
        max_length = max(lengths)
        padded = np.zeros((max_length, len(lengths), width))
        mask = np.zeros((max_length, len(lengths)))
        for column, sequence in enumerate(sequences):
            padded[:len(sequence), column] = sequence
            mask[:len(sequence), column] = 1.0
        steps = [Tensor(padded[position]) for position in range(max_length)]
        return sequences, steps, mask

    def test_final_state_matches_per_example_path(self, generator):
        lstm = LSTM(3, 5, rng=np.random.default_rng(1))
        sequences, steps, mask = self._padded_batch(generator, [4, 1, 6], 3)
        batched = lstm.forward_batch(steps, mask)
        for column, sequence in enumerate(sequences):
            single = lstm([Tensor(row) for row in sequence])
            np.testing.assert_allclose(batched.numpy()[column], single.numpy(),
                                       atol=1e-12)

    def test_stacked_lstm_matches_per_example_path(self, generator):
        stacked = StackedLSTM(3, 4, num_layers=3, rng=np.random.default_rng(2))
        sequences, steps, mask = self._padded_batch(generator, [2, 5, 3], 3)
        batched = stacked.forward_batch(steps, mask)
        for column, sequence in enumerate(sequences):
            single = stacked([Tensor(row) for row in sequence])
            np.testing.assert_allclose(batched.numpy()[column], single.numpy(),
                                       atol=1e-12)

    def test_gradients_match_summed_per_example_losses(self, generator):
        lstm = LSTM(2, 3, rng=np.random.default_rng(3))
        sequences, steps, mask = self._padded_batch(generator, [3, 1], 2)

        lstm.forward_batch(steps, mask).sum().backward()
        batched_grads = {name: parameter.grad.copy()
                         for name, parameter in lstm.named_parameters()}
        lstm.zero_grad()
        for sequence in sequences:
            lstm([Tensor(row) for row in sequence]).sum().backward()
        for name, parameter in lstm.named_parameters():
            np.testing.assert_allclose(batched_grads[name], parameter.grad,
                                       atol=1e-9, err_msg=name)

    def test_mask_shape_validated(self, generator):
        lstm = LSTM(2, 3, rng=np.random.default_rng(4))
        steps = [Tensor(generator.normal(size=(2, 2)))]
        with pytest.raises(ValueError, match="mask covers"):
            lstm.forward_batch(steps, np.ones((3, 2)))
        with pytest.raises(ValueError, match="non-empty"):
            lstm.forward_batch([], np.ones((0, 2)))
