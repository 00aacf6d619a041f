"""Tests for the finite-difference gradient checker (repro.autodiff.gradcheck)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Linear, Tensor
from repro.autodiff.gradcheck import (GradCheckResult, analytic_gradients,
                                      assert_gradients_close, gradcheck, numeric_gradient)


# ----------------------------------------------------------------------
# Gradient checking utilities
# ----------------------------------------------------------------------
class TestGradcheck:
    def test_matches_for_simple_polynomial(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)

        def function(inputs):
            (value,) = inputs
            return (value * value * 2.0 + value).sum()

        results = gradcheck(function, [x])
        assert results[0].passed()
        np.testing.assert_allclose(results[0].analytic, 4.0 * x.data + 1.0, atol=1e-6)

    def test_detects_incorrect_gradient(self):
        x = Tensor(np.array([0.5, 1.5]), requires_grad=True)

        class _Broken:
            """A forward whose hand-written backward is deliberately wrong."""

            def __call__(self, inputs):
                (value,) = inputs
                data = value.data * 3.0

                def backward(grad):
                    value._accumulate(grad * 2.0)  # wrong: should be 3.0

                return Tensor._make(data, (value,), backward)

        results = gradcheck(_Broken(), [x])
        assert not results[0].passed()

    def test_only_checks_tensors_requiring_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        constant = Tensor(np.array([3.0, 4.0]), requires_grad=False)

        def function(inputs):
            return (inputs[0] * inputs[1]).sum()

        results = gradcheck(function, [x, constant])
        assert 0 in results and 1 not in results

    def test_numeric_gradient_of_product(self):
        x = Tensor(np.array([2.0, 5.0]), requires_grad=True)
        y = Tensor(np.array([7.0, -1.0]), requires_grad=True)

        def function(inputs):
            return (inputs[0] * inputs[1]).sum()

        numeric = numeric_gradient(function, [x, y], 0)
        np.testing.assert_allclose(numeric, y.data, atol=1e-4)

    def test_analytic_gradients_returns_none_for_unused_input(self):
        used = Tensor(np.array([1.0]), requires_grad=True)
        unused = Tensor(np.array([1.0]), requires_grad=True)

        def function(inputs):
            return inputs[0] * 2.0

        gradients = analytic_gradients(function, [used, unused])
        assert gradients[0] is not None
        assert gradients[1] is None

    def test_assert_gradients_close_raises_on_mismatch(self):
        x = Tensor(np.array([1.0]), requires_grad=True)

        class _Broken:
            def __call__(self, inputs):
                (value,) = inputs
                data = value.data * 5.0

                def backward(grad):
                    value._accumulate(grad * 0.0)

                return Tensor._make(data, (value,), backward)

        with pytest.raises(AssertionError):
            assert_gradients_close(_Broken(), [x])

    def test_assert_gradients_close_passes_for_linear_layer(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 3, rng=rng)
        x = Tensor(rng.normal(size=4), requires_grad=True)

        def function(inputs):
            return layer(inputs[0]).sum()

        assert_gradients_close(function, [x] + layer.parameters(), epsilon=1e-5,
                               absolute_tolerance=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6))
    def test_gradcheck_elementwise_chain_property(self, values):
        x = Tensor(np.array(values), requires_grad=True)

        def function(inputs):
            return (inputs[0].tanh() * 2.0 + inputs[0].sigmoid()).sum()

        results = gradcheck(function, [x], epsilon=1e-5)
        assert results[0].passed(absolute_tolerance=1e-4, relative_tolerance=1e-2)

    def test_result_passed_uses_either_tolerance(self):
        result = GradCheckResult(max_absolute_error=1e-9, max_relative_error=1.0,
                                 analytic=np.zeros(1), numeric=np.zeros(1))
        assert result.passed()
        result = GradCheckResult(max_absolute_error=1.0, max_relative_error=1e-9,
                                 analytic=np.zeros(1), numeric=np.zeros(1))
        assert result.passed()
        result = GradCheckResult(max_absolute_error=1.0, max_relative_error=1.0,
                                 analytic=np.zeros(1), numeric=np.zeros(1))
        assert not result.passed()
