"""Tests for activation layers."""

import numpy as np
import pytest

from repro.nn.activations import ReLU


@pytest.mark.parametrize(
    "layer_factory",
    [ReLU],
    ids=["relu"],
)
def test_backward_matches_finite_differences(layer_factory, rng, gradcheck):
    layer = layer_factory()
    x = rng.normal(size=(4, 5))
    out = layer.forward(x)
    upstream = rng.normal(size=out.shape)
    layer.forward(x)
    analytic = layer.backward(upstream)

    def scalar(x_perturbed):
        return float(np.sum(layer.forward(x_perturbed) * upstream))

    numeric = gradcheck(scalar, x.copy())
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestReLU:
    def test_clips_negatives(self):
        out = ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_gradient_blocked_for_negatives(self):
        layer = ReLU()
        layer(np.array([-1.0, 3.0]))
        grad = layer.backward(np.array([5.0, 5.0]))
        np.testing.assert_array_equal(grad, [0.0, 5.0])
