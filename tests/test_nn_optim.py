"""Tests for SGD and learning-rate schedules."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD


def make_param(value=1.0, grad=0.5):
    param = Parameter(np.array([value]))
    param.grad[...] = grad
    return param


class TestSGD:
    def test_vanilla_update(self):
        param = make_param(1.0, 0.5)
        SGD([param], lr=0.1).step()
        assert param.data[0] == pytest.approx(0.95)

    def test_weight_decay_added_to_gradient(self):
        param = make_param(1.0, 0.0)
        SGD([param], lr=0.1, weight_decay=0.1).step()
        assert param.data[0] == pytest.approx(1.0 - 0.1 * 0.1)

    def test_momentum_accumulates(self):
        param = make_param(0.0, 1.0)
        optimizer = SGD([param], lr=1.0, momentum=0.5)
        optimizer.step()  # velocity = 1 -> x = -1
        param.grad[...] = 1.0
        optimizer.step()  # velocity = 1.5 -> x = -2.5
        assert param.data[0] == pytest.approx(-2.5)

    def test_nesterov_differs_from_heavy_ball(self):
        param_a, param_b = make_param(0.0, 1.0), make_param(0.0, 1.0)
        SGD([param_a], lr=1.0, momentum=0.5).step()
        SGD([param_b], lr=1.0, momentum=0.5, nesterov=True).step()
        assert param_a.data[0] != param_b.data[0]

    def test_apply_gradient_vector(self):
        params = [Parameter(np.zeros((2, 2))), Parameter(np.zeros(3))]
        optimizer = SGD(params, lr=1.0)
        optimizer.apply_gradient_vector(np.arange(7, dtype=float))
        np.testing.assert_allclose(params[0].data, -np.arange(4).reshape(2, 2))
        np.testing.assert_allclose(params[1].data, -np.array([4.0, 5.0, 6.0]))

    def test_apply_gradient_vector_rejects_wrong_size(self):
        optimizer = SGD([Parameter(np.zeros(3))], lr=1.0)
        with pytest.raises(ValueError):
            optimizer.apply_gradient_vector(np.zeros(4))

    def test_zero_grad(self):
        param = make_param(1.0, 2.0)
        SGD([param], lr=0.1).zero_grad()
        assert param.grad[0] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": 0.1, "momentum": 1.0},
            {"lr": 0.1, "weight_decay": -1.0},
            {"lr": 0.1, "nesterov": True},
        ],
    )
    def test_invalid_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SGD([make_param()], **kwargs)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
