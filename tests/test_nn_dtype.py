"""dtype-awareness tests for repro.nn.

``TrainingConfig(dtype="float32")`` must make the clients *compute* in
float32 — parameters, activations, scratch buffers, and gradients — not
merely store float64 results in a float32 round buffer.  These tests pin
that contract layer by layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import init
from repro.nn.activations import ReLU
from repro.nn.functional import floating_dtype, im2col, one_hot, sigmoid, softmax
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models.mlp import MLP
from repro.nn.models.simple_cnn import SimpleCNN
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import LSTM, RNN
from repro.nn.vectorize import get_flat_gradients, set_flat_parameters


class TestParameter:
    def test_default_dtype_is_float64(self):
        param = Parameter(np.arange(3))
        assert param.data.dtype == np.float64
        assert param.grad.dtype == np.float64

    def test_explicit_float32(self):
        param = Parameter(np.arange(3), dtype=np.float32)
        assert param.data.dtype == np.float32
        assert param.grad.dtype == np.float32

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            Parameter(np.arange(3), dtype=np.int32)

    def test_astype_casts_data_and_grad(self):
        param = Parameter(np.arange(3))
        param.grad[:] = 1.5
        param.astype(np.float32)
        assert param.data.dtype == np.float32
        assert param.grad.dtype == np.float32
        assert param.grad[0] == np.float32(1.5)


class TestModuleAstype:
    def test_astype_walks_the_tree(self):
        model = MLP(8, 3, hidden_dims=(4,), rng=0)
        model.astype(np.float32)
        assert model.dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_astype_casts_batchnorm_running_stats(self):
        bn = BatchNorm2d(4)
        bn.astype(np.float32)
        assert bn.running_mean.dtype == np.float32
        assert bn.running_var.dtype == np.float32

    def test_dtype_of_parameterless_module_is_float64(self):
        assert Module().dtype == np.float64

    def test_init_draws_match_across_dtypes(self):
        # Same seed, different dtype: float32 weights are the float64 draw
        # rounded, so both precisions start from the same initialization.
        w64 = init.kaiming_normal((4, 3), rng=np.random.default_rng(0))
        w32 = init.kaiming_normal(
            (4, 3), rng=np.random.default_rng(0), dtype=np.float32
        )
        assert w32.dtype == np.float32
        assert np.array_equal(w32, w64.astype(np.float32))


class TestFunctional:
    def test_floating_dtype(self):
        assert floating_dtype(np.float32) == np.float32
        assert floating_dtype(np.float64) == np.float64
        assert floating_dtype(np.int64) == np.float64

    def test_softmax_preserves_float32(self):
        x = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        assert softmax(x).dtype == np.float32

    def test_sigmoid_preserves_float32(self):
        x = np.random.default_rng(0).normal(size=7).astype(np.float32)
        assert sigmoid(x).dtype == np.float32

    def test_one_hot_dtype(self):
        assert one_hot(np.array([0, 1]), 3).dtype == np.float64
        assert one_hot(np.array([0, 1]), 3, dtype=np.float32).dtype == np.float32

    def test_im2col_preserves_float32(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6)).astype(np.float32)
        columns, _, _ = im2col(x, kernel=3, stride=1, padding=1)
        assert columns.dtype == np.float32


LAYER_CASES = [
    (lambda: Linear(6, 4, rng=0, dtype=np.float32), (5, 6)),
    (lambda: Conv2d(2, 3, 3, padding=1, rng=0, dtype=np.float32), (2, 2, 6, 6)),
    (lambda: MaxPool2d(2), (2, 2, 6, 6)),
    (lambda: GlobalAvgPool2d(), (2, 2, 6, 6)),
    (lambda: Dropout(0.3, rng=0), (4, 6)),
    (lambda: BatchNorm2d(2, dtype=np.float32), (3, 2, 4, 4)),
    (lambda: ReLU(), (4, 6)),
]


class TestLayers:
    @pytest.mark.parametrize("factory,shape", LAYER_CASES)
    def test_forward_backward_stay_float32(self, factory, shape):
        layer = factory()
        x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        out = layer(x)
        assert out.dtype == np.float32
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.dtype == np.float32
        for param in layer.parameters():
            assert param.grad.dtype == np.float32

    def test_embedding_float32(self):
        layer = Embedding(10, 4, rng=0, dtype=np.float32)
        tokens = np.array([[1, 2, 3], [4, 5, 6]])
        out = layer(tokens)
        assert out.dtype == np.float32
        grad_in = layer.backward(np.ones_like(out))
        assert layer.weight.grad.dtype == np.float32
        assert grad_in.dtype == np.float32

    @pytest.mark.parametrize("cell_cls", [RNN, LSTM])
    def test_recurrent_float32(self, cell_cls):
        cell = cell_cls(5, 4, rng=0, dtype=np.float32)
        x = np.random.default_rng(0).normal(size=(3, 6, 5)).astype(np.float32)
        out = cell(x)
        assert out.dtype == np.float32
        grad_in = cell.backward(np.ones_like(out))
        assert grad_in.dtype == np.float32
        for param in cell.parameters():
            assert param.grad.dtype == np.float32


class TestLosses:
    def test_cross_entropy_backward_preserves_float32(self):
        loss = CrossEntropyLoss()
        logits = np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32)
        value = loss(logits, np.array([0, 1, 2, 3, 0, 1]))
        assert isinstance(value, float)
        assert loss.backward().dtype == np.float32


class TestVectorize:
    def test_flat_gradients_follow_model_dtype(self):
        model = MLP(8, 3, hidden_dims=(4,), rng=0)
        model.astype(np.float32)
        x = np.random.default_rng(0).normal(size=(4, 8)).astype(np.float32)
        loss = CrossEntropyLoss()
        loss(model(x), np.array([0, 1, 2, 0]))
        model.backward(loss.backward())
        assert get_flat_gradients(model).dtype == np.float32

    def test_set_flat_parameters_keeps_model_dtype(self):
        model = MLP(8, 3, hidden_dims=(4,), rng=0)
        model.astype(np.float32)
        flat = np.zeros(model.num_parameters(), dtype=np.float64)
        set_flat_parameters(model, flat)
        assert model.dtype == np.float32
        assert all(float(p.data.sum()) == 0.0 for p in model.parameters())


class TestEndToEnd:
    def test_float32_gradient_close_to_float64(self):
        def gradient(dtype):
            model = SimpleCNN(1, (14, 14), 10, rng=np.random.default_rng(2))
            if dtype is not None:
                model.astype(dtype)
            x = np.random.default_rng(3).normal(size=(8, 1, 14, 14))
            if dtype is not None:
                x = x.astype(dtype)
            labels = np.arange(8) % 10
            loss = CrossEntropyLoss()
            loss(model(x), labels)
            model.backward(loss.backward())
            return get_flat_gradients(model)

        g64 = gradient(None)
        g32 = gradient(np.float32)
        assert g64.dtype == np.float64
        assert g32.dtype == np.float32
        scale = max(np.abs(g64).max(), 1e-12)
        assert np.abs(g64 - g32).max() / scale < 1e-5
