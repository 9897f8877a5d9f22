"""Gradient-correctness tests for the feed-forward layers.

Each layer's backward pass is checked against central finite differences on
both the input and the parameters — the strongest correctness guarantee a
hand-written backprop implementation can have.
"""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Residual,
    Sequential,
)
from repro.nn.activations import ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import SimpleCNN


def check_input_gradient(layer, x, gradcheck, atol=1e-6):
    """Compare analytic input gradient with finite differences of sum(output)."""
    output = layer.forward(x)
    grad_input = layer.backward(np.ones_like(output))

    def scalar(x_perturbed):
        return float(np.sum(layer.forward(x_perturbed)))

    numeric = gradcheck(scalar, x.copy())
    np.testing.assert_allclose(grad_input, numeric, atol=atol)


def check_parameter_gradients(layer, x, gradcheck, atol=1e-5):
    """Compare analytic parameter gradients with finite differences."""
    layer.zero_grad()
    output = layer.forward(x)
    layer.backward(np.ones_like(output))
    for param in layer.parameters():
        analytic = param.grad.copy()

        def scalar(values, param=param):
            original = param.data.copy()
            param.data[...] = values
            result = float(np.sum(layer.forward(x)))
            param.data[...] = original
            return result

        numeric = gradcheck(scalar, param.data.copy())
        np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestLinear:
    def test_forward_shape_and_values(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer(x)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out, x @ layer.weight.data.T + layer.bias.data)

    def test_input_gradient(self, rng, gradcheck):
        layer = Linear(4, 3, rng=rng)
        check_input_gradient(layer, rng.normal(size=(5, 4)), gradcheck)

    def test_parameter_gradients(self, rng, gradcheck):
        layer = Linear(3, 2, rng=rng)
        check_parameter_gradients(layer, rng.normal(size=(4, 3)), gradcheck)

    def test_no_bias_option(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_rejects_wrong_input_width(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 3, rng=rng)(rng.normal(size=(2, 5)))


class TestConv2d:
    def test_output_shape(self, rng):
        layer = Conv2d(2, 5, 3, padding=1, rng=rng)
        assert layer(rng.normal(size=(3, 2, 8, 8))).shape == (3, 5, 8, 8)

    def test_strided_output_shape(self, rng):
        layer = Conv2d(1, 2, 3, stride=2, rng=rng)
        assert layer(rng.normal(size=(1, 1, 7, 7))).shape == (1, 2, 3, 3)

    def test_input_gradient(self, rng, gradcheck):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 2, 4, 4)), gradcheck, atol=1e-5)

    def test_parameter_gradients(self, rng, gradcheck):
        layer = Conv2d(1, 2, 3, padding=1, rng=rng)
        check_parameter_gradients(layer, rng.normal(size=(2, 1, 4, 4)), gradcheck)

    def test_rejects_wrong_channel_count(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, rng=rng)(rng.normal(size=(1, 2, 5, 5)))

    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(6, 1, 0), (7, 1, 0), (8, 1, 1), (9, 2, 1), (6, 3, 0)],
    )
    def test_rejects_window_larger_than_padded_input(
        self, rng, kernel, stride, padding
    ):
        layer = Conv2d(1, 2, kernel, stride=stride, padding=padding, rng=rng)
        message = (
            f"a {kernel}x{kernel} window with stride {stride} and padding "
            f"{padding} does not fit a 5x5 input"
        )
        with pytest.raises(ValueError, match=message):
            layer(rng.normal(size=(2, 1, 5, 5)))


class TestPooling:
    def test_maxpool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_input_gradient(self, rng, gradcheck):
        layer = MaxPool2d(2)
        check_input_gradient(layer, rng.normal(size=(2, 2, 4, 4)), gradcheck)

    def test_overlapping_maxpool_input_gradient(self, rng, gradcheck):
        # stride < kernel: a pixel can be the maximum of several windows and
        # then collects every one of their gradients.
        layer = MaxPool2d(3, stride=1)
        check_input_gradient(layer, rng.normal(size=(2, 2, 5, 5)), gradcheck)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_maxpool_rejects_stride_below_one(self, stride):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            MaxPool2d(2, stride=stride)

    @pytest.mark.parametrize(
        "kernel,stride,size", [(7, None, 5), (6, 1, 5), (3, 1, 2), (3, 2, 2)]
    )
    def test_maxpool_rejects_window_larger_than_input(self, kernel, stride, size):
        layer = MaxPool2d(kernel, stride=stride)
        message = (
            f"a {kernel}x{kernel} window with stride {layer.stride} and padding "
            f"0 does not fit a {size}x{size} input"
        )
        with pytest.raises(ValueError, match=message):
            layer(np.ones((2, 1, size, size)))

    @pytest.mark.parametrize("shape", [(3, 4, 4), (1, 2, 3, 4, 4)])
    def test_maxpool_rejects_non_4d_input(self, shape):
        with pytest.raises(ValueError, match=r"\(batch, channels, H, W\)"):
            MaxPool2d(2)(np.ones(shape))

    def test_maxpool_gradient_keeps_the_input_memory_order(self, rng):
        # A conv output is channels-last storage behind an NCHW view; the
        # gradient follows it, so ReLU and Conv2d below need no copy.
        x = rng.normal(size=(2, 6, 6, 3)).transpose(0, 3, 1, 2)
        layer = MaxPool2d(2)
        grad = layer.backward(np.ones_like(layer(x)))
        assert grad.transpose(0, 2, 3, 1).flags.c_contiguous
        contiguous = layer.backward(np.ones_like(layer(np.ascontiguousarray(x))))
        assert contiguous.flags.c_contiguous
        assert grad.tobytes() == contiguous.tobytes()

    def test_global_avgpool(self, rng, gradcheck):
        layer = GlobalAvgPool2d()
        x = rng.normal(size=(3, 4, 5, 5))
        assert layer(x).shape == (3, 4)
        check_input_gradient(layer, x, gradcheck)


class TestBatchNorm:
    def test_normalizes_in_training_mode(self, rng):
        layer = BatchNorm1d(6)
        out = layer(rng.normal(3.0, 2.0, size=(50, 6)))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_eval_mode_uses_running_statistics(self, rng):
        layer = BatchNorm1d(4, momentum=1.0)
        batch = rng.normal(2.0, 1.5, size=(64, 4))
        layer(batch)
        layer.eval()
        out = layer(batch)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-1)

    def test_input_gradient_training_mode(self, rng, gradcheck):
        layer = BatchNorm1d(3)
        x = rng.normal(size=(6, 3))
        output = layer.forward(x)
        upstream = rng.normal(size=output.shape)
        layer.forward(x)
        analytic = layer.backward(upstream)

        def scalar(x_perturbed):
            return float(np.sum(layer.forward(x_perturbed) * upstream))

        numeric = gradcheck(scalar, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_parameter_gradients(self, rng, gradcheck):
        layer = BatchNorm1d(3)
        check_parameter_gradients(layer, rng.normal(size=(6, 3)), gradcheck)

    def test_batchnorm2d_shapes(self, rng):
        layer = BatchNorm2d(4)
        out = layer(rng.normal(size=(2, 4, 3, 3)))
        assert out.shape == (2, 4, 3, 3)

    def test_batchnorm2d_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(4)(rng.normal(size=(2, 3, 3, 3)))


class TestDropoutFlattenEmbedding:
    def test_dropout_eval_is_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(layer(x), x)

    def test_dropout_training_preserves_expectation(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = np.ones((2000, 10))
        out = layer(x)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_backward_uses_same_mask(self, rng):
        layer = Dropout(0.3, rng=rng)
        x = rng.normal(size=(5, 5))
        out = layer(x)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_dropout_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        out = layer(x)
        assert out.shape == (3, 32)
        assert layer.backward(out).shape == x.shape

    def test_embedding_lookup_and_gradient(self, rng):
        layer = Embedding(10, 4, rng=rng)
        tokens = np.array([[1, 2], [2, 3]])
        out = layer(tokens)
        assert out.shape == (2, 2, 4)
        layer.zero_grad()
        layer.backward(np.ones_like(out))
        # Token 2 appears twice, so its gradient row sums to 2.
        np.testing.assert_allclose(layer.weight.grad[2], 2.0)
        np.testing.assert_allclose(layer.weight.grad[0], 0.0)

    def test_embedding_rejects_out_of_vocab(self, rng):
        with pytest.raises(ValueError):
            Embedding(5, 3, rng=rng)(np.array([[7]]))


class TestInputLayer:
    """A model's input layer skips the input gradient nobody reads; every
    layer built by hand still returns it."""

    def test_layers_return_input_gradients_by_default(self, rng, gradcheck):
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(12, 4, rng=rng),
        )
        assert model[0].input_gradient and model[4].input_gradient
        check_input_gradient(model, rng.normal(size=(2, 2, 4, 4)), gradcheck)

    @pytest.mark.parametrize(
        "make_layer,shape",
        [
            (lambda: Linear(4, 3, rng=1), (5, 4)),
            (lambda: Conv2d(2, 3, 3, padding=1, rng=1), (2, 2, 5, 5)),
        ],
        ids=["linear", "conv2d"],
    )
    def test_input_layer_returns_none_with_the_same_parameter_gradients(
        self, rng, make_layer, shape
    ):
        full, skip = make_layer(), make_layer()
        skip.input_gradient = False
        x = rng.normal(size=shape)
        grad_output = rng.normal(size=full(x).shape)
        skip(x)
        assert full.backward(grad_output).shape == x.shape
        assert Sequential(Flatten(), skip).backward(grad_output) is None
        for expected, param in zip(full.parameters(), skip.parameters()):
            assert param.grad.tobytes() == expected.grad.tobytes()

    def test_simple_cnn_step_forms_no_model_input_gradient(self, rng, monkeypatch):
        # conv2 and conv3 fold their input gradients; conv1's would be the
        # gradient with respect to the images, which no caller reads.
        folded, fold = [], layers.col2im

        def counting_col2im(columns, input_shape, *args):
            folded.append(input_shape)
            return fold(columns, input_shape, *args)

        monkeypatch.setattr(layers, "col2im", counting_col2im)
        model = SimpleCNN(in_channels=1, image_size=(14, 14), rng=0)
        loss_fn = CrossEntropyLoss()
        loss_fn(model(rng.normal(size=(4, 1, 14, 14))), rng.integers(0, 10, size=4))
        assert model.backward(loss_fn.backward()) is None
        assert folded == [(4, 16, 3, 3), (4, 8, 7, 7)]
        assert all(np.any(param.grad != 0) for param in model.parameters())


class TestSequentialAndResidual:
    def test_sequential_chains_forward_and_backward(self, rng, gradcheck):
        model = Sequential(Linear(4, 6, rng=rng), ReLU(), Linear(6, 2, rng=rng))
        check_input_gradient(model, rng.normal(size=(3, 4)), gradcheck)

    def test_sequential_indexing(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_residual_identity_shortcut(self, rng, gradcheck):
        block = Residual(Sequential(Linear(4, 4, rng=rng), ReLU()))
        check_input_gradient(block, rng.normal(size=(3, 4)), gradcheck)

    def test_residual_output_is_sum(self, rng):
        inner = Linear(3, 3, rng=rng)
        block = Residual(inner)
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(block(x), inner(x) + x)
