"""Feed-forward layers: dense, convolutional, pooling, normalization, etc.

Every layer follows the ``forward`` / ``backward`` contract of
:class:`repro.nn.module.Module`.  Convolution is implemented with im2col so
the heavy lifting stays inside a single matrix multiply, which is fast enough
in numpy for the model sizes used by the reproduction.  im2col, col2im and
max pooling read their windows through strided views instead of copying
each window out, and keep the seed kernels' arithmetic, so their outputs
are byte-identical to the copies frozen in :mod:`repro.perf.reference`.
Max pooling keeps ``np.where`` off its masks (see :mod:`repro.nn.activations`).

Layers that own parameters accept a ``dtype`` argument (float64 by default)
and allocate their weights, biases, and normalization statistics in that
precision; the scratch buffers of the stateless layers follow the dtype of
whatever flows through them, so a float32 model stays float32 end to end.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn import init
from repro.nn.functional import col2im, im2col, window_grid
from repro.nn.module import Module, Parameter
from repro.utils.rng import RngLike, as_rng


class Identity(Module):
    """Pass-through layer (used as a residual shortcut)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    input_gradient = True  # False on a model's input layer: backward returns None

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: RngLike = None,
        dtype=None,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        rng = as_rng(rng)
        self.weight = Parameter(
            init.kaiming_normal((out_features, in_features), rng),
            name="weight",
            dtype=dtype,
        )
        self.bias = (
            Parameter(init.zeros((out_features,)), name="bias", dtype=dtype)
            if bias
            else None
        )
        self._input: np.ndarray = np.empty(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, got shape {x.shape}"
            )
        self._input = x
        output = x @ self.weight.data.T
        if self.bias is not None:
            output = output + self.bias.data
        return output

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        # Support inputs with extra leading dims by flattening them.
        x = self._input.reshape(-1, self.in_features)
        grad = grad_output.reshape(-1, self.out_features)
        self.weight.grad += grad.T @ x
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        if self.input_gradient:
            return (grad @ self.weight.data).reshape(self._input.shape)
        return None

    # ``forward`` already broadcasts over a leading group axis: ``x @ W.T``
    # on ``(G, B, in)`` runs one gemm per group, byte-identical to G
    # separate calls.  Folding the groups into rows, ``(G*B, in)``, would
    # change the gemm's blocking and so its rounding.
    def supports_grouped(self) -> bool:
        return True

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward_grouped(self, grad_output, grads):
        # Per group: ``grad.T @ x``, ``grad.sum(axis=0)`` and (but on a model's
        # input layer) ``grad @ W``, the expressions of ``backward``.  The gemm
        # accumulates from +0.0, so writing it straight into ``grads`` equals
        # adding it into a zeroed ``weight.grad``.  The bias is added into
        # zeros as in ``backward``, so a -0.0 sum reads +0.0 on either path.
        np.matmul(grad_output.transpose(0, 2, 1), self._input, out=grads[self.weight])
        if self.bias is not None:
            bias_grad = grads[self.bias]
            bias_grad.fill(0.0)
            bias_grad += grad_output.sum(axis=1)
        return grad_output @ self.weight.data if self.input_gradient else None


class Conv2d(Module):
    """2-D convolution with square kernels, implemented via im2col."""

    input_gradient = True  # False on a model's input layer: backward returns None

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: RngLike = None,
        dtype=None,
    ):
        super().__init__()
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = as_rng(rng)
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            ),
            name="weight",
            dtype=dtype,
        )
        self.bias = (
            Parameter(init.zeros((out_channels,)), name="bias", dtype=dtype)
            if bias
            else None
        )
        self._columns: np.ndarray = np.empty(0)
        self._input_shape: tuple = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input of shape (batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        self._input_shape = x.shape
        columns, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        self._columns = columns
        flat_weight = self.weight.data.reshape(self.out_channels, -1)
        output = columns @ flat_weight.T
        if self.bias is not None:
            output = output + self.bias.data
        batch = x.shape[0]
        # Channels-last storage behind an NCHW view: numpy reduces in memory
        # order, so a contiguous copy would move BatchNorm2d's bytes.
        return output.reshape(batch, out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        grad = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.weight.grad += (grad.T @ self._columns).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        if not self.input_gradient:
            return None
        grad_columns = grad @ self.weight.data.reshape(self.out_channels, -1)
        return col2im(
            grad_columns, self._input_shape, self.kernel_size, self.stride, self.padding
        )


class MaxPool2d(Module):
    """Max pooling with a square window (stride defaults to the window size).

    Both passes walk one strided view per window offset.  The argmax moves
    only on a strict ``>``: a tie goes to the first maximum, as with
    ``np.argmax``, and a NaN makes the window's output NaN but leaves its
    gradient on the first maximum before the NaN (on the NaN itself only
    when it is the window's first element).  The input gradient keeps the
    input's memory order, so ReLU and ``Conv2d`` below stay channels-last.
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        if kernel_size < 1 or self.stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        self._input_shape: tuple = ()
        self._order: tuple = ()  # the input's axes, outermost in memory first
        self._argmax: np.ndarray = np.empty(0)

    def _windows(self, image: np.ndarray, out_h: int, out_w: int) -> List[np.ndarray]:
        """The view of every window's ``(ky, kx)`` element, row-major."""
        k, s = self.kernel_size, self.stride
        return [
            image[:, :, ky : ky + s * out_h : s, kx : kx + s * out_w : s]
            for ky in range(k)
            for kx in range(k)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected (batch, channels, H, W) input, got {x.shape}")
        height, width = x.shape[2:]
        self._input_shape = x.shape
        self._order = (0, 2, 3, 1) if x.strides[1] < x.strides[3] else (0, 1, 2, 3)
        out_h, out_w = window_grid(height, width, self.kernel_size, self.stride, 0)
        views = self._windows(x, out_h, out_w)
        output = views[0].copy()
        argmax = np.zeros(output.shape, dtype=np.intp)
        for j, view in enumerate(views[1:], start=1):
            # Each argmax is below j, so this is np.where(view > output, j, argmax).
            np.maximum(argmax, (view > output) * j, out=argmax)
            np.maximum(output, view, out=output)
        self._argmax = argmax
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        axes = self._order
        shape = [self._input_shape[axis] for axis in axes]
        grad_input = np.zeros(shape, grad_output.dtype).transpose(np.argsort(axes))
        views = self._windows(grad_input, *self._argmax.shape[2:])
        # A sum from +0.0 never reads -0.0, so a finite gradient * mask adds
        # np.add.at's bytes; NaN or inf * False is NaN, so those keep np.where.
        finite = np.isfinite(grad_output).all()
        # Last offset first, so a pixel shared by overlapping windows sums
        # their gradients in row-major window order, as np.add.at did.
        for j in reversed(range(len(views))):
            hit = self._argmax == j
            views[j] += grad_output * hit if finite else np.where(hit, grad_output, 0)
        return grad_input


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing (batch, channels)."""

    def __init__(self):
        super().__init__()
        self._input_shape: tuple = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._input_shape
        grad = grad_output[:, :, None, None] / (height * width)
        return np.broadcast_to(grad, self._input_shape).copy()


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self):
        super().__init__()
        self._input_shape: tuple = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._input_shape)

    def supports_grouped(self) -> bool:
        return True

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward_grouped(self, grad_output, grads):
        return grad_output.reshape(self._input_shape)


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.5, *, rng: RngLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_rng(rng)
        self._mask: np.ndarray = np.empty(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = np.ones_like(x)
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        self._mask = mask.astype(x.dtype, copy=False)
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask


class _BatchNormBase(Module):
    """Shared batch-norm logic over an arbitrary reduction axis set.

    The running statistics are *buffers* (non-parameter state updated by the
    training forward pass); they participate in ``state_dict`` /
    ``load_state_dict`` via :meth:`_own_buffers`.  When ``stats_log`` is a
    list, every training forward also appends its ``(batch_mean, batch_var)``
    pair there — the parallel collect backends use this to replay client
    batch-statistics updates onto the global model in client order.
    """

    def __init__(
        self,
        num_features: int,
        *,
        momentum: float = 0.1,
        eps: float = 1e-5,
        dtype=None,
    ):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)), name="gamma", dtype=dtype)
        self.beta = Parameter(init.zeros((num_features,)), name="beta", dtype=dtype)
        self.running_mean = np.zeros(num_features, dtype=self.gamma.dtype)
        self.running_var = np.ones(num_features, dtype=self.gamma.dtype)
        self.stats_log: Optional[list] = None
        self._cache: tuple = ()

    def _cast_extra_state(self, dtype: np.dtype) -> None:
        # The running statistics follow the parameter dtype on Module.astype.
        self.running_mean = self.running_mean.astype(dtype, copy=False)
        self.running_var = self.running_var.astype(dtype, copy=False)

    def _own_buffers(self):
        yield "running_mean", self.running_mean
        yield "running_var", self.running_var

    def apply_batch_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's statistics into the running estimates.

        This is the exact update the training forward performs, factored out
        so a recorded ``stats_log`` can be replayed on another module with
        bit-identical floating-point results.
        """
        self.running_mean = (
            (1 - self.momentum) * self.running_mean + self.momentum * mean
        )
        self.running_var = (
            (1 - self.momentum) * self.running_var + self.momentum * var
        )

    def _reshape(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return stat.reshape(shape)

    def _axes(self, ndim: int) -> tuple:
        return tuple(axis for axis in range(ndim) if axis != 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._axes(x.ndim)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.apply_batch_stats(mean, var)
            if self.stats_log is not None:
                self.stats_log.append((mean, var))
        else:
            mean = self.running_mean
            var = self.running_var
        mean_b = self._reshape(mean, x.ndim)
        var_b = self._reshape(var, x.ndim)
        inv_std = 1.0 / np.sqrt(var_b + self.eps)
        normalized = (x - mean_b) * inv_std
        self._cache = (normalized, inv_std, axes, x.shape)
        return self._reshape(self.gamma.data, x.ndim) * normalized + self._reshape(
            self.beta.data, x.ndim
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, inv_std, axes, shape = self._cache
        self.gamma.grad += (grad_output * normalized).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        gamma_b = self._reshape(self.gamma.data, len(shape))
        grad_norm = grad_output * gamma_b
        if not self.training:
            return grad_norm * inv_std
        # Full batch-norm backward (training mode).
        grad_input = (
            grad_norm
            - grad_norm.mean(axis=axes, keepdims=True)
            - normalized * (grad_norm * normalized).mean(axis=axes, keepdims=True)
        ) * inv_std
        return grad_input


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over a (batch, features) input."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected (batch, {self.num_features}) input, got {x.shape}"
            )
        return super().forward(x)


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over a (batch, channels, H, W) input."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected (batch, {self.num_features}, H, W) input, got {x.shape}"
            )
        return super().forward(x)


class Embedding(Module):
    """Token embedding lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        *,
        rng: RngLike = None,
        dtype=None,
    ):
        super().__init__()
        if num_embeddings < 1 or embedding_dim < 1:
            raise ValueError("num_embeddings and embedding_dim must be >= 1")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        rng = as_rng(rng)
        self.weight = Parameter(
            init.normal((num_embeddings, embedding_dim), std=0.1, rng=rng),
            name="weight",
            dtype=dtype,
        )
        self._indices: np.ndarray = np.empty(0, dtype=int)

    def forward(self, x: np.ndarray) -> np.ndarray:
        indices = np.asarray(x, dtype=int)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise ValueError(
                f"token indices must be in [0, {self.num_embeddings}), "
                f"got range [{indices.min()}, {indices.max()}]"
            )
        self._indices = indices
        return self.weight.data[indices]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        flat_indices = self._indices.reshape(-1)
        flat_grad = grad_output.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, flat_indices, flat_grad)
        # Token indices are not differentiable; return zeros of the input shape.
        return np.zeros(self._indices.shape, dtype=self.weight.dtype)


class Sequential(Module):
    """Chain of layers applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = list(layers)

    def append(self, layer: Module) -> "Sequential":
        """Add a layer at the end of the chain."""
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        """Back-propagate in reverse; None from an input layer skips the rest."""
        for layer in reversed(self.layers):
            if grad_output is not None:
                grad_output = layer.backward(grad_output)
        return grad_output

    def supports_grouped(self) -> bool:
        return all(layer.supports_grouped() for layer in self.layers)

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward_grouped(x)
        return x

    def backward_grouped(self, grad_output, grads):
        for layer in reversed(self.layers):
            if grad_output is not None:
                grad_output = layer.backward_grouped(grad_output, grads)
        return grad_output


class Residual(Module):
    """Residual wrapper: ``y = body(x) + shortcut(x)``.

    The shortcut defaults to identity; pass a 1x1 convolution (or any other
    module) when the body changes the number of channels or resolution.
    """

    def __init__(self, body: Module, shortcut: Optional[Module] = None):
        super().__init__()
        self.body = body
        self.shortcut = shortcut if shortcut is not None else Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.body(x) + self.shortcut(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_body = self.body.backward(grad_output)
        grad_shortcut = self.shortcut.backward(grad_output)
        return grad_body + grad_shortcut
