"""Stateless numerical building blocks: softmax, one-hot, im2col/col2im.

Every function here is dtype-preserving: float32 inputs produce float32
intermediates and outputs (softmax, sigmoid, the im2col patch matrix), so a
float32 model runs its whole forward/backward pass at reduced precision
instead of silently promoting to float64 in the middle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def floating_dtype(dtype) -> np.dtype:
    """The working float dtype for an input dtype (non-floats use float64)."""
    dtype = np.dtype(dtype)
    return dtype if dtype.kind == "f" else np.dtype(np.float64)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, *, dtype=np.float64) -> np.ndarray:
    """Convert integer labels of shape ``(n,)`` into one-hot rows."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must be in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((len(labels), num_classes), dtype=dtype)
    encoded[np.arange(len(labels)), labels] = 1.0
    return encoded


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large |x|."""
    out = np.empty_like(x, dtype=floating_dtype(x.dtype))
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def window_grid(
    height: int, width: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a window sweep; raises if a side holds no window."""
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"a {kernel}x{kernel} window with stride {stride} and padding "
            f"{padding} does not fit a {height}x{width} input"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold image patches into columns for convolution as matrix multiply.

    One strided window view of the zero-padded input is copied once into
    the column matrix.

    Args:
        x: input of shape ``(batch, channels, height, width)``.
        kernel: square kernel size.
        stride: stride.
        padding: symmetric zero padding.

    Returns:
        (columns, out_h, out_w) where ``columns`` has shape
        ``(batch * out_h * out_w, channels * kernel * kernel)``.
    """
    batch, channels, height, width = x.shape
    out_h, out_w = window_grid(height, width, kernel, stride, padding)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=floating_dtype(x.dtype),
    )
    padded[:, :, padding : padding + height, padding : padding + width] = x
    windows = sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    columns = windows[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    return columns.reshape(batch * out_h * out_w, channels * kernel**2), out_h, out_w


def col2im(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold column gradients back into an image-shaped gradient (inverse of im2col).

    The fold runs channels-last, so each strided add reads ``columns``
    without a transpose; every pixel still sums its terms in the seed's
    ``(ky, kx)`` order.  Returns a C-contiguous NCHW array.
    """
    batch, channels, height, width = input_shape
    out_h, out_w = window_grid(height, width, kernel, stride, padding)
    columns = columns.reshape(batch, out_h, out_w, channels, kernel, kernel)
    padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels),
        dtype=floating_dtype(columns.dtype),
    )
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, ky:y_end:stride, kx:x_end:stride] += columns[..., ky, kx]
    interior = padded[:, padding : padding + height, padding : padding + width]
    return np.ascontiguousarray(interior.transpose(0, 3, 1, 2))
