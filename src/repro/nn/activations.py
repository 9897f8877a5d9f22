"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import sigmoid
from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray = np.empty(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask

    # Elementwise, so the per-batch pass already carries a group axis.
    def supports_grouped(self) -> bool:
        return True

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward_grouped(self, grad_output, grads):
        return self.backward(grad_output)


class LeakyReLU(Module):
    """Leaky rectified linear unit with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        if negative_slope < 0:
            raise ValueError(f"negative_slope must be >= 0, got {negative_slope}")
        self.negative_slope = negative_slope
        self._mask: np.ndarray = np.empty(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)


class Sigmoid(Module):
    """Logistic activation."""

    def __init__(self):
        super().__init__()
        self._output: np.ndarray = np.empty(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = sigmoid(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._output * (1.0 - self._output)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def __init__(self):
        super().__init__()
        self._output: np.ndarray = np.empty(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._output**2)
