"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

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
