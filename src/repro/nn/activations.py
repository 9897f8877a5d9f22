"""Elementwise activation layers.

ReLU avoids ``np.where``: its per-element branch mispredicts on data-dependent masks.
"""

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
        # np.where(x > 0, x, 0.0)'s bytes: += 0.0 makes fmax's -0.0 +0.0.
        output = np.fmax(x, 0.0)
        output += 0.0
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._mask

    # Elementwise, so the per-batch pass already carries a group axis.
    def supports_grouped(self) -> bool:
        return True

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward_grouped(self, grad_output, grads):
        return self.backward(grad_output)
