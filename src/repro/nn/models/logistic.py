"""Multinomial logistic-regression classifier (single linear layer)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Flatten, Linear, Sequential
from repro.nn.module import Module
from repro.utils.rng import RngLike, as_rng


class LogisticRegression(Module):
    """Softmax regression over flattened inputs.

    The lightest model in the zoo; used by fast tests and by analysis
    experiments where a convex objective is convenient.
    """

    def __init__(self, input_dim: int, num_classes: int, *, rng: RngLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.network = Sequential(Flatten(), Linear(input_dim, num_classes, rng=rng))
        self.network[1].input_gradient = False  # the Linear, after Flatten
        self.input_dim = input_dim
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.network(x)

    def backward(self, grad_output: np.ndarray) -> None:
        return self.network.backward(grad_output)

    def supports_grouped(self) -> bool:
        return self.network.supports_grouped()

    def forward_grouped(self, x: np.ndarray) -> np.ndarray:
        return self.network.forward_grouped(x)

    def backward_grouped(self, grad_output, grads):
        return self.network.backward_grouped(grad_output, grads)
