"""Multi-layer perceptron classifier."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import Flatten, Linear, Sequential
from repro.nn.module import Module
from repro.utils.rng import RngLike, as_rng


class MLP(Module):
    """Fully connected classifier with ReLU hidden layers.

    Args:
        input_dim: flattened input dimension.
        num_classes: number of output classes.
        hidden_dims: sizes of the hidden layers (may be empty for a linear
            classifier).
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        hidden_dims: Sequence[int] = (64, 32),
        *,
        rng: RngLike = None,
    ):
        super().__init__()
        rng = as_rng(rng)
        layers = [Flatten()]
        previous = input_dim
        for hidden in hidden_dims:
            layers.append(Linear(previous, hidden, rng=rng))
            layers.append(ReLU())
            previous = hidden
        layers.append(Linear(previous, num_classes, rng=rng))
        layers[1].input_gradient = False  # the first Linear, after Flatten
        self.network = Sequential(*layers)
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
