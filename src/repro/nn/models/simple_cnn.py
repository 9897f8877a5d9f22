"""The paper's MNIST/Fashion-MNIST model: 3 conv layers + 2 fully connected."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.functional import conv_output_size
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, Sequential
from repro.nn.module import Module
from repro.utils.rng import RngLike, as_rng


class SimpleCNN(Module):
    """3-convolution, 2-fully-connected CNN.

    Mirrors the architecture described in Section V-A of the paper (a CNN
    with 3 convolutional layers and 2 fully connected layers), with channel
    widths scaled down so a 50-client federated round completes in well under
    a second on a laptop CPU.

    Args:
        in_channels: input image channels.
        image_size: (height, width) of the input images.
        num_classes: output classes.
        channels: channel widths of the three convolution stages.
        hidden_dim: width of the penultimate fully connected layer.
    """

    def __init__(
        self,
        in_channels: int = 1,
        image_size: Tuple[int, int] = (14, 14),
        num_classes: int = 10,
        *,
        channels: Sequence[int] = (8, 16, 16),
        hidden_dim: int = 32,
        rng: RngLike = None,
    ):
        super().__init__()
        if len(channels) != 3:
            raise ValueError(f"channels must have exactly 3 entries, got {channels}")
        rng = as_rng(rng)
        height, width = image_size
        c1, c2, c3 = channels

        def after_pool(size: int) -> int:
            return conv_output_size(size, 2, 2, 0)

        # conv1 (3x3, pad 1) -> pool -> conv2 -> pool -> conv3
        h1, w1 = after_pool(height), after_pool(width)
        h2, w2 = after_pool(h1), after_pool(w1)
        flattened = c3 * h2 * w2
        if flattened <= 0:
            raise ValueError(f"image size {image_size} is too small for SimpleCNN")

        self.features = Sequential(
            Conv2d(in_channels, c1, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(c1, c2, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(c2, c3, 3, padding=1, rng=rng),
            ReLU(),
        )
        self.features[0].input_gradient = False
        self.classifier = Sequential(
            Flatten(),
            Linear(flattened, hidden_dim, rng=rng),
            ReLU(),
            Linear(hidden_dim, num_classes, rng=rng),
        )
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(x))

    def backward(self, grad_output: np.ndarray) -> None:
        grad = self.classifier.backward(grad_output)
        return self.features.backward(grad)
