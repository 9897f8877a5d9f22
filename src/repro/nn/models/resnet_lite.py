"""ResNetLite: small residual CNN standing in for ResNet-18.

The paper uses ResNet-18 on CIFAR-10 and shows (Fig. 2) that its gradient
sign statistics are nearly balanced between positive and negative — the
regime where SignGuard's plain sign features are weakest and the similarity
feature helps.  What produces that balance is the combination of residual
connections and batch normalization, both of which this model keeps, while
the channel widths and depth are reduced so federated rounds stay fast.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    Residual,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.rng import RngLike, as_rng


def _basic_block(in_channels: int, out_channels: int, stride: int, rng) -> Residual:
    """Standard ResNet basic block (two 3x3 convolutions + shortcut)."""
    body = Sequential(
        Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng
        ),
        BatchNorm2d(out_channels),
        ReLU(),
        Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng),
        BatchNorm2d(out_channels),
    )
    if stride != 1 or in_channels != out_channels:
        shortcut = Sequential(
            Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
            BatchNorm2d(out_channels),
        )
    else:
        shortcut = Identity()
    return Residual(body, shortcut)


class ResNetLite(Module):
    """Reduced residual network: stem + two residual stages + linear head."""

    def __init__(
        self,
        in_channels: int = 3,
        image_size: Tuple[int, int] = (16, 16),
        num_classes: int = 10,
        *,
        base_channels: int = 8,
        rng: RngLike = None,
    ):
        super().__init__()
        rng = as_rng(rng)
        self.stem = Sequential(
            Conv2d(in_channels, base_channels, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(base_channels),
            ReLU(),
        )
        self.stem[0].input_gradient = False
        self.stage1 = _basic_block(base_channels, base_channels, stride=1, rng=rng)
        self.relu1 = ReLU()
        self.stage2 = _basic_block(base_channels, 2 * base_channels, stride=2, rng=rng)
        self.relu2 = ReLU()
        self.pool = GlobalAvgPool2d()
        self.head = Linear(2 * base_channels, num_classes, rng=rng)
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.stem(x)
        out = self.relu1(self.stage1(out))
        out = self.relu2(self.stage2(out))
        out = self.pool(out)
        return self.head(out)

    def backward(self, grad_output: np.ndarray) -> None:
        grad = self.head.backward(grad_output)
        grad = self.pool.backward(grad)
        grad = self.stage2.backward(self.relu2.backward(grad))
        grad = self.stage1.backward(self.relu1.backward(grad))
        return self.stem.backward(grad)
