"""A small numpy neural-network library with explicit forward/backward passes.

This package is the training substrate that stands in for PyTorch in the
reproduction.  It exposes:

* :class:`Parameter` / :class:`Module` — the layer abstraction (explicit
  ``forward`` / ``backward``, accumulated gradients).
* layers — ``Linear``, ``Conv2d``, max and global-average pooling,
  ``BatchNorm``, ``Dropout``, ``Embedding``, ``Sequential``, residual
  blocks, and the ``ReLU`` activation.
* recurrent layers — ``RNN``, ``LSTM``, bidirectional wrappers.
* losses — ``CrossEntropyLoss``.
* optimizers — ``SGD`` with momentum and weight decay.
* vectorization helpers — flatten/unflatten model parameters and gradients
  into the 1-D vectors that the federated-learning layer exchanges.

Only the pieces required by the paper's models (CNN, residual CNN, text RNN)
are implemented, but each piece is a complete, tested implementation rather
than a stub.
"""

from repro.nn.module import Module, Parameter
from repro.nn.activations import ReLU
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Residual,
    Sequential,
)
from repro.nn.recurrent import LSTM, RNN, BiRNN
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.nn.vectorize import (
    count_parameters,
    get_flat_gradients,
    get_flat_parameters,
    set_flat_gradients,
    set_flat_parameters,
)

__all__ = [
    "Module",
    "Parameter",
    "ReLU",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "Dropout",
    "Embedding",
    "Flatten",
    "Identity",
    "Residual",
    "Sequential",
    "RNN",
    "LSTM",
    "BiRNN",
    "CrossEntropyLoss",
    "SGD",
    "count_parameters",
    "get_flat_parameters",
    "set_flat_parameters",
    "get_flat_gradients",
    "set_flat_gradients",
]
