"""Loss functions with explicit gradient computation."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import floating_dtype, log_softmax, one_hot, softmax


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    ``forward`` returns the mean loss over the batch; ``backward`` returns
    the gradient of that mean loss with respect to the logits.
    """

    def __init__(self):
        self._probabilities: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits)
        logits = logits.astype(floating_dtype(logits.dtype), copy=False)
        targets = np.asarray(targets, dtype=int)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D (batch, classes), got {logits.shape}")
        if len(logits) != len(targets):
            raise ValueError(
                f"batch size mismatch: {len(logits)} logits vs {len(targets)} targets"
            )
        log_probs = log_softmax(logits, axis=1)
        self._probabilities = softmax(logits, axis=1)
        self._targets = targets
        picked = log_probs[np.arange(len(targets)), targets]
        return float(-picked.mean())

    def backward(self) -> np.ndarray:
        if self._probabilities is None or self._targets is None:
            raise RuntimeError("forward must be called before backward")
        batch = len(self._targets)
        grad = self._probabilities - one_hot(
            self._targets, self._probabilities.shape[1], dtype=self._probabilities.dtype
        )
        return grad / batch

    def forward_grouped(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-group mean losses of ``(groups, batch, classes)`` logits.

        Entry ``g`` equals ``forward(logits[g], targets[g])``, and
        :meth:`backward_grouped` stacks the matching :meth:`backward`
        results.  As there, a negative label raises in the backward pass.
        """
        logits = np.asarray(logits)
        logits = logits.astype(floating_dtype(logits.dtype), copy=False)
        targets = np.asarray(targets, dtype=int)
        if logits.ndim != 3:
            raise ValueError(
                f"grouped logits must be 3-D (groups, batch, classes), "
                f"got {logits.shape}"
            )
        if targets.shape != logits.shape[:2]:
            raise ValueError(
                f"batch size mismatch: {logits.shape[:2]} logits vs "
                f"{targets.shape} targets"
            )
        log_probs = log_softmax(logits, axis=-1)
        self._probabilities = softmax(logits, axis=-1)
        self._targets = targets
        picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
        return -picked.mean(axis=1)

    def backward_grouped(self) -> np.ndarray:
        if self._probabilities is None or self._targets is None:
            raise RuntimeError("forward_grouped must be called before backward")
        probabilities = self._probabilities
        _, batch, classes = probabilities.shape
        encoded = one_hot(
            self._targets.reshape(-1), classes, dtype=probabilities.dtype
        ).reshape(probabilities.shape)
        return (probabilities - encoded) / batch

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    logits = np.asarray(logits)
    targets = np.asarray(targets, dtype=int)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == targets))
