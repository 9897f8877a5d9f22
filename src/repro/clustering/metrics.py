"""Euclidean distance matrix shared by Mean-Shift and its bandwidth heuristic."""

from __future__ import annotations

import numpy as np


def pairwise_distances(x: np.ndarray, y: np.ndarray = None) -> np.ndarray:
    """Euclidean distance matrix between rows of ``x`` and rows of ``y``.

    When ``y`` is omitted, computes the symmetric self-distance matrix.
    Uses the expanded quadratic form for efficiency and clamps tiny negative
    values introduced by floating-point cancellation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = x if y is None else np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"x and y must have the same dimensionality, got {x.shape} and {y.shape}"
        )
    x_sq = np.sum(x**2, axis=1)[:, None]
    y_sq = np.sum(y**2, axis=1)[None, :]
    squared = x_sq + y_sq - 2.0 * (x @ y.T)
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)
