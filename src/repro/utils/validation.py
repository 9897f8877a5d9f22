"""Input-validation helpers shared across the library.

All validators raise ``ValueError`` (or ``TypeError`` for wrong types) with a
message that names the offending argument, so failures deep inside a
federated simulation are easy to attribute.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Ensure ``value`` is a (strictly) positive finite number."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Ensure ``value`` lies in [0, 1] (or (0, 1) when ``inclusive=False``)."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_gradient_matrix(
    gradients: np.ndarray,
    name: str = "gradients",
    *,
    preserve_dtype: bool = False,
    finite: bool = True,
) -> np.ndarray:
    """Validate a stacked gradient matrix of shape ``(n_clients, dim)``.

    Returns the input coerced to a 2-D float64 array (a 1-D vector becomes
    one row), or, with ``preserve_dtype=True``, a 2-D float32 or float64
    array.  An input that already qualifies is returned as is, not copied.
    Empty matrices and non-finite entries are rejected because every
    aggregation rule in the library assumes at least one finite gradient.

    Args:
        preserve_dtype: keep a float32 or float64 input's dtype instead of
            upcasting float32 (the reduced-precision round path); any other
            dtype is still coerced to float64.
        finite: scan for non-finite entries (``GradientBatch`` checks norms).
    """
    if preserve_dtype:
        array = np.asarray(gradients)
        if array.dtype not in (np.float32, np.float64):
            array = np.asarray(array, dtype=np.float64)
    else:
        array = np.asarray(gradients, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise ValueError(
            f"{name} must be a 2-D array of shape (n_clients, dim), "
            f"got shape {array.shape}"
        )
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {array.shape}")
    if finite and not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite entries")
    return array


def check_probability_vector(probs: np.ndarray, name: str = "probs") -> np.ndarray:
    """Validate a 1-D vector of non-negative numbers that sums to 1."""
    array = np.asarray(probs, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    if np.any(array < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(array.sum())
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"{name} must sum to 1, got {total}")
    return array


def check_byzantine_count(
    num_byzantine: int, num_clients: int, *, name: str = "num_byzantine"
) -> int:
    """Ensure the Byzantine count is valid for ``num_clients`` participants.

    The paper's threat model requires a strict Byzantine minority
    (``n >= 2m + 1``).
    """
    num_byzantine = int(num_byzantine)
    num_clients = int(num_clients)
    if num_byzantine < 0:
        raise ValueError(f"{name} must be non-negative, got {num_byzantine}")
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if num_byzantine * 2 >= num_clients:
        raise ValueError(
            f"{name}={num_byzantine} violates the Byzantine-minority requirement "
            f"n >= 2m + 1 for n={num_clients}"
        )
    return num_byzantine


def check_same_dimension(
    a: np.ndarray, b: np.ndarray, name_a: str = "a", name_b: str = "b"
) -> None:
    """Ensure two vectors/matrices share their trailing dimension."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"{name_a} and {name_b} must share their last dimension, "
            f"got {a.shape} and {b.shape}"
        )


def check_integer_in_range(
    value: int,
    name: str,
    *,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> int:
    """Ensure an integer falls in the inclusive range [minimum, maximum]."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value
