"""Flattening models to the 1-D vectors exchanged in federated learning.

The entire attack/defense layer of the reproduction operates on flat
``numpy`` vectors; these helpers convert between a :class:`Module`'s
parameters/gradients and that representation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.module import Module, Parameter


def count_parameters(model: Module) -> int:
    """Total number of scalar parameters in ``model``."""
    return model.num_parameters()


def get_flat_parameters(model: Module) -> np.ndarray:
    """Concatenate all parameter values into a single 1-D vector."""
    parts: List[np.ndarray] = [param.data.reshape(-1) for param in model.parameters()]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def set_flat_parameters(model: Module, flat: np.ndarray) -> None:
    """Write a flat parameter vector back into the model (in place).

    The values are cast to each parameter's own dtype as they are scattered,
    so float32 models stay float32.
    """
    flat = np.asarray(flat)
    offset = 0
    for param in model.parameters():
        size = param.size
        param.data[...] = flat[offset : offset + size].reshape(param.data.shape)
        offset += size
    if offset != flat.size:
        raise ValueError(
            f"flat vector has {flat.size} entries but the model has {offset} parameters"
        )


def get_flat_gradients(model: Module) -> np.ndarray:
    """Concatenate all parameter gradients into a single 1-D vector."""
    parts: List[np.ndarray] = [param.grad.reshape(-1) for param in model.parameters()]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def grouped_gradient_views(
    model: Module, block: np.ndarray
) -> Dict[Parameter, np.ndarray]:
    """Per-parameter views into a ``(G, num_parameters)`` gradient block.

    Each row of ``block`` is laid out as :func:`get_flat_gradients` lays out
    one gradient; ``views[param]`` has shape ``(G, *param.shape)``, so a
    grouped backward pass (``Module.backward_grouped``) writes group ``g``'s
    gradient straight into row ``g``.  ``block`` must be C-contiguous.
    """
    if not block.flags.c_contiguous:
        raise ValueError("gradient block must be C-contiguous")
    views: Dict[Parameter, np.ndarray] = {}
    offset = 0
    for param in model.parameters():
        columns = block[:, offset : offset + param.size]
        views[param] = columns.reshape((len(block),) + param.shape)
        offset += param.size
    if offset != block.shape[1]:
        raise ValueError(
            f"gradient block has {block.shape[1]} columns but the model has "
            f"{offset} parameters"
        )
    return views


def set_flat_gradients(model: Module, flat: np.ndarray) -> None:
    """Write a flat gradient vector back into the model parameters (in place)."""
    flat = np.asarray(flat)
    offset = 0
    for param in model.parameters():
        size = param.size
        param.grad[...] = flat[offset : offset + size].reshape(param.data.shape)
        offset += size
    if offset != flat.size:
        raise ValueError(
            f"flat vector has {flat.size} entries but the model has {offset} parameters"
        )
