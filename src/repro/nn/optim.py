"""The server and client optimizer: momentum SGD.

The paper trains every task with momentum SGD (momentum 0.9, weight decay
5e-4).  ``SGD`` follows the standard PyTorch formulation: weight decay is
added to the gradient before the momentum update.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


def check_momentum(momentum: float) -> None:
    """Require ``0 <= momentum < 1``: at 1 the velocity never decays."""
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.1,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        check_momentum(momentum)
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocities: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def zero_grad(self) -> None:
        """Zero every managed parameter gradient."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored on parameters."""
        for index, param in enumerate(self.parameters):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocities[index]
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocities[index] = velocity
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            param.data -= self.lr * grad

    def apply_gradient_vector(self, flat_gradient: np.ndarray) -> None:
        """Apply one update from an externally supplied flat gradient.

        This is the entry point used by the federated-learning server/clients:
        the aggregated gradient vector is scattered back onto the parameters
        and then a normal :meth:`step` is taken.
        """
        flat_gradient = np.asarray(flat_gradient, dtype=np.float64)
        offset = 0
        for param in self.parameters:
            size = param.size
            param.grad[...] = flat_gradient[offset : offset + size].reshape(
                param.data.shape
            )
            offset += size
        if offset != flat_gradient.size:
            raise ValueError(
                f"gradient vector has {flat_gradient.size} entries but the model "
                f"has {offset} parameters"
            )
        self.step()

    def state_dict(self) -> dict:
        """Mutable optimizer state (learning rate + momentum velocities).

        Velocities are copied, so the snapshot is decoupled from further
        :meth:`step` calls — this is the optimizer half of a run
        checkpoint (:mod:`repro.fl.checkpoint`).
        """
        return {
            "lr": float(self.lr),
            "velocities": [
                None if velocity is None else velocity.copy()
                for velocity in self._velocities
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        velocities = state["velocities"]
        if len(velocities) != len(self.parameters):
            raise ValueError(
                f"optimizer state has {len(velocities)} velocities but this "
                f"optimizer manages {len(self.parameters)} parameters"
            )
        restored: List[Optional[np.ndarray]] = []
        for param, velocity in zip(self.parameters, velocities):
            if velocity is None:
                restored.append(None)
                continue
            velocity = np.asarray(velocity)
            if velocity.shape != param.data.shape:
                raise ValueError(
                    f"velocity shape {velocity.shape} does not match "
                    f"parameter shape {param.data.shape}"
                )
            restored.append(velocity.astype(param.data.dtype, copy=True))
        self._velocities = restored
        self.lr = float(state["lr"])
