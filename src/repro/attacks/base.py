"""Attack interface and the per-round context handed to attacks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_gradient_matrix


@dataclass
class AttackContext:
    """What an attack reads of one round besides the honest gradients.

    Under partial participation the context is *cohort-scoped*: the attacker
    only controls the Byzantine clients that were sampled and reported this
    round, and every index refers to a row of the round's gradient matrix,
    not to a global client id.

    Attributes:
        round_index: current federated round (0-based).
        num_clients: number of gradient rows this round — the full
            population ``n`` under full participation, the active cohort
            size under sampling.
        byzantine_indices: row indices (within this round's gradient
            matrix) of the clients controlled by the attacker.
        rng: the attacker's random generator.
    """

    round_index: int
    num_clients: int
    byzantine_indices: np.ndarray
    rng: np.random.Generator

    @property
    def num_byzantine(self) -> int:
        return len(self.byzantine_indices)

    @classmethod
    def make(
        cls,
        *,
        round_index: int = 0,
        num_clients: int,
        byzantine_indices,
        rng: RngLike = None,
    ) -> "AttackContext":
        """Convenience constructor used by tests and the simulator."""
        return cls(
            round_index=round_index,
            num_clients=num_clients,
            byzantine_indices=np.asarray(byzantine_indices, dtype=int),
            rng=as_rng(rng),
        )


class Attack:
    """Base class for model-poisoning attacks.

    Subclasses override :meth:`craft`, which receives the *honest* gradients
    of every client (the omniscient threat model of the paper: the attacker
    knows all benign gradients and the Byzantine clients can collude) and
    returns the malicious gradients the Byzantine clients will submit.
    """

    name: str = "attack"
    #: True when the attack corrupts the local training data (label flipping)
    #: rather than the submitted gradient.
    poisons_data: bool = False

    def craft(self, honest_gradients: np.ndarray, context: AttackContext) -> np.ndarray:
        """Return malicious gradients of shape ``(num_byzantine, dim)``."""
        raise NotImplementedError

    def apply(
        self,
        honest_gradients: np.ndarray,
        context: AttackContext,
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return the full gradient matrix after replacing Byzantine rows.

        This is the entry point used by the federated server simulation; it
        validates shapes and leaves benign rows untouched.  The input dtype
        is preserved (float32 stays float32) so the simulation's
        reduced-precision round path survives the attack stage.

        ``out`` follows numpy's convention: the result is written into it
        and it is returned.  It must be a 2-D float32/float64 array of the
        (validated) input's shape and dtype, and it may be
        ``honest_gradients`` itself — the simulation's in-place round, in
        which only the Byzantine rows are written.  Aliasing is safe
        because every check runs before anything is written (a non-finite
        input raises with ``out`` unchanged), and :meth:`craft` reads the
        honest matrix in full before the Byzantine rows are overwritten.
        With ``out=None`` the input is left untouched and a fresh matrix is
        returned.
        """
        gradients = check_gradient_matrix(honest_gradients, preserve_dtype=True)
        if out is not None:
            _check_out(out, gradients)
        byzantine = np.asarray(context.byzantine_indices, dtype=int)
        out_of_range = len(byzantine) and (
            byzantine.min() < 0 or byzantine.max() >= len(gradients)
        )
        if out_of_range:
            raise ValueError(
                f"byzantine indices {byzantine} out of range for "
                f"{len(gradients)} clients"
            )
        if out is None:
            out = gradients.copy()
        elif out is not gradients:
            np.copyto(out, gradients)
        if len(byzantine) == 0:
            return out
        malicious = np.atleast_2d(self.craft(out, context))
        if malicious.shape != (len(byzantine), out.shape[1]):
            raise ValueError(
                f"{self.name} produced malicious gradients of shape "
                f"{malicious.shape}, expected {(len(byzantine), out.shape[1])}"
            )
        out[byzantine] = malicious
        return out

    def benign_rows(
        self, honest_gradients: np.ndarray, context: AttackContext
    ) -> np.ndarray:
        """Honest gradients of the clients *not* controlled by the attacker.

        Under partial participation a sampled cohort can consist entirely
        of Byzantine clients, making this **empty** — callers that estimate
        statistics from it (mean/std) must handle that case themselves
        (sums over an empty matrix are legitimately zero, so e.g. ByzMean's
        Eq. 8 needs no special-casing).
        """
        mask = np.ones(len(honest_gradients), dtype=bool)
        mask[np.asarray(context.byzantine_indices, dtype=int)] = False
        return honest_gradients[mask]

    def state_dict(self) -> Dict[str, Any]:
        """Mutable cross-round state for checkpointing.

        Most attacks are pure functions of their per-round context and
        return ``{}``; stateful attacks (``TimeVaryingAttack``) override
        this together with :meth:`load_state_dict` so a resumed run
        replays their decisions bit-exactly.
        """
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but was handed "
                f"checkpointed attack state {sorted(state)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def _check_out(out: np.ndarray, gradients: np.ndarray) -> None:
    """``Attack.apply``'s ``out`` must take the validated matrix as is.

    A mismatch raises rather than casting, so an input that validation
    coerced (an int matrix becomes float64) can never silently leave the
    caller's buffer unwritten.
    """
    if (
        not isinstance(out, np.ndarray)
        or out.ndim != 2
        or out.dtype not in (np.float32, np.float64)
        or out.shape != gradients.shape
        or out.dtype != gradients.dtype
    ):
        raise ValueError(
            f"out must be a 2-D float32/float64 array of shape "
            f"{gradients.shape} and dtype {gradients.dtype}, got "
            f"{type(out).__name__} of shape {getattr(out, 'shape', None)} "
            f"and dtype {getattr(out, 'dtype', None)}"
        )
