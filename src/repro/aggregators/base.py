"""Aggregator interface shared by baselines and SignGuard."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.utils.batch import GradientBatch
from repro.utils.rng import RngLike, as_rng


def _default_server_rng() -> np.random.Generator:
    """Deterministic generator for contexts built without an explicit seed.

    ``ServerContext()`` used to default to an *unseeded* ``default_rng()``,
    which made any aggregator that draws randomness (SignGuard's random
    coordinate selection) non-reproducible unless every call site
    remembered to pass a seed.  A fixed seed keeps the zero-config path
    deterministic; experiments that want varied draws pass their own
    generator via :meth:`ServerContext.make`.
    """
    return np.random.default_rng(0)


@dataclass
class ServerContext:
    """Per-round information available to the (defending) server.

    Attributes:
        round_index: current federated round.
        rng: the server's random generator (used e.g. for SignGuard's random
            coordinate selection).
        previous_gradient: the aggregate chosen in the previous round, the
            reference of SignGuard-Sim's and SignGuard-Dist's similarity
            feature.
        num_byzantine_hint: the Byzantine count the operator *believes*;
            baselines like Krum and Bulyan require it (the paper notes this
            is an unrealistic advantage), SignGuard ignores it.
        batch: the round's shared :class:`~repro.utils.batch.GradientBatch`
            compute cache, populated by :meth:`Aggregator.__call__` so every
            consumer (filters, features, pairwise-distance scorers) reuses
            one set of memoized norms / Gram / distance matrices.
    """

    round_index: int = 0
    rng: np.random.Generator = field(default_factory=_default_server_rng)
    previous_gradient: Optional[np.ndarray] = None
    num_byzantine_hint: Optional[int] = None
    batch: Optional[GradientBatch] = None

    @classmethod
    def make(cls, *, rng: RngLike = None, **kwargs: Any) -> "ServerContext":
        """Convenience constructor accepting a plain seed."""
        return cls(rng=as_rng(rng), **kwargs)


@dataclass
class AggregationResult:
    """Output of one aggregation step.

    Attributes:
        gradient: the aggregated gradient the server applies.
        selected_indices: rows of the input the rule treated as trusted.
            For rules without an explicit selection step (mean, median, ...)
            this is every row.
        info: diagnostic metadata (scores, cluster labels, thresholds...).
    """

    gradient: np.ndarray
    selected_indices: np.ndarray
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_selected(self) -> int:
        return len(self.selected_indices)


class Aggregator:
    """Base class for gradient aggregation rules."""

    name: str = "aggregator"
    #: True when the rule needs to be told the number of Byzantine clients.
    requires_byzantine_count: bool = False

    def aggregate(
        self, gradients: np.ndarray, context: Optional[ServerContext] = None
    ) -> AggregationResult:
        """Aggregate the stacked client gradients ``(n_clients, dim)``."""
        raise NotImplementedError

    def __call__(
        self, gradients: np.ndarray, context: Optional[ServerContext] = None
    ) -> AggregationResult:
        batch = GradientBatch.wrap(gradients)
        if context is None:
            context = ServerContext()
        context.batch = batch
        return self.aggregate(batch.matrix, context)

    def _byzantine_count(self, gradients: np.ndarray, context: ServerContext) -> int:
        """Resolve the Byzantine-count hint, defaulting to the max tolerable."""
        if context.num_byzantine_hint is not None:
            return int(context.num_byzantine_hint)
        # Without a hint, assume the largest tolerable minority.
        return max((len(gradients) - 1) // 2, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def all_indices(gradients: np.ndarray) -> np.ndarray:
    """Helper: every row index of the input."""
    return np.arange(len(gradients))
