"""The parameter server: aggregates gradients and updates the global model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.aggregators.base import AggregationResult, Aggregator, ServerContext
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.perf.profiler import NULL_PROFILER, RoundProfiler
from repro.utils.rng import RngLike, as_rng


class FederatedServer:
    """Holds the global model, the defense (aggregation rule), and the optimizer.

    Args:
        model: the global model.
        aggregator: the gradient aggregation rule (defense).
        learning_rate, momentum, weight_decay: server-side SGD parameters
            (the paper applies momentum/weight decay at the model update).
        num_byzantine_hint: Byzantine count passed to rules that require it
            (Krum, Bulyan, trimmed mean...).  SignGuard ignores it.
        rng: server-side randomness (SignGuard's coordinate sampling, DnC's
            coordinate subsampling).
        profiler: optional :class:`~repro.perf.profiler.RoundProfiler`; when
            given, the defense ("aggregate") and the model update
            ("model_update") are timed as separate stages every round.
    """

    def __init__(
        self,
        model: Module,
        aggregator: Aggregator,
        *,
        learning_rate: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
        num_byzantine_hint: Optional[int] = None,
        rng: RngLike = None,
        profiler: Optional[RoundProfiler] = None,
    ):
        self.model = model
        self.aggregator = aggregator
        self.optimizer = SGD(
            model.parameters(),
            lr=learning_rate,
            momentum=momentum,
            weight_decay=weight_decay,
        )
        self.num_byzantine_hint = num_byzantine_hint
        self._rng = as_rng(rng)
        self._previous_gradient: Optional[np.ndarray] = None
        self.round_index = 0
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    @property
    def learning_rate(self) -> float:
        return self.optimizer.lr

    @learning_rate.setter
    def learning_rate(self, value: float) -> None:
        self.optimizer.lr = value

    def make_context(
        self, *, num_byzantine_hint: Optional[int] = None
    ) -> ServerContext:
        """Build the per-round context handed to the aggregation rule.

        Args:
            num_byzantine_hint: per-round override of the configured hint —
                under partial participation the simulation scales the
                population-level belief to the sampled cohort.  ``None``
                keeps the configured value.
        """
        return ServerContext(
            round_index=self.round_index,
            rng=self._rng,
            previous_gradient=self._previous_gradient,
            num_byzantine_hint=(
                self.num_byzantine_hint
                if num_byzantine_hint is None
                else int(num_byzantine_hint)
            ),
        )

    def aggregate_and_update(
        self,
        gradients: np.ndarray,
        *,
        num_byzantine_hint: Optional[int] = None,
    ) -> AggregationResult:
        """Run the defense on the submitted gradients and update the model.

        ``gradients`` has one row per *reporting* client this round — under
        partial participation that is the active cohort, not the population.

        Args:
            num_byzantine_hint: per-round hint override (see
                :meth:`make_context`).
        """
        context = self.make_context(num_byzantine_hint=num_byzantine_hint)
        with self.profiler.stage("aggregate"):
            result = self.aggregator(gradients, context)
        with self.profiler.stage("model_update"):
            self.optimizer.apply_gradient_vector(result.gradient)
        # Keep the round buffer's dtype: copying to float64 here would
        # silently double the float32 path's memory traffic for the
        # history-aware features that consume the previous aggregate.
        # repro-lint: disable=dtype-discipline -- deliberately dtype-preserving
        previous = np.asarray(result.gradient)
        if previous.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            previous = previous.astype(np.float64)
        self._previous_gradient = previous.copy()
        self.round_index += 1
        return result
