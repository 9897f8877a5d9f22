"""SignGuard aggregators (plain, -Sim, -Dist) exposing the Aggregator interface.

These classes wrap :class:`~repro.core.pipeline.SignGuardPipeline` so the
federated server can use SignGuard exactly like any baseline rule.  Unlike
the baselines, SignGuard never consumes the server's Byzantine-count hint —
the paper highlights this as a practical advantage.
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import AggregationResult, Aggregator, ServerContext
from repro.aggregators.factory import AGGREGATOR_REGISTRY
from repro.core.pipeline import SignGuardPipeline
from repro.utils.batch import resolve_batch


class SignGuard(Aggregator):
    """Plain SignGuard: sign statistics only (no similarity feature).

    Args:
        lower, upper: relative norm bounds (paper defaults 0.1 and 3.0).
        coordinate_fraction: fraction of coordinates for sign statistics
            (paper default 10%).
        clustering: Mean-Shift fit, ``"meanshift"`` (default) or
            ``"meanshift_binned"``.
        bandwidth_quantile: Mean-Shift bandwidth heuristic quantile, in
            ``(0, 1]``.
        use_norm_threshold / use_sign_clustering / use_norm_clipping:
            component toggles used by the Table III ablation.
    """

    name = "signguard"
    similarity = "none"

    def __init__(
        self,
        *,
        lower: float = 0.1,
        upper: float = 3.0,
        coordinate_fraction: float = 0.1,
        clustering: str = "meanshift",
        bandwidth_quantile: float = 0.5,
        use_norm_threshold: bool = True,
        use_sign_clustering: bool = True,
        use_norm_clipping: bool = True,
    ):
        self.pipeline = SignGuardPipeline(
            use_norm_threshold=use_norm_threshold,
            use_sign_clustering=use_sign_clustering,
            use_norm_clipping=use_norm_clipping,
            lower=lower,
            upper=upper,
            similarity=self.similarity,
            coordinate_fraction=coordinate_fraction,
            clustering=clustering,
            bandwidth_quantile=bandwidth_quantile,
        )

    def aggregate(
        self, gradients: np.ndarray, context: ServerContext
    ) -> AggregationResult:
        outcome = self.pipeline.aggregate(
            resolve_batch(gradients, context),
            reference=context.previous_gradient,
            rng=context.rng,
        )
        info = dict(outcome["info"])
        info["rule"] = self.name
        return AggregationResult(
            gradient=outcome["gradient"],
            selected_indices=outcome["selected_indices"],
            info=info,
        )


class SignGuardSim(SignGuard):
    """SignGuard-Sim: sign statistics + cosine similarity to the previous aggregate."""

    name = "signguard_sim"
    similarity = "cosine"


class SignGuardDist(SignGuard):
    """SignGuard-Dist: sign statistics + Euclidean distance to previous aggregate."""

    name = "signguard_dist"
    similarity = "euclidean"


AGGREGATOR_REGISTRY.register("signguard", SignGuard)
AGGREGATOR_REGISTRY.register("signguard_sim", SignGuardSim)
AGGREGATOR_REGISTRY.register("signguard_dist", SignGuardDist)
AGGREGATOR_REGISTRY.register_alias("sign_guard", "signguard")
