"""The SignGuard filtering pipeline (Algorithm 2).

The pipeline runs the enabled filters in parallel over the received
gradients, intersects their trusted sets, and aggregates the survivors with
a norm-clipped mean.  Each stage can be toggled independently, which is what
the Table III ablation exercises (thresholding / clustering / norm-clipping).

All per-round derived quantities (row norms, Gram/distance matrices for the
similarity fallbacks) flow through one :class:`~repro.utils.batch.GradientBatch`,
so the matrix is validated once and each quantity is computed at most once
per round no matter how many stages consume it.

The pipeline makes no assumption about the matrix's row count: under
partial participation the simulation submits one row per *reporting* client
(the active cohort), which varies round to round — every threshold, sign
statistic, clustering pass, and the clipped mean are sized from the batch
itself, and the per-round ``GradientBatch`` is built fresh each aggregation
call so a cohort-size change can never reuse stale-shape cached quantities.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.aggregators.norms import clip_scales
from repro.core.filters import FilterDecision, NormThresholdFilter, SignClusteringFilter
from repro.utils.batch import ArrayOrBatch, GradientBatch
from repro.utils.rng import RngLike, as_rng


class SignGuardPipeline:
    """Composable SignGuard: norm filter ∩ sign-clustering filter → clipped mean.

    Args:
        use_norm_threshold: enable the norm-based thresholding filter.
        use_sign_clustering: enable the sign-based clustering filter.
        use_norm_clipping: clip every trusted gradient to the median norm
            before averaging.
        lower, upper: relative-norm bounds for the thresholding filter
            (the paper's defaults are ``L = 0.1`` and ``R = 3.0``).
        similarity: ``"none"`` / ``"cosine"`` / ``"euclidean"`` — selects the
            plain / -Sim / -Dist feature sets.
        coordinate_fraction: fraction of coordinates used for sign statistics
            (the paper uses 10%).
        clustering: Mean-Shift fit of the sign filter, ``"meanshift"`` (the
            paper's dense fit) or ``"meanshift_binned"`` (the scaling path).
        bandwidth_quantile: Mean-Shift bandwidth heuristic quantile, in
            ``(0, 1]``.

    Both filters are built here, so their argument checks (see
    :class:`~repro.core.filters.SignClusteringFilter`) raise before any
    round runs.
    """

    def __init__(
        self,
        *,
        use_norm_threshold: bool = True,
        use_sign_clustering: bool = True,
        use_norm_clipping: bool = True,
        lower: float = 0.1,
        upper: float = 3.0,
        similarity: str = "none",
        coordinate_fraction: float = 0.1,
        clustering: str = "meanshift",
        bandwidth_quantile: float = 0.5,
    ):
        if not (use_norm_threshold or use_sign_clustering or use_norm_clipping):
            raise ValueError("at least one defensive component must be enabled")
        self.use_norm_threshold = use_norm_threshold
        self.use_sign_clustering = use_sign_clustering
        self.use_norm_clipping = use_norm_clipping
        self.norm_filter = NormThresholdFilter(lower=lower, upper=upper)
        self.sign_filter = SignClusteringFilter(
            similarity=similarity,
            coordinate_fraction=coordinate_fraction,
            clustering=clustering,
            bandwidth_quantile=bandwidth_quantile,
        )

    def filter(
        self,
        gradients: ArrayOrBatch,
        *,
        reference: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ) -> FilterDecision:
        """Run the enabled filters and return the intersected trusted set."""
        batch = GradientBatch.wrap(gradients)
        rng = as_rng(rng)
        decision = FilterDecision(selected_indices=np.arange(batch.n_clients))
        if self.use_norm_threshold:
            decision = decision.intersect(
                self.norm_filter.apply(batch, reference=reference, rng=rng)
            )
        if self.use_sign_clustering:
            decision = decision.intersect(
                self.sign_filter.apply(batch, reference=reference, rng=rng)
            )
        if len(decision.selected_indices) == 0:
            # Never let the round fail completely: fall back to trusting the
            # gradient with the median norm (a conservative, norm-robust pick).
            norms = batch.norms()
            fallback = int(np.argsort(norms)[len(norms) // 2])
            decision = FilterDecision(
                selected_indices=np.array([fallback]),
                info={**decision.info, "fallback": True},
            )
        return decision

    def aggregate(
        self,
        gradients: ArrayOrBatch,
        *,
        reference: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ) -> Dict[str, Any]:
        """Full Algorithm 2: filter, then norm-clipped mean over the trusted set.

        Returns a dict with keys ``gradient``, ``selected_indices``, ``info``
        (consumed by the aggregator wrappers in :mod:`repro.core.signguard`).
        """
        batch = GradientBatch.wrap(gradients)
        rng = as_rng(rng)
        decision = self.filter(batch, reference=reference, rng=rng)
        selected = decision.selected_indices
        # Clip + mean fused into one weighted vector-matrix product: the
        # clip scale of each trusted row becomes its mean weight (untrusted
        # rows get weight 0), so no trusted-row copy and no scaled (k, dim)
        # intermediate is ever materialized.
        if self.use_norm_clipping:
            bound = batch.median_norm()
            scales = clip_scales(batch.norms()[selected], bound)
            decision.info["clip_bound"] = bound
        else:
            scales = np.ones(len(selected))
        # Weights accumulate in float64 and convert once below: the scales
        # come from float64 norm statistics, so this keeps the fused product
        # bit-identical to the previous clip-then-mean formulation.
        weights = np.zeros(batch.n_clients, dtype=np.float64)
        weights[selected] = scales / len(selected)
        aggregated = weights.astype(batch.dtype, copy=False) @ batch.matrix
        return {
            "gradient": aggregated,
            "selected_indices": decision.selected_indices,
            "info": decision.info,
        }
