"""SignGuard's gradient filters.

Each filter looks at the full set of received gradients and returns a
:class:`FilterDecision` — the subset of client indices it trusts plus
diagnostics.  The pipeline (see :mod:`repro.core.pipeline`) intersects the
decisions of all enabled filters.

Filters accept either a raw ``(n_clients, dim)`` matrix or the round's
:class:`~repro.utils.batch.GradientBatch`, so norms and pairwise quantities
computed by one filter are reused by the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.clustering import MeanShift
from repro.core.features import check_similarity, extract_features
from repro.utils.batch import ArrayOrBatch, GradientBatch
from repro.utils.rng import RngLike, as_rng


@dataclass
class FilterDecision:
    """Outcome of one filter: trusted client indices plus diagnostics."""

    selected_indices: np.ndarray
    info: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.selected_indices = np.asarray(self.selected_indices, dtype=int)

    def intersect(self, other: "FilterDecision") -> "FilterDecision":
        """Intersection of two decisions (the pipeline's combining rule)."""
        merged = np.intersect1d(self.selected_indices, other.selected_indices)
        info = {**self.info, **other.info}
        return FilterDecision(selected_indices=merged, info=info)


class GradientFilter:
    """Base class for SignGuard filters."""

    name: str = "filter"

    def apply(
        self,
        gradients: ArrayOrBatch,
        *,
        reference: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ) -> FilterDecision:
        """Return the subset of client indices this filter trusts."""
        raise NotImplementedError

    def __call__(self, gradients: ArrayOrBatch, **kwargs: Any) -> FilterDecision:
        return self.apply(GradientBatch.wrap(gradients), **kwargs)


class NormThresholdFilter(GradientFilter):
    """Norm-based thresholding (Algorithm 2, Step 1).

    The median of the received gradient norms serves as the reference norm
    ``M``; a gradient is kept when ``L <= ||g|| / M <= R``.  The paper uses a
    loose lower bound ``L = 0.1`` (small gradients do little harm) and a
    strict upper bound ``R = 3.0`` (very large gradients are malicious).
    """

    name = "norm_threshold"

    def __init__(self, lower: float = 0.1, upper: float = 3.0):
        if lower < 0:
            raise ValueError(f"lower must be >= 0, got {lower}")
        if upper <= lower:
            raise ValueError(f"upper ({upper}) must exceed lower ({lower})")
        self.lower = lower
        self.upper = upper

    def apply(
        self,
        gradients: ArrayOrBatch,
        *,
        reference: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ) -> FilterDecision:
        batch = GradientBatch.wrap(gradients)
        norms = batch.norms()
        reference_norm = float(np.median(norms))
        if reference_norm <= 0:
            # All-zero gradients (e.g. the very first round of a fresh model):
            # nothing can be distinguished by norm, so trust everyone.
            selected = np.arange(batch.n_clients)
            ratios = np.zeros_like(norms)
        else:
            ratios = norms / reference_norm
            selected = np.flatnonzero((ratios >= self.lower) & (ratios <= self.upper))
        return FilterDecision(
            selected_indices=selected,
            info={
                "norm_reference": reference_norm,
                "norm_ratios": ratios,
                "norm_bounds": (self.lower, self.upper),
            },
        )


class SignClusteringFilter(GradientFilter):
    """Sign-statistics clustering (Algorithm 2, Step 2).

    Extracts sign statistics (and optionally a similarity feature) on a
    random coordinate subset, clusters the per-client feature vectors with
    Mean-Shift, and trusts the largest cluster.  An unknown ``similarity``
    or ``clustering`` and a ``bandwidth_quantile`` outside ``(0, 1]`` raise
    ``ValueError`` here, before the first round runs.

    Args:
        similarity: ``"none"``, ``"cosine"``, or ``"euclidean"`` — selects the
            plain / -Sim / -Dist variants.
        coordinate_fraction: fraction of coordinates used for sign statistics.
        clustering: ``"meanshift"`` (the paper's dense fit) or
            ``"meanshift_binned"`` (grid-seeded Mean-Shift — the same
            partition on SignGuard feature distributions at a fraction of
            the shift-iteration cost, for large cohorts).
        bandwidth_quantile: Mean-Shift bandwidth heuristic quantile, in
            ``(0, 1]``.
    """

    name = "sign_clustering"

    def __init__(
        self,
        *,
        similarity: str = "none",
        coordinate_fraction: float = 0.1,
        clustering: str = "meanshift",
        bandwidth_quantile: float = 0.5,
    ):
        if clustering not in {"meanshift", "meanshift_binned"}:
            raise ValueError(
                "clustering must be 'meanshift' or 'meanshift_binned', "
                f"got {clustering!r}"
            )
        check_similarity(similarity)
        self.similarity = similarity
        self.coordinate_fraction = coordinate_fraction
        self.clustering = clustering
        self.bandwidth_quantile = bandwidth_quantile
        self._model = MeanShift(
            quantile=bandwidth_quantile,
            bin_seeding=clustering == "meanshift_binned",
        )

    def _cluster(self, features: np.ndarray) -> np.ndarray:
        """Return the indices of the largest cluster of the feature rows."""
        n = len(features)
        if n <= 2:
            return np.arange(n)
        return self._model.fit(features).largest_cluster()

    def apply(
        self,
        gradients: ArrayOrBatch,
        *,
        reference: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ) -> FilterDecision:
        rng = as_rng(rng)
        features = extract_features(
            GradientBatch.wrap(gradients),
            coordinate_fraction=self.coordinate_fraction,
            similarity=self.similarity,
            reference=reference,
            rng=rng,
        )
        selected = self._cluster(features.matrix)
        return FilterDecision(
            selected_indices=np.sort(selected),
            info={
                "features": features.matrix,
                "feature_names": features.feature_names,
                "clustering": self.clustering,
            },
        )
