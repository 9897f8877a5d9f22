"""Gradient feature extraction for SignGuard's clustering filter.

The paper's key observation (Section III) is that the element-wise *sign*
distribution of a gradient is a robust fingerprint: well-crafted attacks such
as Little-Is-Enough keep the malicious gradient close to the benign ones in
Euclidean distance and cosine similarity, but cannot avoid shifting a large
fraction of coordinates across zero, which shows up directly in the
proportions of positive / zero / negative elements.

All entry points accept either a raw ``(n_clients, dim)`` matrix or a
:class:`~repro.utils.batch.GradientBatch`; with a batch, the pairwise-median
fallbacks reuse the round's memoized norms, Gram matrix, and distance matrix
instead of rebuilding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.batch import ArrayOrBatch, GradientBatch
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_fraction


@dataclass
class GradientFeatures:
    """Per-client feature matrix plus bookkeeping about how it was built.

    Attributes:
        matrix: array of shape ``(n_clients, n_features)``.
        feature_names: human-readable name of every column.
        coordinates: the coordinate subset the sign statistics were computed
            on (``None`` means all coordinates).
    """

    matrix: np.ndarray
    feature_names: tuple
    coordinates: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.matrix)


def resolve_reference(
    reference: Optional[np.ndarray], dim: int, *, epsilon: float = 1e-12
) -> Optional[np.ndarray]:
    """Normalize the similarity features' reference-gradient handling.

    A reference is usable only when it is present, has exactly ``dim``
    elements, and has norm above ``epsilon``.  Historically the cosine
    feature checked the norm while the Euclidean feature only checked the
    size, so on an all-zero first-round aggregate the two features disagreed
    about whether a reference existed; both now share this single rule.

    Returns the reference as a float64 vector, or ``None`` when the
    pairwise-median fallback should be used.
    """
    if reference is None:
        return None
    reference = np.asarray(reference, dtype=np.float64).reshape(-1)
    if reference.size != dim:
        return None
    if np.linalg.norm(reference) <= epsilon:
        return None
    return reference


def sign_statistics(
    gradients: ArrayOrBatch,
    *,
    coordinates: Optional[np.ndarray] = None,
    zero_tolerance: float = 0.0,
) -> np.ndarray:
    """Fractions of positive, zero, and negative elements per gradient.

    Args:
        gradients: stacked gradients ``(n_clients, dim)`` or a batch.
        coordinates: optional index subset on which to compute the statistics
            (SignGuard's randomized coordinate selection).
        zero_tolerance: entries with ``|g_j| <= zero_tolerance`` count as zero
            (exact zeros are common for ReLU networks; a tolerance lets the
            caller treat numerically tiny values the same way).

    Returns:
        Array of shape ``(n_clients, 3)`` with columns (positive, zero,
        negative) fractions, each row summing to 1.
    """
    if zero_tolerance < 0:
        raise ValueError(f"zero_tolerance must be >= 0, got {zero_tolerance}")
    batch = GradientBatch.wrap(gradients)
    if coordinates is None:
        # Full-coordinate statistics come from the round cache.
        counts = batch.sign_counts(zero_tolerance)
        return counts / batch.dim
    coordinates = np.asarray(coordinates, dtype=int)
    if coordinates.size == 0:
        raise ValueError("coordinates subset must be non-empty")
    subset = batch.matrix[:, coordinates]
    dim = subset.shape[1]
    positive_count = (subset > zero_tolerance).sum(axis=1)
    negative_count = (subset < -zero_tolerance).sum(axis=1)
    zero_count = dim - positive_count - negative_count
    return np.column_stack([positive_count, zero_count, negative_count]) / dim


def select_random_coordinates(
    dim: int, fraction: float, rng: RngLike = None
) -> np.ndarray:
    """Randomly select ``fraction`` of the coordinate indices (at least one)."""
    check_fraction(fraction, "fraction")
    rng = as_rng(rng)
    count = max(int(round(fraction * dim)), 1)
    return np.sort(rng.choice(dim, size=count, replace=False))


def cosine_similarity_feature(
    gradients: ArrayOrBatch, reference: Optional[np.ndarray], *, epsilon: float = 1e-12
) -> np.ndarray:
    """Cosine similarity of every gradient to a reference gradient.

    When no usable reference is available (see :func:`resolve_reference`) the
    pairwise-median fallback from the paper is used: each gradient's feature
    is the median cosine similarity to all the other gradients.  With a
    single client the fallback has no "other" gradients, so the feature is
    the neutral self-similarity of 1.0.
    """
    batch = GradientBatch.wrap(gradients)
    norms = batch.norms()
    reference = resolve_reference(reference, batch.dim, epsilon=epsilon)
    if reference is not None:
        return (batch.matrix @ reference) / (
            np.maximum(norms, epsilon) * np.linalg.norm(reference)
        )
    # Pairwise-median fallback.  The batch delegates to its dense cache at
    # small n (bit-identical to the historical fill_diagonal + nanmedian
    # implementation) and streams row-block tiles above its
    # max_dense_pairwise threshold.
    if batch.n_clients == 1:
        return np.ones(1)
    return batch.median_cosine_similarities(epsilon=epsilon)


def euclidean_distance_feature(
    gradients: ArrayOrBatch,
    reference: Optional[np.ndarray],
    *,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Euclidean distance of every gradient to a reference gradient.

    Uses the same reference rule (:func:`resolve_reference`) and
    pairwise-median fallback as the cosine feature.  Distances are normalized
    by their median so the feature scale is comparable with the sign
    fractions.  A single client without a reference gets distance 0.0.
    """
    batch = GradientBatch.wrap(gradients)
    reference = resolve_reference(reference, batch.dim, epsilon=epsilon)
    if reference is not None:
        distances = np.linalg.norm(batch.matrix - reference, axis=1)
    elif batch.n_clients == 1:
        return np.zeros(1, dtype=np.float64)
    else:
        # Dense-cache delegation at small n, streamed tiles above the
        # batch's max_dense_pairwise threshold (see median_cosine above).
        distances = batch.median_distances()
    scale = np.median(distances)
    if scale > 0:
        distances = distances / scale
    return distances


def check_similarity(similarity: str) -> None:
    """Reject a similarity feature other than the three variants' own."""
    if similarity not in {"none", "cosine", "euclidean"}:
        raise ValueError(
            f"similarity must be 'none', 'cosine', or 'euclidean', got {similarity!r}"
        )


def extract_features(
    gradients: ArrayOrBatch,
    *,
    coordinate_fraction: float = 0.1,
    similarity: str = "none",
    reference: Optional[np.ndarray] = None,
    rng: RngLike = None,
) -> GradientFeatures:
    """Build the clustering feature matrix used by the sign filter.

    Args:
        gradients: stacked gradients ``(n_clients, dim)`` or a batch.
        coordinate_fraction: fraction of coordinates randomly selected for the
            sign statistics (the paper uses 10%).
        similarity: ``"none"`` (plain SignGuard), ``"cosine"``
            (SignGuard-Sim), or ``"euclidean"`` (SignGuard-Dist).
        reference: the "correct" gradient used by the similarity feature —
            in practice the previous round's aggregate.
        rng: randomness for the coordinate selection.
    """
    check_similarity(similarity)
    batch = GradientBatch.wrap(gradients)
    rng = as_rng(rng)
    coordinates = select_random_coordinates(batch.dim, coordinate_fraction, rng)
    features = [sign_statistics(batch, coordinates=coordinates)]
    names = ["positive_fraction", "zero_fraction", "negative_fraction"]

    if similarity == "cosine":
        features.append(cosine_similarity_feature(batch, reference)[:, None])
        names.append("cosine_similarity")
    elif similarity == "euclidean":
        features.append(euclidean_distance_feature(batch, reference)[:, None])
        names.append("euclidean_distance")

    return GradientFeatures(
        matrix=np.hstack(features),
        feature_names=tuple(names),
        coordinates=coordinates,
    )
