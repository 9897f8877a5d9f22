"""Mean-Shift clustering with a flat (uniform) kernel.

This is the clustering model used by SignGuard's sign-based filter: it does
not require the number of clusters in advance, which matches the defender's
ignorance of the exact number of malicious clients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.metrics import pairwise_distances
from repro.utils.batch import MAX_DENSE_PAIRWISE
from repro.utils.rng import RngFactory, RngLike, as_rng

#: Default sampled-pair budget once the subsampling estimator engages:
#: 500k pairs keep the quantile estimate within ~1% of the dense one on
#: SignGuard feature distributions while costing O(max_pairs · d) instead
#: of O(n² · d).
BANDWIDTH_MAX_PAIRS = 500_000

#: Seed of the default deterministic subsampling stream.  The default rng
#: is a named :class:`~repro.utils.rng.RngFactory` stream re-created per
#: call, so two estimates over the same data always agree — determinism
#: does not depend on the caller threading an rng through.
_BANDWIDTH_SEED = 0x51B5


def _check_quantile(quantile: float) -> None:
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")


def estimate_bandwidth(
    x: np.ndarray,
    *,
    quantile: float = 0.3,
    distances: Optional[np.ndarray] = None,
    max_pairs: Optional[int] = None,
    rng: RngLike = None,
) -> float:
    """Estimate a kernel bandwidth from the pairwise-distance distribution.

    The bandwidth is the ``quantile``-th quantile of all pairwise distances,
    the standard heuristic for Mean-Shift on small feature sets.  A strictly
    positive floor avoids a degenerate zero bandwidth when many points
    coincide (e.g. identical malicious feature vectors).

    **Large cohorts.** The exact quantile is O(n²) time *and* memory.  When
    the pair count exceeds ``max_pairs`` the estimator switches to the
    quantile over the pairwise distances of a uniformly sampled row subset
    sized so at most ``max_pairs`` distances are evaluated — subquadratic
    and deterministic: the default ``rng`` is a fixed named
    :class:`~repro.utils.rng.RngFactory` stream, so repeated estimates
    over the same data are bit-identical.  With
    ``max_pairs=None`` the sampler auto-engages above
    :data:`~repro.utils.batch.MAX_DENSE_PAIRWISE` rows (with the
    :data:`BANDWIDTH_MAX_PAIRS` budget); at or below the threshold the
    historical dense path runs unchanged.

    Args:
        distances: optional precomputed pairwise distance matrix of ``x``
            (:meth:`MeanShift.fit` passes the matrix it needs anyway, so the
            distances are computed exactly once per fit).  Disables
            subsampling — the O(n²) cost is already paid.
        max_pairs: cap on evaluated pairs before the sampler engages.
            ``None`` = auto (dense up to ``MAX_DENSE_PAIRWISE`` rows).
        rng: randomness for the pair sampling; ``None`` = the deterministic
            default stream.
    """
    _check_quantile(quantile)
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = len(x)
    if n < 2:
        return 1.0
    all_pairs = n * (n - 1) // 2
    if distances is None:
        budget = max_pairs
        if budget is None and n > MAX_DENSE_PAIRWISE:
            budget = BANDWIDTH_MAX_PAIRS
        if budget is not None and all_pairs > budget:
            return _subsampled_bandwidth(x, quantile, budget, rng)
        distances = pairwise_distances(x)
    upper = distances[np.triu_indices(n, k=1)]
    bandwidth = float(np.quantile(upper, quantile))
    if bandwidth <= 0.0:
        positive = upper[upper > 0]
        bandwidth = float(positive.min()) if len(positive) else 1e-3
    return bandwidth


def _subsampled_bandwidth(
    x: np.ndarray, quantile: float, max_pairs: int, rng: RngLike
) -> float:
    """Quantile over the pairwise distances of a sampled row subset.

    The subset is the largest ``m`` rows with ``m * (m - 1) / 2 <=
    max_pairs`` (at least two), so at most ``max_pairs`` distances are
    evaluated — through the same BLAS pairwise kernel as the dense path.
    Sampling *rows* instead of index pairs is what keeps the estimator
    ahead of dense at realistic dimensionalities: per-pair gather loops
    are memory-bound and lose to a single matmul as ``d`` grows, while
    every pair inside a uniform subset is still a uniformly distributed
    distinct pair.
    """
    if rng is None:
        rng = RngFactory(_BANDWIDTH_SEED).make("bandwidth-subsample")
    else:
        rng = as_rng(rng)
    n = len(x)
    m = max(int((1.0 + np.sqrt(1.0 + 8.0 * max_pairs)) / 2.0), 2)
    m = min(m, n)
    rows = np.sort(rng.choice(n, size=m, replace=False))
    distances = pairwise_distances(x[rows])
    sampled = distances[np.triu_indices(m, k=1)]
    bandwidth = float(np.quantile(sampled, quantile))
    if bandwidth <= 0.0:
        positive = sampled[sampled > 0]
        bandwidth = float(positive.min()) if len(positive) else 1e-3
    return bandwidth


def get_bin_seeds(x: np.ndarray, bin_size: float) -> np.ndarray:
    """Seed points for binned Mean-Shift: occupied grid cells of ``bin_size``.

    Every sample is snapped to the nearest vertex of a regular grid with
    spacing ``bin_size``; every occupied vertex becomes a seed (sklearn's
    ``bin_seeding`` heuristic).  Returns the original samples when binning
    would not reduce the seed count, so callers never lose coverage on
    spread-out data.
    """
    if bin_size <= 0:
        raise ValueError(f"bin_size must be positive, got {bin_size}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    binned = np.round(x / bin_size)
    # np.unique sorts lexicographically, making the seed order (and thus
    # every downstream tie-break) platform-deterministic.
    seeds = np.unique(binned, axis=0) * bin_size
    if len(seeds) == len(x):
        return x.copy()
    return seeds


class MeanShift:
    """Flat-kernel Mean-Shift.

    Every sample is shifted to the mean of its neighbours within
    ``bandwidth`` until convergence; converged modes closer than the
    bandwidth are merged into a single cluster.

    Points that reach an exact fixed point (their shift moves them by
    exactly zero — with a flat kernel this happens as soon as a point sits
    at the mean of its stable neighbourhood) are frozen and excluded from
    further distance computations, so late iterations only pay for the few
    still-moving points.

    With ``bin_seeding=True`` the shift iterations start from the occupied
    cells of a ``bandwidth``-spaced grid (:func:`get_bin_seeds`) instead of
    from every sample — the sklearn accelerator.  The per-iteration cost
    drops from ``O(n²·d)`` to ``O(s·n·d)`` for ``s`` occupied cells, which
    is what makes the clustering stage scale past hundreds of clients: on
    SignGuard's low-dimensional, tightly-clustered sign-statistics
    features, ``s`` is a small constant.  Labels are then assigned by the
    nearest converged mode.  The discovered partition is equivalence-tested
    against the unbinned path on SignGuard feature distributions; exact
    cluster *numbering* may differ.

    The bandwidth heuristic is :func:`estimate_bandwidth` at ``quantile``.
    The dense fit hands it the distance matrix the first shift iteration
    needs anyway; the binned fit lets it subsample pairs past
    :data:`~repro.utils.batch.MAX_DENSE_PAIRWISE` samples, so that path
    stays subquadratic end to end at 10k+ cohorts.

    Attributes set by :meth:`fit`:
        cluster_centers_: one row per discovered mode.
        labels_: cluster index per sample.
        n_clusters_: number of discovered clusters.
    """

    def __init__(
        self,
        bandwidth: Optional[float] = None,
        *,
        max_iter: int = 200,
        tol: float = 1e-5,
        quantile: float = 0.3,
        bin_seeding: bool = False,
    ):
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        _check_quantile(quantile)
        self.bandwidth = bandwidth
        self.max_iter = max_iter
        self.tol = tol
        self.quantile = quantile
        self.bin_seeding = bin_seeding
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.n_clusters_: int = 0

    def _shift(
        self,
        seeds: np.ndarray,
        x: np.ndarray,
        bandwidth: float,
        first_distances: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run the shift iterations from ``seeds`` over the samples ``x``.

        Returns the converged seed positions.  ``first_distances`` lets the
        caller reuse a seed-to-sample distance matrix it computed anyway
        (the bandwidth heuristic's).  Seeds whose neighbourhood is empty
        (possible for bin seeds in high dimensions) are left in place;
        they are discarded later because no sample labels to them before a
        populated mode does.
        """
        points = seeds.copy()
        active = np.arange(len(points))
        for iteration in range(self.max_iter):
            if iteration == 0 and first_distances is not None:
                distances = first_distances
            else:
                distances = pairwise_distances(points[active], x)
            within = distances <= bandwidth
            weights = within.astype(np.float64)
            counts = weights.sum(axis=1, keepdims=True)
            populated = counts[:, 0] > 0
            shifted = np.where(
                populated[:, None],
                (weights @ x) / np.maximum(counts, 1.0),
                points[active],
            )
            step = np.linalg.norm(shifted - points[active], axis=1)
            movement = float(step.max()) if len(step) else 0.0
            points[active] = shifted
            # A flat-kernel point whose shift is exactly zero sits at the
            # mean of a neighbourhood that can no longer change: freeze it.
            still_moving = step > 0.0
            if not still_moving.all():
                active = active[still_moving]
            if movement <= self.tol or len(active) == 0:
                break
        return points

    def fit(self, x: np.ndarray) -> "MeanShift":
        """Cluster the rows of ``x``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n_samples = len(x)
        if n_samples == 0:
            raise ValueError("cannot cluster an empty feature matrix")
        bandwidth = self.bandwidth
        if self.bin_seeding:
            if bandwidth is None:
                bandwidth = estimate_bandwidth(x, quantile=self.quantile)
            return self._fit_binned(x, bandwidth)

        # The seed matrix's self-distances serve both the bandwidth heuristic
        # and the first shift iteration — compute them once.
        seed_distances = pairwise_distances(x)
        if bandwidth is None:
            bandwidth = estimate_bandwidth(
                x, quantile=self.quantile, distances=seed_distances
            )

        # Shift every point towards the local mean until convergence.  Only
        # points that still move participate in the distance computation.
        # (Every point is within the bandwidth of itself, so neighbourhoods
        # are never empty on this path.)
        points = self._shift(x, x, bandwidth, first_distances=seed_distances)
        return self._merge_modes(x, points, bandwidth)

    def _merge_modes(
        self, x: np.ndarray, points: np.ndarray, bandwidth: float
    ) -> "MeanShift":
        """Merge the dense fit's converged per-sample points into clusters."""
        n_samples = len(x)

        # Merge modes that landed within one bandwidth of each other.  Each
        # point joins the earliest-created center within the bandwidth; a
        # point with no such center founds a new one.  The pairwise distances
        # between converged points are computed in one vectorized pass; the
        # sequential scan over rows only indexes into that matrix.
        mode_distances = pairwise_distances(points)
        labels = np.full(n_samples, -1, dtype=int)
        center_indices: list = []
        for i in range(n_samples):
            if center_indices:
                within_centers = np.flatnonzero(
                    mode_distances[i, center_indices] <= bandwidth
                )
                if len(within_centers):
                    labels[i] = int(within_centers[0])
                    continue
            labels[i] = len(center_indices)
            center_indices.append(i)

        # Refine centers as the mean of their member points (in input space).
        refined = np.vstack(
            [x[labels == k].mean(axis=0) for k in range(len(center_indices))]
        )
        self.cluster_centers_ = refined
        self.labels_ = labels
        self.n_clusters_ = len(center_indices)
        return self

    def _fit_binned(self, x: np.ndarray, bandwidth: float) -> "MeanShift":
        """The ``bin_seeding=True`` path: shift grid seeds, label by mode."""
        seeds = get_bin_seeds(x, bandwidth)
        points = self._shift(seeds, x, bandwidth)

        # Rank converged seeds by how many samples they attract so the
        # densest modes found clusters first (sklearn's merge order), then
        # merge seeds within one bandwidth of an earlier-ranked mode.
        intensity = (pairwise_distances(points, x) <= bandwidth).sum(axis=1)
        keep = intensity > 0  # grid seeds that never saw a sample
        points, intensity = points[keep], intensity[keep]
        if len(points) == 0:  # pragma: no cover - defensive single mode
            points, intensity = x[:1].copy(), np.array([len(x)])
        order = np.argsort(-intensity, kind="stable")
        points = points[order]
        mode_distances = pairwise_distances(points)
        centers: list = []
        for i in range(len(points)):
            if not centers or not np.any(
                mode_distances[i, centers] <= bandwidth
            ):
                centers.append(i)
        modes = points[centers]

        # Every sample joins its nearest mode (ties -> lowest mode index).
        assignment = np.argmin(pairwise_distances(x, modes), axis=1)
        # Drop modes that attracted no samples and renumber densest-first.
        used, labels = np.unique(assignment, return_inverse=True)
        refined = np.vstack([x[labels == k].mean(axis=0) for k in range(len(used))])
        self.cluster_centers_ = refined
        self.labels_ = labels
        self.n_clusters_ = len(used)
        return self

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        """Fit and return the cluster label of every sample."""
        return self.fit(x).labels_

    def largest_cluster(self) -> np.ndarray:
        """Indices of samples in the most populated cluster.

        This is the "trusted set" selection rule from the SignGuard paper:
        the majority cluster is assumed to consist of honest gradients.
        Ties are broken towards the lowest cluster index for determinism.
        """
        if self.labels_ is None:
            raise RuntimeError("MeanShift must be fitted before use")
        counts = np.bincount(self.labels_, minlength=self.n_clusters_)
        winner = int(np.argmax(counts))
        return np.flatnonzero(self.labels_ == winner)
