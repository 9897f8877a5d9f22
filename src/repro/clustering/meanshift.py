"""Mean-Shift clustering with a flat (uniform) kernel.

This is the clustering model used by SignGuard's sign-based filter: it does
not require the number of clusters in advance, which matches the defender's
ignorance of the exact number of malicious clients.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    max_pairs: Optional[int] = None,
    rng: RngLike = None,
) -> float:
    """Estimate a kernel bandwidth from the pairwise-distance distribution.

    The bandwidth is the ``quantile``-th quantile of all pairwise distances,
    the standard heuristic for Mean-Shift on small feature sets.  A strictly
    positive floor avoids a degenerate zero bandwidth when many points
    coincide (e.g. identical malicious feature vectors).

    The exact quantile computes distances between *distinct* rows only, so
    a feature matrix whose rows repeat (SignGuard's lattice-valued sign
    fractions, colluding clients' identical gradients) costs ``O(u²·d)``
    for ``u`` distinct rows.  The quantile itself still reads all
    ``n(n-1)/2`` pair values: it equals the quantile over the ``n x n``
    matrix rebuilt from the distinct rows' distances.

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
    exact quantile runs.

    Args:
        max_pairs: cap on evaluated pairs before the sampler engages.
            ``None`` = auto (exact up to ``MAX_DENSE_PAIRWISE`` rows).
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
    budget = max_pairs
    if budget is None and n > MAX_DENSE_PAIRWISE:
        budget = BANDWIDTH_MAX_PAIRS
    if budget is not None and n * (n - 1) // 2 > budget:
        return _subsampled_bandwidth(x, quantile, budget, rng)
    first, counts, _ = _distinct_rows(x)
    return _pair_quantile(pairwise_distances(x[first]), counts, quantile)


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
    return _pair_quantile(
        pairwise_distances(x[rows]), np.ones(m, dtype=np.intp), quantile
    )


def _distinct_rows(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of ``x`` by exact (bytewise) equality.

    Returns ``(first, counts, inverse)``: the index of each distinct row's
    first occurrence, in ascending order; how many rows equal it; and each
    row's distinct index, so ``x[first][inverse]`` rebuilds ``x``.  Every
    row is viewed as one opaque ``np.void`` scalar so that a single 1-D
    ``np.unique`` groups them; rows it calls equal are bit-identical.
    """
    n = len(x)
    if x.shape[1] == 0:  # zero-width rows are all the same row
        return np.zeros(1, np.intp), np.array([n]), np.zeros(n, np.intp)
    x = np.ascontiguousarray(x)
    rows = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).reshape(n)
    _, first, inverse, counts = np.unique(
        rows, return_index=True, return_inverse=True, return_counts=True
    )
    # np.unique orders the groups by their bytes; renumber them by first
    # occurrence, the order in which a scan over the samples meets them.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], counts[order], rank[inverse.reshape(n)]


def _pair_quantile(
    distances: np.ndarray, counts: np.ndarray, quantile: float
) -> float:
    """Bandwidth quantile over every sample pair, read from distinct rows.

    ``distances`` is the matrix between the ``u`` distinct rows and
    ``counts`` their multiplicities, ``n`` in total.  The multiset of all
    ``n(n-1)/2`` sample pairs holds a distinct pair ``(a, b)`` ``counts[a]
    * counts[b]`` times, and ``distances[a, a]``, the distance between two
    copies of row ``a``, ``counts[a] * (counts[a] - 1) / 2`` times.  It is
    expanded only when rows repeat, so all-distinct input takes the
    matrix's upper triangle as is.
    """
    n = int(counts.sum())
    if n < 2:
        return 1.0
    rows, cols = np.triu_indices(len(counts), k=1)
    pairs = distances[rows, cols]
    if len(counts) < n:
        pairs = np.repeat(
            np.concatenate([pairs, np.diagonal(distances)]),
            np.concatenate([counts[rows] * counts[cols], counts * (counts - 1) // 2]),
        )
    bandwidth = float(np.quantile(pairs, quantile))
    if bandwidth <= 0.0:
        positive = pairs[pairs > 0]
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

    The dense fit shifts and merges each *distinct* feature row once:
    identical rows follow identical trajectories, so every duplicate takes
    its first occurrence's label, even where BLAS rounding puts two
    identical modes farther apart than a near-zero bandwidth.  It costs
    ``O(u²·d)`` once plus ``O(u·n·d)`` per shift iteration for ``u``
    distinct rows.  SignGuard's features have few: their sign fractions
    lie on a ``1/m`` lattice for ``m`` sampled coordinates, and colluding
    attackers submit identical rows.

    The bandwidth heuristic is :func:`estimate_bandwidth`'s exact quantile
    at ``quantile``.  The dense fit computes it from the distinct-row
    distance matrix that its first shift iteration reuses; the binned fit
    calls :func:`estimate_bandwidth`, which subsamples pairs past
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

        # Identical rows follow identical shift trajectories, so each
        # distinct row is shifted once.  The distances between distinct
        # rows serve both the bandwidth heuristic and the first shift
        # iteration — compute them once.
        first, counts, inverse = _distinct_rows(x)
        seeds = x if len(first) == n_samples else x[first]
        seed_distances = pairwise_distances(seeds)
        if bandwidth is None:
            bandwidth = _pair_quantile(seed_distances, counts, self.quantile)
        if len(first) < n_samples:
            seed_distances = seed_distances[:, inverse]

        # Shift every seed towards the local mean until convergence.  Only
        # seeds that still move participate in the distance computation.
        # (Every seed is within the bandwidth of itself, so neighbourhoods
        # are never empty on this path.)
        points = self._shift(seeds, x, bandwidth, first_distances=seed_distances)
        return self._merge_modes(x, points, bandwidth, inverse)

    def _merge_modes(
        self,
        x: np.ndarray,
        points: np.ndarray,
        bandwidth: float,
        inverse: np.ndarray,
    ) -> "MeanShift":
        """Merge the dense fit's converged distinct-row modes into clusters.

        ``points[a]`` is the converged mode of distinct row ``a`` and
        ``inverse`` maps every sample to its distinct row.
        """
        # Merge modes that landed within one bandwidth of each other.  Each
        # mode joins the earliest-created center within the bandwidth; a
        # mode with no such center founds a new one.  Modes are scanned in
        # their rows' first-occurrence order, so a duplicate sample gets
        # the label a scan over every sample gives its first occurrence.
        # The pairwise distances between modes are computed in one
        # vectorized pass; the sequential scan only indexes into them.
        mode_distances = pairwise_distances(points)
        mode_labels = np.full(len(points), -1, dtype=int)
        center_indices: list = []
        for i in range(len(points)):
            if center_indices:
                within_centers = np.flatnonzero(
                    mode_distances[i, center_indices] <= bandwidth
                )
                if len(within_centers):
                    mode_labels[i] = int(within_centers[0])
                    continue
            mode_labels[i] = len(center_indices)
            center_indices.append(i)
        labels = mode_labels[inverse]

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
