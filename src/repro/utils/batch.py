"""The round-level gradient workspace: one matrix, many memoized views.

Every federated round touches the same stacked ``(n_clients, dim)`` gradient
matrix from several angles — the norm filter needs L2 norms, Krum/Bulyan/DnC
and the pairwise-fallback features need a Gram or distance matrix, the sign
filter needs sign counts, and the final clipped mean needs the norms again.
Before this module existed each consumer recomputed its quantity from
scratch, so a single SignGuard round validated the matrix up to six times and
ran three separate full norm passes.

:class:`GradientBatch` wraps the validated matrix once and memoizes every
derived quantity, lazily but for the row norms validation reads.  It is
threaded through :class:`repro.aggregators.base.ServerContext` so the whole
round shares one cache; all public entry points still accept a raw
``np.ndarray`` and wrap it on the fly (:meth:`GradientBatch.wrap` is idempotent).

The pairwise quantities intentionally mirror the pre-cache implementations
exactly (``np.sum(g**2, axis=1)`` for squared norms, the expanded quadratic
form for pairwise distances) so cached scoring paths stay bit-compatible
with the historical ones; row norms use a faster temp-free ``einsum`` that
agrees with ``np.linalg.norm`` to within a few ulps.

**Large cohorts.** The dense pairwise caches are ``O(n²)`` memory — at
``n=10_000`` the float64 distance matrix alone is 800 MB.  Above
``max_dense_pairwise`` rows (default :data:`MAX_DENSE_PAIRWISE`) the four
dense accessors (``gram`` / ``sq_distances`` / ``distances`` /
``cosine_similarities``) refuse with :class:`PairwiseMemoryError`, and
consumers go through the *blocked* primitives instead
(:meth:`GradientBatch.sq_distances_block`,
:meth:`GradientBatch.k_smallest_neighbor_sums`,
:meth:`GradientBatch.median_cosine_similarities`,
:meth:`GradientBatch.median_distances`,
:meth:`GradientBatch.max_pairwise_sq_distance`,
:meth:`GradientBatch.max_sum_sq_distance`), which stream
``(block_rows, n)`` tiles and never hold more than one tile at a time.
Below the threshold the blocked primitives *delegate to the dense caches*
(on this platform a row-block matmul ``m[a:b] @ m.T`` is not bitwise equal
to slicing the full ``m @ m.T`` — BLAS kernel dispatch varies with shape —
so delegation, not re-blocking, is what keeps small-n results bit-identical
to the historical dense path while sharing the round's memoization).

This module lives in ``repro.utils`` so that both ``repro.core`` and
``repro.aggregators`` can import it without creating a package cycle.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.utils.validation import check_gradient_matrix

ArrayOrBatch = Union[np.ndarray, "GradientBatch"]

#: dtypes the cache keeps as-is; everything else is coerced to float64.
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Default row count above which the dense ``(n, n)`` pairwise caches
#: refuse to materialize.  4096² float64 = 128 MiB per matrix — the last
#: size where holding Gram + squared + sqrt'd distance matrices at once is
#: still comfortably inside a CI runner's memory.
MAX_DENSE_PAIRWISE = 4096

#: Row-block height for the streaming primitives: a ``(1024, n)`` float64
#: tile at n=100k is ~800 MB/100 = bounded independent of n² — peak memory
#: is ``O(block_rows · n)``.
PAIRWISE_BLOCK_ROWS = 1024


class PairwiseMemoryError(RuntimeError):
    """A dense ``(n, n)`` pairwise matrix was requested above the threshold.

    Raised by the four dense accessors when ``n_clients`` exceeds the
    batch's ``max_dense_pairwise``.  Consumers that can stream should use
    the blocked primitives; consumers that fundamentally need the dense
    matrix (Bulyan's iterative sub-matrix selection) surface this error to
    the caller rather than silently allocating gigabytes.
    """


class GradientBatch:
    """Per-round cache of derived quantities over a stacked gradient matrix.

    Attributes:
        matrix: the validated ``(n_clients, dim)`` gradient matrix.  Treated
            as read-only by every cached consumer; mutating it after derived
            quantities have been computed leaves the cache stale.

    Every derived quantity is computed at most once; ``compute_counts``
    records how many times each one was *actually* computed.  Validation
    computes the norms, so the perf smoke test proves on an unvalidated
    batch that optimized paths never silently fall back to recomputation.
    """

    __slots__ = (
        "matrix",
        "max_dense_pairwise",
        "block_rows",
        "_norms",
        "_sq_norms",
        "_gram",
        "_sq_distances",
        "_distances",
        "_sign_counts",
        "compute_counts",
    )

    def __init__(
        self,
        gradients: np.ndarray,
        *,
        validate: bool = True,
        max_dense_pairwise: int = MAX_DENSE_PAIRWISE,
        block_rows: int = PAIRWISE_BLOCK_ROWS,
    ):
        if max_dense_pairwise < 1:
            raise ValueError(
                f"max_dense_pairwise must be >= 1, got {max_dense_pairwise}"
            )
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        if validate:
            matrix = check_gradient_matrix(gradients, preserve_dtype=True, finite=False)
        else:
            matrix = np.atleast_2d(np.asarray(gradients))
            if matrix.dtype not in _FLOAT_DTYPES:
                matrix = matrix.astype(np.float64)
        self.matrix = matrix
        self.max_dense_pairwise = int(max_dense_pairwise)
        self.block_rows = int(block_rows)
        self._norms: Optional[np.ndarray] = None
        self._sq_norms: Optional[np.ndarray] = None
        self._gram: Optional[np.ndarray] = None
        self._sq_distances: Optional[np.ndarray] = None
        self._distances: Optional[np.ndarray] = None
        self._sign_counts: Dict[float, np.ndarray] = {}
        self.compute_counts: Dict[str, int] = {}
        # Only rows whose norm is not finite (NaN/inf, or an overflow) need a scan.
        if validate and not np.isfinite(matrix[~np.isfinite(self.norms())]).all():
            raise ValueError("gradients contains non-finite entries")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def wrap(cls, gradients: ArrayOrBatch, *, validate: bool = True) -> "GradientBatch":
        """Wrap ``gradients`` in a batch; a batch passes through unchanged."""
        if isinstance(gradients, GradientBatch):
            return gradients
        return cls(gradients, validate=validate)

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------

    @property
    def n_clients(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def __len__(self) -> int:
        return self.n_clients

    def __array__(self, dtype=None) -> np.ndarray:
        return self.matrix if dtype is None else self.matrix.astype(dtype)

    def _count(self, name: str) -> None:
        self.compute_counts[name] = self.compute_counts.get(name, 0) + 1

    @property
    def dense_pairwise_allowed(self) -> bool:
        """True when the ``(n, n)`` caches fit the configured memory budget."""
        return self.n_clients <= self.max_dense_pairwise

    def _require_dense_pairwise(self, name: str) -> None:
        if not self.dense_pairwise_allowed:
            n = self.n_clients
            gib = n * n * self.matrix.dtype.itemsize / 2**30
            raise PairwiseMemoryError(
                f"{name}() would materialize a ({n}, {n}) matrix "
                f"(~{gib:.1f} GiB) above max_dense_pairwise="
                f"{self.max_dense_pairwise}; use the blocked primitives "
                "(sq_distances_block / k_smallest_neighbor_sums / "
                "median_cosine_similarities / median_distances / "
                "max_pairwise_sq_distance / max_sum_sq_distance) or raise "
                "the threshold explicitly"
            )

    # ------------------------------------------------------------------
    # Memoized derived quantities
    # ------------------------------------------------------------------

    def norms(self) -> np.ndarray:
        """L2 norm of every row.

        Computed as ``sqrt(einsum('ij,ij->i'))``, which avoids the
        ``(n, dim)`` squared temporary that ``np.linalg.norm`` materializes —
        on a 100×100k matrix this is ~4× faster.  Values agree with
        ``np.linalg.norm`` to within a few ulps (summation order differs).
        """
        if self._norms is None:
            self._count("norms")
            self._norms = np.sqrt(np.einsum("ij,ij->i", self.matrix, self.matrix))
        return self._norms

    def median_norm(self) -> float:
        """Median row norm — SignGuard's reference norm ``M``."""
        return float(np.median(self.norms()))

    def sq_norms(self) -> np.ndarray:
        """Squared L2 norm of every row (``np.sum(g**2, axis=1)`` semantics)."""
        if self._sq_norms is None:
            self._count("sq_norms")
            self._sq_norms = np.sum(self.matrix**2, axis=1)
        return self._sq_norms

    def gram(self) -> np.ndarray:
        """The ``(n, n)`` Gram matrix ``G @ G.T``.

        Raises :class:`PairwiseMemoryError` above ``max_dense_pairwise``.
        """
        if self._gram is None:
            self._require_dense_pairwise("gram")
            self._count("gram")
            self._gram = self.matrix @ self.matrix.T
        return self._gram

    def sq_distances(self) -> np.ndarray:
        """Pairwise squared Euclidean distances between rows.

        Computed from the Gram matrix via the expanded quadratic form and
        clamped at zero, exactly like the historical per-consumer
        implementations.  The diagonal is exactly zero.  Callers must treat
        the returned matrix as read-only.
        """
        if self._sq_distances is None:
            self._require_dense_pairwise("sq_distances")
            self._count("sq_distances")
            sq_norms = self.sq_norms()
            squared = sq_norms[:, None] + sq_norms[None, :] - 2.0 * self.gram()
            np.maximum(squared, 0.0, out=squared)
            np.fill_diagonal(squared, 0.0)
            self._sq_distances = squared
        return self._sq_distances

    def distances(self) -> np.ndarray:
        """Pairwise Euclidean distances between rows (read-only)."""
        if self._distances is None:
            self._require_dense_pairwise("distances")
            self._count("distances")
            self._distances = np.sqrt(self.sq_distances())
        return self._distances

    def cosine_similarities(self, *, epsilon: float = 1e-12) -> np.ndarray:
        """Pairwise cosine similarities computed from the cached Gram matrix.

        Norms are clamped at ``epsilon`` (not at the float64 ``tiny``, whose
        square underflows to zero): an all-zero gradient row then gets
        similarity ``0 / epsilon² = 0`` everywhere, matching the historical
        normalize-then-multiply implementation.
        """
        self._require_dense_pairwise("cosine_similarities")
        norms = np.maximum(self.norms(), epsilon)
        return self.gram() / (norms[:, None] * norms[None, :])

    def sign_counts(self, zero_tolerance: float = 0.0) -> np.ndarray:
        """Per-row (positive, zero, negative) element counts over all coordinates.

        Cached per ``zero_tolerance`` value; used by
        :func:`repro.core.features.sign_statistics` when no coordinate subset
        is requested.
        """
        key = float(zero_tolerance)
        if key not in self._sign_counts:
            self._count("sign_counts")
            positive = (self.matrix > key).sum(axis=1)
            negative = (self.matrix < -key).sum(axis=1)
            zero = self.dim - positive - negative
            self._sign_counts[key] = np.column_stack([positive, zero, negative])
        return self._sign_counts[key]

    # ------------------------------------------------------------------
    # Blocked pairwise primitives (bounded peak memory at any n)
    # ------------------------------------------------------------------
    #
    # Below ``max_dense_pairwise`` every method here *delegates to the
    # dense caches* — bit-identical to the historical dense consumers by
    # construction, and sharing the round's memoization.  Above it, they
    # stream ``(block_rows, n)`` tiles built from the same expanded
    # quadratic form, holding at most one tile at a time: peak memory is
    # ``O(block_rows · n)`` instead of ``O(n²)``.

    def _row_block(self, rows: np.ndarray) -> np.ndarray:
        """The ``(len(rows), dim)`` row block, as a view when contiguous."""
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            start = int(rows[0])
            candidate = self.matrix[start : start + rows.size]
            if np.array_equal(rows, np.arange(start, start + rows.size)):
                return candidate
        return self.matrix[rows]

    def sq_distances_block(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of the pairwise squared-distance matrix.

        Returns a fresh, writable ``(len(rows), n)`` tile with exactly-zero
        self-distances, matching :meth:`sq_distances` row for row.  The
        caller bounds peak memory by bounding ``len(rows)``.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if self.dense_pairwise_allowed:
            return self.sq_distances()[rows]
        self._count("sq_distances_block")
        sq_norms = self.sq_norms()
        tile = self._row_block(rows) @ self.matrix.T
        tile *= -2.0
        tile += sq_norms[rows][:, None]
        tile += sq_norms[None, :]
        np.maximum(tile, 0.0, out=tile)
        tile[np.arange(rows.size), rows] = 0.0
        return tile

    def iter_sq_distance_blocks(
        self, *, block_rows: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(row_indices, tile)`` covering every row exactly once."""
        step = int(block_rows if block_rows is not None else self.block_rows)
        if step < 1:
            raise ValueError(f"block_rows must be >= 1, got {step}")
        for start in range(0, self.n_clients, step):
            rows = np.arange(start, min(start + step, self.n_clients))
            yield rows, self.sq_distances_block(rows)

    def k_smallest_neighbor_sums(
        self, num_neighbors: int, *, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Per row: the sum of its ``num_neighbors`` smallest squared
        distances to *other* rows — the Krum score kernel.

        The exactly-zero self-distance is always among the ``k + 1``
        smallest entries of a row and contributes nothing, so each block is
        reduced with a bounded :func:`np.partition` plus a small
        ``(block, k + 1)`` sort whose summation order matches the
        historical sort-then-sum implementation bit-for-bit.
        """
        n = self.n_clients
        if num_neighbors < 1:
            raise ValueError(f"num_neighbors must be >= 1, got {num_neighbors}")
        kth = min(num_neighbors, n - 1)

        def reduce_block(tile: np.ndarray) -> np.ndarray:
            part = np.partition(tile, kth, axis=1)[:, : num_neighbors + 1]
            part.sort(axis=1)
            return part[:, 1:].sum(axis=1)

        if self.dense_pairwise_allowed:
            return reduce_block(self.sq_distances())
        sums = np.empty(n, dtype=self.sq_norms().dtype)
        for rows, tile in self.iter_sq_distance_blocks(block_rows=block_rows):
            sums[rows] = reduce_block(tile)
        return sums

    def median_cosine_similarities(
        self, *, epsilon: float = 1e-12, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Per row: the median cosine similarity to all *other* rows.

        The pairwise-median fallback of SignGuard's similarity feature
        (:func:`repro.core.features.cosine_similarity_feature`), computed
        without ever holding the full similarity matrix when dense caches
        are refused.
        """
        if self.dense_pairwise_allowed:
            similarity = self.cosine_similarities(epsilon=epsilon).astype(
                np.float64, copy=False
            )
            np.fill_diagonal(similarity, np.nan)
            return np.nanmedian(similarity, axis=1)
        self._count("median_cosine_similarities")
        norms = np.maximum(self.norms(), epsilon)
        out = np.empty(self.n_clients, dtype=np.float64)
        step = int(block_rows if block_rows is not None else self.block_rows)
        if step < 1:
            raise ValueError(f"block_rows must be >= 1, got {step}")
        for start in range(0, self.n_clients, step):
            rows = np.arange(start, min(start + step, self.n_clients))
            tile = self._row_block(rows) @ self.matrix.T
            # Divide in the matrix dtype first (like the dense path), then
            # widen — float32 inputs otherwise see a differently-rounded
            # similarity and the per-row median can pick another element.
            tile /= norms[rows][:, None]
            tile /= norms[None, :]
            tile = tile.astype(np.float64, copy=False)
            tile[np.arange(rows.size), rows] = np.nan
            out[rows] = np.nanmedian(tile, axis=1)
        return out

    def median_distances(
        self, *, block_rows: Optional[int] = None
    ) -> np.ndarray:
        """Per row: the median Euclidean distance to all *other* rows.

        The pairwise-median fallback of SignGuard's distance feature
        (:func:`repro.core.features.euclidean_distance_feature`); the
        caller applies its own normalization.
        """
        if self.dense_pairwise_allowed:
            pairwise = np.array(self.distances(), dtype=np.float64)
            np.fill_diagonal(pairwise, np.nan)
            return np.nanmedian(pairwise, axis=1)
        self._count("median_distances")
        out = np.empty(self.n_clients, dtype=np.float64)
        for rows, tile in self.iter_sq_distance_blocks(block_rows=block_rows):
            tile = np.sqrt(tile, out=tile).astype(np.float64, copy=False)
            tile[np.arange(rows.size), rows] = np.nan
            out[rows] = np.nanmedian(tile, axis=1)
        return out

    def max_pairwise_sq_distance(
        self, *, block_rows: Optional[int] = None
    ) -> float:
        """Maximum squared distance between any two rows (Min-Max stealth bound)."""
        if self.dense_pairwise_allowed:
            return float(self.sq_distances().max())
        best = 0.0
        for _, tile in self.iter_sq_distance_blocks(block_rows=block_rows):
            best = max(best, float(tile.max()))
        return best

    def max_sum_sq_distance(
        self, *, block_rows: Optional[int] = None
    ) -> float:
        """Maximum over rows of the summed squared distances to all other
        rows (Min-Sum stealth bound)."""
        if self.dense_pairwise_allowed:
            return float(self.sq_distances().sum(axis=1).max())
        best = 0.0
        for _, tile in self.iter_sq_distance_blocks(block_rows=block_rows):
            best = max(best, float(tile.sum(axis=1).max()))
        return best

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def compute_count(self, name: str) -> int:
        """How many times the named quantity was actually computed (0 or 1)."""
        return self.compute_counts.get(name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        cached = sorted(self.compute_counts)
        return (
            f"GradientBatch(n_clients={self.n_clients}, dim={self.dim}, "
            f"dtype={self.matrix.dtype.name}, cached={cached})"
        )


def as_batch(gradients: ArrayOrBatch) -> GradientBatch:
    """Module-level alias for :meth:`GradientBatch.wrap` (validating)."""
    return GradientBatch.wrap(gradients)


def resolve_batch(
    gradients: np.ndarray, context: Optional[object] = None
) -> GradientBatch:
    """Return the context's batch when it wraps exactly this matrix.

    Aggregators receive ``(gradients, context)`` where ``context.batch`` is
    populated by :meth:`repro.aggregators.base.Aggregator.__call__`.  When an
    aggregator's ``aggregate`` is invoked directly with a raw array (or with a
    sub-matrix, as Bulyan does internally), the context batch would be stale —
    the identity check guards against using cached quantities of the wrong
    matrix.
    """
    batch = getattr(context, "batch", None)
    if isinstance(batch, GradientBatch) and batch.matrix is gradients:
        return batch
    return GradientBatch.wrap(gradients)
