"""Frozen pre-optimization (seed) implementations.

These are verbatim-behavior copies of the hot-path algorithms as they
existed before the round-level compute cache and the vectorized paths were
introduced.  They exist for two reasons:

1. **Equivalence testing** — ``tests/test_equivalence_reference.py`` proves
   the optimized implementations select the same clients and produce the
   same aggregates as these references.
2. **Benchmarking** — ``benchmarks/perf_smoke.py`` measures the optimized
   paths against these references and records the speedups in
   ``BENCH_round_engine.json``.

Do not "fix" or optimize anything in this module: its value is precisely
that it stays frozen at seed behavior.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.functional import conv_output_size, floating_dtype
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_fraction, check_gradient_matrix


# ---------------------------------------------------------------------------
# Krum / Multi-Krum / Bulyan (seed: O(n²·d) Gram rebuild per scoring call)
# ---------------------------------------------------------------------------


def krum_scores_reference(gradients: np.ndarray, num_byzantine: int) -> np.ndarray:
    """Seed Krum scoring: fresh Gram matrix + full row sort per call."""
    n = len(gradients)
    num_neighbors = max(n - num_byzantine - 2, 1)
    sq_norms = np.sum(gradients**2, axis=1)
    squared = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (gradients @ gradients.T)
    np.maximum(squared, 0.0, out=squared)
    np.fill_diagonal(squared, np.inf)
    sorted_sq = np.sort(squared, axis=1)
    return sorted_sq[:, :num_neighbors].sum(axis=1)


def multi_krum_select_reference(
    gradients: np.ndarray, num_byzantine: int, num_selected: Optional[int] = None
) -> np.ndarray:
    """Seed Multi-Krum selection (ascending score order, then sorted)."""
    n = len(gradients)
    scores = krum_scores_reference(gradients, num_byzantine)
    if num_selected is None:
        num_selected = max(n - num_byzantine, 1)
    num_selected = int(min(num_selected, n))
    return np.argsort(scores)[:num_selected]


def bulyan_reference(
    gradients: np.ndarray, num_byzantine: int
) -> Dict[str, np.ndarray]:
    """Seed Bulyan: iterative Krum with a fresh Gram matrix per iteration."""
    n = len(gradients)
    f = int(max(min(num_byzantine, (n - 3) // 4), 0))
    theta = max(n - 2 * f, 1)

    remaining = list(range(n))
    selected: List[int] = []
    while len(selected) < theta and len(remaining) > 2:
        subset = gradients[remaining]
        scores = krum_scores_reference(subset, f)
        winner_local = int(np.argmin(scores))
        selected.append(remaining.pop(winner_local))
    if not selected:
        selected = list(range(n))
    selected_array = np.array(sorted(selected))
    chosen = gradients[selected_array]

    beta = max(len(chosen) - 2 * f, 1)
    median = np.median(chosen, axis=0)
    distance_to_median = np.abs(chosen - median)
    order = np.argsort(distance_to_median, axis=0)
    closest = np.take_along_axis(chosen, order[:beta], axis=0)
    aggregated = closest.mean(axis=0)
    return {"gradient": aggregated, "selected_indices": selected_array}


# ---------------------------------------------------------------------------
# DnC (seed loop; rng consumption must match the optimized implementation)
# ---------------------------------------------------------------------------


def dnc_reference(
    gradients: np.ndarray,
    num_byzantine: int,
    rng: np.random.Generator,
    *,
    num_iterations: int = 3,
    subsample_dim: int = 512,
    filter_fraction: float = 1.0,
) -> Dict[str, np.ndarray]:
    """Seed Divide-and-Conquer spectral filtering."""
    n, dim = gradients.shape
    f = int(min(num_byzantine, (n - 1) // 2))
    num_removed = int(round(filter_fraction * f))
    good = np.arange(n)

    for _ in range(num_iterations):
        subset_dim = min(subsample_dim, dim)
        coords = rng.choice(dim, size=subset_dim, replace=False)
        sampled = gradients[good][:, coords]
        centered = sampled - sampled.mean(axis=0)
        try:
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            top_direction = vt[0]
        except np.linalg.LinAlgError:  # pragma: no cover - degenerate input
            top_direction = np.ones(subset_dim) / np.sqrt(subset_dim)
        scores = (centered @ top_direction) ** 2
        keep = max(len(good) - num_removed, 1)
        # Stable, like the optimized implementation: exact score ties break
        # by client index on every platform.
        order = np.argsort(scores, kind="stable")
        good = good[order[:keep]]

    good = np.sort(good)
    return {"gradient": gradients[good].mean(axis=0), "selected_indices": good}


# ---------------------------------------------------------------------------
# Mean-Shift (seed: full pairwise recompute per iteration + Python merge loop)
# ---------------------------------------------------------------------------


def _pairwise_distances_reference(x: np.ndarray, y: np.ndarray = None) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = x if y is None else np.atleast_2d(np.asarray(y, dtype=np.float64))
    x_sq = np.sum(x**2, axis=1)[:, None]
    y_sq = np.sum(y**2, axis=1)[None, :]
    squared = x_sq + y_sq - 2.0 * (x @ y.T)
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def estimate_bandwidth_reference(x: np.ndarray, *, quantile: float = 0.3) -> float:
    """Seed bandwidth heuristic (always recomputes its own distances)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if len(x) < 2:
        return 1.0
    distances = _pairwise_distances_reference(x)
    upper = distances[np.triu_indices(len(x), k=1)]
    bandwidth = float(np.quantile(upper, quantile))
    if bandwidth <= 0.0:
        positive = upper[upper > 0]
        bandwidth = float(positive.min()) if len(positive) else 1e-3
    return bandwidth


def meanshift_reference(
    x: np.ndarray,
    *,
    bandwidth: Optional[float] = None,
    max_iter: int = 200,
    tol: float = 1e-5,
    quantile: float = 0.3,
) -> Dict[str, Any]:
    """Seed flat-kernel Mean-Shift fit returning labels / centers / count."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n_samples = len(x)
    if n_samples == 0:
        raise ValueError("cannot cluster an empty feature matrix")
    if bandwidth is None:
        bandwidth = estimate_bandwidth_reference(x, quantile=quantile)

    points = x.copy()
    for _ in range(max_iter):
        distances = _pairwise_distances_reference(points, x)
        within = distances <= bandwidth
        weights = within.astype(np.float64)
        counts = weights.sum(axis=1, keepdims=True)
        shifted = (weights @ x) / counts
        movement = float(np.max(np.linalg.norm(shifted - points, axis=1)))
        points = shifted
        if movement <= tol:
            break

    centers: list = []
    labels = np.full(n_samples, -1, dtype=int)
    for i in range(n_samples):
        assigned = False
        for cluster_index, center in enumerate(centers):
            if np.linalg.norm(points[i] - center) <= bandwidth:
                labels[i] = cluster_index
                assigned = True
                break
        if not assigned:
            centers.append(points[i])
            labels[i] = len(centers) - 1

    refined = np.vstack([x[labels == k].mean(axis=0) for k in range(len(centers))])
    return {"labels": labels, "cluster_centers": refined, "n_clusters": len(centers)}


def meanshift_largest_cluster_reference(
    labels: np.ndarray, n_clusters: int
) -> np.ndarray:
    counts = np.bincount(labels, minlength=n_clusters)
    winner = int(np.argmax(counts))
    return np.flatnonzero(labels == winner)


# ---------------------------------------------------------------------------
# SignGuard pipeline (seed: per-stage revalidation and norm recomputation)
# ---------------------------------------------------------------------------


def _sign_statistics_reference(
    gradients: np.ndarray, coordinates: Optional[np.ndarray] = None
) -> np.ndarray:
    gradients = check_gradient_matrix(gradients)
    if coordinates is not None:
        gradients = gradients[:, np.asarray(coordinates, dtype=int)]
    dim = gradients.shape[1]
    positive_count = (gradients > 0.0).sum(axis=1)
    negative_count = (gradients < 0.0).sum(axis=1)
    zero_count = dim - positive_count - negative_count
    return np.column_stack([positive_count, zero_count, negative_count]) / dim


def _cosine_feature_reference(
    gradients: np.ndarray, reference: Optional[np.ndarray], epsilon: float = 1e-12
) -> np.ndarray:
    gradients = check_gradient_matrix(gradients)
    norms = np.linalg.norm(gradients, axis=1)
    if reference is not None and np.linalg.norm(reference) > epsilon:
        reference = np.asarray(reference, dtype=np.float64)
        return (gradients @ reference) / (
            np.maximum(norms, epsilon) * np.linalg.norm(reference)
        )
    normalized = gradients / np.maximum(norms, epsilon)[:, None]
    similarity = normalized @ normalized.T
    np.fill_diagonal(similarity, np.nan)
    return np.nanmedian(similarity, axis=1)


def _euclidean_feature_reference(
    gradients: np.ndarray, reference: Optional[np.ndarray]
) -> np.ndarray:
    gradients = check_gradient_matrix(gradients)
    if reference is not None and np.asarray(reference).size == gradients.shape[1]:
        reference = np.asarray(reference, dtype=np.float64)
        distances = np.linalg.norm(gradients - reference, axis=1)
    else:
        sq_norms = np.sum(gradients**2, axis=1)
        squared = (
            sq_norms[:, None] + sq_norms[None, :] - 2.0 * (gradients @ gradients.T)
        )
        np.maximum(squared, 0.0, out=squared)
        pairwise = np.sqrt(squared)
        np.fill_diagonal(pairwise, np.nan)
        distances = np.nanmedian(pairwise, axis=1)
    scale = np.median(distances)
    if scale > 0:
        distances = distances / scale
    return distances


def signguard_pipeline_reference(
    gradients: np.ndarray,
    *,
    reference: Optional[np.ndarray] = None,
    rng: RngLike = None,
    similarity: str = "none",
    coordinate_fraction: float = 0.1,
    lower: float = 0.1,
    upper: float = 3.0,
    bandwidth_quantile: float = 0.5,
    use_norm_threshold: bool = True,
    use_sign_clustering: bool = True,
    use_norm_clipping: bool = True,
) -> Dict[str, Any]:
    """Seed ``SignGuardPipeline.aggregate``: Mean-Shift clustering backend.

    The rng draw sequence matches the optimized pipeline exactly (one
    ``rng.choice`` for the coordinate subset), so running both with
    identically seeded generators must produce the same selection.

    Note: unlike the unified post-fix behavior, the seed Euclidean feature
    accepted an all-zero reference — callers comparing against the optimized
    path should pass either ``None`` or a usable (non-zero) reference.
    """
    gradients = check_gradient_matrix(gradients)
    rng = as_rng(rng)
    n = len(gradients)
    selected = np.arange(n)

    if use_norm_threshold:
        norms = np.linalg.norm(check_gradient_matrix(gradients), axis=1)
        reference_norm = float(np.median(norms))
        if reference_norm <= 0:
            keep = np.arange(n)
        else:
            ratios = norms / reference_norm
            keep = np.flatnonzero((ratios >= lower) & (ratios <= upper))
        selected = np.intersect1d(selected, keep)

    if use_sign_clustering:
        checked = check_gradient_matrix(gradients)
        dim = checked.shape[1]
        check_fraction(coordinate_fraction, "fraction")
        count = max(int(round(coordinate_fraction * dim)), 1)
        coordinates = np.sort(rng.choice(dim, size=count, replace=False))
        features = [_sign_statistics_reference(checked, coordinates)]
        if similarity == "cosine":
            features.append(_cosine_feature_reference(checked, reference)[:, None])
        elif similarity == "euclidean":
            features.append(_euclidean_feature_reference(checked, reference)[:, None])
        matrix = np.hstack(features)
        if n <= 2:
            keep = np.arange(n)
        else:
            fit = meanshift_reference(matrix, quantile=bandwidth_quantile)
            keep = meanshift_largest_cluster_reference(fit["labels"], fit["n_clusters"])
        selected = np.intersect1d(selected, np.sort(keep))

    if len(selected) == 0:
        norms = np.linalg.norm(gradients, axis=1)
        selected = np.array([int(np.argsort(norms)[len(norms) // 2])])

    trusted = gradients[selected]
    if use_norm_clipping:
        bound = float(
            np.median(np.linalg.norm(check_gradient_matrix(gradients), axis=1))
        )
        clip_norms = np.linalg.norm(np.atleast_2d(trusted), axis=1)
        scales = np.ones_like(clip_norms)
        positive = clip_norms > 0
        scales[positive] = np.minimum(1.0, bound / clip_norms[positive])
        trusted = trusted * scales[:, None]
    aggregated = trusted.mean(axis=0)
    return {"gradient": aggregated, "selected_indices": selected}


# ---------------------------------------------------------------------------
# CNN window kernels (seed: np.pad + per-offset copies, a copied windows
# array per max-pool, np.add.at back through the argmax) and ReLU (seed:
# np.where on the mask)
# ---------------------------------------------------------------------------


def relu_forward_reference(relu: Any, x: np.ndarray) -> np.ndarray:
    """Seed ``ReLU.forward``, with the layer as ``relu``.

    It caches the same ``_mask``, so the layer's ``backward`` follows it.
    """
    relu._mask = x > 0
    return np.where(relu._mask, x, 0.0)


def im2col_reference(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Seed im2col: pad, copy each kernel offset, then a transposed copy."""
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    columns = np.empty(
        (batch, channels, kernel, kernel, out_h, out_w), dtype=floating_dtype(x.dtype)
    )
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            columns[:, :, ky, kx, :, :] = padded[:, :, ky:y_end:stride, kx:x_end:stride]
    columns = columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel * kernel
    )
    return columns, out_h, out_w


def col2im_reference(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Seed col2im: channels-first fold through a transposed columns view."""
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    columns = columns.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=floating_dtype(columns.dtype),
    )
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += columns[
                :, :, ky, kx, :, :
            ]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def maxpool2d_forward_reference(pool: Any, x: np.ndarray) -> np.ndarray:
    """Seed ``MaxPool2d.forward``, with the layer as ``pool``.

    It and :func:`maxpool2d_backward_reference` can stand in for the
    layer's methods together; they share the ``_argmax`` and ``_out_hw``
    caches.
    """
    batch, channels, height, width = x.shape
    pool._input_shape = x.shape
    out_h = conv_output_size(height, pool.kernel_size, pool.stride, 0)
    out_w = conv_output_size(width, pool.kernel_size, pool.stride, 0)
    pool._out_hw = (out_h, out_w)
    # Build (batch, channels, out_h, out_w, k*k) windows then take the max.
    windows = np.empty(
        (batch, channels, out_h, out_w, pool.kernel_size * pool.kernel_size),
        dtype=x.dtype,
    )
    for ky in range(pool.kernel_size):
        for kx in range(pool.kernel_size):
            windows[..., ky * pool.kernel_size + kx] = x[
                :,
                :,
                ky : ky + pool.stride * out_h : pool.stride,
                kx : kx + pool.stride * out_w : pool.stride,
            ]
    pool._argmax = np.argmax(windows, axis=-1)
    return np.max(windows, axis=-1)


def maxpool2d_backward_reference(pool: Any, grad_output: np.ndarray) -> np.ndarray:
    """Seed ``MaxPool2d.backward``: ``np.add.at`` through the argmax."""
    batch, channels, height, width = pool._input_shape
    out_h, out_w = pool._out_hw
    grad_input = np.zeros(pool._input_shape, dtype=grad_output.dtype)
    ky = pool._argmax // pool.kernel_size
    kx = pool._argmax % pool.kernel_size
    rows = (np.arange(out_h)[None, None, :, None] * pool.stride) + ky
    cols = (np.arange(out_w)[None, None, None, :] * pool.stride) + kx
    b_index = np.arange(batch)[:, None, None, None]
    c_index = np.arange(channels)[None, :, None, None]
    np.add.at(grad_input, (b_index, c_index, rows, cols), grad_output)
    return grad_input
