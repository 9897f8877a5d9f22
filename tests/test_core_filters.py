"""Tests for SignGuard's norm-threshold and sign-clustering filters."""

import numpy as np
import pytest

from repro.core.filters import FilterDecision, NormThresholdFilter, SignClusteringFilter


class TestFilterDecision:
    def test_intersection(self):
        a = FilterDecision(selected_indices=[0, 1, 2, 3], info={"a": 1})
        b = FilterDecision(selected_indices=[2, 3, 4], info={"b": 2})
        merged = a.intersect(b)
        np.testing.assert_array_equal(merged.selected_indices, [2, 3])
        assert merged.info == {"a": 1, "b": 2}

    def test_indices_coerced_to_int_array(self):
        decision = FilterDecision(selected_indices=[1.0, 2.0])
        assert decision.selected_indices.dtype.kind == "i"


class TestNormThresholdFilter:
    def test_paper_bounds_keep_normal_gradients(self, benign_gradients):
        decision = NormThresholdFilter(lower=0.1, upper=3.0).apply(benign_gradients)
        assert len(decision.selected_indices) == len(benign_gradients)

    def test_huge_norm_gradient_rejected(self, benign_gradients):
        gradients = benign_gradients.copy()
        gradients[0] *= 100.0
        decision = NormThresholdFilter(upper=3.0).apply(gradients)
        assert 0 not in decision.selected_indices

    def test_tiny_norm_gradient_rejected(self, benign_gradients):
        gradients = benign_gradients.copy()
        gradients[0] *= 1e-4
        decision = NormThresholdFilter(lower=0.1).apply(gradients)
        assert 0 not in decision.selected_indices

    def test_all_zero_gradients_trusted(self):
        decision = NormThresholdFilter().apply(np.zeros((5, 10)))
        assert len(decision.selected_indices) == 5

    def test_info_contains_reference_norm(self, benign_gradients):
        decision = NormThresholdFilter().apply(benign_gradients)
        assert decision.info["norm_reference"] > 0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            NormThresholdFilter(lower=-1.0)
        with pytest.raises(ValueError):
            NormThresholdFilter(lower=2.0, upper=1.0)


class TestSignClusteringDegenerateInputs:
    """Degenerate feature geometries must never crash or empty the round.

    Identical gradient rows produce identical feature rows — the zero-
    bandwidth case for both Mean-Shift fits (``estimate_bandwidth``'s
    positive floor).
    """

    @pytest.mark.parametrize("clustering", ["meanshift", "meanshift_binned"])
    def test_identical_gradients_select_everyone(self, clustering):
        gradients = np.tile(np.linspace(-1.0, 1.0, 50), (6, 1))
        decision = SignClusteringFilter(clustering=clustering).apply(
            gradients, rng=np.random.default_rng(0)
        )
        np.testing.assert_array_equal(decision.selected_indices, np.arange(6))

    def test_identical_gradients_with_similarity_feature(self):
        gradients = np.tile(np.linspace(-1.0, 1.0, 50), (5, 1))
        decision = SignClusteringFilter(similarity="cosine").apply(
            gradients, rng=np.random.default_rng(1)
        )
        np.testing.assert_array_equal(decision.selected_indices, np.arange(5))


class TestSignClusteringFilter:
    @pytest.fixture
    def gradients_with_sign_flipped(self, rng):
        """16 honest gradients with a clear sign skew + 4 sign-flipped copies."""
        signal = rng.normal(0.3, 1.0, size=400)
        honest = signal[None, :] + rng.normal(0, 0.2, size=(16, 400))
        flipped = -honest[:4]
        return np.vstack([honest, flipped])

    @pytest.mark.parametrize("clustering", ["meanshift", "meanshift_binned"])
    def test_majority_cluster_is_honest(
        self, gradients_with_sign_flipped, clustering, rng
    ):
        decision = SignClusteringFilter(
            clustering=clustering, coordinate_fraction=0.5
        ).apply(gradients_with_sign_flipped, rng=rng)
        selected = set(decision.selected_indices)
        honest = set(range(16))
        assert len(selected & honest) >= 12
        assert len(selected - honest) <= 1

    def test_lie_gradients_detected_with_large_z(self, rng):
        honest = rng.normal(0.2, 0.8, size=(16, 800))
        mean, std = honest.mean(axis=0), honest.std(axis=0)
        malicious = np.tile(mean - 2.0 * std, (4, 1))
        decision = SignClusteringFilter(coordinate_fraction=0.5).apply(
            np.vstack([honest, malicious]), rng=rng
        )
        assert set(decision.selected_indices).isdisjoint(set(range(16, 20)))

    def test_small_population_trusted_entirely(self, rng):
        decision = SignClusteringFilter().apply(rng.normal(size=(2, 50)), rng=rng)
        assert len(decision.selected_indices) == 2

    def test_similarity_feature_separates_orthogonal_noise(self, rng):
        """Random-noise gradients share sign stats (~50/50) with balanced honest
        gradients, but the cosine feature to a reference exposes them."""
        signal = rng.normal(0.0, 1.0, size=600)
        honest = signal[None, :] + rng.normal(0, 0.1, size=(16, 600))
        noise = rng.normal(0, 1.0, size=(4, 600))
        gradients = np.vstack([honest, noise])
        sign_filter = SignClusteringFilter(similarity="cosine", coordinate_fraction=0.5)
        decision = sign_filter.apply(gradients, reference=signal, rng=rng)
        selected = set(decision.selected_indices)
        assert len(selected & set(range(16))) >= 12
        assert len(selected & set(range(16, 20))) <= 1

    def test_unknown_backend_rejected(self):
        for clustering in ("spectral", "kmeans", "dbscan", "meanshift_grid"):
            with pytest.raises(ValueError, match="clustering"):
                SignClusteringFilter(clustering=clustering)

    def test_info_exposes_features(self, benign_gradients, rng):
        decision = SignClusteringFilter().apply(benign_gradients, rng=rng)
        assert decision.info["features"].shape[0] == len(benign_gradients)
