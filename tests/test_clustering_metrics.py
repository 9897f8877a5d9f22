"""Tests for the pairwise-distance utility."""

import numpy as np
import pytest

from repro.clustering import pairwise_distances


class TestPairwiseDistances:
    def test_matches_direct_computation(self, rng):
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(3, 4))
        expected = np.array([[np.linalg.norm(a - b) for b in y] for a in x])
        np.testing.assert_allclose(pairwise_distances(x, y), expected, atol=1e-10)

    def test_self_distance_diagonal_is_zero(self, rng):
        x = rng.normal(size=(5, 3))
        distances = pairwise_distances(x)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_no_negative_values_from_cancellation(self):
        x = np.array([[1e8, 1e8], [1e8, 1e8 + 1e-4]])
        assert np.all(pairwise_distances(x) >= 0)
