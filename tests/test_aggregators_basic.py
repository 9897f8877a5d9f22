"""Tests for mean, trimmed-mean, median, geometric-median aggregation and norms."""

import numpy as np
import pytest

import repro.core  # noqa: F401  (registers the SignGuard aggregators)
from repro.aggregators import (
    AGGREGATOR_REGISTRY,
    CoordinateMedianAggregator,
    GeometricMedianAggregator,
    MeanAggregator,
    TrimmedMeanAggregator,
    build_aggregator,
    clip_gradients_to_norm,
    geometric_median,
    median_norm,
)
from repro.aggregators.base import ServerContext


@pytest.fixture
def context(rng):
    return ServerContext.make(rng=rng, num_byzantine_hint=4)


class TestMean:
    def test_matches_numpy_mean(self, benign_gradients, context):
        result = MeanAggregator()(benign_gradients, context)
        np.testing.assert_allclose(result.gradient, benign_gradients.mean(axis=0))
        assert result.num_selected == len(benign_gradients)

    def test_vector_input_promoted(self, context):
        result = MeanAggregator()(np.ones(5), context)
        np.testing.assert_array_equal(result.gradient, np.ones(5))

    def test_default_context_created_when_missing(self, benign_gradients):
        result = MeanAggregator()(benign_gradients)
        assert result.gradient.shape == (benign_gradients.shape[1],)


class TestTrimmedMean:
    def test_removes_extreme_values(self, context):
        gradients = np.vstack(
            [np.ones((8, 3)), 100.0 * np.ones((1, 3)), -100.0 * np.ones((1, 3))]
        )
        result = TrimmedMeanAggregator(trim=1)(gradients, context)
        np.testing.assert_allclose(result.gradient, 1.0)

    def test_uses_byzantine_hint_when_trim_not_given(self, benign_gradients, context):
        result = TrimmedMeanAggregator()(benign_gradients, context)
        assert result.info["trim"] == 4

    def test_trim_zero_equals_mean(self, benign_gradients, context):
        result = TrimmedMeanAggregator(trim=0)(benign_gradients, context)
        np.testing.assert_allclose(result.gradient, benign_gradients.mean(axis=0))

    def test_trim_capped_to_keep_at_least_one_row(self, context):
        gradients = np.arange(6, dtype=float).reshape(3, 2)
        result = TrimmedMeanAggregator(trim=10)(gradients, context)
        assert np.all(np.isfinite(result.gradient))

    def test_negative_trim_rejected(self):
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(trim=-1)


class TestMedian:
    def test_matches_numpy_median(self, benign_gradients, context):
        result = CoordinateMedianAggregator()(benign_gradients, context)
        np.testing.assert_allclose(result.gradient, np.median(benign_gradients, axis=0))

    def test_robust_to_one_huge_outlier(self, context):
        gradients = np.vstack([np.zeros((9, 4)), 1e9 * np.ones((1, 4))])
        result = CoordinateMedianAggregator()(gradients, context)
        np.testing.assert_allclose(result.gradient, 0.0)


class TestGeometricMedian:
    def test_collinear_points(self):
        points = np.array([[0.0], [1.0], [10.0]])
        estimate = geometric_median(points)
        assert estimate[0] == pytest.approx(1.0, abs=1e-3)

    def test_robust_to_outlier(self, rng, context):
        cluster = rng.normal(0, 0.1, size=(15, 3))
        outlier = 1000.0 * np.ones((1, 3))
        result = GeometricMedianAggregator()(np.vstack([cluster, outlier]), context)
        assert np.linalg.norm(result.gradient) < 1.0

    def test_single_point_is_fixed_point(self, context):
        point = np.array([[3.0, -2.0]])
        result = GeometricMedianAggregator()(point, context)
        np.testing.assert_allclose(result.gradient, point[0], atol=1e-6)

    def test_exact_duplicate_rows_stay_finite(self):
        # Regression: a duplicated majority point puts the estimate exactly
        # on a data point mid-iteration.  The scaled distance floor keeps
        # the Weiszfeld weights finite instead of dividing by zero, and
        # the estimate lands on the majority point.
        point = np.array([2.0, -1.0, 0.5])
        points = np.vstack([np.tile(point, (6, 1)), [[10.0, 10.0, 10.0]]])
        estimate = geometric_median(points)
        assert np.all(np.isfinite(estimate))
        np.testing.assert_allclose(estimate, point, atol=1e-4)

    def test_all_rows_identical(self):
        points = np.tile([1.0, 2.0], (5, 1))
        np.testing.assert_allclose(
            geometric_median(points), [1.0, 2.0], atol=1e-8
        )

    def test_scale_invariance(self):
        # The distance floor is scaled to the data (median row norm), so
        # huge-magnitude gradients converge exactly like unit-scale ones.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 4))
        small = geometric_median(points)
        large = geometric_median(points * 1e6)
        np.testing.assert_allclose(large, small * 1e6, rtol=1e-6)


class TestNormUtilities:
    def test_median_norm(self):
        gradients = np.diag([3.0, 4.0, 5.0])
        assert median_norm(gradients) == pytest.approx(4.0)

    def test_clipping_reduces_large_norms_only(self):
        gradients = np.array([[3.0, 4.0], [0.3, 0.4]])
        clipped = clip_gradients_to_norm(gradients, 1.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(clipped[1], gradients[1])

    def test_zero_gradient_unchanged(self):
        clipped = clip_gradients_to_norm(np.zeros((2, 3)), 1.0)
        np.testing.assert_array_equal(clipped, 0.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            clip_gradients_to_norm(np.ones((1, 2)), -1.0)


class TestAggregatorFactory:
    # Every registered name and alias: a dangling entry fails here, and a
    # new rule cannot skip the test.
    @pytest.mark.parametrize("name", AGGREGATOR_REGISTRY.names())
    def test_build_every_registered_rule(self, name, benign_gradients, context):
        aggregator = build_aggregator(name)
        result = aggregator(benign_gradients, context)
        assert result.gradient.shape == (benign_gradients.shape[1],)
        assert np.all(np.isfinite(result.gradient))

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            build_aggregator("blockchain")
        # The unweighted mean is the FedAvg rule; no weighted variant exists.
        assert isinstance(build_aggregator("fedavg"), MeanAggregator)
        with pytest.raises(KeyError):
            build_aggregator("weighted_mean")

    def test_params_forwarded(self):
        aggregator = build_aggregator("trimmed_mean", {"trim": 2})
        assert aggregator.trim == 2
