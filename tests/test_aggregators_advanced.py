"""Tests for the Divide-and-Conquer (DnC) aggregator."""

import numpy as np
import pytest

from repro.aggregators import DivideAndConquerAggregator
from repro.aggregators.base import ServerContext
from repro.aggregators.dnc import power_iteration_top_direction


@pytest.fixture
def context(rng):
    return ServerContext.make(rng=rng, num_byzantine_hint=3)


@pytest.fixture
def population_with_outliers(rng):
    honest = rng.normal(1.0, 0.2, size=(17, 40))
    malicious = rng.normal(-5.0, 0.2, size=(3, 40))
    return np.vstack([malicious, honest])


class TestDnC:
    def test_filters_spectral_outliers(self, population_with_outliers, context):
        aggregator = DivideAndConquerAggregator(num_byzantine=3, subsample_dim=40)
        result = aggregator(population_with_outliers, context)
        assert set(result.selected_indices).isdisjoint({0, 1, 2})

    def test_aggregate_close_to_honest_mean(self, population_with_outliers, context):
        aggregator = DivideAndConquerAggregator(num_byzantine=3)
        result = aggregator(population_with_outliers, context)
        honest_mean = population_with_outliers[3:].mean(axis=0)
        assert np.linalg.norm(result.gradient - honest_mean) < 0.5

    def test_subsampling_larger_than_dim_is_capped(self, benign_gradients, context):
        aggregator = DivideAndConquerAggregator(num_byzantine=2, subsample_dim=10_000)
        result = aggregator(benign_gradients, context)
        assert np.all(np.isfinite(result.gradient))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DivideAndConquerAggregator(num_iterations=0)
        with pytest.raises(ValueError):
            DivideAndConquerAggregator(subsample_dim=0)
        with pytest.raises(ValueError):
            DivideAndConquerAggregator(filter_fraction=0.0)

    def test_removal_compounds_across_iterations(self, rng):
        # Every iteration removes ``filter_fraction * f`` of the *surviving*
        # clients, so three iterations with f=2 shrink 12 clients to 6.
        # This pins the seed behaviour (shared with dnc_reference) that a
        # once-dead guard in the loop suggested might have been intended to
        # stop early.
        gradients = rng.normal(size=(12, 30))
        context = ServerContext.make(rng=0)
        aggregator = DivideAndConquerAggregator(
            num_byzantine=2, num_iterations=3, subsample_dim=30
        )
        result = aggregator(gradients, context)
        assert len(result.selected_indices) == 12 - 3 * 2

    def test_removal_floors_at_one_survivor(self, rng):
        gradients = rng.normal(size=(5, 20))
        context = ServerContext.make(rng=0)
        aggregator = DivideAndConquerAggregator(
            num_byzantine=2, num_iterations=10, subsample_dim=20
        )
        result = aggregator(gradients, context)
        assert len(result.selected_indices) == 1

    def test_tied_scores_break_by_client_index(self):
        # Identical gradients give identical (zero) outlier scores; the
        # stable argsort must then remove the highest indices first so the
        # selection is platform-deterministic.
        gradients = np.tile(np.linspace(0.1, 1.0, 20), (10, 1))
        context = ServerContext.make(rng=0)
        aggregator = DivideAndConquerAggregator(
            num_byzantine=2, num_iterations=3, subsample_dim=20
        )
        result = aggregator(gradients, context)
        np.testing.assert_array_equal(result.selected_indices, np.arange(4))

    def test_matches_reference_on_ties(self):
        from repro.perf import reference as ref

        gradients = np.tile(np.linspace(-1.0, 1.0, 25), (9, 1))
        result = DivideAndConquerAggregator(num_byzantine=3, subsample_dim=25)(
            gradients, ServerContext.make(rng=123)
        )
        expected = ref.dnc_reference(gradients, 3, np.random.default_rng(123))
        np.testing.assert_array_equal(
            result.selected_indices, expected["selected_indices"]
        )


class TestDnCPower:
    """The subquadratic ``svd="power"`` backend."""

    @staticmethod
    def spectral_population(n=60, dim=24, rank=4, seed=3):
        # Low-rank honest heterogeneity with geometrically decaying scales
        # keeps a spectral gap through every removal iteration, so the
        # power method's top direction is well defined at each step.
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
        scales = 2.0 ** -np.arange(rank)
        signal = rng.normal(0.05, 1.0, size=dim)
        n_malicious = n // 5
        n_honest = n - n_malicious
        honest = (
            signal
            + (rng.normal(size=(n_honest, rank)) * scales) @ basis.T
            + rng.normal(0, 0.05, size=(n_honest, dim))
        )
        malicious = -signal + rng.normal(0, 0.05, size=(n_malicious, dim))
        return np.vstack([honest, malicious])

    def test_svd_parameter_validation(self):
        with pytest.raises(ValueError, match="svd"):
            DivideAndConquerAggregator(svd="qr")

    def test_power_iteration_matches_full_svd_direction(self):
        x = self.spectral_population()
        centered = x - x.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        direction = power_iteration_top_direction(centered)
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(direction @ vt[0])) == pytest.approx(1.0, abs=1e-6)

    def test_power_iteration_zero_matrix_returns_unit_vector(self):
        direction = power_iteration_top_direction(np.zeros((5, 8)))
        assert direction.shape == (8,)
        assert np.linalg.norm(direction) == pytest.approx(1.0)

    def test_power_iteration_preserves_dtype(self):
        x = self.spectral_population().astype(np.float32)
        centered = x - x.mean(axis=0)
        assert power_iteration_top_direction(centered).dtype == np.float32

    def test_power_selection_matches_full_svd(self):
        gradients = self.spectral_population()
        full = DivideAndConquerAggregator(
            num_byzantine=12, subsample_dim=24, svd="full"
        )(gradients, ServerContext.make(rng=0))
        power = DivideAndConquerAggregator(
            num_byzantine=12, subsample_dim=24, svd="power"
        )(gradients, ServerContext.make(rng=0))
        np.testing.assert_array_equal(
            power.selected_indices, full.selected_indices
        )
        assert full.info["svd"] == "full"
        assert power.info["svd"] == "power"

    def test_modes_consume_identical_rng_streams(self):
        # The power path must not draw extra randomness: with coordinate
        # subsampling active (subsample_dim < dim) both modes see the same
        # sampled coordinates, so the selections still agree.
        gradients = self.spectral_population(dim=48)
        full = DivideAndConquerAggregator(
            num_byzantine=12, subsample_dim=24, svd="full"
        )(gradients, ServerContext.make(rng=7))
        power = DivideAndConquerAggregator(
            num_byzantine=12, subsample_dim=24, svd="power"
        )(gradients, ServerContext.make(rng=7))
        np.testing.assert_array_equal(
            power.selected_indices, full.selected_indices
        )
