"""Equivalence suite: optimized paths vs frozen seed implementations.

The round-level compute cache, the partition-based Krum scoring, the sliced
Bulyan selection, and the vectorized Mean-Shift must all make *exactly* the
same decisions as the pre-refactor implementations (kept frozen in
:mod:`repro.perf.reference`).  Selections are compared exactly; aggregated
gradients within tight float tolerance (summation orders may legally differ
by ulps).  A float32 section checks the reduced-precision mode stays within
float32 tolerance of the float64 reference.
"""

import numpy as np
import pytest

from repro.aggregators.base import ServerContext
from repro.aggregators.bulyan import BulyanAggregator
from repro.aggregators.dnc import DivideAndConquerAggregator
from repro.aggregators.krum import KrumAggregator, MultiKrumAggregator, krum_scores
from repro.clustering import MeanShift
from repro.core.pipeline import SignGuardPipeline
from repro.perf import reference as ref
from repro.utils.batch import GradientBatch


@pytest.fixture
def population(rng):
    """30 honest gradients + 6 colluding outliers, dim 200."""
    signal = rng.normal(0.1, 1.0, size=200)
    honest = signal[None, :] + rng.normal(0, 0.3, size=(30, 200))
    malicious = -1.5 * signal[None, :] + rng.normal(0, 0.05, size=(6, 200))
    return np.vstack([honest, malicious])


class TestKrumEquivalence:
    def test_scores_bit_identical(self, population):
        for f in (0, 2, 6, 10):
            optimized = krum_scores(population, f)
            seed = ref.krum_scores_reference(population, f)
            np.testing.assert_array_equal(optimized, seed)

    def test_krum_selects_same_winner(self, population):
        result = KrumAggregator(num_byzantine=6)(population)
        seed_scores = ref.krum_scores_reference(population, 6)
        assert result.selected_indices[0] == int(np.argmin(seed_scores))

    def test_multi_krum_selects_same_set(self, population):
        result = MultiKrumAggregator(num_byzantine=6)(population)
        seed = np.sort(ref.multi_krum_select_reference(population, 6))
        np.testing.assert_array_equal(result.selected_indices, seed)

    def test_multi_krum_aggregate_matches(self, population):
        result = MultiKrumAggregator(num_byzantine=6)(population)
        seed = ref.multi_krum_select_reference(population, 6)
        np.testing.assert_allclose(
            result.gradient, population[seed].mean(axis=0), rtol=1e-12, atol=1e-12
        )

    def test_two_clients_edge_case(self, rng):
        pair = rng.normal(size=(2, 8))
        np.testing.assert_array_equal(
            krum_scores(pair, 0), ref.krum_scores_reference(pair, 0)
        )


class TestBulyanEquivalence:
    @pytest.mark.parametrize("f", [0, 2, 6])
    def test_same_selection_and_aggregate(self, population, f):
        result = BulyanAggregator(num_byzantine=f)(population)
        seed = ref.bulyan_reference(population, f)
        np.testing.assert_array_equal(result.selected_indices, seed["selected_indices"])
        np.testing.assert_allclose(
            result.gradient, seed["gradient"], rtol=1e-12, atol=1e-12
        )


class TestDnCEquivalence:
    def test_same_selection_with_identical_rng(self, population):
        aggregator = DivideAndConquerAggregator(num_byzantine=6)
        context = ServerContext.make(rng=7)
        result = aggregator(population, context)
        seed = ref.dnc_reference(population, 6, np.random.default_rng(7))
        np.testing.assert_array_equal(result.selected_indices, seed["selected_indices"])
        np.testing.assert_allclose(
            result.gradient, seed["gradient"], rtol=1e-12, atol=1e-12
        )


class TestMeanShiftEquivalence:
    def test_same_labels_and_centers(self, rng):
        features = np.vstack(
            [
                rng.normal([0.6, 0.05, 0.35], 0.02, size=(16, 3)),
                rng.normal([0.3, 0.05, 0.65], 0.02, size=(4, 3)),
            ]
        )
        model = MeanShift(quantile=0.5).fit(features)
        seed = ref.meanshift_reference(features, quantile=0.5)
        np.testing.assert_array_equal(model.labels_, seed["labels"])
        assert model.n_clusters_ == seed["n_clusters"]
        np.testing.assert_allclose(
            model.cluster_centers_, seed["cluster_centers"], rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("columns", [3, 4])
    def test_duplicate_heavy_same_labels_and_centers(self, rng, columns):
        # SignGuard features repeat: sign fractions are multiples of 1/m and
        # colluding clients submit one identical row.  Four columns add a
        # continuous similarity feature, so only the attackers coincide.
        m = 60
        positive = rng.binomial(m, 0.55, size=160)
        zero = rng.binomial(m - positive, 0.05)
        honest = np.column_stack([positive, zero, m - positive - zero]) / m
        attack = np.array([0.3, 0.0, 0.7])
        if columns == 4:
            honest = np.column_stack([honest, rng.normal(0.8, 0.05, 160)])
            attack = np.append(attack, -0.6)
        features = rng.permutation(np.vstack([honest, np.tile(attack, (40, 1))]))
        assert len(np.unique(features, axis=0)) < len(features)
        model = MeanShift(quantile=0.5).fit(features)
        seed = ref.meanshift_reference(features, quantile=0.5)
        np.testing.assert_array_equal(model.labels_, seed["labels"])
        assert model.n_clusters_ == seed["n_clusters"]
        np.testing.assert_allclose(
            model.cluster_centers_, seed["cluster_centers"], rtol=1e-9, atol=1e-12
        )

    def test_same_largest_cluster_across_bandwidths(self, rng):
        features = rng.normal(size=(25, 4))
        for bandwidth in (0.5, 1.0, 3.0):
            model = MeanShift(bandwidth=bandwidth).fit(features)
            seed = ref.meanshift_reference(features, bandwidth=bandwidth)
            np.testing.assert_array_equal(model.labels_, seed["labels"])

    def test_identical_points(self):
        features = np.zeros((6, 3))
        model = MeanShift().fit(features)
        seed = ref.meanshift_reference(features)
        np.testing.assert_array_equal(model.labels_, seed["labels"])


class TestSignGuardEquivalence:
    @pytest.mark.parametrize("similarity", ["none", "cosine", "euclidean"])
    def test_all_variants_same_selection_and_aggregate(
        self, population, rng, similarity
    ):
        reference_gradient = population[:30].mean(axis=0)
        pipeline = SignGuardPipeline(similarity=similarity)
        optimized = pipeline.aggregate(
            population, reference=reference_gradient, rng=np.random.default_rng(11)
        )
        seed = ref.signguard_pipeline_reference(
            population,
            reference=reference_gradient,
            rng=np.random.default_rng(11),
            similarity=similarity,
        )
        np.testing.assert_array_equal(
            optimized["selected_indices"], seed["selected_indices"]
        )
        np.testing.assert_allclose(
            optimized["gradient"], seed["gradient"], rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("similarity", ["none", "cosine", "euclidean"])
    def test_first_round_no_reference(self, population, similarity):
        pipeline = SignGuardPipeline(similarity=similarity)
        optimized = pipeline.aggregate(
            population, reference=None, rng=np.random.default_rng(3)
        )
        seed = ref.signguard_pipeline_reference(
            population, reference=None, rng=np.random.default_rng(3),
            similarity=similarity,
        )
        np.testing.assert_array_equal(
            optimized["selected_indices"], seed["selected_indices"]
        )
        np.testing.assert_allclose(
            optimized["gradient"], seed["gradient"], rtol=1e-10, atol=1e-12
        )

    def test_ablation_toggles(self, population):
        for toggles in (
            dict(use_sign_clustering=False),
            dict(use_norm_threshold=False),
            dict(use_norm_clipping=False),
        ):
            pipeline = SignGuardPipeline(**toggles)
            optimized = pipeline.aggregate(population, rng=np.random.default_rng(5))
            seed = ref.signguard_pipeline_reference(
                population, rng=np.random.default_rng(5), **toggles
            )
            np.testing.assert_array_equal(
                optimized["selected_indices"], seed["selected_indices"]
            )
            np.testing.assert_allclose(
                optimized["gradient"], seed["gradient"], rtol=1e-10, atol=1e-12
            )

    def test_pipeline_computes_each_cached_quantity_once(self, population):
        """The optimized pipeline must never fall back to naive recomputation."""
        batch = GradientBatch(population)
        pipeline = SignGuardPipeline(similarity="euclidean")
        pipeline.aggregate(batch, reference=None, rng=np.random.default_rng(1))
        assert batch.compute_count("norms") == 1
        assert batch.compute_count("sq_norms") <= 1
        assert batch.compute_count("gram") == 1
        assert batch.compute_count("sq_distances") == 1
        assert batch.compute_count("distances") == 1


class TestFloat32Mode:
    def test_selections_match_float64_reference(self, population):
        """Reduced precision may shift aggregates within float32 tolerance but
        must keep the same trusted set on well-separated data."""
        pipeline = SignGuardPipeline()
        result32 = pipeline.aggregate(
            population.astype(np.float32), rng=np.random.default_rng(2)
        )
        seed = ref.signguard_pipeline_reference(
            population, rng=np.random.default_rng(2)
        )
        np.testing.assert_array_equal(
            result32["selected_indices"], seed["selected_indices"]
        )
        np.testing.assert_allclose(
            result32["gradient"], seed["gradient"], rtol=1e-4, atol=1e-4
        )

    def test_krum_float32_same_winner(self, population):
        result32 = KrumAggregator(num_byzantine=6)(population.astype(np.float32))
        seed_scores = ref.krum_scores_reference(population, 6)
        assert result32.selected_indices[0] == int(np.argmin(seed_scores))
