"""Tests for Mean-Shift clustering (SignGuard's default filter backend)."""

import numpy as np
import pytest

import repro.clustering.meanshift as meanshift_module
from repro.clustering import MeanShift, estimate_bandwidth, get_bin_seeds
from repro.clustering.metrics import pairwise_distances
from repro.utils.batch import MAX_DENSE_PAIRWISE


@pytest.fixture
def feature_blobs(rng):
    """Majority blob + small offset blob, mimicking honest vs malicious features."""
    honest = rng.normal([0.6, 0.05, 0.35], 0.02, size=(16, 3))
    malicious = rng.normal([0.3, 0.05, 0.65], 0.02, size=(4, 3))
    return np.vstack([honest, malicious])


def lattice_features(n, *, m, byzantine, seed):
    """Plain-SignGuard sign fractions: multiples of ``1/m``, rows shuffled.

    ``byzantine`` rows are one identical vector, as colluding clients that
    submit the same gradient produce; the honest rows repeat because ``m``
    sampled coordinates allow few distinct count triples.
    """
    rng = np.random.default_rng(seed)
    positive = rng.binomial(m, 0.55, size=n - byzantine)
    zero = rng.binomial(m - positive, 0.05)
    honest = np.column_stack([positive, zero, m - positive - zero])
    attack = np.tile([m // 3, 0, m - m // 3], (byzantine, 1))
    return rng.permutation(np.vstack([honest, attack])) / m


def first_occurrences(x):
    """Distinct rows of ``x`` in first-occurrence order, and each row's index."""
    _, first, inverse = np.unique(
        x, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


class TestEstimateBandwidth:
    def test_positive(self, feature_blobs):
        assert estimate_bandwidth(feature_blobs) > 0

    def test_single_point(self):
        assert estimate_bandwidth(np.zeros((1, 3))) == 1.0

    def test_identical_points_get_positive_floor(self):
        assert estimate_bandwidth(np.zeros((5, 3))) > 0

    def test_all_coincident_points_hit_exact_floor(self):
        # Every pairwise distance is zero, so there is no positive distance
        # to fall back on: the hard floor of 1e-3 applies.
        assert estimate_bandwidth(np.ones((6, 4))) == 1e-3

    def test_partially_coincident_points_use_min_positive_distance(self):
        # The quantile lands on a zero distance (most pairs coincide), so
        # the bandwidth falls back to the smallest positive distance.
        points = np.zeros((6, 2))
        points[5] = [0.25, 0.0]
        bandwidth = estimate_bandwidth(points, quantile=0.3)
        assert bandwidth == pytest.approx(0.25)

    def test_invalid_quantile_rejected(self, feature_blobs):
        with pytest.raises(ValueError):
            estimate_bandwidth(feature_blobs, quantile=0.0)


class TestExactPairQuantile:
    """The exact bandwidth reads every sample pair from distinct-row distances."""

    @staticmethod
    def dense_quantile(x, quantile):
        # The n x n matrix rebuilt from the distinct rows' distances holds
        # the very numbers the estimator reads, on any BLAS.
        first, inverse = first_occurrences(x)
        dense = pairwise_distances(x[first])[np.ix_(inverse, inverse)]
        upper = dense[np.triu_indices(len(x), k=1)]
        value = float(np.quantile(upper, quantile))
        return value, upper

    @pytest.mark.parametrize("quantile", [0.3, 0.5, 1.0])
    def test_equals_quantile_over_all_sample_pairs(self, quantile):
        x = lattice_features(400, m=197, byzantine=80, seed=0)
        assert len(first_occurrences(x)[0]) < len(x) // 2
        expected, _ = self.dense_quantile(x, quantile)
        assert expected > 0
        assert estimate_bandwidth(x, quantile=quantile) == expected

    def test_duplicate_pairs_past_the_quantile_fall_back_to_min_positive(self):
        # 80 of 100 rows coincide on dyadic values, so their 3,160 pairs
        # (64% of all) sit at exactly 0 and the 0.5-quantile is 0.
        x = lattice_features(100, m=16, byzantine=80, seed=1)
        quantile, upper = self.dense_quantile(x, 0.5)
        assert quantile == 0.0
        assert estimate_bandwidth(x, quantile=0.5) == upper[upper > 0].min()


class TestBandwidthSubsampling:
    """Subquadratic row-subset sampling behind ``max_pairs``."""

    @staticmethod
    def blobs(n=400, seed=5):
        rng = np.random.default_rng(seed)
        half = n // 2
        return np.vstack(
            [
                rng.normal(0.0, 0.05, size=(half, 3)),
                rng.normal(1.0, 0.05, size=(n - half, 3)),
            ]
        )

    def test_deterministic_across_repeated_calls(self):
        # The sampler reseeds its own named stream per call: no hidden
        # state, identical inputs give identical bandwidths.
        x = self.blobs()
        first = estimate_bandwidth(x, max_pairs=1_000)
        assert estimate_bandwidth(x, max_pairs=1_000) == first

    def test_explicit_rng_is_honoured(self):
        x = self.blobs()
        a = estimate_bandwidth(x, max_pairs=1_000, rng=np.random.default_rng(9))
        b = estimate_bandwidth(x, max_pairs=1_000, rng=np.random.default_rng(9))
        c = estimate_bandwidth(x, max_pairs=1_000, rng=np.random.default_rng(10))
        assert a == b
        assert a != c

    def test_subsampled_close_to_dense_quantile(self):
        x = self.blobs(600)
        dense = estimate_bandwidth(x)
        subsampled = estimate_bandwidth(x, max_pairs=20_000)
        assert subsampled == pytest.approx(dense, rel=0.15)

    def test_budget_covering_all_pairs_stays_dense(self):
        # With the budget at (or above) the true pair count the sampler
        # never engages, so the result is exactly the dense estimate.
        x = self.blobs(60)
        dense = estimate_bandwidth(x)
        assert estimate_bandwidth(x, max_pairs=60 * 59 // 2) == dense

    def test_auto_engages_above_dense_threshold(self):
        # n > MAX_DENSE_PAIRWISE: the sampler engages without an explicit
        # budget and the result stays deterministic.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(MAX_DENSE_PAIRWISE + 8, 3))
        bandwidth = estimate_bandwidth(x)
        assert bandwidth > 0
        assert estimate_bandwidth(x) == bandwidth

    def test_invalid_max_pairs_rejected(self):
        with pytest.raises(ValueError, match="max_pairs"):
            estimate_bandwidth(np.zeros((3, 2)), max_pairs=0)

    def test_coincident_subset_hits_exact_floor(self):
        # Every sampled distance is zero, so the 1e-3 hard floor applies
        # just like on the dense path.
        assert estimate_bandwidth(np.ones((50, 3)), max_pairs=10) == 1e-3


class TestMeanShift:
    def test_discovers_two_clusters(self, feature_blobs):
        model = MeanShift(bandwidth=0.1).fit(feature_blobs)
        assert model.n_clusters_ == 2

    def test_largest_cluster_is_majority(self, feature_blobs):
        model = MeanShift(bandwidth=0.1).fit(feature_blobs)
        largest = model.largest_cluster()
        assert set(largest) == set(range(16))

    def test_adaptive_bandwidth_separates(self, feature_blobs):
        model = MeanShift(quantile=0.5).fit(feature_blobs)
        largest = set(model.largest_cluster())
        # The honest majority must dominate the largest cluster.
        assert len(largest & set(range(16))) >= 14
        assert not largest.issuperset(set(range(16, 20))) or model.n_clusters_ == 1

    def test_single_cluster_when_bandwidth_is_huge(self, feature_blobs):
        model = MeanShift(bandwidth=100.0).fit(feature_blobs)
        assert model.n_clusters_ == 1
        assert len(model.largest_cluster()) == len(feature_blobs)

    def test_identical_points_form_one_cluster(self):
        model = MeanShift().fit(np.zeros((6, 3)))
        assert model.n_clusters_ == 1

    def test_identical_points_largest_cluster_covers_everyone(self):
        # The degenerate zero-bandwidth case must not split or drop points:
        # the positive floor keeps every coincident point in one cluster.
        model = MeanShift().fit(np.full((7, 2), 0.4))
        assert len(model.largest_cluster()) == 7
        assert np.all(model.labels_ == model.labels_[0])

    def test_labels_cover_all_samples(self, feature_blobs):
        model = MeanShift(bandwidth=0.1).fit(feature_blobs)
        assert len(model.labels_) == len(feature_blobs)
        assert model.labels_.min() >= 0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            MeanShift().fit(np.zeros((0, 3)))

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            MeanShift(bandwidth=-1.0)

    def test_quantile_outside_unit_interval_rejected_at_construction(self):
        # Rejected by the constructor, not inside the first fit.
        with pytest.raises(ValueError, match=r"quantile must be in \(0, 1\]"):
            MeanShift(quantile=1.5)

    def test_largest_cluster_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MeanShift().largest_cluster()

    def test_identical_rows_are_never_split(self):
        # BLAS kernels round a Gram entry differently by its tile position,
        # so two identical modes can sit 1.5e-8 or 2.1e-8 apart; with a
        # bandwidth of 1.5e-8 a merge over every sample split these 13
        # identical rows into 9 clusters.
        x = np.tile(np.array([114, 91, 120]) / 197, (13, 1))
        model = MeanShift(quantile=0.5).fit(x)
        assert model.n_clusters_ == 1

    def test_dense_fit_never_builds_a_sample_by_sample_matrix(self, monkeypatch):
        # A timing-free cost guard: every distance matrix the dense fit
        # builds has at most one row per distinct feature row.
        x = lattice_features(2000, m=20, byzantine=400, seed=3)
        distinct = len(first_occurrences(x)[0])
        assert distinct <= 50
        rows = []

        def spy(a, b=None):
            rows.append(len(a))
            return pairwise_distances(a, b)

        monkeypatch.setattr(meanshift_module, "pairwise_distances", spy)
        model = MeanShift(quantile=0.5).fit(x)
        assert len(model.labels_) == len(x)
        assert rows and max(rows) <= distinct


class TestBinSeeding:
    """MeanShift(bin_seeding=True): sklearn-style grid-seeded acceleration."""

    def _canonical(self, labels):
        """Relabel clusters by first appearance so partitions compare equal."""
        seen = {}
        return tuple(seen.setdefault(int(label), len(seen)) for label in labels)

    def test_get_bin_seeds_snaps_to_grid(self):
        x = np.array([[0.0, 0.0], [0.1, 0.1], [1.0, 1.0]])
        seeds = get_bin_seeds(x, bin_size=0.5)
        expected = {(0.0, 0.0), (1.0, 1.0)}
        assert {tuple(seed) for seed in seeds} == expected

    def test_get_bin_seeds_degenerate_returns_points(self):
        # Binning that cannot reduce the seed count returns the samples.
        x = np.array([[0.0, 0.0], [10.0, 10.0]])
        seeds = get_bin_seeds(x, bin_size=0.5)
        assert np.array_equal(seeds, x)

    def test_get_bin_seeds_invalid_bin_size(self):
        with pytest.raises(ValueError, match="bin_size"):
            get_bin_seeds(np.zeros((2, 2)), bin_size=0.0)

    def test_equivalent_partition_on_signguard_features(self):
        # The acceptance contract: on SignGuard's sign-statistics feature
        # distributions the binned path must discover the same partition
        # (up to cluster numbering) and the same trusted majority.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            features = np.vstack(
                [
                    rng.normal([0.6, 0.05, 0.35], 0.02, size=(80, 3)),
                    rng.normal([0.3, 0.05, 0.65], 0.02, size=(20, 3)),
                ]
            )
            unbinned = MeanShift(quantile=0.5).fit(features)
            binned = MeanShift(quantile=0.5, bin_seeding=True).fit(features)
            assert binned.n_clusters_ == unbinned.n_clusters_, seed
            assert self._canonical(binned.labels_) == self._canonical(
                unbinned.labels_
            ), seed
            np.testing.assert_array_equal(
                binned.largest_cluster(), unbinned.largest_cluster()
            )

    def test_equivalent_with_similarity_augmented_features(self):
        # The -Sim/-Dist variants append a 4th feature column; equivalence
        # must hold there too.
        rng = np.random.default_rng(7)
        features = np.hstack(
            [
                np.vstack(
                    [
                        rng.normal([0.55, 0.1, 0.35], 0.03, size=(40, 3)),
                        rng.normal([0.35, 0.1, 0.55], 0.03, size=(10, 3)),
                    ]
                ),
                np.concatenate(
                    [rng.normal(0.9, 0.02, 40), rng.normal(-0.8, 0.02, 10)]
                )[:, None],
            ]
        )
        unbinned = MeanShift(quantile=0.5).fit(features)
        binned = MeanShift(quantile=0.5, bin_seeding=True).fit(features)
        assert self._canonical(binned.labels_) == self._canonical(unbinned.labels_)

    def test_identical_points_one_cluster(self):
        model = MeanShift(bin_seeding=True).fit(np.full((6, 3), 0.4))
        assert model.n_clusters_ == 1
        assert len(model.largest_cluster()) == 6

    def test_explicit_bandwidth_skips_full_pairwise_distances(self):
        rng = np.random.default_rng(0)
        features = rng.normal(0.5, 0.02, size=(50, 3))
        model = MeanShift(bandwidth=0.2, bin_seeding=True).fit(features)
        assert model.n_clusters_ >= 1
        assert len(model.labels_) == 50

    def test_filter_backend_matches_unbinned_selection(self):
        from repro.core.filters import SignClusteringFilter
        from repro.utils.batch import GradientBatch

        rng = np.random.default_rng(3)
        signal = rng.normal(0.05, 1.0, size=500)
        honest = signal[None, :] + rng.normal(0, 0.3, size=(40, 500))
        malicious = -signal[None, :] + rng.normal(0, 0.05, size=(10, 500))
        gradients = GradientBatch(np.vstack([honest, malicious]))
        plain = SignClusteringFilter(clustering="meanshift").apply(
            gradients, rng=np.random.default_rng(0)
        )
        binned = SignClusteringFilter(clustering="meanshift_binned").apply(
            gradients, rng=np.random.default_rng(0)
        )
        np.testing.assert_array_equal(
            plain.selected_indices, binned.selected_indices
        )

    def test_filter_rejects_unknown_clustering(self):
        from repro.core.filters import SignClusteringFilter

        with pytest.raises(ValueError, match="clustering"):
            SignClusteringFilter(clustering="meanshift_turbo")
