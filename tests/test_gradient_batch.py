"""Tests for the round-level GradientBatch compute cache."""

import numpy as np
import pytest

from repro.aggregators.base import ServerContext
from repro.utils.batch import GradientBatch, as_batch, resolve_batch


@pytest.fixture
def matrix(rng):
    return rng.normal(size=(12, 40))


class TestConstruction:
    def test_wrap_is_idempotent(self, matrix):
        batch = GradientBatch.wrap(matrix)
        assert GradientBatch.wrap(batch) is batch
        assert as_batch(batch) is batch

    def test_validates_input(self):
        bad = np.ones((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GradientBatch(bad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry_in_either_dtype(self, matrix, dtype, entry):
        bad = matrix.astype(dtype)
        bad[3, 7] = entry
        with pytest.raises(ValueError, match="non-finite"):
            GradientBatch(bad)

    @pytest.mark.parametrize("dtype,huge", [(np.float32, 1e20), (np.float64, 1e200)])
    def test_accepts_a_finite_row_whose_norm_overflows(self, matrix, dtype, huge):
        # The finite verdict reads the row norms; a finite row can overflow
        # its norm to inf, and then its entries are scanned one by one.
        gradients = matrix.astype(dtype)
        gradients[5, 2] = huge
        batch = GradientBatch(gradients)
        expected = np.sqrt(np.einsum("ij,ij->i", gradients, gradients))
        assert np.isinf(expected[5]) and np.isfinite(np.delete(expected, 5)).all()
        assert batch.norms().tobytes() == expected.tobytes()
        gradients[5, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GradientBatch(gradients)

    def test_preserves_float32(self, matrix):
        batch = GradientBatch(matrix.astype(np.float32))
        assert batch.dtype == np.float32
        assert batch.norms().dtype == np.float32

    def test_coerces_non_float_to_float64(self):
        batch = GradientBatch(np.ones((2, 3), dtype=int))
        assert batch.dtype == np.float64

    def test_shape_helpers(self, matrix):
        batch = GradientBatch(matrix)
        assert batch.n_clients == 12
        assert batch.dim == 40
        assert batch.shape == (12, 40)
        assert len(batch) == 12
        np.testing.assert_array_equal(np.asarray(batch), matrix)


class TestDerivedQuantities:
    def test_norms_match_linalg(self, matrix):
        batch = GradientBatch(matrix)
        np.testing.assert_allclose(
            batch.norms(), np.linalg.norm(matrix, axis=1), rtol=1e-13
        )

    def test_median_norm(self, matrix):
        batch = GradientBatch(matrix)
        assert batch.median_norm() == pytest.approx(
            float(np.median(np.linalg.norm(matrix, axis=1))), rel=1e-13
        )

    def test_sq_norms_match_sum_of_squares(self, matrix):
        batch = GradientBatch(matrix)
        np.testing.assert_array_equal(batch.sq_norms(), np.sum(matrix**2, axis=1))

    def test_gram_matches_matmul(self, matrix):
        batch = GradientBatch(matrix)
        np.testing.assert_array_equal(batch.gram(), matrix @ matrix.T)

    def test_sq_distances_match_quadratic_form(self, matrix):
        batch = GradientBatch(matrix)
        expected = np.sum((matrix[:, None, :] - matrix[None, :, :]) ** 2, axis=-1)
        np.testing.assert_allclose(batch.sq_distances(), expected, atol=1e-9)
        assert np.all(np.diag(batch.sq_distances()) == 0.0)

    def test_distances_are_sqrt_of_sq_distances(self, matrix):
        batch = GradientBatch(matrix)
        np.testing.assert_array_equal(batch.distances(), np.sqrt(batch.sq_distances()))

    def test_cosine_similarities(self, matrix):
        batch = GradientBatch(matrix)
        normalized = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        np.testing.assert_allclose(
            batch.cosine_similarities(), normalized @ normalized.T, atol=1e-12
        )

    def test_sign_counts(self):
        batch = GradientBatch(np.array([[1.0, -2.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(batch.sign_counts(), [[2, 1, 1]])

    def test_sign_counts_with_tolerance(self):
        batch = GradientBatch(np.array([[1e-6, -1e-6, 1.0]]))
        np.testing.assert_array_equal(batch.sign_counts(1e-3), [[1, 2, 0]])
        # Cached per tolerance value.
        assert batch.compute_count("sign_counts") == 1
        batch.sign_counts(1e-3)
        assert batch.compute_count("sign_counts") == 1


class TestMemoization:
    def test_each_quantity_computed_once(self, matrix):
        batch = GradientBatch(matrix)
        for _ in range(3):
            batch.norms()
            batch.sq_norms()
            batch.gram()
            batch.sq_distances()
            batch.distances()
        for name in ("norms", "sq_norms", "gram", "sq_distances", "distances"):
            assert batch.compute_count(name) == 1

    def test_laziness(self, matrix):
        # Validation computes the row norms, which carry its finite verdict,
        # and nothing else; an unvalidated batch computes nothing until asked.
        assert GradientBatch(matrix).compute_counts == {"norms": 1}
        batch = GradientBatch(matrix, validate=False)
        assert batch.compute_counts == {}
        batch.norms()
        assert batch.compute_counts == {"norms": 1}


class TestResolveBatch:
    def test_reuses_context_batch_for_same_matrix(self, matrix):
        batch = GradientBatch(matrix)
        context = ServerContext(batch=batch)
        assert resolve_batch(batch.matrix, context) is batch

    def test_rewraps_for_different_matrix(self, matrix, rng):
        batch = GradientBatch(matrix)
        context = ServerContext(batch=batch)
        other = rng.normal(size=(5, 40))
        resolved = resolve_batch(other, context)
        assert resolved is not batch
        np.testing.assert_array_equal(resolved.matrix, other)

    def test_handles_missing_context(self, matrix):
        resolved = resolve_batch(matrix, None)
        np.testing.assert_array_equal(resolved.matrix, matrix)

    def test_aggregator_call_populates_context(self, matrix):
        from repro.aggregators.krum import KrumAggregator

        context = ServerContext(num_byzantine_hint=2)
        KrumAggregator()(matrix, context)
        assert isinstance(context.batch, GradientBatch)
        # Krum consumed the cached distance matrix exactly once.
        assert context.batch.compute_count("sq_distances") == 1
