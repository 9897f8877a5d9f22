"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss, accuracy


class TestCrossEntropyLoss:
    def test_uniform_logits_give_log_num_classes(self):
        loss = CrossEntropyLoss()(np.zeros((4, 10)), np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(10))

    def test_perfect_prediction_gives_near_zero_loss(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = CrossEntropyLoss()(logits, np.array([1, 2]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self, rng, gradcheck):
        loss_fn = CrossEntropyLoss()
        logits = rng.normal(size=(3, 4))
        targets = np.array([0, 3, 2])
        loss_fn(logits, targets)
        analytic = loss_fn.backward()

        def scalar(perturbed):
            return CrossEntropyLoss()(perturbed, targets)

        numeric = gradcheck(scalar, logits.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss_fn = CrossEntropyLoss()
        loss_fn(rng.normal(size=(5, 6)), rng.integers(0, 6, size=5))
        np.testing.assert_allclose(loss_fn.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(np.zeros((3, 2)), np.zeros(4, dtype=int))


class TestAccuracy:
    def test_perfect_and_zero(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_partial(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5
