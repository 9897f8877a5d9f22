"""Tests for the Little-Is-Enough attack and its supporting math."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from repro.attacks import AttackContext, LittleIsEnoughAttack, lie_z_max


@pytest.fixture
def context(rng):
    return AttackContext.make(num_clients=20, byzantine_indices=np.arange(4), rng=rng)


class TestLieZMax:
    def test_matches_closed_form(self):
        n, m = 50, 10
        supporters = n - int(np.floor(n / 2 + 1))
        expected = norm.ppf(supporters / (n - m))
        assert lie_z_max(n, m) == pytest.approx(expected)

    def test_increases_with_byzantine_count(self):
        assert lie_z_max(50, 20) > lie_z_max(50, 5)

    def test_paper_scale(self):
        """For n=50, m=10 the maximal factor is a small positive number (<1)."""
        z = lie_z_max(50, 10)
        assert 0.0 < z < 1.0

    @pytest.mark.parametrize("n, m", [(50, 10), (20, 4), (7, 3), (400, 40)])
    def test_equals_normal_quantile_exactly(self, n, m):
        supporters = n - int(np.floor(n / 2 + 1))
        assert lie_z_max(n, m) == float(norm.ppf(supporters / (n - m)))

    def test_importing_repro_does_not_load_scipy(self):
        # Only lie_z_max needs scipy; the package and every repro-worker
        # start must not pay for (or depend on) importing it.
        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {source_root!r}); "
            "import repro, repro.fl.transport.worker; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lie_z_max(1, 0)
        with pytest.raises(ValueError):
            lie_z_max(10, 10)


class TestLittleIsEnoughAttack:
    def test_crafted_matches_equation_one(self, benign_gradients, context):
        attack = LittleIsEnoughAttack(z=0.3, use_benign_statistics=False)
        malicious = attack.craft(benign_gradients, context)
        mu = benign_gradients.mean(axis=0)
        sigma = benign_gradients.std(axis=0)
        np.testing.assert_allclose(malicious[0], mu - 0.3 * sigma)

    def test_all_byzantine_rows_identical(self, benign_gradients, context):
        malicious = LittleIsEnoughAttack(z=0.3).craft(benign_gradients, context)
        for row in malicious[1:]:
            np.testing.assert_array_equal(row, malicious[0])

    def test_benign_statistics_mode_excludes_byzantine_rows(
        self, benign_gradients, context
    ):
        attack = LittleIsEnoughAttack(z=0.5, use_benign_statistics=True)
        malicious = attack.craft(benign_gradients, context)
        benign = benign_gradients[4:]
        expected = benign.mean(axis=0) - 0.5 * benign.std(axis=0)
        np.testing.assert_allclose(malicious[0], expected)

    def test_adaptive_z_uses_z_max(self, benign_gradients, context):
        attack = LittleIsEnoughAttack(z=None)
        assert attack.attack_factor(context) == pytest.approx(lie_z_max(20, 4))

    def test_zero_z_sends_the_mean(self, benign_gradients, context):
        attack = LittleIsEnoughAttack(z=0.0, use_benign_statistics=False)
        malicious = attack.craft(benign_gradients, context)
        np.testing.assert_allclose(malicious[0], benign_gradients.mean(axis=0))

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            LittleIsEnoughAttack(z=-0.1)

    def test_stealthiness_against_distance(self, rng):
        """Prop. 1: the LIE gradient can be closer to the mean than some honest one."""
        honest = rng.normal(0.05, 1.0, size=(30, 400))
        context = AttackContext.make(
            num_clients=30, byzantine_indices=np.arange(6), rng=rng
        )
        attack = LittleIsEnoughAttack(z=0.2, use_benign_statistics=False)
        malicious = attack.craft(honest, context)[0]
        mean = honest.mean(axis=0)
        malicious_distance = np.linalg.norm(malicious - mean)
        honest_distances = np.linalg.norm(honest - mean, axis=1)
        assert np.any(honest_distances > malicious_distance)

    def test_sign_disruption_grows_with_z(self, rng):
        """The SignGuard insight: larger z flips more coordinate signs."""
        honest = rng.normal(0.1, 0.5, size=(30, 1000))
        mean = honest.mean(axis=0)
        std = honest.std(axis=0)

        def disagreement(z):
            crafted = mean - z * std
            return np.mean(np.sign(crafted) != np.sign(mean))

        assert disagreement(1.0) > disagreement(0.3) > disagreement(0.0)
