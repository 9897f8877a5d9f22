"""Tests for the SignGuard pipeline and the SignGuard aggregator variants."""

import numpy as np
import pytest

from repro.aggregators.base import ServerContext
from repro.attacks import AttackContext, build_attack
from repro.core import SignGuard, SignGuardDist, SignGuardSim, SignGuardPipeline


@pytest.fixture
def server_context(rng):
    return ServerContext.make(rng=rng)


@pytest.fixture
def realistic_gradients(rng):
    """Honest gradients with positive-skewed signs and moderate client noise."""
    signal = rng.normal(0.15, 0.8, size=600)
    return signal[None, :] + rng.normal(0, 0.25, size=(20, 600))


def attacked(gradients, attack_name, rng, num_byzantine=4, params=None):
    if attack_name == "byzmean":
        # Use an aggressive inner LIE target so the hybrid attack is actually
        # harmful on this synthetic population (std/mean is smaller here than
        # for real training gradients, so z = 0.3 would be a no-op attack).
        from repro.attacks import ByzMeanAttack, LittleIsEnoughAttack

        attack = ByzMeanAttack(inner=LittleIsEnoughAttack(z=1.5))
    else:
        attack = build_attack(attack_name, params or {})
    context = AttackContext.make(
        num_clients=len(gradients), byzantine_indices=np.arange(num_byzantine), rng=rng
    )
    return attack.apply(gradients, context)


class TestSignGuardPipeline:
    def test_requires_at_least_one_component(self):
        with pytest.raises(ValueError):
            SignGuardPipeline(
                use_norm_threshold=False,
                use_sign_clustering=False,
                use_norm_clipping=False,
            )

    def test_unknown_similarity_rejected_at_construction(self):
        # Rejected before any round runs, not inside the first aggregate.
        with pytest.raises(ValueError, match="similarity must be"):
            SignGuardPipeline(similarity="cos")

    def test_aggregate_returns_expected_keys(self, realistic_gradients, rng):
        outcome = SignGuardPipeline().aggregate(realistic_gradients, rng=rng)
        assert set(outcome) == {"gradient", "selected_indices", "info"}
        assert outcome["gradient"].shape == (600,)

    def test_clipping_bound_recorded(self, realistic_gradients, rng):
        outcome = SignGuardPipeline().aggregate(realistic_gradients, rng=rng)
        assert outcome["info"]["clip_bound"] > 0

    def test_norm_threshold_removes_scaled_reverse_attack(
        self, realistic_gradients, rng
    ):
        submitted = attacked(
            realistic_gradients, "reverse_scaling", rng, params={"scale": 100.0}
        )
        pipeline = SignGuardPipeline(use_sign_clustering=False)
        decision = pipeline.filter(submitted, rng=rng)
        assert set(decision.selected_indices).isdisjoint(set(range(4)))

    def test_clustering_only_misses_scaled_reverse_but_clipping_bounds_it(
        self, realistic_gradients, rng
    ):
        """Table III: single components are weak, combinations are strong."""
        submitted = attacked(
            realistic_gradients, "reverse_scaling", rng, params={"scale": 100.0}
        )
        full = SignGuardPipeline().aggregate(submitted, rng=rng)
        benign_mean = realistic_gradients[4:].mean(axis=0)
        assert np.linalg.norm(full["gradient"] - benign_mean) < np.linalg.norm(
            benign_mean
        )

    def test_never_returns_empty_selection(self, rng):
        """Even for pathological inputs some gradient must be selected."""
        pathological = np.vstack([np.full((3, 50), 1000.0), np.full((3, 50), -1000.0)])
        outcome = SignGuardPipeline().aggregate(pathological, rng=rng)
        assert len(outcome["selected_indices"]) >= 1


class TestSignGuardAggregators:
    @pytest.mark.parametrize("attack_name", ["lie", "byzmean", "min_max", "min_sum"])
    def test_filters_stealthy_attacks(
        self, realistic_gradients, rng, server_context, attack_name
    ):
        params = {"z": 1.5} if attack_name == "lie" else None
        submitted = attacked(realistic_gradients, attack_name, rng, params=params)
        result = SignGuard()(submitted, server_context)
        byzantine_selected = set(result.selected_indices) & set(range(4))
        assert len(byzantine_selected) == 0
        benign_mean = realistic_gradients[4:].mean(axis=0)
        assert np.linalg.norm(result.gradient - benign_mean) < 0.5 * np.linalg.norm(
            benign_mean
        )

    def test_random_attack_filtered_by_norm_or_cluster(
        self, realistic_gradients, rng, server_context
    ):
        submitted = attacked(realistic_gradients, "random", rng, params={"std": 0.5})
        result = SignGuard()(submitted, server_context)
        benign_mean = realistic_gradients[4:].mean(axis=0)
        # Aggregate must stay closer to the benign mean than the undefended mean.
        undefended = submitted.mean(axis=0)
        assert np.linalg.norm(result.gradient - benign_mean) < np.linalg.norm(
            undefended - benign_mean
        )

    def test_no_attack_keeps_most_honest_gradients(
        self, realistic_gradients, server_context
    ):
        result = SignGuard()(realistic_gradients, server_context)
        assert len(result.selected_indices) >= 0.6 * len(realistic_gradients)

    def test_does_not_use_byzantine_hint(self, realistic_gradients, rng):
        """SignGuard must behave identically with and without the hint."""
        with_hint = SignGuard()(
            realistic_gradients, ServerContext.make(rng=7, num_byzantine_hint=4)
        )
        without_hint = SignGuard()(realistic_gradients, ServerContext.make(rng=7))
        np.testing.assert_allclose(with_hint.gradient, without_hint.gradient)

    def test_sim_variant_uses_previous_gradient(self, realistic_gradients, rng):
        reference = realistic_gradients.mean(axis=0)
        submitted = attacked(realistic_gradients, "sign_flip", rng)
        context = ServerContext.make(rng=rng, previous_gradient=reference)
        result = SignGuardSim()(submitted, context)
        byzantine_selected = set(result.selected_indices) & set(range(4))
        assert len(byzantine_selected) <= 1

    def test_bandwidth_quantile_outside_unit_interval_rejected(self):
        # Rejected before any round runs, not inside the first aggregate.
        with pytest.raises(ValueError, match=r"quantile must be in \(0, 1\]"):
            SignGuard(bandwidth_quantile=0.0)

    def test_variant_names_and_similarity(self):
        assert SignGuard().similarity == "none"
        assert SignGuardSim().similarity == "cosine"
        assert SignGuardDist().similarity == "euclidean"
        assert SignGuardSim.name == "signguard_sim"

    def test_ablation_toggles_accepted(self, realistic_gradients, server_context):
        for toggles in (
            {"use_norm_threshold": False},
            {"use_sign_clustering": False},
            {"use_norm_clipping": False},
        ):
            result = SignGuard(**toggles)(realistic_gradients, server_context)
            assert np.all(np.isfinite(result.gradient))

    def test_result_info_names_rule(self, realistic_gradients, server_context):
        result = SignGuard()(realistic_gradients, server_context)
        assert result.info["rule"] == "signguard"
