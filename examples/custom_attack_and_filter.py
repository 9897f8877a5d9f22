#!/usr/bin/env python3
"""Extending the library: a custom attack and a custom SignGuard filter.

This example shows the two extension points a security researcher typically
needs:

1. writing a new model-poisoning attack (here: a "partial drift" attack that
   pushes a random coordinate subset in the wrong direction), and
2. inspecting SignGuard's internals — feature extraction and per-filter
   decisions — on a single round of gradients, without running a full
   federated simulation.

Run with:  python examples/custom_attack_and_filter.py
(exits non-zero unless SignGuard filters every malicious gradient)
"""

from __future__ import annotations

import numpy as np

from repro.attacks import Attack, AttackContext
from repro.core import (
    NormThresholdFilter,
    SignClusteringFilter,
    SignGuard,
    extract_features,
)
from repro.aggregators.base import ServerContext
from repro.data import build_dataset, partition_dataset
from repro.fl import build_clients
from repro.nn.models import build_model
from repro.utils.rng import RngFactory


class PartialDriftAttack(Attack):
    """Amplify and flip a random fraction of coordinates of the attacker's own gradient.

    A simple adaptive attack idea: corrupt only a subset of coordinates
    (rather than all of them, as sign-flipping does) and scale them up so the
    poisoned update actively pushes the model in the wrong direction.
    """

    name = "partial_drift"

    def __init__(self, corrupted_fraction: float = 0.6, scale: float = 6.0):
        self.corrupted_fraction = corrupted_fraction
        self.scale = scale

    def craft(self, honest_gradients: np.ndarray, context: AttackContext) -> np.ndarray:
        byzantine = np.asarray(context.byzantine_indices, dtype=int)
        crafted = honest_gradients[byzantine].copy()
        dim = honest_gradients.shape[1]
        corrupted = context.rng.choice(
            dim, size=int(self.corrupted_fraction * dim), replace=False
        )
        crafted[:, corrupted] *= -self.scale
        return crafted


def collect_one_round_of_gradients():
    """Compute one round of honest client gradients on the MNIST-like task."""
    rng_factory = RngFactory(0)
    split = build_dataset(
        "mnist_like", num_train=800, num_test=200, rng=rng_factory.make("d")
    )
    partitions = partition_dataset(
        split.train, 20, scheme="iid", rng=rng_factory.make("p")
    )
    clients = build_clients(
        split.train,
        partitions,
        byzantine_indices=[],
        batch_size=16,
        rng_factory=rng_factory,
    )
    model = build_model("mlp", split.spec, rng=rng_factory.make("m"))
    return np.vstack([client.compute_gradient(model) for client in clients])


def main() -> None:
    honest = collect_one_round_of_gradients()
    num_byzantine = 4
    context = AttackContext.make(
        num_clients=len(honest), byzantine_indices=np.arange(num_byzantine), rng=0
    )
    submitted = PartialDriftAttack(corrupted_fraction=0.6, scale=6.0).apply(
        honest, context
    )

    print("Sign-statistics features (positive / zero / negative fractions):")
    features = extract_features(submitted, coordinate_fraction=0.2, rng=1)
    for index, row in enumerate(features.matrix):
        marker = "<-- malicious" if index < num_byzantine else ""
        print(f"  client {index:2d}: {np.round(row, 3)} {marker}")

    norm_decision = NormThresholdFilter().apply(submitted)
    sign_decision = SignClusteringFilter(coordinate_fraction=0.2).apply(
        submitted, rng=1
    )
    print(f"\nNorm filter kept   : {sorted(map(int, norm_decision.selected_indices))}")
    print(f"Sign filter kept   : {sorted(map(int, sign_decision.selected_indices))}")

    result = SignGuard(coordinate_fraction=0.2)(submitted, ServerContext.make(rng=1))
    caught = set(range(num_byzantine)) - set(int(i) for i in result.selected_indices)
    print(f"SignGuard kept     : {sorted(map(int, result.selected_indices))}")
    print(f"Malicious filtered : {len(caught)} of {num_byzantine}")
    if len(caught) != num_byzantine:
        raise SystemExit("SignGuard kept a partial-drift gradient")
    benign_mean = honest[num_byzantine:].mean(axis=0)
    print(
        "Aggregate error vs benign mean: "
        f"{np.linalg.norm(result.gradient - benign_mean):.4f} (SignGuard) vs "
        f"{np.linalg.norm(submitted.mean(axis=0) - benign_mean):.4f} (undefended mean)"
    )


if __name__ == "__main__":
    main()
