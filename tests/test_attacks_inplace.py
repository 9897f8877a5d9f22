"""The attack stage written in place into the round buffer.

``Attack.apply(..., out=)`` follows numpy's convention and may alias its
input: the simulation passes its round buffer as both.  The contract under
test: for every registered attack the in-place result is byte-identical to
the copying one (which leaves its input untouched); LIE's column-blocked
statistics equal the full-matrix ``mean - z * std`` byte for byte at any
block layout; a rejected input leaves ``out`` unwritten; a simulation
round is identical on either path, and an ``apply`` override with the old
two-argument signature still runs; the in-place LIE stage allocates well
under one gradient matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.attacks.lie as lie
from repro.attacks import (
    ATTACK_REGISTRY,
    AttackContext,
    ByzMeanAttack,
    LittleIsEnoughAttack,
    build_attack,
)
from repro.attacks.base import Attack
from repro.core import SignGuard
from repro.data.partition import iid_partition
from repro.data.synthetic_images import make_mnist_like
from repro.fl.server import FederatedServer
from repro.fl.simulation import FederatedSimulation, build_clients
from repro.nn.models import build_model
from repro.utils.rng import RngFactory

DTYPES = [np.float64, np.float32]

#: Constructor parameters that make a registered attack deterministic.
ATTACK_PARAMS = {"time_varying": {"rng": 0}}


def make_context(num_clients, byzantine, seed=0):
    return AttackContext.make(
        num_clients=num_clients, byzantine_indices=byzantine, rng=seed
    )


def honest_matrix(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.01, 10.0, size=shape[1])
    return (rng.normal(0.1, 1.0, size=shape) * scale).astype(dtype)


def reference_vector(gradients, rows, z):
    """LIE's crafted vector over the whole reference matrix at once."""
    reference = gradients[rows]
    return reference.mean(axis=0) - z * reference.std(axis=0)


def small_blocks(monkeypatch, num_rows, itemsize, width):
    """Make LIE reduce ``width``-column blocks of ``num_rows`` rows."""
    monkeypatch.setattr(lie, "BLOCK_BYTES", num_rows * itemsize * width)


class TestInPlaceMatchesCopy:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", ATTACK_REGISTRY.names())
    def test_registry_attack(self, name, dtype):
        params = ATTACK_PARAMS.get(ATTACK_REGISTRY.get(name).name, {})
        honest = honest_matrix((12, 37), dtype)
        before = honest.tobytes()
        byzantine = [1, 4, 7]

        copied = build_attack(name, params).apply(honest, make_context(12, byzantine))
        assert honest.tobytes() == before  # out=None leaves the input alone
        buffer = honest.copy()
        result = build_attack(name, params).apply(
            buffer, make_context(12, byzantine), out=buffer
        )
        assert result is buffer
        assert result.dtype == dtype
        assert buffer.tobytes() == copied.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_distinct_out_buffer(self, dtype):
        honest = honest_matrix((10, 21), dtype)
        out = np.full_like(honest, 7.0)
        context = make_context(10, [0, 3])
        result = LittleIsEnoughAttack().apply(honest, context, out=out)
        assert result is out
        assert out.tobytes() == LittleIsEnoughAttack().apply(honest, context).tobytes()

    def test_no_byzantine_rows_copies_input(self):
        honest = honest_matrix((6, 9), np.float64)
        out = np.zeros_like(honest)
        LittleIsEnoughAttack().apply(honest, make_context(6, []), out=out)
        assert out.tobytes() == honest.tobytes()


class TestBlockedLieStatistics:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dim", [38, 36, 35, 7, 1])
    def test_blocks_with_ragged_tail(self, monkeypatch, dim, dtype):
        # Width-7 blocks of the 16 benign rows: 38 columns leave a 3-column
        # tail, 36 a one-column tail (merged into the block before it).
        honest = honest_matrix((20, dim), dtype)
        byzantine = [0, 5, 11, 19]
        small_blocks(monkeypatch, 16, honest.itemsize, 7)
        crafted = LittleIsEnoughAttack(z=0.3).malicious_gradient(
            honest, make_context(20, byzantine)
        )
        benign = np.setdiff1d(np.arange(20), byzantine)
        expected = reference_vector(honest, benign, 0.3)
        assert crafted.dtype == expected.dtype == dtype
        assert crafted.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_tall_shape_default_blocks(self, dtype):
        honest = honest_matrix((2000, 1970), dtype)
        byzantine = np.arange(0, 2000, 5)
        attack = LittleIsEnoughAttack(z=0.3)
        assert lie.BLOCK_BYTES // (1600 * honest.itemsize) < 1970  # several blocks
        crafted = attack.malicious_gradient(honest, make_context(2000, byzantine))
        benign = np.setdiff1d(np.arange(2000), byzantine)
        assert crafted.tobytes() == reference_vector(honest, benign, 0.3).tobytes()

    def test_all_byzantine_cohort_uses_every_row(self, monkeypatch):
        honest = honest_matrix((5, 40), np.float64)
        small_blocks(monkeypatch, 5, honest.itemsize, 6)
        context = make_context(5, np.arange(5))
        crafted = LittleIsEnoughAttack(z=None).malicious_gradient(honest, context)
        # An all-Byzantine cohort leaves z_max undefined: z falls back to 0.
        expected = reference_vector(honest, slice(None), 0.0)
        assert crafted.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_all_rows_when_not_using_benign_statistics(self, monkeypatch, dtype):
        honest = honest_matrix((12, 50), dtype)
        small_blocks(monkeypatch, 12, honest.itemsize, 9)
        attack = LittleIsEnoughAttack(z=0.5, use_benign_statistics=False)
        crafted = attack.malicious_gradient(honest, make_context(12, [2, 3]))
        assert crafted.tobytes() == reference_vector(honest, slice(None), 0.5).tobytes()

    def test_byzmean_target_and_compensation(self, monkeypatch):
        honest = honest_matrix((15, 44), np.float64)
        byzantine = [1, 2, 8, 13]
        small_blocks(monkeypatch, 11, honest.itemsize, 5)
        malicious = ByzMeanAttack().craft(honest, make_context(15, byzantine))
        benign = np.setdiff1d(np.arange(15), byzantine)
        target = reference_vector(honest, benign, 0.3)
        m1 = 2  # floor(0.5 * 4)
        compensating = ((15 - m1) * target - honest[benign].sum(axis=0)) / 2
        assert malicious[:m1].tobytes() == np.tile(target, (m1, 1)).tobytes()
        assert malicious[m1:].tobytes() == np.tile(compensating, (2, 1)).tobytes()


class TestRejectedInputs:
    @pytest.mark.parametrize("name", ["lie", "sign_flip", "byzmean"])
    def test_nan_input_raises_with_out_unchanged(self, name):
        honest = honest_matrix((8, 13), np.float64)
        honest[3, 5] = np.nan
        before = honest.tobytes()
        with pytest.raises(ValueError, match="non-finite"):
            build_attack(name).apply(honest, make_context(8, [0, 1]), out=honest)
        assert honest.tobytes() == before

    def test_bad_indices_raise_before_writing_distinct_out(self):
        honest = honest_matrix((8, 13), np.float64)
        out = np.full_like(honest, 7.0)
        with pytest.raises(ValueError, match="out of range"):
            LittleIsEnoughAttack().apply(honest, make_context(8, [2, 8]), out=out)
        assert np.all(out == 7.0)

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda g: g.astype(np.float32),  # wrong dtype
            lambda g: np.empty((g.shape[0] + 1, g.shape[1])),  # wrong shape
            lambda g: np.empty(g.size),  # not 2-D
            lambda g: g.tolist(),  # not an array
        ],
    )
    def test_mismatched_out_raises(self, make_out):
        honest = honest_matrix((6, 10), np.float64)
        with pytest.raises(ValueError, match="out must be"):
            LittleIsEnoughAttack().apply(
                honest, make_context(6, [0]), out=make_out(honest)
            )

    def test_integer_input_cannot_be_written_in_place(self):
        # Validation coerces an int matrix to float64, so writing into the
        # caller's int array would need a silent cast: refuse it.
        honest = np.arange(24).reshape(4, 6)
        with pytest.raises(ValueError, match="out must be"):
            LittleIsEnoughAttack().apply(honest, make_context(4, [0]), out=honest)


class CopyingLie(LittleIsEnoughAttack):
    """LIE behind an ``apply`` override with the old two-argument signature."""

    def __init__(self):
        super().__init__(z=0.3)
        self.calls = 0

    def apply(self, honest_gradients, context):
        self.calls += 1
        return super().apply(honest_gradients, context)


@pytest.fixture(scope="module")
def split():
    return make_mnist_like(num_train=240, num_test=60, rng=0)


def run_simulation(split, attack, rounds=3, **kwargs):
    rng_factory = RngFactory(0)
    partitions = iid_partition(split.train, 12, rng=rng_factory.make("p"))
    clients = build_clients(
        split.train, partitions, (0, 3, 7), batch_size=16, rng_factory=rng_factory
    )
    model = build_model("mlp", split.spec, rng=0, params={"hidden_dims": (16,)})
    server = FederatedServer(
        model, SignGuard(), learning_rate=0.1, num_byzantine_hint=3, rng=0
    )
    simulation = FederatedSimulation(
        server,
        clients,
        attack,
        split.test,
        attack_rng=np.random.default_rng(0),
        **kwargs,
    )
    records = simulation.run(rounds).rounds
    state = simulation.model.state_dict()
    final = b"".join(state[key].tobytes() for key in sorted(state))
    return [(r.selected_clients, r.train_loss) for r in records], final


class TestSimulationRound:
    @pytest.mark.parametrize(
        "participation",
        [
            {},
            {
                "participation": "uniform",
                "participation_fraction": 0.75,
                "dropout_rate": 0.2,
                "straggler_rate": 0.2,
            },
        ],
        ids=["full", "sampled"],
    )
    def test_in_place_round_matches_copying_path(self, split, participation):
        attack = LittleIsEnoughAttack(z=0.3)
        seen = []
        original = attack.apply

        def spy(honest_gradients, context, **kwargs):
            seen.append(kwargs.get("out") is honest_gradients)
            return original(honest_gradients, context, **kwargs)

        attack.apply = spy  # an instance wrapper, as a tracer installs
        in_place = run_simulation(split, attack, **participation)
        copying_attack = CopyingLie()
        copying = run_simulation(split, copying_attack, **participation)
        assert seen == [True, True, True]
        assert copying_attack.calls == 3
        assert in_place[0] == copying[0]
        assert in_place[1] == copying[1]

    def test_two_argument_apply_override_still_runs(self, split):
        class Recording(Attack):
            name = "recording"

            def __init__(self):
                self.rows = []

            def apply(self, honest_gradients, context):
                self.rows.append(len(honest_gradients))
                return honest_gradients

        attack = Recording()
        run_simulation(split, attack, rounds=2)
        assert attack.rows == [12, 12]


def test_in_place_lie_allocates_under_half_a_matrix():
    """Timing-free memory guard for the blocked, in-place attack stage.

    A (100, 100,000) float64 matrix is 80 MB.  Copying the matrix, gathering
    the benign rows and ``np.std``'s deviation matrix peaked at 2.63x its
    bytes; the blocked in-place stage needs only the Byzantine rows' tile.
    """
    honest = np.random.default_rng(0).normal(size=(100, 100_000))
    context = make_context(100, np.arange(20))
    attack = LittleIsEnoughAttack(z=0.3)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        attack.apply(honest, context, out=honest)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * honest.nbytes, f"peak {peak / honest.nbytes:.2f}x the matrix"
