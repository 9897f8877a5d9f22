"""Tests for the ``"thread"`` collect backend.

Both local-fleet backends, ``"thread"`` and ``"process"``, are a
:class:`~repro.fl.transport.DistributedCollector` over a localhost fleet
the collector owns (:class:`~repro.fl.transport.LocalFleetCollector`):
``repro-worker`` servers on threads of this interpreter, or in
subprocesses.  The contract under test here on the thread kind (and in
``test_fl_process_collect.py`` on the process kind): collects are
*bit-identical* to the sequential path (float64, float32, successive
rounds, BatchNorm buffers and evaluation); client exceptions propagate and
the reused round buffer is NaN-invalidated so stale rows cannot leak;
models with RNG-consuming layers are refused; worker timings keep integer
labels; ``close()`` stops the fleet and the next collect starts a fresh
one.  Non-contiguous ``rows=`` subsets run on both kinds and sizes.

The population/model helpers here are shared with the process, transport,
fault and participation suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
from repro.data.factory import build_dataset
from repro.fl.client import BenignClient
from repro.fl.collector import SequentialCollector, make_collector
from repro.fl.experiment import run_experiment
from repro.fl.metrics import evaluate_model
from repro.fl.transport import LocalFleetCollector
from repro.nn.activations import ReLU
from repro.nn.layers import BatchNorm1d, Flatten, Linear, Sequential
from repro.nn.models.mlp import MLP
from repro.nn.module import Module
from repro.perf.profiler import RoundProfiler
from repro.utils.rng import RngFactory

#: (kind, n_workers) of every fleet the sampled-rows matrix runs on.
FLEETS = [("thread", 2), ("thread", 3), ("process", 2), ("process", 3)]


def make_clients(n_clients, *, num_train=200, batch_size=16, seed=0):
    """A small benign population with RngFactory-derived client streams."""
    split = build_dataset(
        "mnist_like", num_train=num_train, num_test=40, rng=np.random.default_rng(seed)
    )
    rng_factory = RngFactory(seed)
    indices = np.array_split(np.arange(num_train), n_clients)
    return [
        BenignClient(
            cid,
            split.train.subset(idx),
            batch_size=batch_size,
            rng=rng_factory.make(f"client-{cid}"),
        )
        for cid, idx in enumerate(indices)
    ]


def make_model(seed=1, dtype=None):
    model = MLP(14 * 14, 10, hidden_dims=(24,), rng=np.random.default_rng(seed))
    if dtype is not None:
        model.astype(dtype)
    return model


class BatchNormMLP(Module):
    """A small model with BatchNorm running statistics (buffer state)."""

    def __init__(self, seed=1):
        rng = np.random.default_rng(seed)
        super().__init__()
        self.network = Sequential(
            Flatten(),
            Linear(14 * 14, 16, rng=rng),
            BatchNorm1d(16),
            ReLU(),
            Linear(16, 10, rng=rng),
        )

    def forward(self, x):
        return self.network(x)

    def backward(self, grad_output):
        return self.network.backward(grad_output)


class ExplodingClient(BenignClient):
    """Module-level so it pickles into a thread fleet's SETUP message."""

    def compute_gradient(self, model):
        raise RuntimeError("client went Byzantine for real")


def explode(clients, client_id):
    """Swap ``clients[client_id]`` for a client whose gradient raises."""
    clients[client_id] = ExplodingClient(
        client_id,
        clients[client_id].dataset,
        batch_size=4,
        rng=np.random.default_rng(0),
    )
    return clients


def collect_with(collector, n_clients, *, dtype=np.float64, model_dtype=None):
    clients = make_clients(n_clients)
    model = make_model(dtype=model_dtype)
    out = np.empty((n_clients, model.num_parameters()), dtype=dtype)
    try:
        result = collector.collect(clients, model, out)
    finally:
        collector.close()
    assert result is out
    return out


def collect_rounds(collector, *, n_clients=7, rounds=3, dtype=np.float64, rows=None):
    """Buffers and final client losses from successive collects.

    ``rows`` is a list of per-round subsets (``None`` = full rounds).
    """
    clients = make_clients(n_clients)
    model = make_model(dtype=None if dtype == np.float64 else dtype)
    buffers = []
    for subset in rows or [None] * rounds:
        n_rows = n_clients if subset is None else len(subset)
        out = np.empty((n_rows, model.num_parameters()), dtype=dtype)
        collector.collect(clients, model, out, rows=subset)
        buffers.append(out.copy())
    return buffers, [client.last_loss for client in clients]


def run_batchnorm_rounds(collector, *, rounds=3, n_clients=6, seed=0):
    """Collect ``rounds`` rounds with a :class:`BatchNormMLP`; return the
    final round buffer, evaluation metrics, and the global model's buffers.

    The collector is left open; the caller closes it.
    """
    split = build_dataset(
        "mnist_like",
        num_train=180,
        num_test=60,
        rng=np.random.default_rng(seed),
    )
    rng_factory = RngFactory(seed)
    indices = np.array_split(np.arange(180), n_clients)
    clients = [
        BenignClient(
            cid,
            split.train.subset(idx),
            batch_size=16,
            rng=rng_factory.make(f"client-{cid}"),
        )
        for cid, idx in enumerate(indices)
    ]
    model = BatchNormMLP()
    out = np.empty((n_clients, model.num_parameters()))
    for _ in range(rounds):
        collector.collect(clients, model, out)
    accuracy, loss = evaluate_model(model, split.test)
    buffers = {name: value.copy() for name, value in model.named_buffers()}
    return out.copy(), accuracy, loss, buffers


@pytest.mark.parametrize("kind, n_workers", FLEETS, ids=[f"{k}{n}" for k, n in FLEETS])
def test_sampled_rows_bit_identical_to_sequential(kind, n_workers):
    # Non-contiguous subsets that straddle the workers' chunks, on every
    # fleet kind and size.
    rows = [[0, 2, 3, 6], [1, 2, 5], [4]]
    sequential, seq_losses = collect_rounds(SequentialCollector(), rows=rows)
    collector = make_collector(backend=kind, n_workers=n_workers)
    try:
        fleet, fleet_losses = collect_rounds(collector, rows=rows)
    finally:
        collector.close()
    for seq_round, fleet_round in zip(sequential, fleet):
        assert np.array_equal(seq_round, fleet_round)
    assert seq_losses == fleet_losses


class TestBitEquality:
    def test_threaded_float64_bit_identical_to_sequential(self):
        sequential, seq_losses = collect_rounds(SequentialCollector())
        collector = make_collector(backend="thread", n_workers=3)
        try:
            threaded, thread_losses = collect_rounds(collector)
        finally:
            collector.close()
        for seq_round, thread_round in zip(sequential, threaded):
            # Bit-for-bit, not allclose: scheduling must not change anything.
            assert np.array_equal(seq_round, thread_round)
        # Worker-side client state (the loss of the round's batch) is
        # mirrored back onto the caller's client objects.
        assert seq_losses == thread_losses

    def test_threaded_collect_repeatable_across_runs(self):
        first = collect_with(make_collector(backend="thread", n_workers=3), 8)
        second = collect_with(make_collector(backend="thread", n_workers=3), 8)
        assert np.array_equal(first, second)

    def test_full_experiment_equivalent_with_workers(self):
        def run(n_workers):
            config = ExperimentConfig(
                num_clients=8,
                seed=5,
                data=DataConfig(dataset="mnist_like", num_train=160, num_test=40),
                training=TrainingConfig(
                    model="mlp", rounds=3, batch_size=16, n_workers=n_workers
                ),
                defense=DefenseConfig(name="signguard"),
            )
            return run_experiment(config)

        sequential = run(1)
        threaded = run(3)
        for a, b in zip(sequential.rounds, threaded.rounds):
            assert a.train_loss == b.train_loss
            assert a.test_accuracy == b.test_accuracy
            assert a.selected_clients == b.selected_clients


class TestFloat32:
    def test_float32_threaded_matches_sequential_bitwise(self):
        # Determinism is dtype-independent: even at float32 the threaded
        # path is bit-identical to the sequential float32 path.
        sequential = collect_with(
            SequentialCollector(), 6, dtype=np.float32, model_dtype=np.float32
        )
        threaded = collect_with(
            make_collector(backend="thread", n_workers=3),
            6,
            dtype=np.float32,
            model_dtype=np.float32,
        )
        assert sequential.dtype == np.float32
        assert np.array_equal(sequential, threaded)

    def test_float32_close_to_float64_reference(self):
        reference = collect_with(SequentialCollector(), 6)
        reduced = collect_with(
            make_collector(backend="thread", n_workers=3),
            6,
            dtype=np.float32,
            model_dtype=np.float32,
        )
        scale = np.abs(reference).max()
        assert np.allclose(reference, reduced, atol=1e-5 * max(scale, 1.0))


class TestWorkerCounts:
    @pytest.mark.parametrize("n_workers", [1, 7, 20])
    def test_edge_worker_counts_match_sequential(self, n_workers):
        # 1 worker (the sequential strategy), exactly n_clients, and more
        # workers than clients (the surplus serve empty shards).
        n_clients = 7
        sequential = collect_with(SequentialCollector(), n_clients)
        threaded = collect_with(
            make_collector(backend="thread", n_workers=n_workers), n_clients
        )
        assert np.array_equal(sequential, threaded)

    def test_worker_timings_cover_all_clients(self):
        collector = make_collector(backend="thread", n_workers=3)
        clients = make_clients(8)
        model = make_model()
        out = np.empty((8, model.num_parameters()))
        try:
            collector.collect(clients, model, out)
            timings = collector.worker_timings
        finally:
            collector.close()
        # Integer fleet indices, not the workers' loopback addresses.
        assert sorted(w for w, _, _ in timings) == [0, 1, 2]
        assert sum(count for _, _, count in timings) == 8
        assert all(seconds >= 0 for _, seconds, _ in timings)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            LocalFleetCollector("thread", 0)
        with pytest.raises(ValueError, match="fleet kind"):
            LocalFleetCollector("greenlet", 2)

    def test_build_collector_dispatch(self):
        assert isinstance(make_collector(n_workers=1), SequentialCollector)
        for backend in ("thread", "process"):
            collector = make_collector(backend=backend, n_workers=4)
            assert isinstance(collector, LocalFleetCollector)
            assert (collector.kind, collector.n_workers) == (backend, 4)
            assert collector.fleet is None  # workers start at first collect
        assert make_collector(n_workers=4).kind == "thread"
        assert isinstance(
            make_collector(backend="sequential", n_workers=4), SequentialCollector
        )
        assert isinstance(
            make_collector(backend="process", n_workers=1), SequentialCollector
        )

    def test_build_collector_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="collect backend"):
            make_collector(backend="greenlet", n_workers=4)

    def test_collector_reusable_after_close(self):
        collector = make_collector(backend="thread", n_workers=2)
        clients = make_clients(5)
        model = make_model()
        first = np.empty((5, model.num_parameters()))
        again = np.empty_like(first)
        try:
            collector.collect(clients, model, first)
            collector.close()
            assert collector.fleet is None
            # The next collect starts a fresh fleet from the caller's client
            # objects, which close() made authoritative again.
            collector.collect(clients, model, again)
        finally:
            collector.close()
        assert np.array_equal(first, again)


class TestExceptionPropagation:
    def test_failing_client_raises(self):
        clients = explode(make_clients(6), 3)
        model = make_model()
        out = np.zeros((6, model.num_parameters()))
        collector = make_collector(backend="thread", n_workers=3)
        try:
            with pytest.raises(RuntimeError, match="went Byzantine"):
                collector.collect(clients, model, out)
        finally:
            collector.close()

    def test_other_clients_still_collected_on_failure(self):
        clients = explode(make_clients(4), 0)
        model = make_model()
        out = np.zeros((4, model.num_parameters()))
        collector = make_collector(backend="thread", n_workers=2)
        try:
            with pytest.raises(RuntimeError):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # Worker 1 (clients 2 and 3) finished its shard before the error
        # surfaced; its rows are populated.  Worker 0's rows (the failing
        # client and everything after it in the shard) are NaN-invalidated.
        assert np.all(np.isnan(out[0]))
        assert np.all(np.isnan(out[1]))
        assert np.all(np.isfinite(out[2]))
        assert np.all(np.isfinite(out[3]))


class TestStochasticForwardModels:
    def test_dropout_model_rejected_by_parallel_collector(self):
        from repro.nn.layers import Dropout

        class DropoutMLP(Module):
            def __init__(self):
                super().__init__()
                self.network = Sequential(
                    Flatten(), Linear(14 * 14, 10, rng=0), Dropout(0.5, rng=0)
                )

            def forward(self, x):
                return self.network(x)

            def backward(self, grad_output):
                return self.network.backward(grad_output)

        clients = make_clients(4)
        model = DropoutMLP()
        out = np.empty((4, model.num_parameters()))
        collector = make_collector(backend="thread", n_workers=2)
        try:
            # Dropout draws masks from a model-owned RNG; replicas would
            # consume that stream per shard instead of in client order, so
            # the collector must refuse rather than silently diverge.
            with pytest.raises(ValueError, match="RNG-consuming"):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # The sequential strategy (n_workers=1) still accepts the model.
        SequentialCollector().collect(clients, model, out)
        assert np.all(np.isfinite(out))


class TestProfilerIntegration:
    def test_per_worker_stages_recorded(self):
        profiler = RoundProfiler()
        config = ExperimentConfig(
            num_clients=6,
            seed=0,
            data=DataConfig(dataset="mnist_like", num_train=120, num_test=40),
            training=TrainingConfig(model="mlp", rounds=2, batch_size=16, n_workers=2),
            defense=DefenseConfig(name="signguard"),
        )
        run_experiment(config, profiler=profiler)
        summary = profiler.summary()
        assert "collect_gradients" in summary
        worker_stages = [s for s in summary if s.startswith("collect_worker_")]
        assert sorted(worker_stages) == ["collect_worker_0", "collect_worker_1"]
        assert summary["collect_worker_0"]["count"] == 2  # one sample per round


class TestBufferInvalidation:
    """A failed round must never leave stale gradients in the reused buffer."""

    @pytest.mark.parametrize("make_collector", [SequentialCollector, None])
    def test_stale_rows_are_nan_after_failure(self, make_collector):
        # The parameter shadows the module's make_collector (renaming it
        # would rename both test ids), so the fleet is built directly.
        collector = (
            make_collector() if make_collector else LocalFleetCollector("thread", 2)
        )
        clients = explode(make_clients(4), 2)
        model = make_model()
        # Simulate a buffer still holding the previous round's gradients.
        out = np.full((4, model.num_parameters()), 7.0)
        try:
            with pytest.raises(RuntimeError, match="went Byzantine"):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # No row may still hold the previous round's values: each row is
        # either this round's gradient or NaN.
        assert not np.any(out == 7.0)
        assert np.all(np.isnan(out[2]))

    def test_successful_round_overwrites_invalidation(self):
        clients = make_clients(5)
        model = make_model()
        out = np.full((5, model.num_parameters()), np.nan)
        SequentialCollector().collect(clients, model, out)
        assert np.all(np.isfinite(out))

    def test_successful_sequential_collect_skips_invalidation(self, monkeypatch):
        # The sequential loop fills on failure only: a successful round
        # writes every row once, with no buffer-sized NaN pass first.
        import repro.fl.collector as collector_module

        calls = []
        monkeypatch.setattr(collector_module, "invalidate_buffer", calls.append)
        clients = make_clients(5)
        model = make_model()
        out = np.full((5, model.num_parameters()), 7.0)
        SequentialCollector().collect(clients, model, out)
        assert calls == []
        assert np.all(np.isfinite(out)) and not np.any(out == 7.0)

    def test_sequential_failure_nan_fills_from_failing_row(self):
        model = make_model()
        reference = np.empty((5, model.num_parameters()))
        SequentialCollector().collect(make_clients(5), model, reference)
        out = np.full_like(reference, 7.0)
        with pytest.raises(RuntimeError, match="went Byzantine"):
            SequentialCollector().collect(explode(make_clients(5), 3), model, out)
        # Rows the round completed keep this round's gradients; the failing
        # row and every later one are NaN, never the previous round's.
        assert np.array_equal(out[:3], reference[:3])
        assert np.all(np.isnan(out[3:]))


class TestBatchNormBufferParity:
    """Sequential and threaded collect agree on BatchNorm buffers and eval.

    Worker replicas log their per-batch statistics and the collector replays
    them onto the global model in client order, so running statistics — and
    therefore evaluation metrics — are bit-identical between backends.
    """

    def test_threaded_buffers_and_eval_match_sequential(self):
        seq_out, seq_acc, seq_loss, seq_buffers = run_batchnorm_rounds(
            SequentialCollector()
        )
        collector = make_collector(backend="thread", n_workers=3)
        try:
            par_out, par_acc, par_loss, par_buffers = run_batchnorm_rounds(collector)
        finally:
            collector.close()
        assert np.array_equal(seq_out, par_out)
        assert seq_acc == par_acc
        assert seq_loss == par_loss
        assert seq_buffers and set(seq_buffers) == set(par_buffers)
        for name in seq_buffers:
            assert np.array_equal(seq_buffers[name], par_buffers[name]), name

    def test_global_model_buffers_actually_updated(self):
        # The replay must reach the *global* model: after collect rounds the
        # running statistics have moved away from their (0, 1) init.
        collector = make_collector(backend="thread", n_workers=2)
        try:
            _, _, _, buffers = run_batchnorm_rounds(collector, rounds=2)
        finally:
            collector.close()
        mean_name = next(name for name in buffers if "running_mean" in name)
        assert not np.allclose(buffers[mean_name], 0.0)
