"""Tests for the ``"process"`` collect backend.

Contract: a :class:`~repro.fl.transport.LocalFleetCollector` over
``repro-worker`` subprocesses it spawns at the first collect; each worker
owns a contiguous chunk of the client population (and those clients' RNG
streams) plus a model replica, and per round the caller broadcasts the
global ``state_dict()``.  Results must be bit-identical to the sequential
path at any worker count, across rounds, including BatchNorm buffer state
and evaluation metrics; client exceptions propagate; the buffer is
NaN-invalidated against stale rows; a dead worker's rows are recovered by
the survivors; ``close()`` stops the subprocesses.

Workers unpickle the clients and model they are sent, so the suite puts
the test modules on the subprocesses' ``PYTHONPATH``
(``workers_import_tests``).  It uses 2-3 workers and tiny populations so
it stays fast on one core.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
from repro.fl.collector import SequentialCollector, make_collector
from repro.fl.experiment import run_experiment
from repro.fl.transport import LocalFleetCollector
from repro.fl.transport import collector as transport_collector
from repro.nn.layers import Dropout, Flatten, Linear, Sequential
from repro.nn.module import Module
from repro.perf.profiler import RoundProfiler
from test_fl_parallel_collect import (
    BatchNormMLP,
    collect_rounds,
    explode,
    make_clients,
    make_model,
    run_batchnorm_rounds,
)

pytestmark = pytest.mark.usefixtures("workers_import_tests")


def process_collector(n_workers=2):
    return make_collector(backend="process", n_workers=n_workers)


def process_rounds(n_workers=2, **kwargs):
    """:func:`collect_rounds` through a fresh process fleet, closed after."""
    collector = process_collector(n_workers)
    try:
        return collect_rounds(collector, **kwargs)
    finally:
        collector.close()


def experiment_config(backend, n_workers):
    return ExperimentConfig(
        num_clients=6,
        seed=5,
        data=DataConfig(dataset="mnist_like", num_train=120, num_test=40),
        training=TrainingConfig(
            model="mlp",
            rounds=2,
            batch_size=16,
            n_workers=n_workers,
            collect_backend=backend,
        ),
        defense=DefenseConfig(name="signguard"),
    )


class TestBitEquality:
    def test_process_float64_bit_identical_to_sequential(self):
        sequential, seq_losses = collect_rounds(SequentialCollector(), n_clients=6)
        process, proc_losses = process_rounds(n_clients=6)
        for seq_round, proc_round in zip(sequential, process):
            assert np.array_equal(seq_round, proc_round)
        # Worker-side client state (the loss of the round's batch) is
        # mirrored back onto the caller's client objects.
        assert seq_losses == proc_losses

    def test_process_float32_bit_identical_to_sequential(self):
        sequential, _ = collect_rounds(
            SequentialCollector(), n_clients=6, dtype=np.float32
        )
        process, _ = process_rounds(n_clients=6, dtype=np.float32)
        assert sequential[0].dtype == np.float32
        for seq_round, proc_round in zip(sequential, process):
            assert np.array_equal(seq_round, proc_round)

    def test_worker_count_does_not_change_results(self):
        two, _ = process_rounds(2, n_clients=6, rounds=2)
        three, _ = process_rounds(3, n_clients=6, rounds=2)
        for a, b in zip(two, three):
            assert np.array_equal(a, b)

    def test_single_worker_degenerates_to_sequential_inline(self):
        # n_workers=1 never spawns processes; the in-process loop runs.
        collector = process_collector(1)
        assert isinstance(collector, SequentialCollector)
        clients = make_clients(4)
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        collector.collect(clients, model, out)
        assert np.all(np.isfinite(out))

    def test_full_experiment_equivalent_with_process_backend(self, monkeypatch):
        fleets = []

        def recording_spawn(n_workers):
            fleets.append(transport_collector.spawn_local_fleet(n_workers))
            return fleets[-1]

        monkeypatch.setitem(transport_collector.LOCAL_FLEETS, "process", recording_spawn)
        sequential = run_experiment(experiment_config("sequential", 1))
        process = run_experiment(experiment_config("process", 2))
        for a, b in zip(sequential.rounds, process.rounds):
            assert a.train_loss == b.train_loss
            assert a.test_accuracy == b.test_accuracy
            assert a.selected_clients == b.selected_clients
        # run_experiment closed its collector: the fleet it spawned is gone.
        assert len(fleets) == 1
        assert not any(worker.alive for worker in fleets[0].workers)


class TestWorkerLifecycle:
    def test_workers_persist_across_rounds(self):
        collector = process_collector()
        clients = make_clients(4)
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        try:
            collector.collect(clients, model, out)
            fleet = collector.fleet
            first_pids = [worker.process.pid for worker in fleet.workers]
            collector.collect(clients, model, out)
            assert collector.fleet is fleet
            assert [worker.process.pid for worker in fleet.workers] == first_pids
        finally:
            collector.close()

    def test_collector_reusable_after_close(self):
        collector = process_collector()
        clients = make_clients(4)
        model = make_model()
        first = np.empty((4, model.num_parameters()))
        again = np.empty_like(first)
        try:
            collector.collect(clients, model, first)
            fleet = collector.fleet
            collector.close()
            assert collector.fleet is None
            assert not any(worker.alive for worker in fleet.workers)
            # The next collect spawns a fresh fleet from the caller's client
            # objects (authoritative after close, never advanced by the
            # workers), so it reproduces the first round bit-for-bit.
            collector.collect(clients, model, again)
        finally:
            collector.close()
        assert np.array_equal(first, again)

    def test_worker_timings_cover_all_clients(self):
        collector = process_collector(3)
        clients = make_clients(8)
        model = make_model()
        out = np.empty((8, model.num_parameters()))
        try:
            collector.collect(clients, model, out)
            timings = collector.worker_timings
        finally:
            collector.close()
        # Integer fleet indices, not the workers' loopback addresses.
        assert sorted(worker for worker, _, _ in timings) == [0, 1, 2]
        assert sum(count for _, _, count in timings) == 8
        assert all(seconds >= 0 for _, seconds, _ in timings)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            LocalFleetCollector("process", 0)

    def test_profiler_records_per_worker_stages(self):
        profiler = RoundProfiler()
        run_experiment(experiment_config("process", 2), profiler=profiler)
        summary = profiler.summary()
        worker_stages = [s for s in summary if s.startswith("collect_worker_")]
        assert sorted(worker_stages) == ["collect_worker_0", "collect_worker_1"]
        assert summary["collect_worker_0"]["count"] == 2  # one sample per round


class TestFailureSemantics:
    def test_client_exception_propagates_and_invalidates(self):
        clients = explode(make_clients(4), 0)
        model = make_model()
        out = np.full((4, model.num_parameters()), 7.0)
        collector = process_collector()
        try:
            with pytest.raises(RuntimeError, match="went Byzantine"):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # Stale previous-round values cannot survive a failed round: the
        # failing worker's rows (clients 0 and 1) are NaN, the other
        # worker's rows hold this round's gradients.
        assert not np.any(out == 7.0)
        assert np.all(np.isnan(out[[0, 1]]))
        assert np.all(np.isfinite(out[[2, 3]]))

    def test_dead_worker_rows_recovered_by_survivor(self):
        sequential, _ = collect_rounds(SequentialCollector(), n_clients=6, rounds=2)
        collector = process_collector()
        clients = make_clients(6)
        model = make_model()
        out = np.empty((6, model.num_parameters()))
        try:
            collector.collect(clients, model, out)
            assert np.array_equal(out, sequential[0])
            # A dead worker enters the recovery ladder: its shard (clients
            # 0-2) is re-dispatched to the survivor with the last reported
            # RNG states, so the round completes bit-identically.
            collector.fleet.workers[0].kill()
            collector.collect(clients, model, out)
        finally:
            collector.close()
        assert np.array_equal(out, sequential[1])
        assert collector.failed_rows == ()
        assert collector.last_round_redispatched == (0, 1, 2)

    def test_dropout_model_rejected(self):
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
        collector = process_collector()
        try:
            with pytest.raises(ValueError, match="RNG-consuming"):
                collector.collect(clients, model, out)
        finally:
            collector.close()


class TestBatchNormParity:
    def test_process_buffers_and_eval_match_sequential(self):
        seq_out, seq_acc, seq_loss, seq_buffers = run_batchnorm_rounds(
            SequentialCollector()
        )
        collector = process_collector()
        try:
            proc_out, proc_acc, proc_loss, proc_buffers = run_batchnorm_rounds(
                collector
            )
        finally:
            collector.close()
        assert np.array_equal(seq_out, proc_out)
        assert seq_acc == proc_acc
        assert seq_loss == proc_loss
        assert seq_buffers and set(seq_buffers) == set(proc_buffers)
        for name in seq_buffers:
            assert np.array_equal(seq_buffers[name], proc_buffers[name]), name

    def test_batchnorm_model_collects_without_nan(self):
        clients = make_clients(5)
        model = BatchNormMLP()
        out = np.empty((5, model.num_parameters()))
        with process_collector() as collector:
            collector.collect(clients, model, out)
        assert np.all(np.isfinite(out))


class TestConfigValidation:
    def test_collect_backend_validated(self):
        config = TrainingConfig(collect_backend="process", n_workers=2)
        assert config.validate() is config
        with pytest.raises(ValueError, match="collect_backend"):
            TrainingConfig(collect_backend="gevent").validate()

    def test_collect_backend_serialization_round_trip(self):
        config = ExperimentConfig(
            training=TrainingConfig(collect_backend="process", n_workers=4)
        )
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.training.collect_backend == "process"
        assert restored.training.n_workers == 4
