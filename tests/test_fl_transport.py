"""Distributed collect transport: framing, codec, handshake, equivalence, faults.

The contracts under test:

* framing rejects truncated and oversized frames (a hostile or corrupted
  length prefix can never cause unbounded allocation or a half-message);
* the handshake refuses protocol-version mismatches, and SETUP refuses a
  model that does not match the signature HELLO announced;
* a healthy localhost fleet is **bit-identical** to the sequential
  backend at any worker count, including sampled ``rows=`` cohorts and
  BatchNorm models;
* the gather copies no shard, NaN-fills only a failed worker's slice and
  drains every worker at once, folding replies in worker order;
* a worker that dies or times out mid-round degrades to
  ``RoundPlan`` dropouts — the round completes, the run continues, and a
  replacement worker resumes the lost clients' RNG streams bit-exactly
  (proven against a sequential run with the same dropout trace).
"""

from __future__ import annotations

import socket
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro import (
    AttackConfig,
    DataConfig,
    DefenseConfig,
    ExperimentConfig,
    TrainingConfig,
)
from repro.data.factory import build_dataset
from repro.fl.client import BenignClient
from repro.fl.collector import SequentialCollector, make_collector
from repro.fl.experiment import run_experiment
from repro.fl.faults import FaultSchedule, FaultSpec
from repro.fl.participation import ParticipationSchedule, RoundPlan
from repro.fl.server import FederatedServer
from repro.fl.simulation import FederatedSimulation
from repro.fl.transport import (
    CodecError,
    DistributedCollector,
    HandshakeError,
    OversizedFrameError,
    RemoteWorkerError,
    TransportError,
    TruncatedFrameError,
    WorkerConnection,
    build_codec,
    model_signature,
    parse_address,
    spawn_worker_process,
    start_thread_fleet,
    wire_codec_names,
)
from repro.fl.transport.codec import (
    MSG_ERROR,
    MSG_HELLO,
    MSG_SHARD,
    MSG_TRAILER,
    MSG_WELCOME,
    encode_state_dict,
    pack_message,
    unpack_message,
)
from repro.fl.transport.framing import (
    FrameError,
    recv_frame,
    recv_frame_into,
    send_frame,
)
from repro.fl.transport.protocol import PROTOCOL_VERSION, hello_header
from repro.nn.models.mlp import MLP
from repro.utils.rng import RngFactory
from repro.utils.serialization import arrays_to_blob, blob_to_arrays
from tests.test_fl_parallel_collect import (
    BatchNormMLP,
    make_clients,
    make_model,
    run_batchnorm_rounds,
)


# ---------------------------------------------------------------------------
# framing + codec units
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, b"hello ", b"world")
            assert recv_frame(b) == b"hello world"
        finally:
            a.close()
            b.close()

    def test_empty_frame(self):
        a, b = socket.socketpair()
        try:
            send_frame(a)
            assert recv_frame(b) == b""
        finally:
            a.close()
            b.close()

    def test_truncated_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            # Announce 100 bytes, deliver 10, hang up.
            a.sendall((100).to_bytes(8, "big") + b"x" * 10)
            a.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall((2**62).to_bytes(8, "big"))
            with pytest.raises(OversizedFrameError):
                recv_frame(b, max_bytes=1024)
        finally:
            a.close()
            b.close()

    def test_recv_into_requires_exact_size(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, b"12345")
            target = bytearray(3)
            with pytest.raises(FrameError, match="3-byte"):
                recv_frame_into(b, memoryview(target))
        finally:
            a.close()
            b.close()

    def test_recv_into_zero_copy(self):
        a, b = socket.socketpair()
        try:
            payload = np.arange(6, dtype=np.float64)
            send_frame(a, payload.tobytes())
            target = np.zeros(6)
            recv_frame_into(b, memoryview(target).cast("B"))
            assert np.array_equal(target, payload)
        finally:
            a.close()
            b.close()


class TestCodec:
    def test_message_roundtrip(self):
        payload = pack_message(MSG_HELLO, {"a": 1}, b"body")
        assert unpack_message(payload) == (MSG_HELLO, {"a": 1}, b"body")

    def test_state_dict_blob_roundtrip(self):
        state = {
            "w": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.array([1.5, -2.5], dtype=np.float32),
            "count": np.array(7, dtype=np.int64),
        }
        decoded = blob_to_arrays(arrays_to_blob(state))
        assert list(decoded) == list(state)
        for name in state:
            assert decoded[name].dtype == state[name].dtype
            assert np.array_equal(decoded[name], state[name])

    def test_truncated_blob_rejected(self):
        blob = arrays_to_blob({"w": np.zeros(10)})
        with pytest.raises(ValueError, match="truncated"):
            blob_to_arrays(blob[:-8])

    def test_trailing_garbage_rejected(self):
        blob = arrays_to_blob({"w": np.zeros(4)})
        with pytest.raises(ValueError, match="trailing"):
            blob_to_arrays(blob + b"xx")

    def test_model_signature_tracks_architecture_not_values(self):
        a = make_model(seed=1)
        b = make_model(seed=2)  # same architecture, different weights
        assert model_signature(a) == model_signature(b)
        assert model_signature(a) != model_signature(BatchNormMLP())

    def test_parse_address(self):
        assert parse_address("localhost:9000") == ("localhost", 9000)
        assert parse_address("[::1]:80") == ("::1", 80)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address("host:notaport")


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------


def _raw_hello(address, header):
    """Open a raw connection, send a HELLO with ``header``, return the reply."""
    host, port = parse_address(address)
    with socket.create_connection((host, port), timeout=10) as sock:
        send_frame(sock, pack_message(MSG_HELLO, header))
        return unpack_message(recv_frame(sock))


class TestHandshake:
    def test_welcome_on_matching_version(self):
        with start_thread_fleet(1) as fleet:
            msg, header, _ = _raw_hello(
                fleet.addresses[0], hello_header(model_signature(make_model()))
            )
            assert msg == MSG_WELCOME
            assert header["protocol"] == PROTOCOL_VERSION

    def test_refuses_protocol_version_mismatch(self):
        with start_thread_fleet(1) as fleet:
            bad = hello_header(model_signature(make_model()))
            bad["protocol"] = PROTOCOL_VERSION + 999
            msg, header, _ = _raw_hello(fleet.addresses[0], bad)
            assert msg == MSG_ERROR
            assert "version mismatch" in header["error"]

    def test_refuses_wrong_magic(self):
        with start_thread_fleet(1) as fleet:
            msg, header, _ = _raw_hello(fleet.addresses[0], {"magic": "nope"})
            assert msg == MSG_ERROR

    def test_standing_worker_serves_a_new_architecture(self):
        # A shard lives for one connection, so the next caller may bring a
        # differently-shaped model to the same worker.
        with start_thread_fleet(1) as fleet:
            for model in (make_model(), BatchNormMLP()):
                reference = np.empty((4, model.num_parameters()))
                SequentialCollector().collect(make_clients(4), model, reference)
                out = np.empty_like(reference)
                collector = DistributedCollector(fleet.addresses)
                try:
                    collector.collect(make_clients(4), model, out)
                finally:
                    collector.close()
                assert np.array_equal(reference, out)

    def test_refuses_setup_not_matching_announced_signature(self):
        with start_thread_fleet(1) as fleet:
            conn = WorkerConnection(fleet.addresses[0])
            conn.connect(make_model())  # announce the MLP's signature
            clients = make_clients(2)
            with pytest.raises(RemoteWorkerError, match="does not match"):
                conn.setup(BatchNormMLP(), [0, 1], clients)  # ship another
            conn.drop()

    def test_round_before_setup_refused(self):
        with start_thread_fleet(1) as fleet:
            model = make_model()
            conn = WorkerConnection(fleet.addresses[0])
            conn.connect(model)
            conn.begin_round(b"", [0], np.float64, model.num_parameters())
            with pytest.raises(RemoteWorkerError, match="before SETUP"):
                conn.finish_round(np.empty((1, model.num_parameters())))
            conn.drop()

    def test_worker_survives_garbage_connection(self):
        with start_thread_fleet(1) as fleet:
            host, port = parse_address(fleet.addresses[0])
            # An oversized frame: the worker must drop the connection...
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall((2**61).to_bytes(8, "big"))
                assert sock.recv(1) == b""  # worker hung up
            # ...and keep serving the next caller.
            msg, _, _ = _raw_hello(
                fleet.addresses[0], hello_header(model_signature(make_model()))
            )
            assert msg == MSG_WELCOME


# ---------------------------------------------------------------------------
# bit-equality with the sequential backend
# ---------------------------------------------------------------------------


class TestBitEquality:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_full_round_bit_identical_to_sequential(self, n_workers):
        n_clients = 9
        sequential = make_clients(n_clients)
        model = make_model()
        reference = np.empty((n_clients, model.num_parameters()))
        SequentialCollector().collect(sequential, model, reference)

        with start_thread_fleet(n_workers) as fleet:
            clients = make_clients(n_clients)
            out = np.empty((n_clients, model.num_parameters()))
            collector = DistributedCollector(fleet.addresses)
            try:
                collector.collect(clients, model, out)
            finally:
                collector.close()
        assert np.array_equal(reference, out)

    def test_sampled_rows_bit_identical_to_sequential(self):
        n_clients = 10
        rows = [0, 3, 4, 8]
        sequential = make_clients(n_clients)
        model = make_model()
        reference = np.empty((n_clients, model.num_parameters()))
        SequentialCollector().collect(sequential, model, reference)

        with start_thread_fleet(3) as fleet:
            clients = make_clients(n_clients)
            out = np.empty((len(rows), model.num_parameters()))
            collector = DistributedCollector(fleet.addresses)
            try:
                collector.collect(clients, model, out, rows=rows)
            finally:
                collector.close()
        assert np.array_equal(reference[rows], out)

    def test_multi_round_streams_advance_in_worker(self):
        """Across rounds the in-worker RNG streams advance exactly once."""
        n_clients, rounds = 6, 3
        sequential = make_clients(n_clients)
        model = make_model()
        reference = np.empty((n_clients, model.num_parameters()))
        for _ in range(rounds):
            SequentialCollector().collect(sequential, model, reference)

        with start_thread_fleet(2) as fleet:
            clients = make_clients(n_clients)
            out = np.empty((n_clients, model.num_parameters()))
            collector = DistributedCollector(fleet.addresses)
            try:
                for _ in range(rounds):
                    collector.collect(clients, model, out)
            finally:
                collector.close()
        assert np.array_equal(reference, out)

    def test_losses_mirrored_to_caller_clients(self):
        n_clients = 6
        sequential = make_clients(n_clients)
        model = make_model()
        buffer = np.empty((n_clients, model.num_parameters()))
        SequentialCollector().collect(sequential, model, buffer)

        with start_thread_fleet(2) as fleet:
            clients = make_clients(n_clients)
            collector = DistributedCollector(fleet.addresses)
            try:
                collector.collect(clients, model, buffer)
            finally:
                collector.close()
        assert [c.last_loss for c in clients] == [c.last_loss for c in sequential]

    def test_batchnorm_parity_with_sequential(self):
        seq_out, seq_acc, seq_loss, seq_buffers = run_batchnorm_rounds(
            SequentialCollector()
        )
        with start_thread_fleet(2) as fleet:
            with DistributedCollector(fleet.addresses) as collector:
                dist_out, dist_acc, dist_loss, dist_buffers = run_batchnorm_rounds(
                    collector
                )
        assert np.array_equal(seq_out, dist_out)
        assert seq_acc == dist_acc and seq_loss == dist_loss
        for name in seq_buffers:
            assert np.array_equal(seq_buffers[name], dist_buffers[name])

    def test_float32_round_buffer(self):
        n_clients = 5
        model = make_model(dtype="float32")
        sequential = make_clients(n_clients)
        reference = np.empty((n_clients, model.num_parameters()), dtype=np.float32)
        SequentialCollector().collect(sequential, model, reference)

        with start_thread_fleet(2) as fleet:
            clients = make_clients(n_clients)
            out = np.empty((n_clients, model.num_parameters()), dtype=np.float32)
            collector = DistributedCollector(fleet.addresses)
            try:
                collector.collect(clients, model, out)
            finally:
                collector.close()
        assert np.array_equal(reference, out)

    def test_more_workers_than_clients(self):
        n_clients = 2
        sequential = make_clients(n_clients)
        model = make_model()
        reference = np.empty((n_clients, model.num_parameters()))
        SequentialCollector().collect(sequential, model, reference)

        with start_thread_fleet(4) as fleet:
            clients = make_clients(n_clients)
            out = np.empty((n_clients, model.num_parameters()))
            collector = DistributedCollector(fleet.addresses)
            try:
                collector.collect(clients, model, out)
            finally:
                collector.close()
        assert np.array_equal(reference, out)

    def test_run_experiment_end_to_end_equivalence(self):
        base = dict(
            num_clients=10,
            seed=3,
            data=DataConfig(dataset="mnist_like", num_train=200, num_test=50),
            defense=DefenseConfig(name="mean"),
        )
        training = dict(model="mlp", rounds=3, batch_size=8)
        sequential = run_experiment(
            ExperimentConfig(
                training=TrainingConfig(collect_backend="sequential", **training),
                **base,
            )
        )
        with start_thread_fleet(2) as fleet:
            distributed = run_experiment(
                ExperimentConfig(
                    training=TrainingConfig(
                        collect_backend="distributed",
                        workers=fleet.addresses,
                        **training,
                    ),
                    **base,
                )
            )
        assert [r.train_loss for r in sequential.rounds] == [
            r.train_loss for r in distributed.rounds
        ]
        assert [r.test_accuracy for r in sequential.rounds] == [
            r.test_accuracy for r in distributed.rounds
        ]

    def test_sampled_cohort_experiment_equivalence(self):
        base = dict(
            num_clients=10,
            seed=4,
            data=DataConfig(dataset="mnist_like", num_train=200, num_test=50),
            defense=DefenseConfig(name="mean"),
        )
        training = dict(
            model="mlp",
            rounds=3,
            batch_size=8,
            participation="uniform",
            participation_fraction=0.5,
        )
        sequential = run_experiment(
            ExperimentConfig(
                training=TrainingConfig(collect_backend="sequential", **training),
                **base,
            )
        )
        with start_thread_fleet(3) as fleet:
            distributed = run_experiment(
                ExperimentConfig(
                    training=TrainingConfig(
                        collect_backend="distributed",
                        workers=fleet.addresses,
                        **training,
                    ),
                    **base,
                )
            )
        assert [r.train_loss for r in sequential.rounds] == [
            r.train_loss for r in distributed.rounds
        ]

    def test_bytes_on_wire_reported(self):
        with start_thread_fleet(2) as fleet:
            clients = make_clients(4)
            model = make_model()
            out = np.empty((4, model.num_parameters()))
            collector = DistributedCollector(fleet.addresses)
            try:
                collector.collect(clients, model, out)
                sent, received = collector.last_round_bytes
            finally:
                collector.close()
        # The reply traffic must carry at least the gradient payload, the
        # broadcast at least one encoded state dict per worker.
        assert received >= out.nbytes
        assert sent >= model.num_parameters() * 8


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


class ExplodingClient(BenignClient):
    """Module-level so it pickles through the SETUP message."""

    def compute_gradient(self, model):
        raise RuntimeError("client bug, not a dropout")


class PlannedSchedule(ParticipationSchedule):
    """Replays a fixed list of round plans (test double)."""

    name = "planned"

    def __init__(self, plans):
        self.plans = list(plans)

    def plan(self, round_index, population_size):
        return self.plans[round_index]


def make_plan(round_index, population, active, dropped=()):
    active = np.asarray(active, dtype=int)
    return RoundPlan(
        round_index=round_index,
        population_size=population,
        cohort=np.sort(np.concatenate([active, np.asarray(dropped, dtype=int)])),
        active=active,
        dropped=np.asarray(dropped, dtype=int),
        stragglers=np.array([], dtype=int),
    )


def build_simulation(collector, *, n_clients=8, seed=5, schedule=None):
    """A tiny no-attack simulation over a deterministic population."""
    from repro.aggregators.factory import build_aggregator
    from repro.attacks.factory import build_attack
    from repro.data.partition import partition_dataset
    from repro.fl.simulation import build_clients
    from repro.nn.models.factory import build_model as build_nn_model

    factory = RngFactory(seed)
    split = build_dataset(
        "mnist_like", num_train=160, num_test=40, rng=factory.make("data")
    )
    partitions = partition_dataset(
        split.train, n_clients, scheme="iid", rng=factory.make("partition")
    )
    clients = build_clients(
        split.train, partitions, [], batch_size=8, rng_factory=factory
    )
    model = build_nn_model(
        "mlp", split.spec, rng=factory.make("model"), params={"hidden_dims": (12,)}
    )
    server = FederatedServer(
        model,
        build_aggregator("mean", {}),
        num_byzantine_hint=0,
        rng=factory.make("server"),
    )
    return FederatedSimulation(
        server,
        clients,
        build_attack("no_attack", {}),
        split.test,
        attack_rng=factory.make("attack"),
        collector=collector,
        participation=schedule if schedule is not None else "full",
        seed=seed,
    )


class TestFaultInjection:
    def test_stalled_worker_times_out_into_dropouts(self):
        # Worker 0 sleeps through its second round request: the round must
        # complete with its 4 clients recorded as dropouts, not crash.
        # (redispatch off: this test pins the demote rung of the ladder.)
        stall = FaultSchedule.from_args(["stall@2"])
        with start_thread_fleet(2, fault_schedule=stall) as fleet:
            collector = DistributedCollector(
                fleet.addresses, round_timeout=2.0, redispatch=False
            )
            simulation = build_simulation(collector)
            try:
                healthy = simulation.run_round(0)
                degraded = simulation.run_round(1)
            finally:
                simulation.close()
        assert healthy.num_dropped == 0
        assert degraded.num_dropped == 4
        assert np.isfinite(degraded.train_loss)

    def test_killed_worker_mid_round_becomes_dropouts(self):
        # A real subprocess worker exits hard upon receiving its second
        # round request — the caller sees a dead connection mid-round.
        crashing = spawn_worker_process(extra_args=["--fault", "crash@2"])
        healthy = spawn_worker_process()
        try:
            collector = DistributedCollector(
                [crashing.address, healthy.address],
                connect_timeout=5.0,
                round_timeout=30.0,
                redispatch=False,
            )
            simulation = build_simulation(collector)
            try:
                first = simulation.run_round(0)
                second = simulation.run_round(1)
            finally:
                simulation.close()
            assert first.num_dropped == 0
            assert second.num_dropped == 4
            # The caller can finish the round before the OS reaps the
            # crashed child — wait for the exit instead of racing poll().
            crashing.process.wait(timeout=10)
            assert not crashing.alive
        finally:
            crashing.terminate()
            healthy.terminate()

    def test_reconnect_after_dead_round_resumes_streams_bit_exactly(self):
        # The acceptance story: kill a worker, let rounds degrade to
        # dropouts, bring a replacement up on the same port, and the whole
        # run stays bit-identical to a sequential run with the same
        # dropout trace (dropped rounds never advance client RNG streams).
        n, rounds = 8, 4
        first_chunk = list(range(4))  # worker 0's contiguous chunk
        plans = [
            make_plan(0, n, active=range(n)),
            make_plan(1, n, active=range(4, 8), dropped=first_chunk),
            make_plan(2, n, active=range(4, 8), dropped=first_chunk),
            make_plan(3, n, active=range(n)),
        ]
        reference = build_simulation(
            SequentialCollector(), schedule=PlannedSchedule(plans)
        )
        reference_losses = [
            reference.run_round(index).train_loss for index in range(rounds)
        ]
        reference_state = reference.model.state_dict()
        reference.close()

        crashing = spawn_worker_process(extra_args=["--fault", "crash@2"])
        port = parse_address(crashing.address)[1]
        healthy = spawn_worker_process()
        replacement = None
        try:
            collector = DistributedCollector(
                [crashing.address, healthy.address],
                connect_timeout=5.0,
                round_timeout=30.0,
                redispatch=False,
            )
            simulation = build_simulation(collector)
            try:
                losses = [simulation.run_round(0).train_loss]
                losses.append(simulation.run_round(1).train_loss)  # crash
                losses.append(simulation.run_round(2).train_loss)  # still dead
                # Bring a replacement worker up on the same port; the next
                # round re-ships the chunk with resumed RNG states.
                replacement = spawn_worker_process(port=port)
                record = simulation.run_round(3)
                losses.append(record.train_loss)
                assert record.num_dropped == 0
            finally:
                simulation.close()
            assert losses == reference_losses
            state = simulation.model.state_dict()
            for name in reference_state:
                assert np.array_equal(reference_state[name], state[name])
        finally:
            crashing.terminate()
            healthy.terminate()
            if replacement is not None:
                replacement.terminate()

    def test_whole_fleet_unreachable_raises(self):
        # Two never-started addresses: a fleet outage is a deployment
        # error, not a dropout.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        collector = DistributedCollector(
            [f"127.0.0.1:{dead_port}"], connect_timeout=0.5
        )
        clients = make_clients(4)
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        with pytest.raises(TransportError, match="no distributed-collect worker"):
            collector.collect(clients, model, out)
        collector.close()

    def test_client_exception_inside_worker_propagates(self):
        clients = make_clients(4)
        exploding = ExplodingClient(
            99,
            clients[0].dataset,
            batch_size=8,
            rng=np.random.default_rng(0),
        )
        clients[2] = exploding
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        with start_thread_fleet(2) as fleet:
            collector = DistributedCollector(fleet.addresses)
            try:
                with pytest.raises(RuntimeError, match="client bug"):
                    collector.collect(clients, model, out)
            finally:
                collector.close()

    def test_failed_rows_empty_on_healthy_fleet(self):
        with start_thread_fleet(2) as fleet:
            clients = make_clients(4)
            model = make_model()
            out = np.empty((4, model.num_parameters()))
            collector = DistributedCollector(fleet.addresses)
            try:
                collector.collect(clients, model, out)
                assert collector.failed_rows == ()
            finally:
                collector.close()


class ExplodesFromSecondRound(BenignClient):
    """Computes its first round, then raises (module-level: it pickles)."""

    def compute_gradient(self, model):
        self.rounds = getattr(self, "rounds", 0) + 1
        if self.rounds > 1:
            raise RuntimeError("client bug, not a dropout")
        return super().compute_gradient(model)


class TestFleetGather:
    """The round's fixed cost: no shard copies, per-slice invalidation and a
    concurrent gather, with every row still this round's gradient or NaN."""

    def test_steady_state_round_copies_no_shard(self):
        # A one-worker thread fleet runs its worker in this process, so
        # tracemalloc sees both ends: the worker reuses its shard buffer
        # and sends from it, and the caller receives into the round buffer.
        model = MLP(14 * 14, 10, hidden_dims=(32,), rng=np.random.default_rng(1))
        fleet_clients, sequential_clients = make_clients(20), make_clients(20)
        out = np.empty((20, model.num_parameters()))
        reference = np.empty_like(out)

        def traced_peak(collect):
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                collect()
                return tracemalloc.get_traced_memory()[1] - baseline
            finally:
                tracemalloc.stop()

        sequential = SequentialCollector()
        with start_thread_fleet(1) as fleet:
            with DistributedCollector(fleet.addresses) as collector:
                for _ in range(2):  # warm up: the worker's buffer exists
                    collector.collect(fleet_clients, model, out)
                    sequential.collect(sequential_clients, model, reference)
                fleet_peak = traced_peak(
                    lambda: collector.collect(fleet_clients, model, out)
                )
        sequential_peak = traced_peak(
            lambda: sequential.collect(sequential_clients, model, reference)
        )
        assert np.array_equal(out, reference)
        assert fleet_peak - sequential_peak < 0.5 * out.nbytes

    def test_gather_from_more_workers_than_cores_stays_bit_identical(self):
        # Five reader threads drain five workers into disjoint slices of one
        # buffer, with thread switches forced often: a reply written to the
        # wrong slice, or a lost trailer, breaks equality with the sequential
        # loop.
        n_clients, rounds = 10, 3
        model = make_model()
        reference = np.empty((rounds, n_clients, model.num_parameters()))
        sequential = make_clients(n_clients)
        for index in range(rounds):
            SequentialCollector().collect(sequential, model, reference[index])
        clients, out = make_clients(n_clients), np.empty_like(reference)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with start_thread_fleet(5) as fleet:
                collector = DistributedCollector(fleet.addresses, round_timeout=60.0)
                with collector:
                    for index in range(rounds):
                        collector.collect(clients, model, out[index])
                timings = [address for address, _, _ in collector.worker_timings]
                assert timings == fleet.addresses
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, reference)
        assert [c.last_loss for c in clients] == [c.last_loss for c in sequential]

    @staticmethod
    def record_invalidations(monkeypatch):
        import repro.fl.collector as collector_module
        import repro.fl.transport.collector as transport_collector
        import repro.fl.transport.worker as worker_module

        calls = []

        def recording(block):
            calls.append(block)
            collector_module.invalidate_buffer(block)

        for module in (transport_collector, worker_module):
            monkeypatch.setattr(module, "invalidate_buffer", recording)
        return calls

    def test_healthy_round_never_nan_fills(self, monkeypatch):
        calls = self.record_invalidations(monkeypatch)
        model = make_model()
        reference = np.empty((8, model.num_parameters()))
        SequentialCollector().collect(make_clients(8), model, reference)
        out = np.full_like(reference, 7.0)
        with start_thread_fleet(2) as fleet:
            with DistributedCollector(fleet.addresses) as collector:
                collector.collect(make_clients(8), model, out)
        assert calls == []
        assert np.array_equal(out, reference)

    def test_failed_worker_nan_fills_only_its_slice(self, monkeypatch):
        calls = self.record_invalidations(monkeypatch)
        model = make_model()
        reference = np.empty((8, model.num_parameters()))
        SequentialCollector().collect(make_clients(8), model, reference)
        out = np.full_like(reference, 7.0)
        # Sever worker 0's link (clients 0-3) at the first round.
        schedule = FaultSchedule([FaultSpec("crash", 1, worker=0)])
        with start_thread_fleet(2) as fleet:
            with DistributedCollector(
                fleet.addresses, fault_schedule=schedule, redispatch=False
            ) as collector:
                collector.collect(make_clients(8), model, out)
                assert collector.failed_rows == (0, 1, 2, 3)
        assert len(calls) == 1
        assert calls[0].shape == (4, model.num_parameters())
        assert calls[0].ctypes.data == out.ctypes.data
        assert np.all(np.isnan(out[:4]))
        assert np.array_equal(out[4:], reference[4:])
        assert not np.any(out == 7.0)

    def test_reused_shard_buffer_nan_fills_after_failing_client(self):
        def population():
            clients = make_clients(6)
            clients[2] = ExplodesFromSecondRound(
                2, clients[2].dataset, batch_size=16, rng=RngFactory(0).make("c2")
            )
            return clients

        model = make_model()
        sequential, reference = population(), np.empty((6, model.num_parameters()))
        SequentialCollector().collect(sequential, model, reference)
        with pytest.raises(RuntimeError, match="client bug"):
            SequentialCollector().collect(sequential, model, reference)

        # One worker, one connection: the failing round's shard is the
        # buffer the successful round filled, so the rows from the failing
        # client on must be NaN-filled, never the earlier round's values.
        clients, out = population(), np.empty_like(reference)
        with start_thread_fleet(1) as fleet:
            with DistributedCollector(fleet.addresses) as collector:
                collector.collect(clients, model, out)
                with pytest.raises(RuntimeError, match="client bug"):
                    collector.collect(clients, model, out)
        assert np.all(np.isfinite(out[:2]))
        assert np.all(np.isnan(out[2:]))
        assert np.array_equal(out, reference, equal_nan=True)

    def test_out_of_order_replies_fold_in_worker_order(self, monkeypatch):
        def run(collector, rounds=2):
            clients, model = make_clients(6), BatchNormMLP()
            out = np.empty((6, model.num_parameters()))
            for _ in range(rounds):
                collector.collect(clients, model, out)
            buffers = {name: v.copy() for name, v in model.named_buffers()}
            return out, [client.last_loss for client in clients], buffers

        seq_out, seq_losses, seq_buffers = run(SequentialCollector())

        finished = []
        finish_round = WorkerConnection.finish_round

        def recording(conn, out):
            trailer = finish_round(conn, out)
            finished.append(conn.address)
            return trailer

        monkeypatch.setattr(WorkerConnection, "finish_round", recording)
        # Worker 0 sleeps before its second round, so worker 1 replies first.
        stall = FaultSchedule.from_args(["stall@2:0.3"])
        with start_thread_fleet(2, fault_schedule=stall) as fleet:
            with DistributedCollector(fleet.addresses, round_timeout=30.0) as collector:
                out, losses, buffers = run(collector)
                timings = [address for address, _, _ in collector.worker_timings]
        first, second = fleet.addresses
        # Round 1's replies may come in either order; round 2's cannot.
        assert sorted(finished[:2]) == sorted(fleet.addresses)
        assert finished[2:] == [second, first]
        assert timings == [first, second]
        assert np.array_equal(out, seq_out)
        assert losses == seq_losses
        for name in seq_buffers:
            assert np.array_equal(buffers[name], seq_buffers[name])


class TestDemoteToDropped:
    def test_moves_active_to_dropped(self):
        plan = make_plan(0, 10, active=range(10))
        demoted = plan.demote_to_dropped([2, 5])
        assert demoted.num_active == 8
        assert np.array_equal(demoted.dropped, [2, 5])
        assert np.array_equal(demoted.cohort, plan.cohort)

    def test_demoting_everyone_rejected(self):
        plan = make_plan(0, 4, active=range(4))
        with pytest.raises(ValueError, match="at least one report"):
            plan.demote_to_dropped(range(4))

    def test_demoting_non_active_rejected(self):
        plan = make_plan(0, 6, active=[0, 1, 2], dropped=[3, 4, 5])
        with pytest.raises(ValueError, match="not active"):
            plan.demote_to_dropped([3])

    def test_empty_demotion_is_identity(self):
        plan = make_plan(0, 4, active=range(4))
        assert plan.demote_to_dropped([]) is plan


class TestConfigValidation:
    def test_distributed_requires_workers(self):
        with pytest.raises(ValueError, match="requires workers"):
            TrainingConfig(collect_backend="distributed").validate()

    def test_workers_only_for_distributed(self):
        with pytest.raises(ValueError, match="only meaningful"):
            TrainingConfig(
                collect_backend="thread", workers=["h:1"]
            ).validate()

    def test_bad_worker_spec_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            TrainingConfig(
                collect_backend="distributed", workers=["nocolon"]
            ).validate()

    def test_build_collector_distributed(self):
        collector = make_collector(
            backend="distributed", n_workers=1, workers=["127.0.0.1:1"]
        )
        assert isinstance(collector, DistributedCollector)
        with pytest.raises(ValueError, match="requires workers"):
            make_collector(backend="distributed", n_workers=1)

    def test_duplicate_workers_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DistributedCollector(["h:1", "h:1"])


class TestWorkerProcessLifecycle:
    def test_worker_cli_spawns_and_serves(self):
        worker = spawn_worker_process()
        try:
            clients = make_clients(3)
            model = make_model()
            out = np.empty((3, model.num_parameters()))
            reference = np.empty_like(out)
            SequentialCollector().collect(make_clients(3), model, reference)
            collector = DistributedCollector([worker.address])
            try:
                collector.collect(clients, model, out)
            finally:
                collector.close()
            assert np.array_equal(reference, out)
        finally:
            worker.terminate()

    def test_worker_survives_caller_disconnect(self):
        worker = spawn_worker_process()
        try:
            model = make_model()
            for _ in range(2):  # two sequential callers, same worker
                clients = make_clients(3)
                out = np.empty((3, model.num_parameters()))
                collector = DistributedCollector([worker.address])
                try:
                    collector.collect(clients, model, out)
                finally:
                    collector.close()
                time.sleep(0.1)
            assert worker.alive
        finally:
            worker.terminate()


# ---------------------------------------------------------------------------
# gradient wire codecs
# ---------------------------------------------------------------------------


ALL_CODECS = ("fp16", "int8", "raw", "sign1bit")
LOSSY_CODECS = ("sign1bit", "int8", "fp16")
#: Shapes every codec must round-trip, including the degenerate ones and a
#: dim that is not a multiple of 8 (exercises sign1bit's packbits padding).
CODEC_SHAPES = [(0, 5), (3, 0), (0, 0), (1, 1), (4, 7), (2, 33)]


def _shard(shape, dtype=np.float64, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(dtype)


def _roundtrip(codec, shard):
    payload = codec.encode(shard)
    out = np.empty_like(shard)
    codec.decode(payload, out)
    return out


class TestCodecRegistry:
    def test_registered_names(self):
        assert wire_codec_names() == ALL_CODECS

    def test_unknown_codec_is_value_error(self):
        with pytest.raises(ValueError, match="unknown wire codec"):
            build_codec("gzip")
        with pytest.raises(ValueError, match="unknown wire codec"):
            build_codec("topk")

    def test_flags(self):
        for name in ALL_CODECS:
            codec = build_codec(name)
            assert codec.name == name
            assert codec.lossless == (name == "raw")


class TestCodecRoundtrip:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", CODEC_SHAPES)
    def test_shapes_and_dtypes(self, name, dtype, shape):
        shard = _shard(shape, dtype=dtype, seed=3)
        out = _roundtrip(build_codec(name), shard)
        assert out.shape == shard.shape and out.dtype == shard.dtype
        assert np.all(np.isfinite(out))
        if shard.size == 0:  # empty and zero-row shards round-trip exactly
            assert np.array_equal(out, shard)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_wire_bytes_deterministic_across_instances(self, name):
        shard = _shard((3, 17), seed=9)
        assert build_codec(name).encode(shard) == build_codec(name).encode(shard)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_non_contiguous_and_readonly_inputs(self, name):
        base = _shard((4, 22), seed=5)
        strided = base[:, ::2]  # non-C-contiguous view
        assert not strided.flags["C_CONTIGUOUS"]
        readonly = np.ascontiguousarray(strided)
        readonly.setflags(write=False)
        codec = build_codec(name)
        reference = codec.encode(np.array(strided, copy=True))
        assert build_codec(name).encode(strided) == reference
        assert build_codec(name).encode(readonly) == reference

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_non_2d_or_non_float_refused(self, name):
        codec = build_codec(name)
        with pytest.raises(CodecError, match="2-D"):
            codec.encode(np.zeros(6))
        with pytest.raises(CodecError, match="float"):
            codec.encode(np.zeros((2, 3), dtype=np.int64))

    @pytest.mark.parametrize("name", LOSSY_CODECS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lossy_codecs_refuse_non_finite(self, name, bad):
        shard = _shard((2, 8), seed=1)
        shard[1, 3] = bad
        with pytest.raises(CodecError, match="non-finite"):
            build_codec(name).encode(shard)

    def test_raw_ships_non_finite_bit_exactly(self):
        shard = _shard((2, 8), seed=1)
        shard[0, 0] = np.nan
        shard[1, 5] = np.inf
        out = _roundtrip(build_codec("raw"), shard)
        assert np.array_equal(out, shard, equal_nan=True)
        assert build_codec("raw").encode(shard) == shard.tobytes()

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_decode_into_wrong_shape_refused(self, name):
        codec = build_codec(name)
        payload = codec.encode(_shard((2, 6)))
        with pytest.raises(CodecError):
            build_codec(name).decode(payload, np.empty((3, 6)))

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_truncated_payload_refused(self, name):
        codec = build_codec(name)
        payload = codec.encode(_shard((2, 6)))
        with pytest.raises(CodecError):
            build_codec(name).decode(payload[:-1], np.empty((2, 6)))
        with pytest.raises(CodecError):
            build_codec(name).decode(b"", np.empty((2, 6)))

    def test_sign1bit_formula(self):
        shard = _shard((5, 19), seed=7)
        out = _roundtrip(build_codec("sign1bit"), shard)
        scales = np.mean(np.abs(shard), axis=1, dtype=np.float64).astype(np.float32)
        expected = np.where(shard >= 0.0, 1.0, -1.0) * scales[:, None].astype(
            shard.dtype
        )
        assert np.array_equal(out, expected)

    def test_int8_error_within_half_a_quantization_step(self):
        shard = _shard((6, 40), seed=11, scale=3.0)
        out = _roundtrip(build_codec("int8"), shard)
        scales = (np.max(np.abs(shard), axis=1) / 127.0).astype(np.float32)
        assert np.all(np.abs(out - shard) <= scales[:, None] * 0.5 + 1e-5)

    def test_int8_zero_rows_stay_zero(self):
        shard = np.zeros((3, 10))
        assert np.array_equal(_roundtrip(build_codec("int8"), shard), shard)

    def test_fp16_matches_float16_cast_exactly(self):
        shard = _shard((4, 12), seed=2)
        out = _roundtrip(build_codec("fp16"), shard)
        assert np.array_equal(out, shard.astype(np.float16).astype(shard.dtype))
        # fp16-representable values round-trip bit-exactly.
        exact = shard.astype(np.float16).astype(np.float64)
        assert np.array_equal(_roundtrip(build_codec("fp16"), exact), exact)

    def test_fp16_overflow_refused(self):
        shard = np.array([[1.0, 1e5]])
        with pytest.raises(CodecError, match="overflows"):
            build_codec("fp16").encode(shard)


# ---------------------------------------------------------------------------
# codec negotiation + wire compatibility
# ---------------------------------------------------------------------------


class TestCodecNegotiation:
    def test_welcome_echoes_negotiated_codec(self):
        with start_thread_fleet(1) as fleet:
            header = hello_header(model_signature(make_model()), wire_codec="int8")
            msg, reply, _ = _raw_hello(fleet.addresses[0], header)
            assert msg == MSG_WELCOME
            assert reply["wire_codec"] == "int8"

    def test_unknown_codec_refused_with_supported_list(self):
        with start_thread_fleet(1) as fleet:
            header = hello_header(model_signature(make_model()), wire_codec="gzip")
            msg, reply, _ = _raw_hello(fleet.addresses[0], header)
            assert msg == MSG_ERROR
            assert "unsupported wire codec 'gzip'" in reply["error"]
            for name in ALL_CODECS:
                assert name in reply["error"]

    def test_restricted_worker_refuses_connection(self):
        with start_thread_fleet(1, supported_codecs=("raw",)) as fleet:
            conn = WorkerConnection(fleet.addresses[0], wire_codec="sign1bit")
            with pytest.raises(HandshakeError, match="unsupported wire codec"):
                conn.connect(make_model())
            # The same worker still serves raw callers.
            raw_conn = WorkerConnection(fleet.addresses[0])
            raw_conn.connect(make_model())
            raw_conn.close()

    def test_collector_surfaces_codec_refusal(self):
        with start_thread_fleet(1, supported_codecs=("raw",)) as fleet:
            collector = DistributedCollector(
                fleet.addresses, wire_codec="sign1bit", connect_timeout=2.0
            )
            clients = make_clients(2)
            model = make_model()
            out = np.empty((2, model.num_parameters()))
            with pytest.raises(TransportError, match="last refusal") as excinfo:
                collector.collect(clients, model, out)
            collector.close()
            assert "unsupported wire codec" in str(excinfo.value)


class TestWireCompatibility:
    def _begin_manual_round(self, conn, clients, model):
        """Drive one round by hand up to the SHARD announcement."""
        ids = list(range(len(clients)))
        conn.connect(model)
        conn.setup(model, ids, clients)
        conn.begin_round(
            encode_state_dict(model.state_dict()),
            ids,
            np.float64,
            model.num_parameters(),
        )
        return conn._channel

    def test_raw_wire_is_byte_identical_to_pre_codec_protocol(self):
        # The compatibility contract of the default codec: the SHARD
        # announcement carries exactly the pre-codec header fields (no
        # "codec" key) and the gradient frame is the shard's bytes,
        # verbatim — a pre-codec capture of this conversation would match
        # byte for byte.
        n = 3
        model = make_model()
        reference = np.empty((n, model.num_parameters()))
        SequentialCollector().collect(make_clients(n), model, reference)
        with start_thread_fleet(1) as fleet:
            conn = WorkerConnection(fleet.addresses[0])
            channel = self._begin_manual_round(conn, make_clients(n), model)
            try:
                header, _ = channel.expect(MSG_SHARD)
                assert set(header) == {"rows", "nbytes"}
                assert header["rows"] == n
                assert header["nbytes"] == reference.nbytes
                assert channel.recv_raw() == reference.tobytes()
                channel.expect(MSG_TRAILER)
            finally:
                conn.drop()

    def test_encoded_shard_announces_its_codec(self):
        n = 3
        model = make_model()
        reference = np.empty((n, model.num_parameters()))
        SequentialCollector().collect(make_clients(n), model, reference)
        with start_thread_fleet(1) as fleet:
            conn = WorkerConnection(fleet.addresses[0], wire_codec="sign1bit")
            channel = self._begin_manual_round(conn, make_clients(n), model)
            try:
                header, _ = channel.expect(MSG_SHARD)
                assert set(header) == {"rows", "nbytes", "codec"}
                assert header["codec"] == "sign1bit"
                payload = channel.recv_raw()
                assert len(payload) == header["nbytes"]
                assert len(payload) < reference.nbytes / 16
                out = np.empty_like(reference)
                build_codec("sign1bit").decode(payload, out)
                expected = np.empty_like(reference)
                build_codec("sign1bit").decode(
                    build_codec("sign1bit").encode(reference), expected
                )
                assert np.array_equal(out, expected)
                channel.expect(MSG_TRAILER)
            finally:
                conn.drop()


# ---------------------------------------------------------------------------
# codecs end to end
# ---------------------------------------------------------------------------


def _codec_bench_bytes(wire_codec):
    """Steady-state received bytes for one collect round under a codec."""
    with start_thread_fleet(2) as fleet:
        clients = make_clients(8)
        model = make_model()
        out = np.empty((8, model.num_parameters()))
        collector = DistributedCollector(fleet.addresses, wire_codec=wire_codec)
        try:
            collector.collect(clients, model, out)  # handshake + setup round
            collector.collect(clients, model, out)  # steady state
            _, received = collector.last_round_bytes
        finally:
            collector.close()
    return received


class TestCodecEndToEnd:
    @pytest.fixture(scope="class")
    def signguard_runs(self):
        base = dict(
            num_clients=10,
            seed=7,
            data=DataConfig(dataset="mnist_like", num_train=200, num_test=50),
            attack=AttackConfig(name="sign_flip", byzantine_fraction=0.2),
            defense=DefenseConfig(name="signguard"),
        )
        training = dict(model="mlp", rounds=3, batch_size=8)
        sequential = run_experiment(
            ExperimentConfig(
                training=TrainingConfig(collect_backend="sequential", **training),
                **base,
            )
        )
        return base, training, sequential

    def _run_with_codec(self, signguard_runs, wire_codec):
        base, training, sequential = signguard_runs
        with start_thread_fleet(2) as fleet:
            distributed = run_experiment(
                ExperimentConfig(
                    training=TrainingConfig(
                        collect_backend="distributed",
                        workers=fleet.addresses,
                        wire_codec=wire_codec,
                        **training,
                    ),
                    **base,
                )
            )
        return sequential, distributed

    def test_raw_is_bit_identical_under_attack(self, signguard_runs):
        sequential, distributed = self._run_with_codec(signguard_runs, "raw")
        assert [r.train_loss for r in sequential.rounds] == [
            r.train_loss for r in distributed.rounds
        ]
        assert [r.test_accuracy for r in sequential.rounds] == [
            r.test_accuracy for r in distributed.rounds
        ]

    @pytest.mark.parametrize("wire_codec", LOSSY_CODECS)
    def test_lossy_codecs_track_the_uncompressed_defense(
        self, signguard_runs, wire_codec
    ):
        # Compression must not break SignGuard: the compressed run's final
        # accuracy stays within a few points of the uncompressed run on
        # the same attacked federation.
        sequential, distributed = self._run_with_codec(signguard_runs, wire_codec)
        assert all(np.isfinite(r.train_loss) for r in distributed.rounds)
        delta = abs(
            sequential.rounds[-1].test_accuracy
            - distributed.rounds[-1].test_accuracy
        )
        assert delta <= 0.15

    def test_bytes_on_wire_shrink_as_promised(self):
        raw = _codec_bench_bytes("raw")
        sign1bit = _codec_bench_bytes("sign1bit")
        int8 = _codec_bench_bytes("int8")
        # The ISSUE's acceptance floors: >= 16x for sign1bit and >= 4x for
        # int8 on the shard traffic; the fixed per-round overhead (message
        # envelopes, pickled trailers with RNG states) is shared by every
        # codec, so allow it on top of the ratio.
        overhead = 8 * 1024
        assert sign1bit <= raw / 16 + overhead
        assert int8 <= raw / 4 + overhead
        assert sign1bit < int8 < raw
