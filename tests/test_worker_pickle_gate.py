"""The worker's pickled-SETUP trust gate (``--allow-pickle-setup``).

``SETUP`` bodies are the transport's one pickled payload, so a worker
that untrusted peers can reach must be able to refuse them.  The gate:

* ``WorkerServer(allow_pickle_setup=False)`` refuses both plain and
  merge ``SETUP`` with a clear error, before ever unpickling;
* the ``repro-worker`` CLI defaults the gate **closed** and opens it
  only with ``--allow-pickle-setup``;
* the fleet helpers (thread fleet, local subprocess fleet) keep working
  untouched — they serve only their own caller over loopback;
* the ``WELCOME`` header advertises ``accepts_pickle_setup``, and the
  caller fails fast on it: it ships nothing and reports the refusal.
"""

import pickle
import socket

import numpy as np
import pytest

from repro.fl.transport import DistributedCollector, WorkerConnection
from repro.fl.transport.codec import MSG_ERROR, MSG_HELLO, MSG_SETUP, MSG_WELCOME
from repro.fl.transport.fleet import spawn_worker_process
from repro.fl.transport.protocol import (
    Channel,
    HandshakeError,
    TransportError,
    hello_header,
)
from repro.fl.transport.worker import WorkerServer, main as worker_main
from tests.test_fl_parallel_collect import make_clients, make_model


def _handshake(address: str, signature: str = "0" * 16) -> Channel:
    host, port = address.rsplit(":", 1)
    channel = Channel(socket.create_connection((host, int(port)), timeout=10))
    channel.settimeout(10)
    channel.send(MSG_HELLO, hello_header(signature))
    return channel


class TestProgrammaticGate:
    def test_default_accepts_pickle_setup(self):
        server = WorkerServer()
        try:
            assert server.allow_pickle_setup is True
        finally:
            server.close()

    def test_welcome_advertises_gate(self):
        server = WorkerServer(allow_pickle_setup=False)
        server.start_in_thread()
        try:
            channel = _handshake(server.address)
            msg_type, header, _ = channel.recv()
            assert msg_type == MSG_WELCOME
            assert header["accepts_pickle_setup"] is False
            channel.close()
        finally:
            server.close()

    @pytest.mark.parametrize("merge", [False, True])
    def test_gated_worker_refuses_setup(self, merge):
        server = WorkerServer(allow_pickle_setup=False)
        server.start_in_thread()
        try:
            channel = _handshake(server.address)
            msg_type, _, _ = channel.recv()
            assert msg_type == MSG_WELCOME
            body = pickle.dumps((None, [], [], {}))
            channel.send(MSG_SETUP, {"merge": True} if merge else {}, body)
            msg_type, header, _ = channel.recv()
            assert msg_type == MSG_ERROR
            assert "allow-pickle-setup" in header["error"]
            channel.close()
        finally:
            server.close()

    def test_open_worker_still_reports_bad_pickle(self):
        server = WorkerServer(allow_pickle_setup=True)
        server.start_in_thread()
        try:
            channel = _handshake(server.address)
            msg_type, _, _ = channel.recv()
            assert msg_type == MSG_WELCOME
            channel.send(MSG_SETUP, {}, b"not a pickle")
            msg_type, header, _ = channel.recv()
            assert msg_type == MSG_ERROR
            assert "failed to unpickle" in header["error"]
            channel.close()
        finally:
            server.close()


class TestCallerGate:
    """A gated worker's refusal reaches the caller with its reason."""

    def test_connection_ships_nothing_to_a_gated_worker(self):
        server = WorkerServer(allow_pickle_setup=False)
        server.start_in_thread()
        model = make_model()
        conn = WorkerConnection(server.address)
        try:
            conn.connect(model)
            assert conn.accepts_pickle_setup is False
            sent = conn.bytes_sent
            for call in (
                lambda: conn.setup(model, [0], make_clients(1)),
                lambda: conn.extend([0], make_clients(1)),
            ):
                with pytest.raises(HandshakeError, match="--allow-pickle-setup"):
                    call()
            assert conn.bytes_sent == sent
        finally:
            conn.close()
            server.close()

    def test_collect_names_the_flag_instead_of_unreachable(self):
        server = WorkerServer(allow_pickle_setup=False)
        server.start_in_thread()
        collector = DistributedCollector([server.address])
        clients, model = make_clients(2), make_model()
        try:
            with pytest.raises(TransportError) as refusal:
                collector.collect(clients, model, np.empty((2, model.num_parameters())))
        finally:
            collector.close()
            server.close()
        message = str(refusal.value)
        expected = (
            f"; last refusal: worker {server.address} refuses pickled SETUP "
            "payloads (started without --allow-pickle-setup)"
        )
        assert message.startswith("no distributed-collect worker reachable")
        assert expected in message


class TestCliGate:
    def test_cli_defaults_to_refusing_pickles(self):
        worker = spawn_worker_process(allow_pickle_setup=False)
        try:
            channel = _handshake(worker.address)
            msg_type, header, _ = channel.recv()
            assert msg_type == MSG_WELCOME
            assert header["accepts_pickle_setup"] is False
            channel.send(MSG_SETUP, {}, pickle.dumps((None, [], [], {})))
            msg_type, header, _ = channel.recv()
            assert msg_type == MSG_ERROR
            assert "allow-pickle-setup" in header["error"]
            channel.close()
        finally:
            worker.terminate()

    def test_fleet_helper_opens_the_gate(self):
        worker = spawn_worker_process()
        try:
            channel = _handshake(worker.address)
            msg_type, header, _ = channel.recv()
            assert msg_type == MSG_WELCOME
            assert header["accepts_pickle_setup"] is True
            channel.close()
        finally:
            worker.terminate()

    def test_main_parser_rejects_unknown_args(self):
        with pytest.raises(SystemExit):
            worker_main(["--no-such-flag"])
