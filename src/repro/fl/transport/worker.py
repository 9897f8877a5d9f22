"""The ``repro-worker`` server: serves one client-population shard over TCP.

A worker owns a chunk of the federation's client population (shipped at
setup, together with a model replica) and then serves rounds: each
``ROUND`` message carries the global model's encoded ``state_dict()`` and
the sorted global client ids to compute this round; the worker loads the
state, runs its clients one after the other *exactly as the sequential
backend does* (so per-client RNG streams and BatchNorm statistics behave
identically), and streams the gradient shard back as one raw frame, sent
from a buffer kept per connection (rows from a failing client on are
NaN-filled), then a trailer with losses, recorded batch statistics,
post-round RNG states, and timing.

The worker process is deliberately dumb and stateless across connections:
a shard lives for one connection and is dropped when that connection ends
(cleanly or by the caller crashing).  Every caller therefore ships its own
``SETUP``, carrying the clients' RNG states when it resumes them, and a
standing fleet serves any model architecture.  Within a connection,
``SETUP`` must ship a model matching the signature announced in ``HELLO``,
so a broadcast can never load into a differently-shaped model.

Run it from the console script installed with the package::

    repro-worker --port 9000

or, equivalently, ``python -m repro.fl.transport.worker --port 9000``.
With ``--port 0`` the OS picks a free port; the worker always prints a
``repro-worker listening on HOST:PORT`` line (flushed) so fleet tooling
can scrape the address.

Security note: after the handshake, ``SETUP`` bodies are unpickled — the
same trust model as Python's own ``multiprocessing``.  The unpickle path
is therefore **gated**: the ``repro-worker`` CLI refuses ``SETUP`` unless
started with ``--allow-pickle-setup``, because a CLI worker may be bound
to a non-loopback interface where any peer that can complete the
handshake could submit a pickle.  The in-process and local-subprocess
fleet helpers (:func:`~repro.fl.transport.fleet.start_thread_fleet`,
:func:`~repro.fl.transport.fleet.spawn_local_fleet`) enable the gate —
they only ever talk to themselves over loopback.  The handshake's
magic/version/signature checks guard against accidents, not adversaries;
the state-dict broadcasts and gradient shards themselves are
pickle-free.

Fault injection: ``--fault KIND@ROUND[:SECONDS]`` (repeatable) attaches a
:class:`~repro.fl.faults.FaultSchedule` to the worker — the one
fault-injection API shared with the caller-side injection.  ``crash``
hard-exits the process upon *receiving* its N-th lifetime ``ROUND``
request (from the caller's side, a worker that died mid-round);
``stall`` sleeps SECONDS through it instead (a worker that times out);
``corrupt_frame`` answers it with a torn gradient frame (a worker whose
reply the framing layer rejects); ``refuse_connect`` silently drops the
N-th *connection attempt* (``HELLO``) — the failure the caller's
connect-retry policy exists to ride out.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fl.client import FederatedClient, compute_cohort_gradients
from repro.fl.collector import _batch_stat_modules, invalidate_buffer
from repro.fl.faults import FaultSchedule
from repro.fl.transport.codec import (
    MSG_BYE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_READY,
    MSG_ROUND,
    MSG_SETUP,
    MSG_SHARD,
    MSG_TRAILER,
    MSG_WELCOME,
    CodecError,
    GradientCodec,
    RawCodec,
    build_codec,
    decode_state_dict,
    model_signature,
    wire_codec_names,
)
from repro.fl.transport.framing import DEFAULT_MAX_FRAME_BYTES, FrameError
from repro.fl.transport.protocol import PROTOCOL_VERSION, Channel, check_hello
from repro.nn.module import Module
from repro.perf.timers import monotonic


class WorkerServer:
    """Serve a client-population shard for a distributed collect fleet.

    Args:
        host: interface to bind (default loopback — a localhost fleet).
        port: TCP port; 0 lets the OS choose (see :attr:`address`).
        max_frame_bytes: per-frame receive ceiling (oversized frames are
            refused before any allocation).
        fault_schedule: deterministic fault injection (see
            :mod:`repro.fl.faults`).  ``crash``/``stall``/``corrupt_frame``
            specs trigger on this worker's N-th lifetime ``ROUND`` request,
            ``refuse_connect`` on its N-th ``HELLO``.  A server is a fleet
            of one, so the schedule must target worker 0
            (:meth:`~repro.fl.faults.FaultSchedule.for_worker`).
        hard_crash: when True, ``crash`` faults ``os._exit`` the whole
            process (the CLI behaviour — real host death); when False (the
            in-process default), they close the listener and drop the
            connection, so a thread-fleet test's interpreter survives but
            callers observe the same dead worker.
        supported_codecs: gradient wire codecs this worker will serve
            (``None`` = every registered codec).  A caller announcing a
            codec outside the set is refused during the handshake with an
            error naming both sides' expectations.
        allow_pickle_setup: whether ``SETUP``/merge bodies (which are
            pickled) are accepted.  Defaults to True for programmatic use
            — in-process and local fleets only talk to themselves — but
            the ``repro-worker`` CLI defaults it to **False** so a worker
            reachable from elsewhere never unpickles an unexpected
            caller's payload unless the operator passed
            ``--allow-pickle-setup``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        fault_schedule: Optional[FaultSchedule] = None,
        hard_crash: bool = False,
        supported_codecs: Optional[Tuple[str, ...]] = None,
        allow_pickle_setup: bool = True,
    ):
        self.max_frame_bytes = int(max_frame_bytes)
        self.allow_pickle_setup = bool(allow_pickle_setup)
        self.supported_codecs = (
            tuple(supported_codecs)
            if supported_codecs is not None
            else wire_codec_names()
        )
        self.fault_schedule = fault_schedule or FaultSchedule()
        indices = self.fault_schedule.worker_indices()
        if indices not in ((), (0,)):
            raise ValueError(
                "a WorkerServer is a single worker; its fault schedule must "
                f"target worker 0, got workers {indices} — call "
                "FaultSchedule.for_worker() first"
            )
        self.hard_crash = bool(hard_crash)
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._closed = False
        # The shard: installed by SETUP, dropped when its connection ends.
        self._model: Optional[Module] = None
        self._clients: Dict[int, FederatedClient] = {}
        self._buffer: Optional[np.ndarray] = None  # a round's shard is a view
        self._rounds_received = 0
        self._hellos_received = 0

    @property
    def address(self) -> str:
        """The ``host:port`` string callers pass as a worker spec."""
        return f"{self.host}:{self.port}"

    # -- serving -------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve connections (one at a time) until :meth:`close`."""
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            # Replies are several small writes around one large one; without
            # NODELAY, Nagle + the peer's delayed ACK can stall each reply
            # by tens of ms on non-loopback networks.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = Channel(conn, max_frame_bytes=self.max_frame_bytes)
            try:
                self._serve_connection(channel)
            except (FrameError, CodecError, ConnectionError, OSError):
                pass  # caller vanished or spoke garbage; await the next one
            except Exception as exc:
                # A worker must outlive any single bad connection; refuse
                # and await the next caller.
                self._refuse(channel, f"worker error: {exc!r}")
            finally:
                channel.close()
                self._model = None
                self._clients = {}
                self._buffer = None

    def start_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread (in-process localhost fleets)."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"repro-worker-{self.port}", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass

    # -- connection handling -------------------------------------------------

    def _refuse(self, channel: Channel, reason: str) -> None:
        try:
            channel.send(MSG_ERROR, {"error": reason})
        except OSError:  # pragma: no cover - peer already gone
            pass

    def _serve_connection(self, channel: Channel) -> None:
        msg_type, header, _ = channel.recv()
        if msg_type != MSG_HELLO:
            self._refuse(channel, "handshake must start with HELLO")
            return
        self._hellos_received += 1
        if self.fault_schedule.fires("refuse_connect", self._hellos_received):
            # Fault injection: hang up without a word.  The caller sees a
            # connection closed mid-handshake — the transient failure its
            # connect-retry policy is built for (a real HandshakeError,
            # being an explicit refusal, is deliberately NOT retried).
            return
        refusal = check_hello(header, self.supported_codecs)
        if refusal is not None:
            self._refuse(channel, refusal)
            return
        wire_codec = header.get("wire_codec", "raw")
        codec = build_codec(wire_codec)
        channel.send(
            MSG_WELCOME,
            {
                "protocol": PROTOCOL_VERSION,
                "wire_codec": wire_codec,
                # Additive field (no version bump per the codec-module bump
                # rules): old callers ignore it, new callers can fail fast
                # instead of shipping a SETUP the worker will refuse.
                "accepts_pickle_setup": self.allow_pickle_setup,
            },
        )
        claimed_signature = header["model_signature"]
        while True:
            msg_type, header, body = channel.recv()
            if msg_type == MSG_BYE:
                return
            if msg_type == MSG_SETUP:
                if header.get("merge"):
                    if not self._handle_merge(channel, body):
                        return
                elif not self._handle_setup(channel, claimed_signature, body):
                    return
            elif msg_type == MSG_ROUND:
                self._handle_round(channel, header, body, codec)
            else:
                self._refuse(channel, f"unexpected message type {msg_type}")
                return

    def _refuse_pickle_setup(self, channel: Channel) -> None:
        self._refuse(
            channel,
            "this worker refuses pickled SETUP payloads (started without "
            "--allow-pickle-setup); restart it with the flag if you trust "
            "every caller that can reach it",
        )

    def _handle_setup(
        self, channel: Channel, claimed_signature: str, body: bytes
    ) -> bool:
        if not self.allow_pickle_setup:
            self._refuse_pickle_setup(channel)
            return False
        try:
            model, client_ids, clients, rng_states = pickle.loads(body)
        except Exception as exc:
            # Most often a caller-local client class this process cannot
            # import; the shard is refused but the worker keeps serving.
            self._refuse(channel, f"SETUP payload failed to unpickle: {exc!r}")
            return False
        signature = model_signature(model)
        if signature != claimed_signature:
            self._refuse(
                channel,
                f"SETUP model signature {signature} does not match the "
                f"HELLO-announced {claimed_signature}",
            )
            return False
        if rng_states:
            # A resumed shard: fast-forward each client's sampling stream to
            # where it stood when this worker's predecessor last reported.
            for client_id, state in rng_states.items():
                clients[client_ids.index(client_id)].loader.rng_state = state
        self._model = model
        self._clients = dict(zip(client_ids, clients))
        channel.send(MSG_READY, {"num_clients": len(clients)})
        return True

    def _handle_merge(self, channel: Channel, body: bytes) -> bool:
        """Merge re-dispatched clients into the held shard (no model ships)."""
        if not self.allow_pickle_setup:
            self._refuse_pickle_setup(channel)
            return False
        if self._model is None:
            self._refuse(channel, "merge SETUP requires an existing shard")
            return False
        try:
            _, client_ids, clients, rng_states = pickle.loads(body)
        except Exception as exc:
            self._refuse(channel, f"SETUP payload failed to unpickle: {exc!r}")
            return False
        if rng_states:
            # Re-dispatched clients resume their sampling streams at their
            # last *completed* round — the dead worker never reported this
            # round's advance, so recomputing here is bit-identical.
            for client_id, state in rng_states.items():
                clients[client_ids.index(client_id)].loader.rng_state = state
        self._clients.update(zip(client_ids, clients))
        channel.send(MSG_READY, {"num_clients": len(self._clients)})
        return True

    def _handle_round(
        self, channel: Channel, header: dict, body: bytes, codec: GradientCodec
    ) -> None:
        self._rounds_received += 1
        if self.fault_schedule.fires("crash", self._rounds_received):
            if self.hard_crash:
                os._exit(17)  # fault injection: die without replying
            # In-process flavour: stop listening and hang up.  Callers see
            # exactly what a dead process shows them — a connection that
            # drops mid-round and a port that then refuses.
            self.close()
            raise ConnectionAbortedError("fault injection: crash")
        stall = self.fault_schedule.fires("stall", self._rounds_received)
        if stall is not None:
            time.sleep(stall.seconds)  # fault injection: miss the deadline
        if self.fault_schedule.fires("corrupt_frame", self._rounds_received):
            # Fault injection: announce the shard, then tear the gradient
            # frame.  Nothing was computed — client RNG streams are
            # untouched, so a re-dispatched recomputation stays bit-exact.
            rows = [int(row) for row in header["rows"]]
            dtype = np.dtype(header["dtype"])
            nbytes = len(rows) * int(header["dim"]) * dtype.itemsize
            channel.send(MSG_SHARD, {"rows": len(rows), "nbytes": nbytes})
            channel.send_raw(b"\x00" * min(8, max(nbytes - 1, 0)))
            raise ConnectionAbortedError("fault injection: corrupt frame")
        if self._model is None:
            self._refuse(channel, "ROUND before SETUP: worker holds no shard")
            return
        rows = [int(row) for row in header["rows"]]
        dtype = np.dtype(header["dtype"])
        dim = int(header["dim"])
        if dim != self._model.num_parameters():
            self._refuse(
                channel,
                f"round dim {dim} does not match the shard model's "
                f"{self._model.num_parameters()} parameters",
            )
            return
        unknown = [row for row in rows if row not in self._clients]
        if unknown:
            self._refuse(channel, f"rows {unknown} are not in this worker's shard")
            return
        self._model.load_state_dict(decode_state_dict(body))
        size = len(rows) * dim
        buffer = self._buffer
        if buffer is None or buffer.dtype != dtype or buffer.size < size:
            buffer = self._buffer = np.empty(size, dtype=dtype)
        shard = buffer[:size].reshape(len(rows), dim)
        shard_clients = [self._clients[row] for row in rows]
        stat_modules = _batch_stat_modules(self._model)
        losses: List[Tuple[int, float]] = []
        stats: List[Tuple[int, list]] = []
        error: Optional[BaseException] = None

        def start_stats_logs() -> None:
            for module in stat_modules:
                module.stats_log = []

        def record(done: int) -> None:
            # Rows up to ``done`` are complete.  Batch statistics are logged
            # per client: a model with BatchNorm has no grouped pass.
            for position in range(len(losses), done):
                losses.append((rows[position], shard_clients[position].last_loss))
                stats.append(
                    (rows[position], [module.stats_log for module in stat_modules])
                )
            start_stats_logs()

        start = monotonic()
        start_stats_logs()
        try:
            compute_cohort_gradients(shard_clients, self._model, shard, on_done=record)
        except BaseException as exc:  # propagate to the caller
            error = exc
        finally:
            for module in stat_modules:
                module.stats_log = None
        seconds = monotonic() - start
        count = len(losses)
        if error is not None:
            # Rows from the failing client on may hold an earlier round's.
            invalidate_buffer(shard[count:])
            try:
                pickle.dumps(error)
            except Exception:
                error = RuntimeError(
                    f"unpicklable client exception on worker {self.address}: "
                    f"{error!r}"
                )
        rng_states = {row: self._clients[row].loader.rng_state for row, _ in losses}
        if isinstance(codec, RawCodec):
            # Fast path, byte-identical to the pre-codec protocol: the SHARD
            # header carries no codec key and the frame is the shard's bytes.
            channel.send(MSG_SHARD, {"rows": len(rows), "nbytes": shard.nbytes})
            channel.send_raw(shard)
        else:
            if error is not None:
                # Rows past the failing client are NaN; the caller
                # raises the error without aggregating, but a lossy codec
                # (rightly) refuses non-finite input — neutralise it.
                np.nan_to_num(shard, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
            payload = codec.encode(shard)
            channel.send(
                MSG_SHARD,
                {"rows": len(rows), "nbytes": len(payload), "codec": codec.name},
            )
            channel.send_raw(payload)
        channel.send(
            MSG_TRAILER,
            {},
            pickle.dumps(
                {
                    "losses": losses,
                    "stats": stats,
                    "rng_states": rng_states,
                    "seconds": seconds,
                    "count": count,
                    "error": error,
                }
            ),
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Serve a client-population shard for distributed gradient "
            "collection (TrainingConfig(collect_backend='distributed'))."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    parser.add_argument(
        "--max-frame-mb",
        type=float,
        default=DEFAULT_MAX_FRAME_BYTES / 2**20,
        help="per-frame receive ceiling in MiB",
    )
    parser.add_argument(
        "--allow-pickle-setup",
        action="store_true",
        help=(
            "accept pickled SETUP payloads (required to serve a fleet; "
            "off by default because unpickling executes caller-chosen "
            "code — enable only where every reachable caller is trusted)"
        ),
    )
    parser.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="KIND@ROUND[:SECONDS]",
        help=(
            "fault injection (repeatable): crash@N / stall@N[:SECS] / "
            "corrupt_frame@N trigger on the N-th round request, "
            "refuse_connect@N on the N-th connection attempt"
        ),
    )
    args = parser.parse_args(argv)
    server = WorkerServer(
        args.host,
        args.port,
        max_frame_bytes=int(args.max_frame_mb * 2**20),
        fault_schedule=FaultSchedule.from_args(args.fault),
        hard_crash=True,
        allow_pickle_setup=bool(args.allow_pickle_setup),
    )
    print(f"repro-worker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
