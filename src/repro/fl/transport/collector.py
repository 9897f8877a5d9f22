"""The fleet collect engine: a fleet of ``repro-worker`` servers.

:class:`DistributedCollector` is the one parallel
:class:`~repro.fl.collector.GradientCollector` engine
(``TrainingConfig(collect_backend="distributed", workers=[...])``), and
:class:`LocalFleetCollector` runs it over a localhost fleet it owns (the
``"thread"`` and ``"process"`` backends).  It takes the sequential loop's
contract — fill a preallocated round buffer with the selected clients'
gradients, bit-identically to the sequential loop — across TCP:

* the client population is chunked **contiguously** over the workers
  (``np.array_split``), so each worker's rows occupy one contiguous slice
  of the (sorted-row) round buffer and its gradient shard is received
  straight into that slice — one gather, no per-gradient pickling;
* per round, every live worker gets the encoded global ``state_dict()``
  and its slice of the round's rows; workers compute concurrently while
  the caller drains every reply at once, one thread per worker, and only
  a failed worker's slice of the buffer is ever NaN-filled;
* client batch-sampling RNG streams live *inside* the owning worker and
  advance exactly once per computed round, so a healthy fleet is
  bit-identical to the sequential backend at any worker count, including
  sampled ``rows=`` cohorts;
* BatchNorm batch statistics come back in the trailers and are replayed
  onto the global model in ascending client order — the plan order every
  backend shares.

Failure semantics — the part that differs from the sequential backend: a
worker that dies, times out, or refuses mid-round does **not** raise.
The collector climbs a recovery ladder instead:

1. **retry** — connects go through
   :meth:`~repro.fl.transport.client.WorkerConnection.connect_with_retry`
   (bounded attempts, seeded exponential backoff + jitter), so transient
   refusals never cost a round;
2. **re-dispatch** — a failed worker's rows are recomputed on the
   surviving workers within the same round: the lost clients are merged
   into survivors' shards together with their last-known post-round RNG
   states (shipped in every trailer), so the recomputation is
   bit-identical to what the dead worker would have produced and the
   round completes with **zero** dropouts;
3. **demote** — rows that no survivor could recover stay NaN-invalidated
   and are reported in :attr:`failed_rows`; the simulation maps them onto
   the existing :class:`~repro.fl.participation.RoundPlan` dropout
   semantics (:meth:`~repro.fl.participation.RoundPlan.demote_to_dropped`),
   so the round completes with the surviving cohort.

On the next round the collector tries to reconnect; because the workers
report each client's post-round RNG state in their trailers, a
replacement worker resumes the lost clients' sampling streams exactly
where their last *completed* round left them — dropped rounds never
advance a client's stream, which keeps the run bit-identical to a
sequential run with the same dropout trace.  Exceptions raised by a
*client* inside a worker still propagate: a bug is a bug, not a dropout.

Only when no worker at all is reachable does :meth:`collect` raise — an
unreachable fleet is a deployment error, not a round-level failure.

A :class:`~repro.fl.faults.FaultSchedule` can be injected on the caller
side too (``fault_schedule=``): a spec targeting worker *w* at occurrence
*r* severs the link to that worker at the collector's *r*-th main collect
pass — the recovery ladder then runs exactly as it would for a real
failure.  (Worker-side injection — the ``repro-worker --fault`` flag —
exercises the same ladder from the other end.)
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fl.client import FederatedClient
from repro.fl.collector import (
    GradientCollector,
    _check_deterministic_forward,
    _replay_batch_stats,
    invalidate_buffer,
    resolve_rows,
)
from repro.fl.faults import FaultSchedule
from repro.fl.transport.client import WorkerConnection, parse_address
from repro.fl.transport.codec import (
    CodecError,
    build_codec,
    encode_state_dict,
)
from repro.fl.transport.fleet import spawn_local_fleet, start_thread_fleet
from repro.fl.transport.framing import DEFAULT_MAX_FRAME_BYTES, FrameError
from repro.fl.transport.protocol import HandshakeError, TransportError
from repro.nn.module import Module


class DistributedCollector(GradientCollector):
    """Collect the round's gradients from a fleet of TCP workers.

    Args:
        workers: worker specs (``"host:port"`` strings), one per worker.
            The population is split contiguously across them in this
            order.
        connect_timeout: socket timeout for connect/handshake/setup.
        round_timeout: how long to wait for one worker's round reply
            before declaring it failed (its rows enter the recovery
            ladder).  ``None`` waits forever.
        max_frame_bytes: per-frame receive ceiling.
        retry_attempts: connect attempts per worker per repair
            (:meth:`~repro.fl.transport.client.WorkerConnection.\
            connect_with_retry`); 1 disables retrying.
        retry_backoff: base backoff delay between connect attempts
            (exponential, jittered, capped at ``retry_backoff_max``).
        retry_backoff_max: ceiling on one backoff sleep.
        retry_seed: seed for the per-worker backoff-jitter streams (the
            jitter is the only randomness the collector owns).
        redispatch: when True (default), a failed worker's rows are
            recomputed on surviving workers before any demotion; False
            skips straight to dropout semantics (useful to *observe* the
            demote rung of the ladder).
        fault_schedule: deterministic caller-side fault injection — a
            spec for worker ``w`` at occurrence ``r`` severs that link at
            this collector's ``r``-th main collect pass.
        wire_codec: gradient wire codec for the shard frames (see
            :data:`~repro.fl.transport.codec.GRADIENT_CODECS`); the
            default ``raw`` keeps the pre-codec wire format byte for
            byte.  Lossy codecs trade the collect contract's
            bit-exactness for bandwidth — their bounded error is
            characterised in the codec docs and contract tests.
    """

    def __init__(
        self,
        workers: Sequence[str],
        *,
        connect_timeout: float = 10.0,
        round_timeout: Optional[float] = 120.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        retry_attempts: int = 3,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        retry_seed: int = 0,
        redispatch: bool = True,
        fault_schedule: Optional[FaultSchedule] = None,
        wire_codec: str = "raw",
    ):
        super().__init__(fault_schedule=fault_schedule)
        specs = [str(spec) for spec in workers]
        if not specs:
            raise ValueError("distributed collect requires at least one worker")
        for spec in specs:
            parse_address(spec)  # validate early, before any socket work
        if len(set(specs)) != len(specs):
            raise ValueError(f"duplicate worker specs: {specs}")
        self.worker_addresses = specs
        self.n_workers = len(specs)
        self.redispatch = bool(redispatch)
        # Validate the name up front; each connection builds its own
        # instance for the actual decoding.
        self.wire_codec = build_codec(wire_codec).name
        self._conns = [
            WorkerConnection(
                spec,
                connect_timeout=connect_timeout,
                round_timeout=round_timeout,
                max_frame_bytes=max_frame_bytes,
                retry_attempts=retry_attempts,
                retry_backoff=retry_backoff,
                retry_backoff_max=retry_backoff_max,
                # Independent jitter stream per worker, derived from one
                # seed, so retry timing is reproducible fleet-wide.
                retry_rng=np.random.default_rng([int(retry_seed), index]),
                wire_codec=self.wire_codec,
            )
            for index, spec in enumerate(specs)
        ]
        # True while the worker needs a (re-)setup before serving rounds:
        # initially, and again after any dropped connection — a worker that
        # stalled past the deadline may have advanced its clients' RNG
        # streams, so its in-memory shard can never be trusted again.
        self._needs_setup = [True] * self.n_workers
        self._chunks: List[np.ndarray] = []
        self._source_clients: Optional[Tuple[FederatedClient, ...]] = None
        self._source_model: Optional[Module] = None
        #: Latest known post-round RNG state per client id, fed into worker
        #: (re-)setups so resumed clients continue their streams bit-exactly.
        self._rng_states: Dict[int, dict] = {}
        #: Client ids whose gradients the last ``collect`` could not obtain
        #: because their worker died or timed out (rows left NaN).
        self.failed_rows: Tuple[int, ...] = ()
        #: ``(bytes_sent, bytes_received)`` across the last ``collect``.
        self.last_round_bytes: Tuple[int, int] = (0, 0)
        #: Client ids recovered by re-dispatch during the last ``collect``.
        self.last_round_redispatched: Tuple[int, ...] = ()
        #: Successful worker reconnects during the last ``collect``.
        self.last_round_reconnects: int = 0
        # Most recent permanent refusal (surfaced when the whole fleet turns
        # out unreachable — usually a codec/version mismatch, or a worker
        # started without --allow-pickle-setup).
        self._last_handshake_refusal: Optional[HandshakeError] = None

    # -- fleet management ----------------------------------------------------

    def _fleet_current(
        self, clients: Sequence[FederatedClient], model: Module
    ) -> bool:
        return bool(
            self._chunks
            and self._source_model is model
            and self._source_clients is not None
            and len(self._source_clients) == len(clients)
            and all(a is b for a, b in zip(self._source_clients, clients))
        )

    def _ensure_fleet(
        self, clients: Sequence[FederatedClient], model: Module
    ) -> None:
        if not self._fleet_current(clients, model):
            # New population or model: every worker gets a fresh shard and
            # all resume bookkeeping is discarded.
            for conn in self._conns:
                conn.close()
            self._needs_setup = [True] * self.n_workers
            self._chunks = np.array_split(np.arange(len(clients)), self.n_workers)
            self._rng_states = {}
            self._source_clients = tuple(clients)
            self._source_model = model
        for index, conn in enumerate(self._conns):
            if conn.connected and not self._needs_setup[index]:
                continue
            try:
                if not conn.connected:
                    conn.connect_with_retry(model)
                chunk = self._chunks[index]
                conn.setup(
                    model,
                    [int(i) for i in chunk],
                    [clients[i] for i in chunk],
                    {
                        int(i): self._rng_states[int(i)]
                        for i in chunk
                        if int(i) in self._rng_states
                    }
                    or None,
                )
                self._needs_setup[index] = False
            except HandshakeError as exc:
                # A refusal is permanent (wrong version or codec, or no
                # pickled SETUP); remember it so an all-refused fleet raises
                # the reason instead of a bare "unreachable".
                self._last_handshake_refusal = exc
                conn.drop()
                self._needs_setup[index] = True
            except (TransportError, FrameError, CodecError, OSError):
                conn.drop()
                self._needs_setup[index] = True

    # -- the collect contract ------------------------------------------------

    def collect(
        self,
        clients: Sequence[FederatedClient],
        model: Module,
        out: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        *,
        apply_batch_stats: bool = True,
    ) -> np.ndarray:
        subset = resolve_rows(clients, out, rows)
        _check_deterministic_forward(model, type(self).__name__)
        # Straggler passes share the main pass's fault clock: a fault spec's
        # "round" means "this collector's N-th round", not its N-th network
        # exchange.
        fault_round = self._advance_fault_round(apply_batch_stats)
        reconnects_before = sum(conn.reconnects for conn in self._conns)
        self._ensure_fleet(clients, model)
        if not any(conn.connected for conn in self._conns):
            detail = ""
            if self._last_handshake_refusal is not None:
                detail = f"; last refusal: {self._last_handshake_refusal}"
            raise TransportError(
                f"no distributed-collect worker reachable "
                f"(fleet: {self.worker_addresses}){detail}"
            )
        bytes_before = self._wire_totals()
        all_rows = np.arange(len(clients)) if subset is None else subset
        dim = out.shape[-1]
        # No NaN pre-fill: each slice is overwritten, or NaN-filled on failure.
        try:
            state_blob = encode_state_dict(model.state_dict())

            # Broadcast first (workers compute concurrently), gather second.
            failed: List[int] = []
            pending: List[Tuple[int, int, int]] = []  # (worker index, lo, hi)
            for index, conn in enumerate(self._conns):
                chunk = self._chunks[index]
                if not len(chunk):
                    continue
                lo = int(np.searchsorted(all_rows, chunk[0]))
                hi = int(np.searchsorted(all_rows, chunk[-1] + 1))
                if hi == lo:
                    continue  # none of this worker's clients participate
                if not conn.connected or self.fault_schedule.any_fires(
                    fault_round, index
                ):
                    # Not connected, or an injected fault severs the link
                    # before the broadcast: the worker never sees the round,
                    # so its clients' RNG streams stay untouched — recovery
                    # (or demotion) is bit-identical to a real dead link.
                    self._mark_failed(index, all_rows[lo:hi], out[lo:hi], failed)
                    continue
                try:
                    conn.begin_round(state_blob, all_rows[lo:hi], out.dtype, dim)
                    pending.append((index, lo, hi))
                except (TransportError, FrameError, CodecError, OSError):
                    self._mark_failed(index, all_rows[lo:hi], out[lo:hi], failed)

            # Fold in worker order, whichever reply came first.
            self.worker_timings = []
            stats_by_row: List[Tuple[int, list]] = []
            first_error: Optional[BaseException] = None
            for (index, lo, hi), reply in zip(pending, self._gather(pending, out)):
                if isinstance(reply, (TransportError, FrameError, CodecError, OSError)):
                    self._mark_failed(index, all_rows[lo:hi], out[lo:hi], failed)
                    continue
                if isinstance(reply, BaseException):
                    raise reply
                error = self._consume_trailer(
                    self._conns[index], reply, clients, stats_by_row
                )
                if error is not None and first_error is None:
                    first_error = error

            # Recovery rung 2: recompute the failed rows on surviving
            # workers before falling back to dropout demotion.
            self.last_round_redispatched = ()
            if failed and self.redispatch and first_error is None:
                recovered, error = self._redispatch(
                    clients, model, out, all_rows, sorted(failed),
                    state_blob, stats_by_row,
                )
                if error is not None:
                    first_error = error
                if recovered:
                    recovered_set = set(recovered)
                    failed = [row for row in failed if row not in recovered_set]
                    self.last_round_redispatched = tuple(sorted(recovered))
        except BaseException:
            # An unexpected error can leave any slice unwritten: trust none.
            invalidate_buffer(out)
            raise

        self.failed_rows = tuple(sorted(failed))
        self.last_round_reconnects = (
            sum(conn.reconnects for conn in self._conns) - reconnects_before
        )
        self.last_round_bytes = tuple(
            after - before for after, before in zip(self._wire_totals(), bytes_before)
        )
        if first_error is not None:
            raise first_error
        if apply_batch_stats:
            _replay_batch_stats(model, stats_by_row)
        return out

    def _consume_trailer(
        self,
        conn: WorkerConnection,
        trailer: Dict,
        clients: Sequence[FederatedClient],
        stats_by_row: List[Tuple[int, list]],
    ) -> Optional[BaseException]:
        """Fold one round trailer into the collect bookkeeping."""
        self.worker_timings.append(
            (conn.address, float(trailer["seconds"]), int(trailer["count"]))
        )
        for row, loss in trailer["losses"]:
            clients[row].last_loss = loss
        stats_by_row.extend(trailer["stats"])
        self._rng_states.update(trailer["rng_states"])
        return trailer["error"]

    def _redispatch(
        self,
        clients: Sequence[FederatedClient],
        model: Module,
        out: np.ndarray,
        all_rows: np.ndarray,
        failed: Sequence[int],
        state_blob: bytes,
        stats_by_row: List[Tuple[int, list]],
    ) -> Tuple[List[int], Optional[BaseException]]:
        """Recompute ``failed`` rows on surviving (or repaired) workers.

        The failed clients are merged into the survivors' shards together
        with their last-known post-round RNG states, so the recomputation
        is bit-identical to what their own worker would have produced —
        the dead worker never reported this round, so the lost streams
        stand at the previous completed round.  A survivor that dies
        during recovery forfeits only its re-dispatch group (its own rows
        are already gathered); there is no recursive retry.
        """
        # Give failed workers one repaired chance first: _ensure_fleet
        # reconnects under the bounded backoff policy and re-ships shards
        # with resumed streams, so a transient link blip rejoins here.
        self._ensure_fleet(clients, model)
        survivors = [
            index
            for index, conn in enumerate(self._conns)
            if conn.connected and not self._needs_setup[index]
        ]
        if not survivors:
            return [], None
        dim = out.shape[-1]
        groups = np.array_split(np.asarray(failed, dtype=int), len(survivors))
        recovered: List[int] = []
        first_error: Optional[BaseException] = None
        for index, group in zip(survivors, groups):
            if not len(group):
                continue
            conn = self._conns[index]
            ids = [int(i) for i in group]
            try:
                conn.extend(
                    ids,
                    [clients[i] for i in ids],
                    {i: self._rng_states[i] for i in ids if i in self._rng_states}
                    or None,
                )
                conn.begin_round(state_blob, ids, out.dtype, dim)
                scratch = np.empty((len(ids), dim), dtype=out.dtype)
                trailer = conn.finish_round(scratch)
            except (TransportError, FrameError, CodecError, OSError):
                conn.drop()
                self._needs_setup[index] = True
                continue
            # The recovered rows scatter back into the caller's buffer at
            # their plan positions (the groups are contiguous id ranges,
            # but their buffer rows need not be).
            out[np.searchsorted(all_rows, group)] = scratch
            error = self._consume_trailer(conn, trailer, clients, stats_by_row)
            if error is not None and first_error is None:
                first_error = error
            recovered.extend(ids)
        return recovered, first_error

    def client_rng_states(self) -> Dict[int, dict]:
        """Latest known post-round RNG state per client id (checkpointing).

        Worker-side streams are authoritative for every client that has
        completed at least one round; the caller's client objects still
        hold the correct (construction-time) state for the rest.
        """
        return dict(self._rng_states)

    def _gather(self, pending: list, out: np.ndarray) -> list:
        """Each pending worker's trailer or ``finish_round`` error, in order;
        one thread per worker, so none waits in ``sendall`` behind another."""

        def finish(job: Tuple[int, int, int]) -> Union[Dict, BaseException]:
            try:
                return self._conns[job[0]].finish_round(out[job[1] : job[2]])
            except BaseException as exc:
                return exc

        if len(pending) < 2:
            return [finish(job) for job in pending]
        with ThreadPoolExecutor(max_workers=len(pending)) as pool:
            return list(pool.map(finish, pending))

    def _mark_failed(
        self, index: int, rows: np.ndarray, block: np.ndarray, failed: List[int]
    ) -> None:
        """A worker died/timed out: drop its link, NaN its slice, record its rows."""
        self._conns[index].drop()
        self._needs_setup[index] = True
        invalidate_buffer(block)
        failed.extend(int(i) for i in rows)

    def _wire_totals(self) -> Tuple[int, int]:
        return (
            sum(conn.bytes_sent for conn in self._conns),
            sum(conn.bytes_received for conn in self._conns),
        )

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
        self._chunks = []
        self._source_clients = None
        self._source_model = None
        self._rng_states = {}
        self._needs_setup = [True] * self.n_workers


#: Local fleet kind → the helper that starts ``n_workers`` localhost
#: workers: in-process worker threads, or ``repro-worker`` subprocesses.
LOCAL_FLEETS = {"thread": start_thread_fleet, "process": spawn_local_fleet}


class LocalFleetCollector(GradientCollector):
    """A :class:`DistributedCollector` over a localhost fleet it owns.

    This is the ``"thread"`` and ``"process"`` collect backend: ``kind``
    picks :func:`~repro.fl.transport.fleet.start_thread_fleet` or
    :func:`~repro.fl.transport.fleet.spawn_local_fleet`, and ``options``
    are :class:`DistributedCollector` keyword arguments.  Bit-identity,
    BatchNorm replay, fault injection and the recovery ladder are the
    distributed backend's; this wrapper only owns the fleet's lifetime:

    * the fleet starts at the first :meth:`collect`, :meth:`close` stops
      it, and the next :meth:`collect` starts a fresh one (after a close,
      the caller's client objects are authoritative again, exactly as for
      :meth:`DistributedCollector.close`);
    * a model of another architecture is served by the same fleet: the
      engine reconnects and each connection ships its own shard;
    * :attr:`worker_timings` label workers by their index in the fleet, not
      by their ephemeral loopback address, so profiler stages stay
      ``collect_worker_0`` … ``collect_worker_<n_workers - 1>``.
    """

    def __init__(self, kind: str, n_workers: int, **options) -> None:
        if kind not in LOCAL_FLEETS:
            raise ValueError(
                f"local fleet kind must be one of {tuple(LOCAL_FLEETS)}, "
                f"got {kind!r}"
            )
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        super().__init__(fault_schedule=options.get("fault_schedule"))
        self.kind = kind
        self.n_workers = int(n_workers)
        self._options = options
        #: The running fleet (``None`` until the first collect and after
        #: :meth:`close`).
        self.fleet = None
        self._collector: Optional[DistributedCollector] = None

    def collect(
        self,
        clients: Sequence[FederatedClient],
        model: Module,
        out: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        *,
        apply_batch_stats: bool = True,
    ) -> np.ndarray:
        if self._collector is None:
            self.fleet = LOCAL_FLEETS[self.kind](self.n_workers)
            # Stops the workers at garbage collection or interpreter exit
            # should the caller never close this collector.
            self._stop_fleet = weakref.finalize(self, self.fleet.terminate)
            self._collector = DistributedCollector(
                self.fleet.addresses, **self._options
            )
            # The fault clock counts this collector's passes across fleet
            # restarts, like any other backend's.
            self._collector._fault_rounds = self._fault_rounds
        collector = self._collector
        try:
            return collector.collect(
                clients, model, out, rows, apply_batch_stats=apply_batch_stats
            )
        finally:
            labels = {address: i for i, address in enumerate(self.fleet.addresses)}
            self.worker_timings = [
                (labels[address], seconds, count)
                for address, seconds, count in collector.worker_timings
            ]
            self.failed_rows = collector.failed_rows
            self.last_round_bytes = collector.last_round_bytes
            self.last_round_redispatched = collector.last_round_redispatched
            self.last_round_reconnects = collector.last_round_reconnects
            self._fault_rounds = collector._fault_rounds

    def client_rng_states(self) -> Dict[int, dict]:
        if self._collector is None:
            return {}
        return self._collector.client_rng_states()

    def close(self) -> None:
        if self._collector is not None:
            self._collector.close()
            self._collector = None
        if self.fleet is not None:
            self._stop_fleet()
            self.fleet = None
