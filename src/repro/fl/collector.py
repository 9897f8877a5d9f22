"""Gradient collection strategies for the federated round.

``collect_gradients`` dominates the profiled round and the clients are
independent, so this module provides the collect stage as a pluggable
strategy with two engines:

* :class:`SequentialCollector` — the seed behaviour and the reference every
  other backend is checked against: one client after the other against the
  shared global model.
* :class:`~repro.fl.transport.collector.DistributedCollector` (in
  :mod:`repro.fl.transport`) — the one parallel engine: a fleet of
  ``repro-worker`` servers, each holding a shard of the population and a
  model replica, with a per-round state-dict broadcast and one raw-frame
  gather per worker.  A dead or timed-out worker walks the recovery ladder
  (retry, re-dispatch to survivors, demotion to round-plan dropouts).

The ``"thread"`` and ``"process"`` backends are that same engine over a
localhost fleet the collector owns
(:class:`~repro.fl.transport.collector.LocalFleetCollector`): worker
threads in this interpreter, or ``repro-worker`` subprocesses.

Determinism
-----------

The fleet backends are **bit-identical** to the sequential path at float64
(and at float32), regardless of scheduling, because

1. every client owns its batch-sampling RNG — a
   :class:`~repro.utils.rng.RngFactory` child stream seeded at construction
   time, *before* any dispatch — and is invoked exactly once per round, so
   its stream advances identically however work is interleaved;
2. worker replicas carry parameter and buffer values copied verbatim from
   the global model, so every client evaluates the same function in any
   mode; and
3. layers with non-parameter state updated during the forward pass
   (BatchNorm running statistics) log their per-batch statistics on the
   replicas, and the collector replays those updates onto the *global*
   model in client order after the round — the same floating-point
   operations, in the same order, the sequential path performs.  Evaluation
   metrics therefore match exactly between all backends.

Every backend computes its clients through
:func:`~repro.fl.client.compute_cohort_gradients` — the sequential loop and
each worker's shard loop alike.  It runs chunks of consecutive clients as
one grouped forward/backward pass when the client class keeps the default
``compute_gradient``, runs one local iteration, and the model supports the
grouped pass; every other client calls ``compute_gradient`` itself.  The
grouped pass keeps the client axis in every matmul (one gemm per client,
the per-client call's gemm), so it is byte-identical to the per-client
loop, and every client still samples its batch once through its own
loader: the three guarantees above hold on either path.

Models whose *forward pass itself* draws randomness from model-owned
generators (a ``Dropout`` layer holding its own RNG) cannot satisfy the
guarantee: the mask stream is consumed in client-visit order on the shared
sequential model but per-shard on each replica.  Rather than silently
diverging, the fleet backends detect such models and raise ``ValueError``
— run them with ``n_workers=1``.  (No built-in model uses Dropout in
federated rounds.)

Failure semantics
-----------------

The round buffer is preallocated and reused across rounds, so without
invalidation a client exception would leave it partially filled with the
*previous* round's gradients — a caller that catches the exception and
keeps going would silently aggregate stale rows.  With invalidation, rows
the failed round never produced are NaN and poison any downstream
aggregate instead.  The sequential backend fills on failure only: it
tracks the completed prefix ``[0, k)`` of the buffer and NaN-fills rows
``[k:]`` before re-raising, so a successful round writes every row once
(a full NaN pass is a buffer-sized write per round).  A fault-injected
outage NaN-fills the whole buffer.  The fleet backends fill on failure
only, too: a worker fills its shard's rows from a failing client on, and
the caller the slice of a worker that failed (all rows on an unexpected error).

Partial participation
---------------------

``collect`` accepts an optional ``rows`` argument — a strictly increasing
subset of client positions (a :class:`~repro.fl.participation.RoundPlan`'s
computing set).  Only those clients run, row ``k`` of the (now
cohort-sized) buffer holds ``clients[rows[k]]``'s gradient, and BatchNorm
statistics are replayed in buffer-row order, which equals ascending client
order for every backend.  Non-selected clients are never invoked, so their
RNG streams stay untouched and any participation schedule remains
bit-reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fl.client import FederatedClient, compute_cohort_gradients
from repro.fl.faults import FaultSchedule
from repro.nn.layers import _BatchNormBase
from repro.nn.module import Module
from repro.perf.timers import monotonic
from repro.utils.validation import check_integer_in_range

#: (worker_label, seconds, clients_processed) for one collect call.  The
#: label is the worker's integer index for the sequential and local-fleet
#: backends and the worker's ``host:port`` address for the distributed
#: backend; consumers must treat it as an opaque stage suffix, not an array
#: index.
WorkerTiming = Tuple[Union[int, str], float, int]

#: Per-client batch-norm statistics: one ``[(mean, var), ...]`` list (one
#: entry per training forward) per batch-norm module, in module order.
ClientBatchStats = List[List[Tuple[np.ndarray, np.ndarray]]]


def invalidate_buffer(out: np.ndarray) -> None:
    """NaN-fill a round buffer so stale rows from a prior round cannot leak."""
    out.fill(np.nan)


def resolve_rows(
    clients: Sequence[FederatedClient],
    out: np.ndarray,
    rows: Optional[Sequence[int]],
) -> Optional[np.ndarray]:
    """Validate a ``collect`` row subset against the population and buffer.

    ``None`` (collect everyone) requires a population-sized buffer; an
    explicit subset must be strictly increasing (the fixed buffer-row order
    every backend shares), in range, and match the buffer's row count.
    """
    if rows is None:
        if out.shape[0] != len(clients):
            raise ValueError(
                f"round buffer has {out.shape[0]} rows but {len(clients)} "
                "clients were passed (pass rows= to collect a subset)"
            )
        return None
    subset = np.asarray(rows, dtype=int).ravel()
    if len(subset) == 0:
        raise ValueError("rows must select at least one client")
    if len(subset) > 1 and np.any(np.diff(subset) <= 0):
        raise ValueError(f"rows must be strictly increasing, got {subset}")
    if subset[0] < 0 or subset[-1] >= len(clients):
        raise ValueError(
            f"rows {subset} out of range for {len(clients)} clients"
        )
    if out.shape[0] != len(subset):
        raise ValueError(
            f"round buffer has {out.shape[0]} rows but {len(subset)} rows "
            "were selected"
        )
    return subset


def _batch_stat_modules(model: Module) -> List[_BatchNormBase]:
    """Sub-modules whose training forward updates running statistics."""
    return [m for m in model.modules() if isinstance(m, _BatchNormBase)]


def _replay_batch_stats(
    model: Module, stats_by_row: List[Tuple[int, ClientBatchStats]]
) -> None:
    """Replay recorded per-client batch statistics onto ``model``.

    Applies the exact exponential-moving-average updates the sequential path
    would have performed, in client order, so the global model's buffers are
    bit-identical between backends.
    """
    modules = _batch_stat_modules(model)
    for _, per_module in sorted(stats_by_row, key=lambda item: item[0]):
        for module, forwards in zip(modules, per_module):
            for mean, var in forwards:
                module.apply_batch_stats(mean, var)


def _collect_sequential(
    clients: Sequence[FederatedClient],
    model: Module,
    out: np.ndarray,
    rows: Optional[np.ndarray] = None,
    apply_batch_stats: bool = True,
) -> List[WorkerTiming]:
    """The shared sequential loop; returns a single pseudo-worker timing.

    ``apply_batch_stats=False`` restores the model's BatchNorm running
    statistics afterwards (the training forward rebinds, never mutates, the
    buffer arrays, so saving the references suffices) — used for straggler
    gradients, whose discarded submission must not leak state into the
    global model.
    """
    saved_stats = (
        []
        if apply_batch_stats
        else [
            (module, module.running_mean, module.running_var)
            for module in _batch_stat_modules(model)
        ]
    )
    start = monotonic()
    chosen = clients if rows is None else [clients[row] for row in rows]
    done = 0

    def on_done(stop: int) -> None:
        nonlocal done
        done = stop

    try:
        compute_cohort_gradients(chosen, model, out, on_done=on_done)
    except BaseException:
        # Rows [0, done) hold this round's gradients; everything after may
        # still hold the previous round's.
        invalidate_buffer(out[done:])
        raise
    finally:
        for module, running_mean, running_var in saved_stats:
            module.running_mean = running_mean
            module.running_var = running_var
    return [(0, monotonic() - start, len(chosen))]


def _stochastic_forward_modules(model: Module) -> List[str]:
    """Names of sub-modules whose forward pass consumes a model-owned RNG."""
    return [
        type(module).__name__
        for module in model.modules()
        if any(
            isinstance(value, np.random.Generator) for value in vars(module).values()
        )
    ]


def _check_deterministic_forward(model: Module, backend: str) -> None:
    stochastic = _stochastic_forward_modules(model)
    if stochastic:
        raise ValueError(
            f"{backend} cannot guarantee sequential-equivalent results for "
            f"models with RNG-consuming layers ({stochastic}): the mask "
            "stream would be consumed per worker replica instead of in "
            "client order. Use n_workers=1 for this model."
        )


class GradientCollector:
    """Strategy interface: fill a preallocated ``(n_clients, dim)`` buffer.

    Subclasses implement :meth:`collect`; after it returns,
    :attr:`worker_timings` describes how the round's work was split across
    workers (a single pseudo-worker for the sequential strategy), which the
    simulation feeds into the round profiler as per-worker stages.
    """

    n_workers: int = 1

    #: Client ids the last ``collect`` failed to obtain gradients for —
    #: empty for the sequential backend unless a
    #: :class:`~repro.fl.faults.FaultSchedule` injected a failure; the
    #: fleet backends report dead/timed-out workers' unrecovered rows here
    #: so the simulation can demote them to ``RoundPlan`` dropouts.
    failed_rows: Tuple[int, ...] = ()

    #: ``(bytes_sent, bytes_received)`` on the wire for the last
    #: ``collect`` — (0, 0) for the sequential backend.
    last_round_bytes: Tuple[int, int] = (0, 0)

    #: Client ids the last ``collect`` recovered by re-dispatching to
    #: surviving workers — only the fleet backends ever recover.
    last_round_redispatched: Tuple[int, ...] = ()

    #: Successful worker reconnects during the last ``collect``.
    last_round_reconnects: int = 0

    def __init__(self, *, fault_schedule: Optional[FaultSchedule] = None) -> None:
        self.worker_timings: List[WorkerTiming] = []
        #: Deterministic fault injection: a spec for worker ``w`` at
        #: occurrence ``r`` makes that worker's rows fail (uncomputed, RNG
        #: streams untouched) at this collector's ``r``-th main collect
        #: pass.  The fleet backends sever the worker's link and run the
        #: recovery ladder; the sequential backend has nothing to
        #: re-dispatch to, so a fault there is a total outage.
        self.fault_schedule = fault_schedule or FaultSchedule()
        self._fault_rounds = 0

    def _advance_fault_round(self, apply_batch_stats: bool) -> int:
        """The fault-schedule clock: occurrences count main collect passes.

        A straggler pass (``apply_batch_stats=False``) belongs to the
        round that spawned it, so it reuses the current tick.
        """
        if apply_batch_stats:
            self._fault_rounds += 1
        return self._fault_rounds

    def client_rng_states(self) -> Dict[int, dict]:
        """Latest known per-client RNG states held *outside* the caller.

        Backends whose client batch-sampler streams live in workers (the
        fleet backends) report them here so checkpoints capture the
        authoritative state; ``{}`` means the caller's client objects are
        authoritative (sequential, or a fleet backend after ``close()``).
        """
        return {}

    def collect(
        self,
        clients: Sequence[FederatedClient],
        model: Module,
        out: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        *,
        apply_batch_stats: bool = True,
    ) -> np.ndarray:
        """Compute client gradients at ``model`` into ``out`` and return it.

        With ``rows=None`` every client computes and row ``i`` of ``out``
        holds client ``i``'s gradient.  With an explicit (strictly
        increasing) ``rows`` subset only those clients compute and row
        ``k`` holds ``clients[rows[k]]``'s gradient; the other clients are
        never invoked.

        ``apply_batch_stats=False`` leaves the global model's BatchNorm
        running statistics untouched by this call (client RNG streams still
        advance) — the straggler semantics: a discarded submission must not
        leak normalization state into the server model.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "GradientCollector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialCollector(GradientCollector):
    """The seed collect loop: every client runs against the shared model."""

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
        self.failed_rows = ()
        fault_round = self._advance_fault_round(apply_batch_stats)
        if self.fault_schedule.any_fires(fault_round, 0):
            # The single pseudo-worker owns every row: a fault here is a
            # total outage.  Nothing computes, no RNG stream advances.
            invalidate_buffer(out)
            self.failed_rows = tuple(
                range(len(clients)) if subset is None else (int(r) for r in subset)
            )
            self.worker_timings = [(0, 0.0, 0)]
            return out
        self.worker_timings = _collect_sequential(
            clients, model, out, subset, apply_batch_stats
        )
        return out


#: Collect backend names accepted by :func:`make_collector` and
#: :class:`~repro.utils.config.TrainingConfig`, in documented order.
COLLECT_BACKENDS = ("sequential", "thread", "process", "distributed")


def check_collect_options(
    backend: str,
    n_workers: int,
    workers: Optional[Sequence[str]],
    wire_codec: str,
) -> str:
    """Validate a collect configuration; return the canonical backend name.

    The one copy of the collect rules, shared by
    :meth:`~repro.utils.config.TrainingConfig.validate` and
    :func:`make_collector`: ``backend`` is one of :data:`COLLECT_BACKENDS`
    (case-insensitive), ``n_workers >= 1``, ``workers`` (``host:port``
    specs) is required by ``"distributed"`` and refused elsewhere, and a
    ``wire_codec`` other than ``"raw"`` also needs ``"distributed"`` — the
    local fleets ship raw frames.
    """
    name = str(backend).strip().lower()
    if name not in COLLECT_BACKENDS:
        raise ValueError(
            f"unknown collect_backend {backend!r}: collect backend must be "
            f"one of {COLLECT_BACKENDS}"
        )
    check_integer_in_range(n_workers, "n_workers", minimum=1)
    # Function-scope imports: the transport subsystem imports this module.
    from repro.fl.transport.client import parse_address
    from repro.fl.transport.codec import wire_codec_names

    if name == "distributed":
        if not workers:
            raise ValueError(
                "collect_backend='distributed' requires workers=['host:port', ...]"
            )
        for spec in workers:
            parse_address(spec)
    elif workers:
        raise ValueError(
            "workers= is only meaningful with collect_backend='distributed' "
            f"(got collect_backend={name!r})"
        )
    if wire_codec not in wire_codec_names():
        raise ValueError(
            f"wire_codec must be one of {wire_codec_names()}, got {wire_codec!r}"
        )
    if wire_codec != "raw" and name != "distributed":
        raise ValueError(
            "wire_codec= is only meaningful with collect_backend="
            "'distributed' — the local fleets ship raw frames "
            f"(got collect_backend={name!r})"
        )
    return name


def make_collector(
    *,
    backend: str = "thread",
    n_workers: int = 1,
    workers: Optional[Sequence[str]] = None,
    connect_timeout: float = 10.0,
    round_timeout: Optional[float] = 120.0,
    wire_codec: str = "raw",
    fault_schedule: Optional[FaultSchedule] = None,
    redispatch: bool = True,
    retry_seed: int = 0,
) -> GradientCollector:
    """Build the collect strategy these options describe (the one constructor).

    The options are checked by :func:`check_collect_options`, the rules
    :class:`~repro.utils.config.TrainingConfig` enforces, so a setting
    this constructor would not use raises instead of being dropped.

    ``n_workers == 1`` (or ``backend="sequential"``) gives the sequential
    strategy; otherwise ``"thread"`` and ``"process"`` give a
    :class:`~repro.fl.transport.collector.LocalFleetCollector` over
    ``n_workers`` localhost worker threads or ``repro-worker``
    subprocesses.  ``"distributed"`` ignores ``n_workers`` and drives the
    fleet named by ``workers`` (``host:port`` specs) through a
    :class:`~repro.fl.transport.collector.DistributedCollector`, whose
    shard frames travel in ``wire_codec``.

    ``connect_timeout``/``round_timeout``/``redispatch``/``retry_seed``
    shape every fleet backend's recovery ladder and are ignored by the
    sequential backend; ``fault_schedule`` injects deterministic faults
    into any backend.
    """
    name = check_collect_options(backend, n_workers, workers, wire_codec)
    if name == "sequential" or (name != "distributed" and n_workers == 1):
        return SequentialCollector(fault_schedule=fault_schedule)
    fleet_options: Dict[str, Any] = {
        "connect_timeout": connect_timeout,
        "round_timeout": round_timeout,
        "fault_schedule": fault_schedule,
        "redispatch": redispatch,
        "retry_seed": retry_seed,
    }
    from repro.fl.transport.collector import DistributedCollector, LocalFleetCollector

    if name != "distributed":
        return LocalFleetCollector(name, int(n_workers), **fleet_options)
    return DistributedCollector(
        list(workers or ()), wire_codec=wire_codec, **fleet_options
    )
