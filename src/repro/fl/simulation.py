"""The federated-learning simulation loop (Algorithm 1 of the paper).

Rounds are *participation-aware*: a pluggable
:class:`~repro.fl.participation.ParticipationSchedule` produces a
:class:`~repro.fl.participation.RoundPlan` each round (sampled cohort,
dropouts, stragglers), the collect stage computes only the participating
clients' gradients into a cohort-sized slice of the preallocated round
buffer, the attack sees the Byzantine positions *within the cohort*, and the
defense aggregates a per-round-sized gradient matrix.  The default schedule
(full participation, no failures) is bit-identical to the original
fixed-population loop.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.data.datasets import ArrayDataset
from repro.fl.checkpoint import Checkpoint, save_checkpoint
from repro.fl.client import BenignClient, ByzantineClient, FederatedClient
from repro.fl.collector import GradientCollector, make_collector
from repro.fl.faults import (
    QUORUM_POLICIES,
    FaultSchedule,
    FleetOutageError,
    QuorumLossError,
)
from repro.fl.metrics import evaluate_model, selection_confusion
from repro.fl.participation import (
    ParticipationSchedule,
    RoundPlan,
    build_participation,
    scaled_byzantine_hint,
)
from repro.fl.server import FederatedServer
from repro.nn.module import Module
from repro.perf.profiler import NULL_PROFILER, RoundProfiler
from repro.utils.recording import RoundRecord, RunRecorder
from repro.utils.rng import RngFactory
from repro.utils.validation import check_byzantine_count


class FederatedSimulation:
    """Synchronous federated training with Byzantine clients and a defense.

    This is the lowest-level runner: it takes already-constructed clients, a
    server (model + defense + optimizer), and an attack, and runs rounds.
    Most callers go through :func:`repro.fl.experiment.run_experiment`, which
    builds all the pieces from an :class:`~repro.utils.config.ExperimentConfig`.

    Args:
        server: the federated server (global model, defense, optimizer).
        clients: the full client population (benign and Byzantine mixed).
        attack: the attack mounted by the Byzantine clients.
        test_dataset: held-out data for accuracy evaluation.
        attack_rng: randomness available to the attacker.  When omitted, a
            deterministic stream is derived from ``seed`` (direct
            ``FederatedSimulation`` users get reproducible runs just like
            ``run_experiment`` users do).
        eval_every: evaluate test accuracy every this many rounds.
        lr_decay: multiplicative learning-rate decay applied per round.
        dtype: dtype of the round gradient buffer (``np.float64`` by
            default; ``np.float32`` halves memory traffic through the whole
            filtering/aggregation path at reduced precision).  The global
            model's own dtype controls the precision clients *compute* in;
            :func:`~repro.fl.experiment.run_experiment` keeps the two in
            sync.
        n_workers: worker count for the collect stage.  1 (the default)
            keeps the seed's sequential loop; larger values fan the clients
            over the configured backend, which is bit-identical to the
            sequential path (see :mod:`repro.fl.collector`).  Ignored when
            ``collector`` is given.
        collect_backend: collect strategy — ``"thread"`` (default, a
            localhost fleet of worker threads), ``"process"`` (a localhost
            fleet of ``repro-worker`` subprocesses, for GIL-bound compute),
            ``"distributed"`` (a TCP fleet of ``repro-worker`` hosts given
            by ``workers``), or ``"sequential"`` (force the seed loop).
            Ignored when ``collector`` is given.
        workers: ``host:port`` specs of the ``repro-worker`` fleet for the
            distributed backend (ignored otherwise).  On every fleet
            backend, a worker that dies or times out mid-round walks the
            recovery ladder (reconnect → re-dispatch to survivors → demote
            its clients to dropouts in the round's plan) instead of
            crashing the run.
        connect_timeout: fleet backends only — socket timeout for worker
            connect/handshake.
        round_timeout: fleet backends only — deadline for a worker's round
            reply (``None`` waits forever).
        wire_codec: distributed backend only — the gradient wire codec its
            shard frames travel in (``"raw"`` default; see
            :mod:`repro.fl.transport.codec`).
        fault_schedule: a :class:`~repro.fl.faults.FaultSchedule` of
            deterministic injected faults, honoured by every backend
            (ignored when ``collector`` is given — configure the collector
            directly).
        redispatch: fleet backends only — when True (default), a dead
            worker's rows are recomputed by surviving workers before any
            dropout demotion.
        min_cohort_fraction: quorum threshold — the round must end with at
            least ``ceil(min_cohort_fraction * cohort_size)`` active
            (aggregating) clients, else ``on_quorum_loss`` applies.  0
            (default) disables the check.
        on_quorum_loss: ``"accept"`` (default) records the round with
            ``quorum_met=False`` and keeps going; ``"retry"`` redraws the
            participation plan and recollects up to ``quorum_retries``
            times before raising; ``"abort"`` raises
            :class:`~repro.fl.faults.QuorumLossError` immediately.  A
            fleet outage (no gradients at all) is retried under
            ``"retry"`` and raised otherwise.
        quorum_retries: extra collect attempts granted by
            ``on_quorum_loss="retry"``.
        collector: an explicit :class:`~repro.fl.collector.GradientCollector`
            strategy, overriding ``n_workers`` and ``collect_backend``.
        participation: which clients train each round — a schedule name
            (``"full"``, ``"uniform"``, ``"fixed_cohort"``) or an explicit
            :class:`~repro.fl.participation.ParticipationSchedule` instance
            (which then owns all sampling knobs).
        participation_fraction: cohort fraction for ``"uniform"`` sampling.
        cohort_size: cohort size for ``"fixed_cohort"`` sampling.
        dropout_rate: per-round probability that a sampled client fails
            before computing (its RNG stream stays untouched).
        straggler_rate: per-round probability that a surviving sampled
            client computes (RNG advances) but misses the deadline and is
            excluded from aggregation.
        participation_rng: the schedule's randomness; defaults to a
            deterministic stream derived from ``seed``.
        seed: seed for the default attacker/participation streams when the
            explicit generators are not given.
        profiler: optional :class:`~repro.perf.profiler.RoundProfiler`; when
            given, every round records "collect_gradients", per-worker
            "collect_worker_<i>", "attack", and "evaluate" stages here (the
            server adds "aggregate" and "model_update" when it shares the
            profiler), and the round totals are annotated with the cohort
            size, sampled Byzantine count, dropouts, and stragglers.
    """

    def __init__(
        self,
        server: FederatedServer,
        clients: Sequence[FederatedClient],
        attack: Attack,
        test_dataset: ArrayDataset,
        *,
        attack_rng=None,
        eval_every: int = 1,
        lr_decay: float = 1.0,
        description: str = "",
        dtype=np.float64,
        n_workers: int = 1,
        collect_backend: str = "thread",
        workers: Optional[Sequence[str]] = None,
        collector: Optional[GradientCollector] = None,
        connect_timeout: float = 10.0,
        round_timeout: Optional[float] = 120.0,
        wire_codec: str = "raw",
        fault_schedule: Optional[FaultSchedule] = None,
        redispatch: bool = True,
        min_cohort_fraction: float = 0.0,
        on_quorum_loss: str = "accept",
        quorum_retries: int = 2,
        participation: Union[str, ParticipationSchedule] = "full",
        participation_fraction: float = 1.0,
        cohort_size: Optional[int] = None,
        dropout_rate: float = 0.0,
        straggler_rate: float = 0.0,
        participation_rng=None,
        seed: int = 0,
        profiler: Optional[RoundProfiler] = None,
    ):
        if not clients:
            raise ValueError("at least one client is required")
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        if not 0.0 <= min_cohort_fraction <= 1.0:
            raise ValueError(
                f"min_cohort_fraction must be in [0, 1], got {min_cohort_fraction}"
            )
        if on_quorum_loss not in QUORUM_POLICIES:
            raise ValueError(
                f"on_quorum_loss must be one of {QUORUM_POLICIES}, "
                f"got {on_quorum_loss!r}"
            )
        if quorum_retries < 0:
            raise ValueError(f"quorum_retries must be >= 0, got {quorum_retries}")
        self.min_cohort_fraction = float(min_cohort_fraction)
        self.on_quorum_loss = on_quorum_loss
        self.quorum_retries = int(quorum_retries)
        self.server = server
        self.clients: List[FederatedClient] = list(clients)
        self.attack = attack
        self.test_dataset = test_dataset
        self.eval_every = eval_every
        self.lr_decay = lr_decay
        self.dtype = dtype
        self.collector = (
            collector
            if collector is not None
            else make_collector(
                n_workers=n_workers,
                backend=collect_backend,
                workers=workers,
                connect_timeout=connect_timeout,
                round_timeout=round_timeout,
                wire_codec=wire_codec,
                fault_schedule=fault_schedule,
                redispatch=redispatch,
                retry_seed=seed,
            )
        )
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.recorder = RunRecorder(description=description)
        rng_factory = RngFactory(seed)
        self._attack_rng = (
            attack_rng if attack_rng is not None else rng_factory.make("attack")
        )
        if isinstance(participation, ParticipationSchedule):
            self.schedule = participation
        else:
            self.schedule = build_participation(
                participation,
                participation_fraction=participation_fraction,
                cohort_size=cohort_size,
                dropout_rate=dropout_rate,
                straggler_rate=straggler_rate,
                rng=(
                    participation_rng
                    if participation_rng is not None
                    else rng_factory.make("participation")
                ),
            )
        # Preallocated (n_clients, dim) round buffer, reused across rounds;
        # partial rounds use a cohort-sized leading slice of it.
        self._round_buffer: Optional[np.ndarray] = None
        byzantine = [c.client_id for c in self.clients if c.is_byzantine]
        self.byzantine_indices = np.asarray(sorted(byzantine), dtype=int)
        if len(self.byzantine_indices):
            check_byzantine_count(len(self.byzantine_indices), len(self.clients))

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def model(self) -> Module:
        return self.server.model

    def _collect_honest_gradients(self, plan: RoundPlan) -> tuple:
        """The active clients' honest gradients at the current model.

        Gradients are written into the leading ``(num_active, dim)`` slice
        of the preallocated round buffer (reused across rounds) by the
        configured :class:`~repro.fl.collector.GradientCollector`; row
        ``k`` holds the gradient of client ``plan.active[k]``.
        Non-participating clients are never invoked, so their RNG streams
        stay untouched.  Stragglers are collected afterwards into a scratch
        slice with ``apply_batch_stats=False``: their RNG streams advance
        and their compute time is spent, but neither their gradient nor
        their BatchNorm statistics reach the server — the whole discarded
        submission stays discarded.

        Returns ``(buffer, plan, stats)``.  The returned plan differs from
        the argument only when the collector reported rows it could not
        obtain (a fleet worker died or timed out and re-dispatch
        could not recover the rows): those clients are demoted to
        dropouts, their NaN rows are compacted out of the buffer, and the
        round continues with the survivors.  ``stats`` carries the
        recovery counters (re-dispatched rows, reconnects) for the round
        record.  Raises :class:`~repro.fl.faults.FleetOutageError` when
        *every* row failed — no gradients at all is an outage, not a
        dropout.
        """
        full = self._round_buffer
        if full is None:
            dim = self.model.num_parameters()
            full = np.empty((self.num_clients, dim), dtype=self.dtype)
            self._round_buffer = full
        buffer = full[: plan.num_active]
        rows = None if plan.is_full_round else plan.active
        self.collector.collect(self.clients, self.model, buffer, rows=rows)
        timings = list(self.collector.worker_timings)
        wire = list(self.collector.last_round_bytes)
        failed = tuple(self.collector.failed_rows)
        stats = {
            "num_redispatched": len(self.collector.last_round_redispatched),
            "num_reconnects": int(self.collector.last_round_reconnects),
        }
        if failed:
            if len(failed) == plan.num_active:
                raise FleetOutageError(
                    "every collect worker failed this round; no gradients "
                    "were obtained — treat this as a fleet outage, not a "
                    "dropout"
                )
            # Compact the surviving rows to the front of the round buffer
            # (fancy indexing copies, so the overlapping move is safe), then
            # demote the failed clients in the plan.
            keep = np.flatnonzero(~np.isin(plan.active, failed))
            buffer[: len(keep)] = buffer[keep]
            plan = plan.demote_to_dropped(failed)
            buffer = full[: plan.num_active]
        if plan.num_stragglers:
            scratch = full[plan.num_active : plan.num_active + plan.num_stragglers]
            self.collector.collect(
                self.clients,
                self.model,
                scratch,
                rows=plan.stragglers,
                apply_batch_stats=False,
            )
            # A worker failure during the straggler pass needs no demotion:
            # straggler submissions are discarded either way.
            timings.extend(self.collector.worker_timings)
            wire = [a + b for a, b in zip(wire, self.collector.last_round_bytes)]
        profiler = self.profiler
        if profiler.enabled:
            for worker_index, seconds, _ in timings:
                profiler.record(f"collect_worker_{worker_index}", seconds)
            if any(wire):
                profiler.count("collect_bytes_sent", wire[0])
                profiler.count("collect_bytes_received", wire[1])
                profiler.annotate(
                    collect_bytes_sent=wire[0], collect_bytes_received=wire[1]
                )
            if stats["num_redispatched"]:
                profiler.count("collect_redispatched", stats["num_redispatched"])
                profiler.annotate(collect_redispatched=stats["num_redispatched"])
            if stats["num_reconnects"]:
                profiler.count("collect_reconnects", stats["num_reconnects"])
                profiler.annotate(collect_reconnects=stats["num_reconnects"])
        return buffer, plan, stats

    def _quorum_size(self, plan: RoundPlan) -> int:
        return math.ceil(self.min_cohort_fraction * plan.cohort_size)

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one synchronous federated round and return its record.

        The collect stage runs under the quorum policy: when the round ends
        with fewer active clients than ``min_cohort_fraction`` requires (or
        with none at all — a fleet outage), ``on_quorum_loss`` decides
        whether to accept the degraded round, redraw the plan and retry, or
        raise.
        """
        profiler = self.profiler
        profiler.begin_round(round_index)
        retries = 0
        while True:
            plan = self.schedule.plan(round_index, self.num_clients)
            may_retry = self.on_quorum_loss == "retry" and retries < self.quorum_retries
            try:
                with profiler.stage("collect_gradients"):
                    submitted_honest, plan, collect_stats = (
                        self._collect_honest_gradients(plan)
                    )
            except FleetOutageError:
                if not may_retry:
                    raise
                retries += 1
                continue
            quorum_met = plan.num_active >= self._quorum_size(plan)
            if quorum_met or self.on_quorum_loss == "accept":
                break
            if may_retry:
                retries += 1
                continue
            raise QuorumLossError(
                f"round {round_index} ended with {plan.num_active} active "
                f"clients, below the quorum of {self._quorum_size(plan)} "
                f"({self.min_cohort_fraction:.0%} of the {plan.cohort_size}"
                f"-client cohort) after {retries} retries"
            )
        byzantine_positions = plan.byzantine_positions(self.byzantine_indices)
        context = AttackContext(
            round_index=round_index,
            num_clients=plan.num_active,
            byzantine_indices=byzantine_positions,
            rng=self._attack_rng,
        )
        with profiler.stage("attack"):
            # The base class's apply writes in place: nothing reads the
            # honest rows after the attack, and the next collect overwrites
            # every row.  An attack that overrides apply keeps the old
            # two-argument call (decided from the class, so an instance
            # wrapper such as a tracer's span changes nothing).
            if type(self.attack).apply is Attack.apply:
                submitted = self.attack.apply(
                    submitted_honest, context, out=submitted_honest
                )
            else:
                submitted = self.attack.apply(submitted_honest, context)
        result = self.server.aggregate_and_update(
            submitted,
            num_byzantine_hint=scaled_byzantine_hint(
                self.server.num_byzantine_hint, plan.num_active, self.num_clients
            ),
        )

        confusion = selection_confusion(
            result.selected_indices, byzantine_positions, plan.num_active
        )
        selected_global = plan.active[np.asarray(result.selected_indices, dtype=int)]
        # Loss is averaged over the *reporting* clients: a straggler's local
        # loss never reached the server, so it cannot enter the round record.
        reporting_clients = [self.clients[i] for i in plan.active]
        benign_losses = [
            client.last_loss for client in reporting_clients if not client.is_byzantine
        ] or [client.last_loss for client in reporting_clients]
        record = RoundRecord(
            round_index=round_index,
            train_loss=float(np.mean(benign_losses)),
            selected_clients=tuple(int(i) for i in selected_global),
            attack_name=getattr(self.attack, "name", "unknown"),
            cohort_size=plan.cohort_size,
            num_dropped=plan.num_dropped,
            num_stragglers=plan.num_stragglers,
            # Only record explicit cohort ids when they carry information: a
            # population-sized cohort is derivable from cohort_size and
            # would bloat every serialized full-participation record.
            cohort_clients=(
                ()
                if plan.cohort_size == self.num_clients
                else tuple(int(i) for i in plan.cohort)
            ),
            num_redispatched=collect_stats["num_redispatched"],
            num_reconnects=collect_stats["num_reconnects"],
            num_retries=retries,
            quorum_met=quorum_met,
            **confusion,
        )
        if (round_index + 1) % self.eval_every == 0:
            with profiler.stage("evaluate"):
                accuracy, test_loss = evaluate_model(self.model, self.test_dataset)
            record.test_accuracy = accuracy
            record.test_loss = test_loss
        if self.lr_decay != 1.0:
            self.server.learning_rate *= self.lr_decay
        if profiler.enabled:
            profiler.annotate(
                cohort_size=plan.cohort_size,
                num_active=plan.num_active,
                num_dropped=plan.num_dropped,
                num_stragglers=plan.num_stragglers,
                byzantine_in_cohort=len(byzantine_positions),
            )
            if retries:
                profiler.annotate(collect_retries=retries)
            if not quorum_met:
                profiler.annotate(quorum_met=False)
        profiler.end_round()
        return record

    def capture_checkpoint(
        self, *, config: Optional[Dict[str, Any]] = None
    ) -> Checkpoint:
        """Snapshot every piece of mutable run state into a checkpoint.

        The snapshot is decoupled from the live run (arrays copied, RNG
        states captured by value), so continuing to train does not mutate
        it.  For the fleet backends, whose client batch-sampler streams
        live in the workers, the workers' last reported states override
        the caller's (stale) client objects.

        Args:
            config: an ``ExperimentConfig.to_dict()`` echo stored in the
                checkpoint so a resume under a different config can be
                refused.
        """
        optimizer_state = self.server.optimizer.state_dict()
        schedule_rng = getattr(self.schedule, "_rng", None)
        client_states: Dict[int, Dict[str, Any]] = {
            client.client_id: client.loader.rng_state for client in self.clients
        }
        client_states.update(self.collector.client_rng_states())
        previous = self.server._previous_gradient
        return Checkpoint(
            rounds_completed=len(self.recorder.rounds),
            model_state=self.model.state_dict(),
            velocities=optimizer_state["velocities"],
            learning_rate=optimizer_state["lr"],
            previous_gradient=None if previous is None else previous.copy(),
            server_round_index=int(self.server.round_index),
            server_rng_state=self.server._rng.bit_generator.state,
            attack_rng_state=self._attack_rng.bit_generator.state,
            participation_rng_state=(
                None if schedule_rng is None else schedule_rng.bit_generator.state
            ),
            client_rng_states=client_states,
            attack_state=self.attack.state_dict(),
            recorder_state=self.recorder.to_dict(),
            config=config,
        )

    def restore_checkpoint(self, checkpoint: Checkpoint) -> int:
        """Rewind this simulation to ``checkpoint``; return the next round.

        The simulation must have been built from the same configuration
        that produced the checkpoint (same model architecture, population,
        schedule kind, attack) — only *mutable* state is restored here;
        everything structural is the caller's responsibility
        (:func:`repro.fl.experiment.run_experiment` verifies the config
        echo).  The collector is closed so its workers are rebuilt from
        the restored client states on the next round.
        """
        self.model.load_state_dict(checkpoint.model_state)
        self.server.optimizer.load_state_dict(
            {
                "lr": checkpoint.learning_rate,
                "velocities": checkpoint.velocities,
            }
        )
        previous = checkpoint.previous_gradient
        self.server._previous_gradient = None if previous is None else previous.copy()
        self.server.round_index = int(checkpoint.server_round_index)
        self.server._rng.bit_generator.state = checkpoint.server_rng_state
        self._attack_rng.bit_generator.state = checkpoint.attack_rng_state
        schedule_rng = getattr(self.schedule, "_rng", None)
        if checkpoint.participation_rng_state is not None:
            if schedule_rng is None:
                raise ValueError(
                    "checkpoint carries a participation RNG state but this "
                    "simulation's schedule draws no randomness — was it "
                    "built from a different config?"
                )
            schedule_rng.bit_generator.state = checkpoint.participation_rng_state
        self.attack.load_state_dict(checkpoint.attack_state)
        for client in self.clients:
            state = checkpoint.client_rng_states.get(client.client_id)
            if state is not None:
                client.loader.rng_state = state
        self.recorder = RunRecorder.from_dict(checkpoint.recorder_state or {})
        # Drop worker-held copies of model/client state: the next collect
        # rebuilds the fleet from the restored objects above.
        self.collector.close()
        return int(checkpoint.rounds_completed)

    def run(
        self,
        rounds: int,
        *,
        start_round: int = 0,
        checkpoint_every: Optional[int] = None,
        checkpoint_path=None,
        checkpoint_config: Optional[Dict[str, Any]] = None,
    ) -> RunRecorder:
        """Run federated rounds ``start_round .. rounds-1``, recording each.

        Args:
            start_round: first round index to execute — nonzero when
                resuming from a checkpoint (the earlier rounds' history
                lives in the restored recorder).
            checkpoint_every: snapshot the run every this many rounds (and
                after the final round).  Requires ``checkpoint_path``.
            checkpoint_path: where the checkpoint file is (atomically)
                written; each save replaces the previous one.
            checkpoint_config: config echo stored in every checkpoint.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if not 0 <= start_round <= rounds:
            raise ValueError(
                f"start_round must be in [0, {rounds}], got {start_round}"
            )
        if (checkpoint_every is None) != (checkpoint_path is None):
            raise ValueError(
                "checkpoint_every and checkpoint_path must be given together"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        for round_index in range(start_round, rounds):
            self.recorder.add(self.run_round(round_index))
            completed = round_index + 1
            if checkpoint_every is not None and (
                completed % checkpoint_every == 0 or completed == rounds
            ):
                save_checkpoint(
                    self.capture_checkpoint(config=checkpoint_config),
                    checkpoint_path,
                )
        return self.recorder

    def close(self) -> None:
        """Release the collector's workers (idempotent)."""
        self.collector.close()


def build_clients(
    train_dataset: ArrayDataset,
    partitions: Sequence[np.ndarray],
    byzantine_indices: Sequence[int],
    *,
    batch_size: int = 32,
    local_iterations: int = 1,
    poison_labels: bool = False,
    rng_factory: Optional[RngFactory] = None,
) -> List[FederatedClient]:
    """Instantiate the client population from a dataset partition.

    Args:
        train_dataset: the global training set.
        partitions: per-client index arrays (one per client).
        byzantine_indices: which client ids the attacker controls.
        poison_labels: True when the configured attack is label flipping, in
            which case the Byzantine clients' local labels are flipped.
        rng_factory: source of per-client batch-sampling seeds.
    """
    rng_factory = rng_factory or RngFactory(0)
    byzantine = set(int(i) for i in byzantine_indices)
    clients: List[FederatedClient] = []
    for client_id, indices in enumerate(partitions):
        local = train_dataset.subset(indices)
        client_rng = rng_factory.make(f"client-{client_id}")
        if client_id in byzantine:
            clients.append(
                ByzantineClient(
                    client_id,
                    local,
                    batch_size=batch_size,
                    local_iterations=local_iterations,
                    poison_labels=poison_labels,
                    rng=client_rng,
                )
            )
        else:
            clients.append(
                BenignClient(
                    client_id,
                    local,
                    batch_size=batch_size,
                    local_iterations=local_iterations,
                    rng=client_rng,
                )
            )
    return clients
