"""One benchmark pass: set a workload up, warm it up, and time its rounds.

A pass is built from public constructors only, in the order
:func:`repro.fl.experiment.run_experiment` uses, so its records match
``run_experiment`` bit for bit; it is built here because
``run_experiment`` cannot set model width.  ``run.py`` starts every pass
in a fresh interpreter::

    python -m benchmarks.e2e.harness --workload paper_cnn --seed 0 --pass-index 0

which prints the pass result as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from benchmarks.e2e.trace import Tracer, instrument, summarize
from benchmarks.e2e.workloads import WORKLOADS, Workload
from repro.aggregators.factory import build_aggregator
from repro.attacks.factory import build_attack
from repro.data.factory import build_dataset
from repro.data.partition import partition_dataset
from repro.fl import (
    FederatedServer,
    FederatedSimulation,
    build_clients,
    build_participation,
)
from repro.fl.transport import spawn_local_fleet
from repro.nn.models.factory import build_model
from repro.nn.vectorize import get_flat_parameters
from repro.utils.config import ExperimentConfig
from repro.utils.rng import RngFactory


#: Fast-phase median times of :class:`SpeedProbe`'s two kernels on the
#: reference host (a 2-core Xeon VM at 2.1 GHz); set-up and round times
#: are rescaled to that speed.
COMPUTE_REFERENCE_S = 4.0e-4
MEMORY_REFERENCE_S = 1.25e-3


def _median_time(kernel: Callable[[], Any], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """How much slower than the reference host this host runs right now.

    Shared hosts switch between speed phases that last seconds: on the
    reference host the same code runs about 1.5x slower in its slow phase.
    Python and BLAS code follow the CPU's phase, memory-bound code follows
    cache and memory contention, so the probe times a small compute kernel
    and an 8 MB sweep and takes the geometric mean of their slowdowns.
    Probing just before and after a measured interval and dividing the
    interval by the mean slowdown cancels most of the swing.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((96, 96))
        self._vector = rng.standard_normal(1_000_000)

    def _compute(self) -> None:
        total = 0
        for i in range(6000):
            total += i
        for _ in range(8):
            self._matrix @ self._matrix

    def _memory(self) -> None:
        self._vector.sum()
        (self._vector * 0.5).max()

    def slowdown(self) -> float:
        compute = _median_time(self._compute, 5) / COMPUTE_REFERENCE_S
        memory = _median_time(self._memory, 3) / MEMORY_REFERENCE_S
        return math.sqrt(compute * memory)

    def scale(self, before: float) -> float:
        """Factor that rescales to the reference speed an interval that
        began at slowdown ``before`` and ends now."""
        return 2.0 / (before + self.slowdown())


def _no_span(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def assemble(
    config: ExperimentConfig,
    *,
    model_params: Optional[Dict[str, Any]] = None,
    workers=None,
    span: Callable[[str], Any] = _no_span,
) -> FederatedSimulation:
    """The simulation ``run_experiment(config)`` would run, with
    ``model_params`` passed to the model and, when ``workers`` is given,
    gradients collected from that ``repro-worker`` fleet."""
    config = config.validate()
    training = config.training
    rng_factory = RngFactory(config.seed)
    with span("data.build"):
        split = build_dataset(
            config.data.dataset,
            num_train=config.data.num_train,
            num_test=config.data.num_test,
            rng=rng_factory.make("data"),
        )
        partitions = partition_dataset(
            split.train,
            config.num_clients,
            scheme=config.data.partition,
            iid_fraction=config.data.iid_fraction,
            shards_per_client=config.data.shards_per_client,
            dirichlet_alpha=config.data.dirichlet_alpha,
            rng=rng_factory.make("partition"),
        )
    attack = build_attack(config.attack.name, config.attack.params)
    defense = build_aggregator(config.defense.name, config.defense.params)
    model = build_model(
        training.model, split.spec, rng=rng_factory.make("model"), params=model_params
    )
    model.astype(training.dtype)
    byzantine = np.array([], dtype=int)
    if config.num_byzantine:
        chooser = rng_factory.make("byzantine")
        byzantine = np.sort(
            chooser.choice(config.num_clients, size=config.num_byzantine, replace=False)
        )
    with span("fl.build_clients"):
        clients = build_clients(
            split.train,
            partitions,
            byzantine,
            batch_size=training.batch_size,
            local_iterations=training.local_iterations,
            poison_labels=attack.poisons_data,
            rng_factory=rng_factory,
        )
    server = FederatedServer(
        model,
        defense,
        learning_rate=training.learning_rate,
        momentum=training.momentum,
        weight_decay=training.weight_decay,
        num_byzantine_hint=len(byzantine),
        rng=rng_factory.make("server"),
    )
    return FederatedSimulation(
        server,
        clients,
        attack,
        split.test,
        attack_rng=rng_factory.make("attack"),
        eval_every=training.eval_every,
        lr_decay=training.lr_decay,
        description=config.describe(),
        dtype=training.dtype,
        n_workers=training.n_workers,
        collect_backend="distributed" if workers else training.collect_backend,
        workers=workers,
        connect_timeout=training.connect_timeout,
        round_timeout=training.round_timeout,
        wire_codec=training.wire_codec,
        min_cohort_fraction=training.min_cohort_fraction,
        on_quorum_loss=training.on_quorum_loss,
        quorum_retries=training.quorum_retries,
        seed=config.seed,
        participation=training.participation,
        participation_fraction=training.participation_fraction,
        cohort_size=training.cohort_size,
        dropout_rate=training.dropout_rate,
        straggler_rate=training.straggler_rate,
        participation_rng=rng_factory.make("participation"),
    )


def _planner(config: ExperimentConfig):
    """A second copy of the run's participation schedule: it replays the
    planned cohorts, dropouts and stragglers, which the records must show
    unchanged when no worker failed."""
    training = config.training
    return build_participation(
        training.participation,
        participation_fraction=training.participation_fraction,
        cohort_size=training.cohort_size,
        dropout_rate=training.dropout_rate,
        straggler_rate=training.straggler_rate,
        rng=RngFactory(config.seed).make("participation"),
    )


def digest_records(records) -> str:
    """sha256 over every round's ``(selected_clients, train_loss)`` bytes:
    equal digests mean the rounds computed the same selections and losses."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(np.asarray(record.selected_clients, dtype=np.int64).tobytes())
        digest.update(np.float64(record.train_loss).tobytes())
    return digest.hexdigest()


def run_pass(
    workload: Workload,
    seed: int,
    *,
    pass_index: int = 0,
    traced: bool = False,
    fleet_factory: Callable = spawn_local_fleet,
    trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Set up, warm up and time one pass of ``workload``; return its result.

    Set-up covers the dataset, partition, model, clients, fleet spawn and
    the warm-up round (round 0).  Rounds ``1..timed_rounds`` are timed
    one ``run_round`` call at a time.  ``setup_s`` and ``round_s`` are
    rescaled to the reference speed (:class:`SpeedProbe`); ``wall_setup_s``
    and ``wall_round_s`` keep the raw wall times.  A round that raises
    ends the pass; a round whose loss or parameters are not finite counts
    as failed.
    With ``traced``, spans are recorded and summarized into ``per_layer``.
    """
    config = workload.with_seed(seed)
    tracer = Tracer(workload.name, pass_index) if traced else None
    span = tracer.span if tracer is not None else _no_span
    planner = _planner(config)
    records = []
    checks = dict.fromkeys(
        ("finite_loss", "finite_parameters", "planned_dropouts_only"), True
    )
    result: Dict[str, Any] = {
        "workload": workload.name,
        "pass": pass_index,
        "traced": traced,
        "seed": seed,
        "round_s": [],
        "wall_round_s": [],
        "attempted": 0,
        "failed": 0,
    }
    totals = dict.fromkeys(
        (
            "reporting",
            "benign_selected",
            "benign_total",
            "byzantine_selected",
            "byzantine_total",
        ),
        0,
    )

    def account(record) -> bool:
        """Check and keep one round; False marks a failed round."""
        records.append(record)
        plan = planner.plan(record.round_index, config.num_clients)
        if (record.cohort_size, record.num_dropped, record.num_stragglers) != (
            plan.cohort_size,
            plan.num_dropped,
            plan.num_stragglers,
        ):
            checks["planned_dropouts_only"] = False
        finite_loss = math.isfinite(record.train_loss)
        finite_parameters = bool(
            np.isfinite(get_flat_parameters(simulation.model)).all()
        )
        checks["finite_loss"] &= finite_loss
        checks["finite_parameters"] &= finite_parameters
        return finite_loss and finite_parameters

    probe = SpeedProbe()
    fleet = simulation = None
    try:
        slowdown = probe.slowdown()
        start = time.perf_counter()
        with span("setup"):
            if workload.fleet_workers:
                with span("transport.fleet_spawn"):
                    fleet = fleet_factory(workload.fleet_workers)
            simulation = assemble(
                config,
                model_params=workload.model_params,
                workers=fleet.addresses if fleet is not None else None,
                span=span,
            )
            if tracer is not None:
                instrument(tracer, simulation, transport=fleet is not None)
            with span("setup.warmup_round"):
                warmup = simulation.run_round(0)
        result["wall_setup_s"] = time.perf_counter() - start
        result["setup_s"] = result["wall_setup_s"] * probe.scale(slowdown)
        account(warmup)
        record = warmup
        for round_index in range(1, workload.timed_rounds + 1):
            result["attempted"] += 1
            if tracer is not None:
                tracer.round = round_index
            try:
                slowdown = probe.slowdown()
                began = time.perf_counter()
                with span("round"):
                    record = simulation.run_round(round_index)
                elapsed = time.perf_counter() - began
                scale = probe.scale(slowdown)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result["failed"] += 1
                break
            if not account(record):
                result["failed"] += 1
                continue
            result["round_s"].append(elapsed * scale)
            result["wall_round_s"].append(elapsed)
            totals["reporting"] += record.num_reporting
            for key in (
                "benign_selected",
                "benign_total",
                "byzantine_selected",
                "byzantine_total",
            ):
                totals[key] += getattr(record, key)
        checks["training_loss_fell"] = record.train_loss < warmup.train_loss
        accuracy = record.test_accuracy
        if workload.beats_chance:
            chance = 1.0 / simulation.test_dataset.spec.num_classes
            checks["accuracy_above_chance"] = (
                accuracy is not None and accuracy > chance
            )
        result["test_accuracy"] = accuracy
    finally:
        if tracer is not None:
            tracer.close()
        if simulation is not None:
            simulation.close()
        if fleet is not None:
            fleet.terminate()
    result.update(totals)
    result["checks"] = checks
    result["digest"] = digest_records(records)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["per_layer"] = summarize(tracer)
        if trace_path is not None:
            tracer.write(trace_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-path", type=Path)
    args = parser.parse_args(argv)
    result = run_pass(
        WORKLOADS[args.workload],
        args.seed,
        pass_index=args.pass_index,
        traced=args.traced,
        trace_path=args.trace_path,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
