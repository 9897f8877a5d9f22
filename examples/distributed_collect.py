#!/usr/bin/env python3
"""Distributed gradient collection over a localhost ``repro-worker`` fleet.

PR 2–4 made the collect stage pluggable in-process (threads, worker
processes); ``repro.fl.transport`` takes the same contract across TCP.
Each ``repro-worker`` serves a shard of the client population: per round
it receives the global model's ``state_dict()`` and the round's row
slice, computes its clients' gradients through the exact sequential
collect loop, and streams the shard back into the caller's preallocated
round buffer.

This example demonstrates the two headline properties on a two-worker
localhost fleet (real subprocesses — the same entrypoint a multi-host
deployment runs):

1. **Bit-identical training.**  The distributed run reproduces the
   sequential run's per-round losses and accuracies exactly — same
   gradients, same model, same metrics — because client RNG streams live
   in the owning worker and advance exactly once per computed round.
2. **Failure = dropouts, not a crash.**  A worker that dies mid-round
   degrades into ``RoundPlan`` dropouts: the round completes with the
   surviving cohort, and the run keeps going.

Run with:  python examples/distributed_collect.py [--wire-codec CODEC]

``--wire-codec`` negotiates a compressed gradient wire format (PR 7):
``raw`` (the default) keeps the byte-identical wire and the bit-identical
guarantee; ``sign1bit`` / ``int8`` / ``fp16`` trade exactness for a
4–64x smaller gather, so the example reports the per-round metric
deltas against the sequential reference instead of asserting equality.

In a real deployment you would start workers yourself, e.g.::

    # on each worker host; only trusted callers may reach the port
    repro-worker --host 0.0.0.0 --port 9000 --allow-pickle-setup

and point the experiment at them::

    TrainingConfig(collect_backend="distributed",
                   workers=["hostA:9000", "hostB:9000"],
                   wire_codec="sign1bit")
"""

from __future__ import annotations

import argparse

from repro import (
    DataConfig,
    DefenseConfig,
    ExperimentConfig,
    TrainingConfig,
    run_experiment,
)
from repro.fl.transport import (
    spawn_local_fleet,
    spawn_worker_process,
    wire_codec_names,
)
from repro.perf import RoundProfiler


def make_config(**training) -> ExperimentConfig:
    return ExperimentConfig(
        num_clients=20,
        seed=11,
        data=DataConfig(dataset="mnist_like", num_train=600, num_test=200),
        training=TrainingConfig(
            model="mlp", rounds=5, batch_size=16, eval_every=1, **training
        ),
        defense=DefenseConfig(name="signguard"),
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--wire-codec",
        default="raw",
        choices=wire_codec_names(),
        help=(
            "gradient wire codec negotiated with the workers; raw keeps the "
            "bit-identical guarantee, the compressed codecs report metric "
            "deltas instead"
        ),
    )
    args = parser.parse_args(argv)
    codec = args.wire_codec

    print("1/3  Sequential reference run (20 clients, 5 rounds)...")
    sequential = run_experiment(make_config(collect_backend="sequential"))

    print(f"2/3  Same run over a two-worker localhost fleet (codec: {codec})...")
    profiler = RoundProfiler()
    with spawn_local_fleet(2) as fleet:
        print(f"     workers: {fleet.addresses}")
        distributed = run_experiment(
            make_config(
                collect_backend="distributed",
                workers=fleet.addresses,
                wire_codec=codec,
            ),
            profiler=profiler,
        )

    seq_losses = [round.train_loss for round in sequential.rounds]
    dist_losses = [round.train_loss for round in distributed.rounds]
    seq_accs = [round.test_accuracy for round in sequential.rounds]
    dist_accs = [round.test_accuracy for round in distributed.rounds]
    identical = seq_losses == dist_losses and seq_accs == dist_accs
    sent = profiler.counters.get("collect_bytes_sent", 0)
    received = profiler.counters.get("collect_bytes_received", 0)
    rounds = len(distributed.rounds)
    print("\n--- sequential vs distributed ----------------------------------")
    for index in range(rounds):
        print(
            f"  round {index}: loss {seq_losses[index]:.6f} / "
            f"{dist_losses[index]:.6f}   acc {100 * seq_accs[index]:5.2f}% / "
            f"{100 * dist_accs[index]:5.2f}%"
        )
    print(
        f"  wire traffic: {sent / 2**20:.2f} MiB sent, "
        f"{received / 2**20:.2f} MiB received "
        f"({(sent + received) / rounds / 2**20:.2f} MiB/round)"
    )
    if codec == "raw":
        print(f"  bit-identical: {identical}")
        if not identical:
            raise SystemExit("distributed run diverged from the sequential run")
    else:
        # A lossy codec trades exactness for wire bytes; the run must still
        # track the uncompressed reference closely.
        final_delta = abs(seq_accs[-1] - dist_accs[-1])
        print(
            f"  codec {codec}: final accuracy delta "
            f"{100 * final_delta:.2f} points vs the uncompressed reference"
        )
        if final_delta > 0.15:
            raise SystemExit(
                f"wire codec {codec} diverged from the sequential run: "
                f"final accuracy delta {final_delta:.4f} > 0.15"
            )

    print("\n3/3  Fault injection: one worker dies on its second round...")
    crashing = spawn_worker_process(extra_args=["--fault", "crash@2"])
    healthy = spawn_worker_process()
    try:
        degraded = run_experiment(
            make_config(
                collect_backend="distributed",
                workers=[crashing.address, healthy.address],
                wire_codec=codec,
            )
        )
    finally:
        crashing.terminate()
        healthy.terminate()
    for round in degraded.rounds:
        note = "  <- worker died: clients demoted to dropouts" * bool(
            round.num_dropped
        )
        print(
            f"  round {round.round_index}: reporting={round.num_reporting:2d} "
            f"dropped={round.num_dropped:2d} loss={round.train_loss:.4f}{note}"
        )
    print(
        "  the run completed all "
        f"{len(degraded.rounds)} rounds despite losing a worker"
    )


if __name__ == "__main__":
    main()
