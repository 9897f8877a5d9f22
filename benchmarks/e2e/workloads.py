"""The four workloads of the end-to-end round benchmark.

Every workload trains on ``mnist_like`` with IID partitions against the
*Little is Enough* attack at 20% Byzantine clients.  They differ in the
property that decides where a round's time goes: model compute
(``paper_cnn``), gradient width (``wide_mlp``), cohort size
(``cohort2k``), and the TCP transport with sampled participation
(``fleet_sampled``).  README.md lists which layer each one stresses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro import (
    AttackConfig,
    DataConfig,
    DefenseConfig,
    ExperimentConfig,
    TrainingConfig,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a seed-0 experiment config plus what it needs
    beyond :class:`~repro.utils.config.ExperimentConfig`.

    ``config.training.rounds`` counts the warm-up round (index 0) plus the
    timed rounds, so ``run_experiment(config)`` replays exactly the rounds
    one benchmark pass runs.  ``eval_every`` divides that count, so the
    final timed round evaluates and reports ``test_accuracy``.
    """

    name: str
    why: str
    config: ExperimentConfig
    #: Extra model-constructor arguments (``run_experiment`` cannot set them).
    model_params: Optional[Dict[str, Any]] = None
    #: ``repro-worker`` processes to collect over; 0 collects sequentially.
    fleet_workers: int = 0
    #: Whether the final timed round beats chance accuracy on every seed.
    #: ``paper_cnn`` does not: its few SGD steps leave ``simple_cnn`` near
    #: chance on some seeds, so only its training loss is checked.
    beats_chance: bool = True

    def __post_init__(self) -> None:
        training = self.config.training
        if training.rounds < 2:
            raise ValueError(f"{self.name}: needs a warm-up and a timed round")
        if training.rounds % training.eval_every:
            raise ValueError(f"{self.name}: the final timed round must evaluate")

    @property
    def timed_rounds(self) -> int:
        return self.config.training.rounds - 1

    def with_seed(self, seed: int) -> ExperimentConfig:
        return self.config.replace(seed=int(seed))

    def resized(self, **sizes: Any) -> "Workload":
        """A copy with ``num_clients``/``num_train``/``num_test``/``rounds``/
        ``eval_every`` replaced (the self-test runs tiny workloads)."""
        config = self.config
        data = {k: sizes.pop(k) for k in ("num_train", "num_test") if k in sizes}
        training = {k: sizes.pop(k) for k in ("rounds", "eval_every") if k in sizes}
        config = config.replace(
            data=dataclasses.replace(config.data, **data),
            training=dataclasses.replace(config.training, **training),
            **sizes,
        ).validate()
        return dataclasses.replace(self, config=config)


def _config(
    *,
    num_clients: int,
    num_train: int,
    model: str,
    batch_size: int,
    learning_rate: float,
    defense: str,
    rounds: int,
    eval_every: int,
    **training: Any,
) -> ExperimentConfig:
    return ExperimentConfig(
        num_clients=num_clients,
        seed=0,
        data=DataConfig(
            dataset="mnist_like", num_train=num_train, num_test=500, partition="iid"
        ),
        training=TrainingConfig(
            model=model,
            rounds=rounds,
            batch_size=batch_size,
            learning_rate=learning_rate,
            eval_every=eval_every,
            collect_backend="sequential",
            **training,
        ),
        attack=AttackConfig(name="lie", byzantine_fraction=0.2),
        defense=DefenseConfig(name=defense),
    ).validate()


# Round counts size one pass to run.PASS_SECONDS on the reference host.
# Where evaluation is costly (paper_cnn) a quarter of the rounds evaluate,
# so round_p90_s sits inside the evaluating rounds, not on their edge.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_cnn",
            why=(
                "the paper's cross-silo shape: 50 clients on simple_cnn, where "
                "client forward/backward is nearly the whole round"
            ),
            config=_config(
                num_clients=50,
                num_train=2500,
                model="simple_cnn",
                batch_size=32,
                learning_rate=0.05,
                defense="signguard",
                rounds=20,
                eval_every=4,
            ),
            beats_chance=False,
        ),
        Workload(
            name="wide_mlp",
            why=(
                "100 clients with a 106k-parameter mlp: gradient width drives "
                "the LIE attack and the aggregation stages"
            ),
            config=_config(
                num_clients=100,
                num_train=3000,
                model="mlp",
                batch_size=16,
                learning_rate=0.1,
                defense="signguard_sim",
                rounds=24,
                eval_every=6,
            ),
            model_params={"hidden_dims": (512,)},
        ),
        Workload(
            name="cohort2k",
            why=(
                "2,000 logistic clients: cohort size drives dense Mean-Shift "
                "and per-client collect overhead, not arithmetic"
            ),
            config=_config(
                num_clients=2000,
                num_train=20000,
                model="logistic",
                batch_size=8,
                learning_rate=0.1,
                defense="signguard",
                rounds=10,
                eval_every=5,
            ),
        ),
        Workload(
            name="fleet_sampled",
            why=(
                "half of 400 clients per round with dropouts and stragglers, "
                "collected over TCP from two repro-worker processes"
            ),
            config=_config(
                num_clients=400,
                num_train=8000,
                model="mlp",
                batch_size=16,
                learning_rate=0.1,
                defense="signguard_sim",
                rounds=30,
                eval_every=10,
                participation="uniform",
                participation_fraction=0.5,
                dropout_rate=0.1,
                straggler_rate=0.1,
            ),
            model_params={"hidden_dims": (128,)},
            fleet_workers=2,
        ),
    )
}
