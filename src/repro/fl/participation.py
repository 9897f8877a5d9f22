"""Participation-aware round planning: sampling, dropouts, and stragglers.

The seed simulation hard-coded the paper's cross-silo corner of federated
learning: every one of the ``n`` clients computes and submits a gradient
every round.  Cross-device federations behave differently — the server
samples a small cohort per round (FedAvg-style ``C·n`` sampling), sampled
clients drop out before computing, and slow clients ("stragglers") compute
but miss the synchronous deadline.  This module describes one round's
participation as data (:class:`RoundPlan`) produced by a pluggable policy
(:class:`ParticipationSchedule`), which the simulation threads through the
collect, attack, defense, and recording layers.

Terminology used by the whole stack:

* **cohort** — the clients sampled for the round (sorted global ids).
* **dropped** — sampled clients that fail *before* computing: they never run
  a local step, so their batch-sampling RNG streams stay untouched.
* **stragglers** — sampled clients that compute a gradient (their RNG
  streams advance, exactly as if they had participated) but miss the
  synchronous deadline; the server discards their update.
* **active** — cohort minus dropped minus stragglers: the rows of the round
  gradient matrix the server actually aggregates, each counting once (the
  paper's Algorithm 2 is unweighted, so a plan carries no client weights).
* **computing** — active plus stragglers: every client whose
  ``compute_gradient`` runs this round (the collect stage's work list).

Reproducibility contract: schedules draw from their own RNG stream only — a
sampled client's batch RNG advances exactly when it computes, and
non-sampled clients' streams are never touched — so any schedule is
bit-reproducible under every collect backend, and :class:`FullParticipation`
with no failure knobs consumes no randomness at all (it stays bit-identical
to the pre-participation engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_fraction, check_integer_in_range


def _as_sorted_ids(values, name: str, population_size: int) -> np.ndarray:
    """Coerce ``values`` to a sorted, unique, in-range int id array."""
    ids = np.asarray(values, dtype=int).ravel()
    if len(ids) and (ids.min() < 0 or ids.max() >= population_size):
        raise ValueError(
            f"{name} contains ids outside [0, {population_size}): {ids}"
        )
    if len(np.unique(ids)) != len(ids):
        raise ValueError(f"{name} contains duplicate ids: {ids}")
    return np.sort(ids)


@dataclass(eq=False)
class RoundPlan:
    """One round's participation, fully resolved to client ids.

    All id arrays are sorted ascending, which fixes the round buffer's row
    order (and therefore the BatchNorm statistics replay order) identically
    across every collect backend.

    Attributes:
        round_index: the federated round this plan is for.
        population_size: total number of clients ``n`` in the federation.
        cohort: sampled client ids.
        active: cohort members whose gradients reach the server in time.
        dropped: cohort members that failed before computing.
        stragglers: cohort members that computed but missed the deadline.
    """

    round_index: int
    population_size: int
    cohort: np.ndarray
    active: np.ndarray
    dropped: np.ndarray
    stragglers: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.population_size)
        if n < 1:
            raise ValueError(f"population_size must be >= 1, got {n}")
        self.cohort = _as_sorted_ids(self.cohort, "cohort", n)
        self.active = _as_sorted_ids(self.active, "active", n)
        self.dropped = _as_sorted_ids(self.dropped, "dropped", n)
        self.stragglers = _as_sorted_ids(self.stragglers, "stragglers", n)
        if len(self.cohort) == 0:
            raise ValueError("a round plan must sample at least one client")
        if len(self.active) == 0:
            raise ValueError("a round plan must keep at least one active client")
        parts = np.concatenate([self.active, self.dropped, self.stragglers])
        if len(np.unique(parts)) != len(parts):
            raise ValueError("active/dropped/stragglers must be disjoint")
        if not np.array_equal(np.sort(parts), self.cohort):
            raise ValueError("active + dropped + stragglers must partition cohort")

    @property
    def cohort_size(self) -> int:
        return len(self.cohort)

    @property
    def num_active(self) -> int:
        return len(self.active)

    @property
    def num_dropped(self) -> int:
        return len(self.dropped)

    @property
    def num_stragglers(self) -> int:
        return len(self.stragglers)

    @property
    def is_full_round(self) -> bool:
        """True when every client in the population submits in time."""
        return self.num_active == self.population_size

    @property
    def computing(self) -> np.ndarray:
        """Sorted ids of every client that runs ``compute_gradient``.

        The simulation collects active clients and stragglers in two
        separate passes (straggler BatchNorm statistics must be discarded),
        so this union is a derived view for schedule consumers and tests,
        not the collect work list itself.
        """
        if len(self.stragglers) == 0:
            return self.active
        return np.union1d(self.active, self.stragglers)

    def demote_to_dropped(self, client_ids) -> "RoundPlan":
        """A copy of this plan with ``client_ids`` moved from active to dropped.

        This is the failure path of the *distributed* collect backend: a
        worker that dies or times out mid-round takes its active clients
        with it, and the round continues with the survivors — exactly the
        semantics of clients that failed before computing.  (A client whose
        worker died after computing did advance its RNG stream in the dead
        worker's memory, but that state died with the process; the
        collector resumes the client from its last *completed* round, which
        is what "dropped" means everywhere else in this module.)

        Demoting every active client raises ``ValueError`` — a synchronous
        round cannot complete with zero reports, so the caller must treat
        that as a run-level failure, not a round-level one.
        """
        ids = _as_sorted_ids(client_ids, "demoted ids", self.population_size)
        if not len(ids):
            return self
        unknown = np.setdiff1d(ids, self.active)
        if len(unknown):
            raise ValueError(
                f"cannot demote clients that are not active this round: {unknown}"
            )
        keep = ~np.isin(self.active, ids)
        if not keep.any():
            raise ValueError(
                "cannot demote every active client: a synchronous round "
                "needs at least one report"
            )
        return RoundPlan(
            round_index=self.round_index,
            population_size=self.population_size,
            cohort=self.cohort,
            active=self.active[keep],
            dropped=np.union1d(self.dropped, ids),
            stragglers=self.stragglers,
        )

    def byzantine_positions(self, byzantine_ids) -> np.ndarray:
        """Row positions of Byzantine clients within the *submitted* matrix.

        The attacker only controls the Byzantine clients that were sampled
        and reported in time; the returned positions index rows of the
        ``(num_active, dim)`` gradient matrix the server sees.
        """
        mask = np.isin(self.active, np.asarray(byzantine_ids, dtype=int))
        return np.flatnonzero(mask)


class ParticipationSchedule:
    """Policy interface: produce a :class:`RoundPlan` for each round."""

    name: str = "schedule"

    def plan(self, round_index: int, population_size: int) -> RoundPlan:
        """Build the participation plan for ``round_index``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class _RandomizedSchedule(ParticipationSchedule):
    """Shared sampling machinery: cohort selection + dropout/straggler knobs.

    Args:
        dropout_rate: per-sampled-client probability of failing before
            computing.
        straggler_rate: per-surviving-client probability of computing but
            missing the deadline.
        rng: the schedule's private randomness.  Draws happen once per
            :meth:`plan` call (cohort, then dropouts, then stragglers — each
            only when its knob is non-zero), so a seeded generator makes the
            whole participation trace reproducible.
    """

    def __init__(
        self,
        *,
        dropout_rate: float = 0.0,
        straggler_rate: float = 0.0,
        rng: RngLike = None,
    ):
        check_fraction(dropout_rate, "dropout_rate")
        check_fraction(straggler_rate, "straggler_rate")
        if dropout_rate >= 1.0 or straggler_rate >= 1.0:
            raise ValueError("dropout_rate and straggler_rate must be < 1")
        self.dropout_rate = float(dropout_rate)
        self.straggler_rate = float(straggler_rate)
        self._rng = as_rng(rng)

    def _sample_cohort(self, round_index: int, population_size: int) -> np.ndarray:
        raise NotImplementedError

    def _apply_failures(
        self, cohort: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split ``cohort`` into (active, dropped, stragglers)."""
        surviving = cohort
        dropped = np.array([], dtype=int)
        stragglers = np.array([], dtype=int)
        if self.dropout_rate > 0.0:
            mask = self._rng.random(len(cohort)) < self.dropout_rate
            dropped = cohort[mask]
            surviving = cohort[~mask]
        if self.straggler_rate > 0.0 and len(surviving):
            mask = self._rng.random(len(surviving)) < self.straggler_rate
            stragglers = surviving[mask]
            surviving = surviving[~mask]
        if len(surviving) == 0:
            # A synchronous round needs at least one report.  Resurrect the
            # lowest-id straggler (it computed anyway — it just makes the
            # deadline), else the lowest-id dropped client.
            if len(stragglers):
                surviving = stragglers[:1]
                stragglers = stragglers[1:]
            else:
                surviving = dropped[:1]
                dropped = dropped[1:]
        return surviving, dropped, stragglers

    def plan(self, round_index: int, population_size: int) -> RoundPlan:
        check_integer_in_range(population_size, "population_size", minimum=1)
        cohort = self._sample_cohort(round_index, population_size)
        active, dropped, stragglers = self._apply_failures(cohort)
        return RoundPlan(
            round_index=round_index,
            population_size=population_size,
            cohort=cohort,
            active=active,
            dropped=dropped,
            stragglers=stragglers,
        )


class FullParticipation(_RandomizedSchedule):
    """Every client participates every round (the seed behaviour).

    With both failure knobs at zero this schedule consumes no randomness and
    the engine is bit-identical to the pre-participation round loop; the
    knobs still apply, which models a cross-silo federation with flaky silos.
    """

    name = "full"

    def _sample_cohort(self, round_index: int, population_size: int) -> np.ndarray:
        return np.arange(population_size)


class UniformParticipation(_RandomizedSchedule):
    """FedAvg-style sampling: a ``fraction`` of clients uniformly per round."""

    name = "uniform"

    def __init__(
        self,
        fraction: float,
        *,
        dropout_rate: float = 0.0,
        straggler_rate: float = 0.0,
        rng: RngLike = None,
    ):
        super().__init__(
            dropout_rate=dropout_rate, straggler_rate=straggler_rate, rng=rng
        )
        check_fraction(fraction, "participation_fraction")
        if fraction <= 0.0:
            raise ValueError(
                f"participation_fraction must be in (0, 1], got {fraction}"
            )
        self.fraction = float(fraction)

    def _sample_cohort(self, round_index: int, population_size: int) -> np.ndarray:
        size = max(1, int(round(self.fraction * population_size)))
        return np.sort(
            self._rng.choice(population_size, size=size, replace=False)
        )


class FixedCohortParticipation(_RandomizedSchedule):
    """Sample exactly ``cohort_size`` clients uniformly per round."""

    name = "fixed_cohort"

    def __init__(
        self,
        cohort_size: int,
        *,
        dropout_rate: float = 0.0,
        straggler_rate: float = 0.0,
        rng: RngLike = None,
    ):
        super().__init__(
            dropout_rate=dropout_rate, straggler_rate=straggler_rate, rng=rng
        )
        check_integer_in_range(cohort_size, "cohort_size", minimum=1)
        self.cohort_size = int(cohort_size)

    def _sample_cohort(self, round_index: int, population_size: int) -> np.ndarray:
        if self.cohort_size > population_size:
            raise ValueError(
                f"cohort_size={self.cohort_size} exceeds the population "
                f"({population_size} clients)"
            )
        return np.sort(
            self._rng.choice(population_size, size=self.cohort_size, replace=False)
        )


#: Schedule names accepted by :func:`build_participation` and
#: :class:`~repro.utils.config.TrainingConfig`.
PARTICIPATION_SCHEDULES = ("full", "uniform", "fixed_cohort")


def build_participation(
    name: str,
    *,
    participation_fraction: float = 1.0,
    cohort_size: Optional[int] = None,
    dropout_rate: float = 0.0,
    straggler_rate: float = 0.0,
    rng: RngLike = None,
) -> ParticipationSchedule:
    """Build the participation schedule named ``name``."""
    knobs = dict(dropout_rate=dropout_rate, straggler_rate=straggler_rate, rng=rng)
    if name == "full":
        return FullParticipation(**knobs)
    if name == "uniform":
        return UniformParticipation(participation_fraction, **knobs)
    if name == "fixed_cohort":
        if cohort_size is None:
            raise ValueError("fixed_cohort participation requires cohort_size")
        return FixedCohortParticipation(cohort_size, **knobs)
    raise ValueError(
        f"participation must be one of {PARTICIPATION_SCHEDULES}, got {name!r}"
    )


def scaled_byzantine_hint(
    hint: Optional[int], num_active: int, population_size: int
) -> Optional[int]:
    """Scale a population-level Byzantine-count belief to a sampled round.

    The operator's hint describes the whole federation; under sampling the
    defense only sees ``num_active`` gradients, so baselines that consume
    the hint (Krum, Bulyan, trimmed mean) should be told the *expected*
    number of Byzantine rows in the cohort.  A full round returns the hint
    unchanged (bit-compatible with the pre-participation engine).
    """
    if hint is None or num_active == population_size:
        return hint
    return int(round(int(hint) * num_active / population_size))
