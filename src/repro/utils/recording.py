"""Run recording: per-round metrics collected during a federated simulation.

The recorder is intentionally simple — a list of :class:`RoundRecord` plus a
few summary helpers (best accuracy, attack impact, selection rates) that map
directly onto the quantities reported in the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np


@dataclass
class RoundRecord:
    """Metrics from a single federated round.

    Selection counts are *cohort-scoped* under partial participation:
    ``benign_total``/``byzantine_total`` count the clients whose gradients
    reached the server this round (so ``byzantine_total`` is the sampled
    Byzantine count), while ``selected_clients`` and ``cohort_clients``
    hold *global* client ids.  ``cohort_clients`` is empty when the cohort
    is the whole population (the ids would be ``range(cohort_size)``).
    """

    round_index: int
    train_loss: float
    test_accuracy: Optional[float] = None
    test_loss: Optional[float] = None
    selected_clients: Sequence[int] = field(default_factory=tuple)
    benign_selected: int = 0
    benign_total: int = 0
    byzantine_selected: int = 0
    byzantine_total: int = 0
    attack_name: str = ""
    cohort_size: int = 0
    num_dropped: int = 0
    num_stragglers: int = 0
    cohort_clients: Sequence[int] = field(default_factory=tuple)
    #: Clients whose shard was recomputed on surviving workers after their
    #: own worker failed mid-round (distributed collect re-dispatch).
    num_redispatched: int = 0
    #: Successful worker reconnects during this round's collect.
    num_reconnects: int = 0
    #: Whole-round retries taken under ``on_quorum_loss="retry"``.
    num_retries: int = 0
    #: False when the round finished below ``min_cohort_fraction`` and the
    #: ``accept`` policy recorded it anyway.
    quorum_met: bool = True

    @property
    def num_reporting(self) -> int:
        """Clients whose gradients reached the server in time this round."""
        return self.benign_total + self.byzantine_total

    @property
    def benign_selection_rate(self) -> float:
        """Fraction of benign gradients kept by the defense this round."""
        if self.benign_total == 0:
            return float("nan")
        return self.benign_selected / self.benign_total

    @property
    def byzantine_selection_rate(self) -> float:
        """Fraction of malicious gradients kept by the defense this round."""
        if self.byzantine_total == 0:
            return float("nan")
        return self.byzantine_selected / self.byzantine_total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round_index": self.round_index,
            "train_loss": self.train_loss,
            "test_accuracy": self.test_accuracy,
            "test_loss": self.test_loss,
            "selected_clients": list(self.selected_clients),
            "benign_selected": self.benign_selected,
            "benign_total": self.benign_total,
            "byzantine_selected": self.byzantine_selected,
            "byzantine_total": self.byzantine_total,
            "attack_name": self.attack_name,
            "cohort_size": self.cohort_size,
            "num_dropped": self.num_dropped,
            "num_stragglers": self.num_stragglers,
            "cohort_clients": list(self.cohort_clients),
            "num_redispatched": self.num_redispatched,
            "num_reconnects": self.num_reconnects,
            "num_retries": self.num_retries,
            "quorum_met": self.quorum_met,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RoundRecord":
        """Reconstruct a record from :meth:`to_dict` output.

        Tolerates payloads from older records (missing keys get their
        defaults, retired keys such as ``"extra"`` are ignored) — checkpoint
        files must stay readable across versions that add or retire fields.
        """
        record = cls(
            round_index=int(payload["round_index"]),
            train_loss=float(payload["train_loss"]),
        )
        for key in (
            "test_accuracy",
            "test_loss",
            "benign_selected",
            "benign_total",
            "byzantine_selected",
            "byzantine_total",
            "attack_name",
            "cohort_size",
            "num_dropped",
            "num_stragglers",
            "num_redispatched",
            "num_reconnects",
            "num_retries",
            "quorum_met",
        ):
            if key in payload:
                setattr(record, key, payload[key])
        record.selected_clients = tuple(payload.get("selected_clients", ()))
        record.cohort_clients = tuple(payload.get("cohort_clients", ()))
        return record


class RunRecorder:
    """Accumulates :class:`RoundRecord` objects for one experiment run."""

    def __init__(self, description: str = ""):
        self.description = description
        self.rounds: List[RoundRecord] = []
        self.metadata: Dict[str, Any] = {}

    def add(self, record: RoundRecord) -> None:
        """Append a round record."""
        self.rounds.append(record)

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self):
        return iter(self.rounds)

    @property
    def accuracies(self) -> List[float]:
        """Test accuracies for every evaluated round, in order."""
        return [r.test_accuracy for r in self.rounds if r.test_accuracy is not None]

    @property
    def losses(self) -> List[float]:
        """Training losses for every round, in order."""
        return [r.train_loss for r in self.rounds]

    def best_accuracy(self) -> float:
        """Best test accuracy achieved during the run (the paper's Table I metric)."""
        accs = self.accuracies
        if not accs:
            return float("nan")
        return float(max(accs))

    def final_accuracy(self) -> float:
        """Test accuracy at the final evaluated round."""
        accs = self.accuracies
        if not accs:
            return float("nan")
        return float(accs[-1])

    def mean_benign_selection_rate(self) -> float:
        """Average fraction of honest gradients kept (Table II "H" column)."""
        rates = [r.benign_selection_rate for r in self.rounds if r.benign_total > 0]
        if not rates:
            return float("nan")
        return float(np.mean(rates))

    def mean_byzantine_selection_rate(self) -> float:
        """Average fraction of malicious gradients kept (Table II "M" column)."""
        rates = [
            r.byzantine_selection_rate for r in self.rounds if r.byzantine_total > 0
        ]
        if not rates:
            return float("nan")
        return float(np.mean(rates))

    def mean_cohort_size(self) -> float:
        """Average sampled cohort size per round (partial-participation runs)."""
        sizes = [r.cohort_size for r in self.rounds if r.cohort_size > 0]
        if not sizes:
            return float("nan")
        return float(np.mean(sizes))

    def total_dropouts(self) -> int:
        """Total simulated client dropouts across the run."""
        return int(sum(r.num_dropped for r in self.rounds))

    def total_stragglers(self) -> int:
        """Total simulated stragglers (computed but missed deadline)."""
        return int(sum(r.num_stragglers for r in self.rounds))

    def total_redispatched(self) -> int:
        """Total client shards recovered by re-dispatch across the run."""
        return int(sum(r.num_redispatched for r in self.rounds))

    def total_reconnects(self) -> int:
        """Total successful worker reconnects across the run."""
        return int(sum(r.num_reconnects for r in self.rounds))

    def total_retries(self) -> int:
        """Total quorum-policy round retries across the run."""
        return int(sum(r.num_retries for r in self.rounds))

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the whole run (for EXPERIMENTS.md bookkeeping)."""
        return {
            "description": self.description,
            "metadata": dict(self.metadata),
            "rounds": [r.to_dict() for r in self.rounds],
            "best_accuracy": self.best_accuracy(),
            "final_accuracy": self.final_accuracy(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecorder":
        """Reconstruct a recorder from :meth:`to_dict` output.

        This is how checkpoint resume rebuilds the run history; the
        derived summary fields in the payload are recomputed, not trusted.
        """
        recorder = cls(description=payload.get("description", ""))
        recorder.metadata = dict(payload.get("metadata", {}))
        recorder.rounds = [
            RoundRecord.from_dict(entry) for entry in payload.get("rounds", [])
        ]
        return recorder

    def summary(self) -> str:
        """One-line summary used by example scripts and bench output."""
        return (
            f"{self.description}: rounds={len(self.rounds)} "
            f"best_acc={self.best_accuracy():.4f} final_acc={self.final_accuracy():.4f}"
        )
