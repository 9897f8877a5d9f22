"""Per-round, per-stage profiling for the federated training loop.

A :class:`RoundProfiler` is handed to
:class:`~repro.fl.server.FederatedServer` /
:class:`~repro.fl.simulation.FederatedSimulation` (or any other component)
and collects how long each named stage of every round takes — gradient
collection, the attack transformation, the defense's aggregation, the model
update.  The result is a machine-readable dict suitable for
:func:`repro.perf.bench.write_bench_json`.

When no profiler is configured the components use :data:`NULL_PROFILER`,
whose ``stage`` context manager is a reusable no-op, so the hot path pays a
single attribute lookup when profiling is off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.perf.timers import StageTimings, monotonic


class NullProfiler:
    """No-op profiler with the same interface as :class:`RoundProfiler`."""

    enabled = False

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        yield

    def record(self, name: str, seconds: float) -> None:
        pass

    def count(self, name: str, value: float) -> None:
        pass

    def annotate(self, **fields: Any) -> None:
        pass

    def begin_round(self, round_index: Optional[int] = None) -> None:
        pass

    def end_round(self) -> None:
        pass


#: Shared no-op instance used when profiling is disabled.
NULL_PROFILER = NullProfiler()


class RoundProfiler:
    """Collects per-stage wall-clock timings across federated rounds.

    Usage::

        profiler = RoundProfiler()
        profiler.begin_round(0)
        with profiler.stage("aggregate"):
            result = aggregator(gradients, context)
        profiler.end_round()
        profiler.summary()  # {'aggregate': {'count': 1, 'mean_s': ...}, ...}

    Stages may nest and may also be recorded outside any round (the round
    bookkeeping only feeds the per-round totals).
    """

    enabled = True

    def __init__(self) -> None:
        self.timings = StageTimings()
        self.counters: Dict[str, float] = {}
        self.round_totals: List[Dict[str, Any]] = []
        self._round_start: Optional[float] = None
        self._round_index: Optional[int] = None
        self._round_annotations: Dict[str, Any] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a named stage and record the sample."""
        start = monotonic()
        try:
            yield
        finally:
            self.timings.add(name, monotonic() - start)

    def record(self, name: str, seconds: float) -> None:
        """Record an externally measured duration sample for ``name``.

        Used for stages that are not timed around a ``with`` block — e.g.
        the per-worker shard durations a fleet collect backend reports.
        """
        self.timings.add(name, float(seconds))

    def count(self, name: str, value: float) -> None:
        """Accumulate a non-time quantity (bytes on the wire, cache hits...).

        Counters are plain run-level totals: the distributed collect
        backend feeds its per-round ``bytes_sent``/``bytes_received`` here,
        so benchmark JSON can report traffic next to wall-clock stages.
        """
        self.counters[name] = self.counters.get(name, 0) + value

    def annotate(self, **fields: Any) -> None:
        """Attach metadata to the current round's totals entry.

        The federated simulation uses this to record participation facts —
        cohort size, sampled Byzantine count, dropouts, stragglers — next
        to the round's wall-clock total.  Calling it outside a round is a
        no-op.
        """
        if self._round_start is not None:
            self._round_annotations.update(fields)

    def begin_round(self, round_index: Optional[int] = None) -> None:
        """Mark the start of a federated round."""
        self._round_start = monotonic()
        if round_index is None:
            round_index = len(self.round_totals)
        self._round_index = int(round_index)
        self._round_annotations = {}

    def end_round(self) -> None:
        """Mark the end of a round and record its total wall-clock time."""
        if self._round_start is None:
            return
        elapsed = monotonic() - self._round_start
        self.timings.add("round_total", elapsed)
        self.round_totals.append(
            {
                "round_index": self._round_index,
                "total_s": elapsed,
                **self._round_annotations,
            }
        )
        self._round_start = None
        self._round_index = None
        self._round_annotations = {}

    @property
    def num_rounds(self) -> int:
        return len(self.round_totals)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage statistics over every recorded sample."""
        return self.timings.summary()

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable payload for ``BENCH_*.json`` files."""
        return {
            "num_rounds": self.num_rounds,
            "stages": self.summary(),
            "counters": dict(self.counters),
            "rounds": list(self.round_totals),
        }

    def reset(self) -> None:
        self.timings.clear()
        self.counters.clear()
        self.round_totals.clear()
        self._round_start = None
        self._round_index = None
