"""In-memory span tracing for one benchmark pass, and its per-layer summary.

Spans come only from wrappers this module installs around public calls
of the assembled simulation (``instrument``); nothing under ``src/`` is
changed.  A span records its name, start, end, parent span, and the round
it belongs to (``None`` during set-up and the warm-up round, which nest
under a separate ``setup`` root so they never count against timed
rounds).  Spans stay in memory and are written as JSON lines by
:meth:`Tracer.write` when the pass ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.clustering.meanshift as meanshift_module
import repro.core.filters as filters_module
import repro.fl.simulation as simulation_module

#: Per-layer metrics of a traced pass: name -> (unit, better).  Timings are
#: per-round medians over the rounds in which the span occurs (0 when it
#: never does, e.g. transport spans on in-process workloads).
PER_LAYER: Dict[str, tuple] = {
    "data.build_s": ("s", "lower"),
    "fl.build_clients_s": ("s", "lower"),
    "transport.fleet_spawn_s": ("s", "lower"),
    "setup.warmup_round_s": ("s", "lower"),
    "collector.wall_s": ("s", "lower"),
    "collector.client_s": ("s", "lower"),
    "collector.self_s": ("s", "lower"),
    "nn.forward_s": ("s", "lower"),
    "nn.backward_s": ("s", "lower"),
    "participation.useful_frac": ("fraction", "higher"),
    "collector.rows_computed": ("count", "lower"),
    "transport.wait_s": ("s", "lower"),
    "transport.worker_busy_max_s": ("s", "lower"),
    "transport.worker_imbalance": ("ratio", "lower"),
    "transport.bytes_received_per_round": ("bytes", "lower"),
    "transport.bytes_sent_per_round": ("bytes", "lower"),
    "transport.retries": ("count", "lower"),
    "attacks.apply_s": ("s", "lower"),
    "core.aggregate_s": ("s", "lower"),
    "core.norm_filter_s": ("s", "lower"),
    "core.features_s": ("s", "lower"),
    "core.clip_mean_s": ("s", "lower"),
    "clustering.meanshift_s": ("s", "lower"),
    "clustering.bandwidth_s": ("s", "lower"),
    "clustering.n_clusters": ("count", "lower"),
    "core.selected_frac": ("fraction", "higher"),
    "core.fallback_rounds": ("count", "lower"),
    "optim.update_s": ("s", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "round.unattributed_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

#: Largest share of timed round wall time that may lie outside the round's
#: direct child spans in a traced pass.
MAX_UNATTRIBUTED = 0.10


class Tracer:
    """Spans and per-round counters of one pass, kept in memory."""

    def __init__(self, workload: str, pass_index: int):
        self.workload = workload
        self.pass_index = pass_index
        #: ``[name, start, end, parent index or -1, round or None]``.
        self.spans: List[list] = []
        #: Round the next span belongs to; ``None`` while setting up.
        self.round: Optional[int] = None
        self.counts: Dict[Optional[int], Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []
        self._origin = time.perf_counter()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> float:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: float) -> None:
        self.counts[self.round][name] += value

    def traced(
        self, name: str, fn: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args, kwargs, seconds)``
        records counters once the span has closed."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(index)
            if after is not None:
                after(result, args, kwargs, seconds)
            return result

        return wrapper

    def wrap(self, obj: Any, attr: str, name: str, after=None) -> None:
        """Shadow a bound method with a traced instance attribute."""
        setattr(obj, attr, self.traced(name, getattr(obj, attr), after))
        self._restore.append(lambda: delattr(obj, attr))

    def patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Replace a module function or class attribute until :meth:`close`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.traced(name, original, after))
        self._restore.append(lambda: setattr(owner, attr, original))

    def close(self) -> None:
        """Remove every installed wrapper (idempotent)."""
        while self._restore:
            self._restore.pop()()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, round_index in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - self._origin,
                            "end": end - self._origin,
                            "parent": parent,
                            "workload": self.workload,
                            "pass": self.pass_index,
                            "round": round_index,
                        }
                    )
                    + "\n"
                )


def instrument(tracer: Tracer, simulation, *, transport: bool) -> None:
    """Install span wrappers on the simulation's layers.

    ``transport`` marks a distributed collector: its clients and model
    are shipped to worker processes, so they get no wrappers, and the
    collector's wire and worker counters are recorded instead.
    """
    collector = simulation.collector

    def after_collect(out, args, kwargs, seconds):
        # A call with apply_batch_stats=False is the straggler pass: its
        # rows are computed and then discarded.
        main_pass = kwargs.get("apply_batch_stats", True)
        rows = len(args[2])
        tracer.count("collector.rows_computed", rows)
        if main_pass:
            tracer.count(
                "participation.active_rows", rows - len(collector.failed_rows)
            )
        if not transport:
            return
        busy = [timing[1] for timing in collector.worker_timings]
        tracer.count("collector.worker_busy_s", sum(busy))
        if busy:
            tracer.count("transport.worker_busy_max_s", max(busy))
            tracer.count("transport.wait_s", seconds - max(busy))
            if main_pass:
                imbalance = max(busy) / statistics.fmean(busy)
                tracer.count("transport.worker_imbalance", imbalance)
        sent, received = collector.last_round_bytes
        tracer.count("transport.bytes_sent_per_round", sent)
        tracer.count("transport.bytes_received_per_round", received)
        tracer.count(
            "transport.retries",
            len(collector.last_round_redispatched) + collector.last_round_reconnects,
        )

    def after_aggregate(result, args, kwargs, seconds):
        tracer.count("core.rows", len(args[0]))
        tracer.count("core.selected_rows", len(result.selected_indices))
        tracer.count("core.fallback_rounds", bool(result.info.get("fallback")))

    def after_meanshift(result, args, kwargs, seconds):
        tracer.count("clustering.n_clusters", result.n_clusters_)

    tracer.wrap(collector, "collect", "collector.collect", after_collect)
    tracer.wrap(simulation.attack, "apply", "attacks.apply")
    aggregator = simulation.server.aggregator
    tracer.wrap(aggregator, "aggregate", "core.aggregate", after_aggregate)
    pipeline = aggregator.pipeline
    tracer.wrap(pipeline, "filter", "core.filter")
    tracer.wrap(pipeline.norm_filter, "apply", "core.norm_filter")
    tracer.patch(filters_module, "extract_features", "core.features")
    tracer.patch(
        meanshift_module.MeanShift, "fit", "clustering.meanshift", after_meanshift
    )
    tracer.patch(meanshift_module, "estimate_bandwidth", "clustering.bandwidth")
    tracer.wrap(simulation.server.optimizer, "apply_gradient_vector", "optim.update")
    tracer.patch(simulation_module, "evaluate_model", "metrics.evaluate")
    if not transport:
        for client in simulation.clients:
            tracer.wrap(client, "compute_gradient", "collector.client")
        tracer.wrap(simulation.model, "forward", "nn.forward")
        tracer.wrap(simulation.model, "backward", "nn.backward")


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (all but ``trace.overhead_frac``,
    which needs the untraced passes)."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Dict[Optional[int], Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    exclusive: Dict[Optional[int], Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for index, (name, start, end, _, round_index) in enumerate(tracer.spans):
        inclusive[round_index][name] += end - start
        exclusive[round_index][name] += end - start - child_time[index]
    rounds = sorted(r for r in inclusive if r is not None)

    def per_round(table, name: str) -> float:
        return _median([table[r][name] for r in rounds if name in table[r]])

    def counted(name: str) -> List[float]:
        return [tracer.counts[r][name] for r in rounds if name in tracer.counts[r]]

    def pooled(numerator: str, denominator: str) -> float:
        total = sum(counted(denominator))
        return sum(counted(numerator)) / total if total else 0.0

    round_wall = sum(inclusive[r]["round"] for r in rounds)
    attributed = sum(
        end - start
        for name, start, end, parent, round_index in tracer.spans
        if round_index is not None
        and parent >= 0
        and tracer.spans[parent][0] == "round"
    )
    setup = inclusive[None]
    client_s = per_round(inclusive, "collector.client") or _median(
        counted("collector.worker_busy_s")
    )
    return {
        "data.build_s": setup["data.build"],
        "fl.build_clients_s": setup["fl.build_clients"],
        "transport.fleet_spawn_s": setup["transport.fleet_spawn"],
        "setup.warmup_round_s": setup["setup.warmup_round"],
        "collector.wall_s": per_round(inclusive, "collector.collect"),
        "collector.client_s": client_s,
        "collector.self_s": per_round(exclusive, "collector.collect"),
        "nn.forward_s": per_round(inclusive, "nn.forward"),
        "nn.backward_s": per_round(inclusive, "nn.backward"),
        "participation.useful_frac": pooled(
            "participation.active_rows", "collector.rows_computed"
        ),
        "collector.rows_computed": _median(counted("collector.rows_computed")),
        "transport.wait_s": _median(counted("transport.wait_s")),
        "transport.worker_busy_max_s": _median(counted("transport.worker_busy_max_s")),
        "transport.worker_imbalance": _median(counted("transport.worker_imbalance")),
        "transport.bytes_received_per_round": _median(
            counted("transport.bytes_received_per_round")
        ),
        "transport.bytes_sent_per_round": _median(
            counted("transport.bytes_sent_per_round")
        ),
        "transport.retries": sum(counted("transport.retries")),
        "attacks.apply_s": per_round(inclusive, "attacks.apply"),
        "core.aggregate_s": per_round(inclusive, "core.aggregate"),
        "core.norm_filter_s": per_round(inclusive, "core.norm_filter"),
        "core.features_s": per_round(inclusive, "core.features"),
        "core.clip_mean_s": per_round(exclusive, "core.aggregate"),
        "clustering.meanshift_s": per_round(exclusive, "clustering.meanshift"),
        "clustering.bandwidth_s": per_round(inclusive, "clustering.bandwidth"),
        "clustering.n_clusters": _median(counted("clustering.n_clusters")),
        "core.selected_frac": pooled("core.selected_rows", "core.rows"),
        "core.fallback_rounds": sum(counted("core.fallback_rounds")),
        "optim.update_s": per_round(inclusive, "optim.update"),
        "metrics.evaluate_s": per_round(inclusive, "metrics.evaluate"),
        "round.unattributed_frac": 1.0 - attributed / round_wall if round_wall else 1.0,
    }
