"""Micro-benchmark runner with machine-readable JSON output.

The runner deliberately stays tiny: warm up, run ``repeats`` timed
iterations of a callable, record best/mean/total.  Results are serialized to
``BENCH_*.json`` files (one per benchmark suite) so each PR can check in
hard evidence of its speedups and CI can detect regressions by comparing
files across revisions.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.perf.timers import monotonic

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None  # type: ignore[assignment]


def peak_rss_bytes() -> int:
    """Process-lifetime high-water-mark resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; 0 on platforms
    without the ``resource`` module.  The value is monotone over the
    process lifetime (it cannot be reset), so it is an *upper bound* on
    any single benchmark's footprint — memory *floors* are enforced with
    a resettable tracer (``tracemalloc``), while this number is recorded
    per bench row as deployment-planning context.
    """
    if resource is None:  # pragma: no cover - non-POSIX hosts
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak if sys.platform == "darwin" else peak * 1024)


@dataclass
class BenchResult:
    """Timing summary of one micro-benchmark case."""

    name: str
    repeats: int
    best_s: float
    mean_s: float
    total_s: float
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "repeats": self.repeats,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "total_s": self.total_s,
            "extra": dict(self.extra),
        }


def run_benchmark(
    fn: Callable[[], Any],
    *,
    name: str = "benchmark",
    repeats: int = 3,
    warmup: int = 1,
    extra: Optional[Dict[str, Any]] = None,
) -> BenchResult:
    """Time ``fn`` over ``repeats`` runs after ``warmup`` untimed runs."""
    return run_interleaved({name: fn}, repeats=repeats, warmup=warmup, extra=extra)[0]


def run_interleaved(
    cases: Dict[str, Callable[[], Any]],
    *,
    repeats: int = 3,
    warmup: int = 1,
    extra: Optional[Dict[str, Any]] = None,
) -> List[BenchResult]:
    """Time several callables in one alternating loop, one result per case.

    Each iteration runs every case once, in order, so a change of host
    speed during the loop lands on all of them alike: the ratio of two
    best-of times then compares runs taken moments apart, where timing
    the cases in separate loops would compare different host phases.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        for fn in cases.values():
            fn()
    samples: Dict[str, List[float]] = {name: [] for name in cases}
    for _ in range(repeats):
        for name, fn in cases.items():
            start = monotonic()
            fn()
            samples[name].append(monotonic() - start)
    # Every bench row carries the process peak RSS observed by the time the
    # row was measured (callers can override by passing their own value).
    merged_extra = dict(extra or {})
    merged_extra.setdefault("peak_rss_bytes", peak_rss_bytes())
    return [
        BenchResult(
            name=name,
            repeats=repeats,
            best_s=min(times),
            mean_s=sum(times) / len(times),
            total_s=sum(times),
            extra=dict(merged_extra),
        )
        for name, times in samples.items()
    ]


def speedup(reference: BenchResult, optimized: BenchResult) -> float:
    """Best-over-best wall-clock speedup of ``optimized`` vs ``reference``."""
    if optimized.best_s <= 0:
        return float("inf")
    return reference.best_s / optimized.best_s


def _environment_info() -> Dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        # Parallel-backend speedups (process/distributed collect) only mean
        # anything next to the core count they were measured on.
        "cpu_count": os.cpu_count() or 1,
    }


def write_bench_json(
    path: Union[str, Path],
    results: Iterable[BenchResult],
    *,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Serialize benchmark results (plus environment info) to ``path``."""
    path = Path(path)
    payload = {
        "schema": "repro.perf/bench-v1",
        "environment": _environment_info(),
        "metadata": dict(metadata or {}),
        "results": [result.to_dict() for result in results],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_bench_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a ``BENCH_*.json`` payload back into a dict."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
