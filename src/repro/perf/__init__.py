"""``repro.perf`` — the benchmarking and profiling subsystem.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; this package supplies the instrumentation needed to *prove* every
speedup instead of asserting it:

* :mod:`repro.perf.timers` — monotonic wall-clock timers and a named
  stage-timing accumulator.
* :mod:`repro.perf.profiler` — :class:`RoundProfiler`, the per-round,
  per-stage profiler the federated server and simulation hook into.
* :mod:`repro.perf.bench` — a micro-benchmark runner producing
  machine-readable ``BENCH_*.json`` files so regressions are visible
  PR-over-PR.
* :mod:`repro.perf.reference` — frozen copies of the pre-optimization
  (seed) implementations, used as the baseline for both the equivalence
  test suite and the speedup benchmarks.
"""

from repro.perf.bench import (
    BenchResult,
    peak_rss_bytes,
    read_bench_json,
    run_benchmark,
    run_interleaved,
    speedup,
    write_bench_json,
)
from repro.perf.profiler import NULL_PROFILER, NullProfiler, RoundProfiler
from repro.perf.timers import StageTimings, Timer, monotonic

__all__ = [
    "BenchResult",
    "peak_rss_bytes",
    "run_benchmark",
    "run_interleaved",
    "speedup",
    "read_bench_json",
    "write_bench_json",
    "RoundProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "StageTimings",
    "Timer",
    "monotonic",
]
