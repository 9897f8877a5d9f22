"""End-to-end federated-round benchmark.

Runs whole SignGuard rounds on the workloads in ``workloads.py`` and
prints ``workload metric value unit`` for every end-to-end metric (and,
with ``--trace``, every per-layer metric), then one JSON result line::

    python benchmarks/e2e/run.py [--seed N] [--workload W ...] [--trace]
                                 [--seconds S] [--out PATH]

Every pass runs in a fresh interpreter with BLAS/OpenMP pinned to one
thread: set-up, one warm-up round, then the workload's timed rounds,
driven as a closed loop by that single process.  Passes are interleaved
round-robin across workloads.  Without ``--seconds`` a run is five
untraced passes per workload; with it, as many as fit in the budget at
the nominal pass length, and at least three.  ``--trace`` adds one
traced pass per workload (the second pass) for the per-layer metrics.
Exits 1 when a correctness check fails, 2 outside a full checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {ROOT}", file=sys.stderr)
        sys.exit(2)
    # The repository root replaces this script's directory on the path, so
    # benchmarks.e2e.trace cannot shadow the standard library's trace.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.trace import MAX_UNATTRIBUTED, PER_LAYER  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> (unit, better).  BENCHMARK.json bounds the
#: ones that are never zero and steady across seeds.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "round_p50_s": ("s", "lower"),
    "round_p90_s": ("s", "lower"),
    "client_grads_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "test_accuracy": ("fraction", "higher"),
    "byzantine_accept_rate": ("fraction", "lower"),
    "benign_accept_rate": ("fraction", "higher"),
    "failed_round_frac": ("fraction", "lower"),
}

PASSES = 5
MIN_PASSES = 3
#: Nominal length of one pass on the reference host (2-core Xeon VM); the
#: workloads' round counts are sized to it.  ``--seconds`` buys whole
#: passes at this rate, so every run of one setting does the same work.
PASS_SECONDS = 8.0
#: One workload's passes must end within this many seconds, so a
#: single-workload run ends within three minutes; a pass still running
#: at the deadline is killed and counted as failed.
WORKLOAD_DEADLINE_S = 170.0
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
OUT_DIR = ROOT / "benchmarks" / "e2e" / "out"


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_facts() -> Dict[str, Any]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": dict(THREAD_PINS),
    }


def _child_env() -> Dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The worker fleet's stderr capture files go here, inside the checkout.
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    return env


def run_child(
    workload: str, seed: int, pass_index: int, traced: bool, timeout: float
) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter; a crash or timeout fails every
    round of the pass."""
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e.harness",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--pass-index",
        str(pass_index),
    ]
    if traced:
        trace_path = OUT_DIR / f"trace-{workload}.jsonl"
        command += ["--traced", "--trace-path", str(trace_path)]
    load_before = os.getloadavg()
    # A session of its own lets a timeout kill the pass and its workers.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        stdout = ""
    lines = stdout.strip().splitlines()
    if process.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        rounds = WORKLOADS[workload].timed_rounds
        result = {"workload": workload, "pass": pass_index, "traced": traced}
        result.update(crashed=True, attempted=rounds, failed=rounds, checks={})
    result["loadavg_before"] = load_before
    result["loadavg_after"] = os.getloadavg()
    return result


def run_passes(
    names: List[str], seed: int, *, seconds: Optional[float], trace: bool
) -> Dict[str, List[Dict[str, Any]]]:
    """Run every workload's passes, interleaved round-robin across ``names``."""
    if seconds is None:
        count = PASSES
    else:
        count = max(MIN_PASSES, int(seconds // PASS_SECONDS))
    plan = [False] * count
    if trace:
        plan.insert(1, True)
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    for index, traced in enumerate(plan):
        for name in names:
            remaining = WORKLOAD_DEADLINE_S - spent[name]
            started = time.perf_counter()
            passes[name].append(run_child(name, seed, index, traced, remaining))
            spent[name] += time.perf_counter() - started
    return passes


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("nan")


def summarize(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool one workload's passes into its metrics and checks."""
    done = [p for p in passes if not p.get("crashed")]
    untraced = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    round_s = [s for p in untraced for s in p["round_s"]]
    wall_round_s = [s for p in untraced for s in p["wall_round_s"]]

    def total(key: str) -> float:
        return sum(p[key] for p in untraced)

    def median(key: str) -> float:
        values = [p[key] for p in untraced if p.get(key) is not None]
        return float(statistics.median(values)) if values else float("nan")

    def percentile(q: float) -> float:
        return float(np.percentile(round_s, q)) if round_s else float("nan")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": median("setup_s"),
        "round_p50_s": percentile(50),
        "round_p90_s": percentile(90),
        "client_grads_per_s": _ratio(total("reporting"), sum(round_s)),
        "peak_rss_mib": median("peak_rss_mib"),
        "test_accuracy": median("test_accuracy"),
        "byzantine_accept_rate": _ratio(
            total("byzantine_selected"), total("byzantine_total")
        ),
        "benign_accept_rate": _ratio(total("benign_selected"), total("benign_total")),
        "failed_round_frac": _ratio(failed, attempted),
    }
    checks = {
        "every_pass_completed": len(done) == len(passes) and bool(untraced),
        # Same seed, same arithmetic: every pass, traced or not, must agree.
        "digest_stable": len({p["digest"] for p in done}) == 1,
    }
    for p in done:
        for name, ok in p["checks"].items():
            checks[name] = checks.get(name, True) and ok
    per_layer: Dict[str, float] = {}
    if traced:
        per_layer = dict(traced[0]["per_layer"])
        traced_p50 = float(np.median(traced[0]["round_s"]))
        per_layer["trace.overhead_frac"] = traced_p50 / metrics["round_p50_s"] - 1.0
        checks["spans_explain_rounds"] = (
            per_layer["round.unattributed_frac"] <= MAX_UNATTRIBUTED
        )
    return {
        "metrics": metrics,
        "per_layer": per_layer,
        "checks": checks,
        "digest": done[0]["digest"] if done else None,
        "attempted": attempted,
        "failed": failed,
        "timed_rounds": len(round_s),
        "wall_round_p50_s": (
            float(np.median(wall_round_s)) if wall_round_s else float("nan")
        ),
        "passes": passes,
    }


def _number(value: float) -> Optional[float]:
    return value if np.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end federated-round benchmark."
    )
    parser.add_argument(
        "--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    passes = run_passes(
        args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    summaries = {name: summarize(passes[name]) for name in args.workload}

    reported = {**END_TO_END, **(PER_LAYER if args.trace else {})}
    for name, summary in summaries.items():
        values = {**summary["metrics"], **summary["per_layer"]}
        for metric, (unit, _) in reported.items():
            print(f"{name} {metric} {values.get(metric, float('nan'))!r} {unit}")
        print(f"{name} wall_round_p50_s {summary['wall_round_p50_s']!r} s")
        print(f"{name} timed_rounds {summary['timed_rounds']} count")
        print(f"{name} digest {summary['digest']} sha256")
        for check, ok in summary["checks"].items():
            if not ok:
                print(f"{name} CHECK FAILED: {check}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    units = {**END_TO_END, **PER_LAYER}
    correct = all(all(s["checks"].values()) for s in summaries.values())
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, summary in summaries.items():
        values = {**summary["metrics"], **summary["per_layer"]}
        prefix = "" if len(summaries) == 1 else f"{name}/"
        for entry in spec[section]:
            metric = entry["name"]
            metrics[prefix + metric] = {
                "value": _number(values.get(metric, float("nan"))),
                "unit": units[metric][0],
            }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        document = {"host": host_facts(), "seed": args.seed, "workloads": summaries}
        args.out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
