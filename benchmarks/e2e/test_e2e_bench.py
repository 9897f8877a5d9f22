"""Self-test of the end-to-end round benchmark at tiny sizes (a few seconds).

Checks that every workload emits every metric BENCHMARK.json names, that
traced spans nest, and that the benchmark's own assembly computes what
``run_experiment`` and the sequential backend compute.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.harness import digest_records, run_pass
from benchmarks.e2e.trace import PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS
from repro.fl import run_experiment
from repro.fl.transport import start_thread_fleet

# Warm-up plus two timed rounds; the second timed round evaluates.
TINY_CLIENTS = {"paper_cnn": 6, "wide_mlp": 6, "cohort2k": 10, "fleet_sampled": 12}


def tiny(name):
    batch = WORKLOADS[name].config.training.batch_size
    clients = TINY_CLIENTS[name]
    return WORKLOADS[name].resized(
        num_clients=clients,
        num_train=clients * batch + 60,
        num_test=60,
        rounds=3,
        eval_every=3,
    )


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced tiny pass per workload; fleets run as
    in-process worker threads to keep the test fast."""
    trace_dir = tmp_path_factory.mktemp("traces")
    results = {}
    for name in WORKLOADS:
        results[name] = [
            run_pass(
                tiny(name),
                seed=0,
                pass_index=index,
                traced=traced,
                fleet_factory=start_thread_fleet,
                trace_path=trace_dir / f"{name}.jsonl" if traced else None,
            )
            for index, traced in enumerate((False, True))
        ]
    return results, trace_dir


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_benchmark_metric(passes, name):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    summary = run.summarize(passes[0][name])
    values = {**summary["metrics"], **summary["per_layer"]}
    units = {**run.END_TO_END, **PER_LAYER}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert math.isfinite(values[entry["name"]]), entry["name"]
        assert units[entry["name"]][0] == entry["unit"], entry["name"]
        assert units[entry["name"]][1] == entry["better"], entry["name"]
    assert set(run.END_TO_END) <= set(summary["metrics"])
    assert set(PER_LAYER) == set(summary["per_layer"])
    assert summary["attempted"] == 4 and summary["failed"] == 0
    checks = dict(summary["checks"])
    # At this size two rounds need not learn, and the simulation's own
    # bookkeeping is a large share of a round that barely computes.
    assert ("accuracy_above_chance" in checks) == WORKLOADS[name].beats_chance
    for check in ("accuracy_above_chance", "training_loss_fell"):
        checks.pop(check, None)
    checks.pop("spans_explain_rounds")
    assert all(checks.values()), checks


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_nest_and_residual_is_computed(passes, name):
    results, trace_dir = passes
    lines = (trace_dir / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    roots = [span for span in spans if span["parent"] < 0]
    assert {root["name"] for root in roots} == {"setup", "round"}
    # Set-up and the warm-up round belong to no timed round.
    assert [root["round"] for root in roots] == [None, 1, 2]
    for span in spans:
        assert span["workload"] == name and span["pass"] == 1
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            # Warm-up spans stay under the set-up root, never a timed round.
            assert parent["round"] == span["round"]
    per_layer = run.summarize(results[name])["per_layer"]
    assert 0.0 <= per_layer["round.unattributed_frac"] <= 1.0
    assert per_layer["collector.wall_s"] > 0.0


def test_assembly_matches_run_experiment():
    workload = tiny("paper_cnn")
    result = run_pass(workload, seed=3)
    recorder = run_experiment(workload.with_seed(3))
    assert result["digest"] == digest_records(recorder)
    assert result["test_accuracy"] == list(recorder)[-1].test_accuracy


def test_thread_fleet_matches_sequential_backend():
    workload = tiny("fleet_sampled")
    fleet = run_pass(workload, seed=1, fleet_factory=start_thread_fleet)
    sequential = run_pass(dataclasses.replace(workload, fleet_workers=0), seed=1)
    assert fleet["digest"] == sequential["digest"]
    assert fleet["test_accuracy"] == sequential["test_accuracy"]
    assert fleet["checks"]["planned_dropouts_only"]
