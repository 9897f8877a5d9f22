"""Tests for the repro.perf benchmarking/profiling subsystem."""

import json
import time

import numpy as np
import pytest

from repro.perf import (
    BenchResult,
    NullProfiler,
    RoundProfiler,
    StageTimings,
    Timer,
    monotonic,
    read_bench_json,
    run_benchmark,
    run_interleaved,
    speedup,
    write_bench_json,
)


class TestTimer:
    def test_monotonic_increases(self):
        a = monotonic()
        b = monotonic()
        assert b >= a

    def test_context_manager(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005
        assert not timer.running

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestStageTimings:
    def test_accumulates_and_summarizes(self):
        timings = StageTimings()
        timings.add("a", 1.0)
        timings.add("a", 3.0)
        timings.add("b", 0.5)
        summary = timings.summary()
        assert summary["a"]["count"] == 2
        assert summary["a"]["mean_s"] == pytest.approx(2.0)
        assert summary["a"]["min_s"] == 1.0
        assert summary["a"]["max_s"] == 3.0
        assert timings.total("b") == 0.5
        assert len(timings) == 3

    def test_merge(self):
        a, b = StageTimings(), StageTimings()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.summary()["x"]["count"] == 2
        assert "y" in a.summary()


class TestRoundProfiler:
    def test_records_stages_and_rounds(self):
        profiler = RoundProfiler()
        for round_index in range(3):
            profiler.begin_round(round_index)
            with profiler.stage("work"):
                pass
            profiler.end_round()
        assert profiler.num_rounds == 3
        assert profiler.summary()["work"]["count"] == 3
        assert profiler.summary()["round_total"]["count"] == 3
        payload = profiler.to_dict()
        assert payload["num_rounds"] == 3
        assert payload["rounds"][0]["round_index"] == 0

    def test_stage_records_on_exception(self):
        profiler = RoundProfiler()
        with pytest.raises(ValueError):
            with profiler.stage("explodes"):
                raise ValueError("boom")
        assert profiler.summary()["explodes"]["count"] == 1

    def test_reset(self):
        profiler = RoundProfiler()
        with profiler.stage("x"):
            pass
        profiler.reset()
        assert profiler.summary() == {}

    def test_null_profiler_is_inert(self):
        profiler = NullProfiler()
        with profiler.stage("anything"):
            pass
        profiler.begin_round()
        profiler.end_round()
        assert not profiler.enabled


class TestBenchRunner:
    def test_run_benchmark(self):
        calls = []
        result = run_benchmark(lambda: calls.append(1), repeats=3, warmup=2, name="x")
        assert len(calls) == 5
        assert result.repeats == 3
        assert result.best_s <= result.mean_s

    def test_run_interleaved_alternates_cases(self):
        calls = []
        results = run_interleaved(
            {"a": lambda: calls.append("a"), "b": lambda: calls.append("b")},
            repeats=3,
            warmup=1,
        )
        # One warm-up round, then every timed iteration runs each case once.
        assert calls == ["a", "b"] * 4
        assert [r.name for r in results] == ["a", "b"]
        assert all(r.repeats == 3 and r.best_s <= r.mean_s for r in results)
        assert all(r.extra["peak_rss_bytes"] > 0 for r in results)
        with pytest.raises(ValueError):
            run_interleaved({"a": lambda: None}, repeats=0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            run_benchmark(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            run_benchmark(lambda: None, warmup=-1)

    def test_speedup(self):
        slow = BenchResult(name="slow", repeats=1, best_s=2.0, mean_s=2.0, total_s=2.0)
        fast = BenchResult(name="fast", repeats=1, best_s=0.5, mean_s=0.5, total_s=0.5)
        assert speedup(slow, fast) == pytest.approx(4.0)

    def test_write_and_read_json(self, tmp_path):
        result = run_benchmark(lambda: None, repeats=1, name="noop", extra={"n": 3})
        path = write_bench_json(
            tmp_path / "BENCH_test.json", [result], metadata={"suite": "unit"}
        )
        payload = read_bench_json(path)
        assert payload["schema"] == "repro.perf/bench-v1"
        assert payload["metadata"]["suite"] == "unit"
        assert payload["results"][0]["name"] == "noop"
        extra = payload["results"][0]["extra"]
        assert extra["n"] == 3
        # Every row records the process peak RSS (deployment-planning
        # context, stamped by run_benchmark itself).
        assert extra["peak_rss_bytes"] > 0
        # File is valid JSON with a trailing newline (checked-in artifact).
        text = path.read_text()
        assert text.endswith("\n")
        json.loads(text)


class TestProfilerIntegration:
    def test_experiment_records_all_stages(self):
        from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
        from repro.fl.experiment import run_experiment

        profiler = RoundProfiler()
        config = ExperimentConfig(
            num_clients=5,
            seed=0,
            data=DataConfig(dataset="mnist_like", num_train=60, num_test=30),
            training=TrainingConfig(model="logistic", rounds=2, batch_size=8),
            defense=DefenseConfig(name="signguard"),
        )
        run_experiment(config, profiler=profiler)
        summary = profiler.summary()
        for stage in ("collect_gradients", "attack", "aggregate", "model_update",
                      "round_total"):
            assert summary[stage]["count"] == 2, stage

    def test_float32_round_buffer(self):
        from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
        from repro.fl.experiment import run_experiment

        config = ExperimentConfig(
            num_clients=5,
            seed=0,
            data=DataConfig(dataset="mnist_like", num_train=60, num_test=30),
            training=TrainingConfig(
                model="logistic", rounds=2, batch_size=8, dtype="float32"
            ),
            defense=DefenseConfig(name="signguard"),
        )
        recorder = run_experiment(config)
        assert len(recorder.rounds) == 2

    def test_attack_stage_preserves_float32(self, rng):
        """The attack entry point must not upcast the float32 round buffer
        back to float64 (that would silently disable the reduced-precision
        path for every real experiment)."""
        from repro.attacks.base import AttackContext
        from repro.attacks.simple import NoAttack, SignFlipAttack

        honest = rng.normal(size=(6, 20)).astype(np.float32)
        context = AttackContext.make(num_clients=6, byzantine_indices=[0, 1], rng=0)
        for attack in (NoAttack(), SignFlipAttack()):
            assert attack.apply(honest, context).dtype == np.float32

    def test_simulation_rejects_bad_dtype(self, tiny_image_dataset):
        from repro.aggregators.mean import MeanAggregator
        from repro.attacks.simple import NoAttack
        from repro.fl.server import FederatedServer
        from repro.fl.simulation import FederatedSimulation, build_clients
        from repro.nn.models.factory import build_model

        model = build_model(
            "logistic", tiny_image_dataset.spec, rng=np.random.default_rng(0)
        )
        clients = build_clients(
            tiny_image_dataset, [np.arange(30), np.arange(30, 60)], []
        )
        server = FederatedServer(model, MeanAggregator())
        with pytest.raises(ValueError, match="dtype"):
            FederatedSimulation(
                server, clients, NoAttack(), tiny_image_dataset, dtype="int32"
            )
