"""The collector constructor: backend dispatch and the collect rules.

``make_collector`` is the one public path from collect options to a
collect strategy, for every name in ``COLLECT_BACKENDS``.  It checks its
options with the rules ``TrainingConfig.validate`` enforces, so a setting
a backend would not use raises instead of being dropped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl import COLLECT_BACKENDS, SequentialCollector, make_collector
from repro.fl.transport import DistributedCollector, LocalFleetCollector


class TestRegistry:
    def test_builtin_backends_registered(self):
        # Every documented backend name builds through the one constructor.
        expected = {
            "sequential": SequentialCollector,
            "thread": LocalFleetCollector,
            "process": LocalFleetCollector,
            "distributed": DistributedCollector,
        }
        assert set(COLLECT_BACKENDS) == set(expected)
        for backend in COLLECT_BACKENDS:
            workers = ["127.0.0.1:1"] if backend == "distributed" else None
            collector = make_collector(backend=backend, n_workers=2, workers=workers)
            assert type(collector) is expected[backend]
            collector.close()

    def test_unknown_backend_keeps_documented_error(self):
        with pytest.raises(ValueError, match="collect backend must be one of"):
            make_collector(backend="carrier-pigeon", n_workers=2)

    def test_backend_names_are_case_insensitive(self):
        collector = make_collector(backend="Sequential", n_workers=1)
        assert isinstance(collector, SequentialCollector)


class TestBuildCollector:
    """Keyword-only construction, without a config."""

    def test_sequential(self):
        assert isinstance(
            make_collector(backend="sequential", n_workers=1), SequentialCollector
        )

    def test_thread(self):
        collector = make_collector(backend="thread", n_workers=4)
        assert isinstance(collector, LocalFleetCollector)
        assert (collector.kind, collector.n_workers) == ("thread", 4)

    def test_single_worker_degrades_to_sequential(self):
        for backend in ("thread", "process"):
            collector = make_collector(backend=backend, n_workers=1)
            assert isinstance(collector, SequentialCollector)

    def test_process(self):
        collector = make_collector(backend="process", n_workers=2)
        try:
            assert isinstance(collector, LocalFleetCollector)
            assert (collector.kind, collector.n_workers) == ("process", 2)
        finally:
            collector.close()

    def test_distributed_passes_codec_and_timeouts(self):
        collector = make_collector(
            backend="distributed",
            n_workers=1,
            workers=["127.0.0.1:1"],
            round_timeout=None,
            wire_codec="sign1bit",
        )
        assert isinstance(collector, DistributedCollector)
        assert collector.wire_codec == "sign1bit"
        assert all(conn.round_timeout is None for conn in collector._conns)

    def test_local_fleets_get_the_distributed_recovery_options(self):
        from repro.fl.faults import FaultSchedule
        from tests.test_fl_parallel_collect import make_clients, make_model

        schedule = FaultSchedule.from_args(["crash@9"])
        collector = make_collector(
            backend="thread",
            n_workers=2,
            round_timeout=None,
            redispatch=False,
            fault_schedule=schedule,
        )
        clients, model = make_clients(4), make_model()
        try:
            collector.collect(clients, model, np.empty((4, model.num_parameters())))
            engine = collector._collector
            assert isinstance(engine, DistributedCollector)
            assert engine.redispatch is False
            assert engine.fault_schedule is schedule
            assert all(conn.round_timeout is None for conn in engine._conns)
        finally:
            collector.close()

    def test_distributed_requires_workers(self):
        with pytest.raises(ValueError, match="requires workers"):
            make_collector(backend="distributed", n_workers=1)


class TestMakeCollector:
    def test_defaults_without_a_config(self):
        # backend "thread" at n_workers=1 is the sequential strategy.
        assert isinstance(make_collector(), SequentialCollector)

    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    @pytest.mark.parametrize(
        "option",
        [{"workers": ["127.0.0.1:1"]}, {"wire_codec": "int8"}],
        ids=["workers", "wire_codec"],
    )
    def test_local_backends_refuse_distributed_options(self, backend, option):
        # The local backends would ignore these; refusing them is what
        # TrainingConfig.validate does for the same combination.
        with pytest.raises(ValueError, match="only meaningful"):
            make_collector(backend=backend, n_workers=2, **option)

    def test_standing_local_fleet_serves_a_new_architecture(self):
        from tests.test_fl_parallel_collect import (
            BatchNormMLP,
            make_clients,
            make_model,
        )

        collector = make_collector(backend="thread", n_workers=2)
        try:
            fleets = []
            for model in (make_model(), BatchNormMLP()):
                reference = np.empty((4, model.num_parameters()))
                SequentialCollector().collect(make_clients(4), model, reference)
                out = np.empty_like(reference)
                collector.collect(make_clients(4), model, out)
                assert np.array_equal(reference, out)
                fleets.append(collector.fleet)
            assert fleets[1] is fleets[0]
        finally:
            collector.close()
