"""Tests for the participation-aware round engine.

Contracts under test:

* :class:`RoundPlan` / the schedules: sorted ids, cohort partitioning,
  at-least-one-active resurrection, reproducibility, and the
  full-participation zero-randomness guarantee.
* Collect backends handle arbitrary (non-contiguous) client subsets —
  bit-identically to each other, with BatchNorm statistics replayed in
  plan order, with non-sampled clients' RNG streams untouched, and with
  the variable-width round buffer NaN-invalidated on failure.
* The simulation threads the plan through every layer: cohort-scoped
  attack context, scaled Byzantine hint, global-id selection records,
  profiler annotations — and ``participation="full"`` (the default) is
  bit-identical to a plain pre-participation run on every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
from repro.aggregators import MeanAggregator
from repro.aggregators.base import Aggregator, AggregationResult, all_indices
from repro.attacks import NoAttack, SignFlipAttack
from repro.attacks.base import Attack
from repro.core import SignGuard
from repro.data.partition import iid_partition
from repro.data.synthetic_images import make_mnist_like
from repro.fl.collector import SequentialCollector, make_collector, resolve_rows
from repro.fl.experiment import run_experiment
from repro.fl.participation import (
    FixedCohortParticipation,
    FullParticipation,
    RoundPlan,
    UniformParticipation,
    build_participation,
    scaled_byzantine_hint,
)
from repro.fl.server import FederatedServer
from repro.fl.simulation import FederatedSimulation, build_clients
from repro.nn.models import build_model
from repro.utils.rng import RngFactory
from test_fl_parallel_collect import BatchNormMLP, explode, make_clients, make_model


class TestRoundPlan:
    def make_plan(self, **overrides):
        fields = dict(
            round_index=0,
            population_size=10,
            cohort=[1, 3, 5, 7],
            active=[1, 5],
            dropped=[3],
            stragglers=[7],
        )
        fields.update(overrides)
        return RoundPlan(**fields)

    def test_partition_accounting(self):
        plan = self.make_plan()
        assert plan.cohort_size == 4
        assert plan.num_active == 2
        assert plan.num_dropped == 1
        assert plan.num_stragglers == 1
        np.testing.assert_array_equal(plan.computing, [1, 5, 7])
        assert not plan.is_full_round

    def test_ids_sorted_on_construction(self):
        plan = self.make_plan(cohort=[7, 1, 5, 3], active=[5, 1])
        np.testing.assert_array_equal(plan.cohort, [1, 3, 5, 7])
        np.testing.assert_array_equal(plan.active, [1, 5])

    def test_byzantine_positions_are_cohort_local(self):
        plan = self.make_plan()
        # Clients 5 and 9 are Byzantine; only 5 is active, at row 1.
        np.testing.assert_array_equal(plan.byzantine_positions([5, 9]), [1])
        # Dropped/straggling Byzantine clients do not appear.
        np.testing.assert_array_equal(plan.byzantine_positions([3, 7]), [])

    def test_partition_violations_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            self.make_plan(dropped=[2])  # 2 not in cohort
        with pytest.raises(ValueError, match="disjoint"):
            self.make_plan(dropped=[3, 5])
        with pytest.raises(ValueError, match="at least one active"):
            self.make_plan(active=[], dropped=[1, 3, 5, 7], stragglers=[])
        with pytest.raises(ValueError, match="duplicate"):
            self.make_plan(cohort=[1, 1, 3, 5])
        with pytest.raises(ValueError, match="outside"):
            self.make_plan(cohort=[1, 3, 5, 77])


class TestSchedules:
    def test_full_participation_consumes_no_randomness(self):
        schedule = FullParticipation()
        for round_index in range(3):
            plan = schedule.plan(round_index, 7)
            np.testing.assert_array_equal(plan.cohort, np.arange(7))
            np.testing.assert_array_equal(plan.active, np.arange(7))
            assert plan.is_full_round
            assert plan.num_dropped == plan.num_stragglers == 0

    def test_uniform_cohort_size_and_reproducibility(self):
        a = UniformParticipation(0.3, rng=np.random.default_rng(5))
        b = UniformParticipation(0.3, rng=np.random.default_rng(5))
        for round_index in range(5):
            plan_a = a.plan(round_index, 20)
            plan_b = b.plan(round_index, 20)
            assert plan_a.cohort_size == 6
            np.testing.assert_array_equal(plan_a.cohort, plan_b.cohort)
        distinct = {tuple(a.plan(r, 20).cohort) for r in range(10)}
        assert len(distinct) > 1  # the cohort actually changes per round

    def test_uniform_fraction_validated(self):
        with pytest.raises(ValueError, match="participation_fraction"):
            UniformParticipation(0.0)
        with pytest.raises(ValueError, match="participation_fraction"):
            UniformParticipation(1.5)

    def test_fixed_cohort(self):
        schedule = FixedCohortParticipation(4, rng=np.random.default_rng(0))
        plan = schedule.plan(0, 10)
        assert plan.cohort_size == 4
        with pytest.raises(ValueError, match="exceeds the population"):
            schedule.plan(0, 3)

    def test_dropout_and_stragglers_partition_cohort(self):
        schedule = UniformParticipation(
            0.5, dropout_rate=0.3, straggler_rate=0.3, rng=np.random.default_rng(1)
        )
        saw_dropout = saw_straggler = False
        for round_index in range(30):
            plan = schedule.plan(round_index, 20)
            combined = np.sort(
                np.concatenate([plan.active, plan.dropped, plan.stragglers])
            )
            np.testing.assert_array_equal(combined, plan.cohort)
            assert plan.num_active >= 1
            saw_dropout |= plan.num_dropped > 0
            saw_straggler |= plan.num_stragglers > 0
        assert saw_dropout and saw_straggler

    def test_all_failed_round_resurrects_one_client(self):
        schedule = FullParticipation(
            dropout_rate=0.99, rng=np.random.default_rng(0)
        )
        for round_index in range(50):
            plan = schedule.plan(round_index, 3)
            assert plan.num_active >= 1

    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError, match="dropout_rate"):
            FullParticipation(dropout_rate=-0.1)
        with pytest.raises(ValueError, match="< 1"):
            FullParticipation(straggler_rate=1.0)

    def test_build_participation_names(self):
        assert isinstance(build_participation("full"), FullParticipation)
        assert isinstance(
            build_participation("uniform", participation_fraction=0.2),
            UniformParticipation,
        )
        assert isinstance(
            build_participation("fixed_cohort", cohort_size=3),
            FixedCohortParticipation,
        )
        with pytest.raises(ValueError, match="cohort_size"):
            build_participation("fixed_cohort")
        with pytest.raises(ValueError, match="participation"):
            build_participation("every_other_tuesday")

    def test_scaled_byzantine_hint(self):
        assert scaled_byzantine_hint(None, 10, 100) is None
        assert scaled_byzantine_hint(20, 100, 100) == 20  # full round: unchanged
        assert scaled_byzantine_hint(20, 20, 100) == 4
        assert scaled_byzantine_hint(3, 7, 10) == 2


class TestCollectSubsets:
    """Non-contiguous subsets through the sequential and fleet backends.

    The process fleet joins only the cases whose clients and model
    ``repro-worker`` subprocesses can import.
    """

    ROWS = [0, 2, 5]

    def backends(self, process=True):
        backends = [
            ("sequential", SequentialCollector),
            ("thread", lambda: make_collector(backend="thread", n_workers=2)),
        ]
        if process:
            backends.append(
                ("process", lambda: make_collector(backend="process", n_workers=2))
            )
        return backends

    def test_subset_rows_match_full_collect_across_backends(self):
        # Round 1 from a fresh population: client i's gradient depends only
        # on its own RNG stream, so the subset buffer must equal the
        # corresponding rows of a full collect, on every backend.
        full_clients = make_clients(6)
        model = make_model()
        dim = model.num_parameters()
        full = np.empty((6, dim))
        SequentialCollector().collect(full_clients, model, full)
        for name, make_collector in self.backends():
            clients = make_clients(6)
            out = np.empty((len(self.ROWS), dim))
            with make_collector() as collector:
                collector.collect(clients, model, out, rows=self.ROWS)
            assert np.array_equal(out, full[self.ROWS]), name

    def test_subset_collect_identical_across_backends_over_rounds(self):
        def run(make_collector):
            clients = make_clients(6)
            model = make_model()
            buffers = []
            with make_collector() as collector:
                for rows in ([0, 2, 5], [1, 2, 4], [3], [0, 1, 2, 3, 4, 5]):
                    out = np.empty((len(rows), model.num_parameters()))
                    collector.collect(clients, model, out, rows=rows)
                    buffers.append(out.copy())
            return buffers, [c.last_loss for c in clients]

        reference, ref_losses = run(SequentialCollector)
        for name, make_collector in self.backends()[1:]:
            buffers, losses = run(make_collector)
            for ref, got in zip(reference, buffers):
                assert np.array_equal(ref, got), name
            assert losses == ref_losses, name

    def test_non_sampled_client_rng_streams_untouched(self):
        for name, make_collector in self.backends():
            clients = make_clients(6)
            spectator_states = [
                clients[i].loader._rng.bit_generator.state for i in (1, 3, 4)
            ]
            model = make_model()
            out = np.empty((len(self.ROWS), model.num_parameters()))
            with make_collector() as collector:
                collector.collect(clients, model, out, rows=self.ROWS)
                # Fleet workers report the streams they advanced.
                assert set(collector.client_rng_states()) <= set(self.ROWS), name
            for i, before in zip((1, 3, 4), spectator_states):
                assert clients[i].loader._rng.bit_generator.state == before, (
                    f"{name}: client {i} RNG advanced without being sampled"
                )

    def test_batchnorm_stats_replayed_in_plan_order_for_subsets(self):
        def run(make_collector):
            clients = make_clients(6)
            model = BatchNormMLP()
            with make_collector() as collector:
                for rows in ([0, 2, 5], [1, 3, 4, 5]):
                    out = np.empty((len(rows), model.num_parameters()))
                    collector.collect(clients, model, out, rows=rows)
            return {k: v.copy() for k, v in model.state_dict().items()}

        reference = run(SequentialCollector)
        for name, make_collector in self.backends(process=False)[1:]:
            state = run(make_collector)
            for key in reference:
                assert np.array_equal(reference[key], state[key]), f"{name}:{key}"

    def test_variable_width_buffer_nan_invalidated_on_failure(self):
        for name, make_collector in self.backends(process=False):
            clients = explode(make_clients(6), 2)
            model = make_model()
            out = np.full((3, model.num_parameters()), 7.0)
            with make_collector() as collector:
                with pytest.raises(RuntimeError, match="went Byzantine"):
                    collector.collect(clients, model, out, rows=[0, 2, 5])
            assert not np.any(out == 7.0), name
            assert np.all(np.isnan(out[1])), name  # the failed client's row

    def test_apply_batch_stats_false_leaves_global_model_untouched(self):
        # Straggler semantics: the gradient computes (RNG advances) but no
        # BatchNorm running-statistics update reaches the global model.
        for name, make_collector in self.backends(process=False):
            clients = make_clients(6)
            model = BatchNormMLP()
            before = {k: v.copy() for k, v in model.state_dict().items()}
            out = np.empty((2, model.num_parameters()))
            with make_collector() as collector:
                collector.collect(
                    clients, model, out, rows=[1, 4], apply_batch_stats=False
                )
            assert np.all(np.isfinite(out)), name
            after = model.state_dict()
            for key in before:
                assert np.array_equal(before[key], after[key]), f"{name}:{key}"

    def test_sampled_shm_rows_still_invalidated_in_process_backend(
        self, workers_import_tests
    ):
        clients = explode(make_clients(6), 4)
        model = make_model()
        collector = make_collector(backend="process", n_workers=2)
        try:
            # A successful sampled round, then a failing one over different
            # rows: the failed row must come back NaN, not a stale value
            # from the earlier round.
            warm = np.empty((2, model.num_parameters()))
            collector.collect(clients, model, warm, rows=[0, 2])
            out = np.full((2, model.num_parameters()), 7.0)
            with pytest.raises(RuntimeError, match="went Byzantine"):
                collector.collect(clients, model, out, rows=[2, 4])
        finally:
            collector.close()
        assert np.all(np.isnan(out[1]))
        assert not np.any(out == 7.0)

    def test_process_workers_persist_across_varying_subsets(self):
        clients = make_clients(6)
        model = make_model()
        collector = make_collector(backend="process", n_workers=2)
        try:
            out = np.empty((3, model.num_parameters()))
            collector.collect(clients, model, out, rows=[0, 2, 5])
            fleet = collector.fleet
            pids = [worker.process.pid for worker in fleet.workers]
            out_full = np.empty((6, model.num_parameters()))
            collector.collect(clients, model, out_full)
            out_small = np.empty((1, model.num_parameters()))
            collector.collect(clients, model, out_small, rows=[4])
            assert collector.fleet is fleet
            assert [worker.process.pid for worker in fleet.workers] == pids
            assert all(worker.alive for worker in fleet.workers)
        finally:
            collector.close()
        assert np.all(np.isfinite(out_small))

    def test_resolve_rows_validation(self):
        clients = make_clients(4)
        model = make_model()
        dim = model.num_parameters()
        with pytest.raises(ValueError, match="strictly increasing"):
            resolve_rows(clients, np.empty((2, dim)), [2, 1])
        with pytest.raises(ValueError, match="out of range"):
            resolve_rows(clients, np.empty((2, dim)), [0, 9])
        with pytest.raises(ValueError, match="at least one"):
            resolve_rows(clients, np.empty((0, dim)), [])
        with pytest.raises(ValueError, match="rows"):
            resolve_rows(clients, np.empty((3, dim)), [0, 1])
        with pytest.raises(ValueError, match="buffer"):
            resolve_rows(clients, np.empty((3, dim)), None)


@pytest.fixture(scope="module")
def split():
    return make_mnist_like(num_train=300, num_test=80, rng=0)


def make_simulation(
    split, attack, aggregator, num_clients=10, byzantine=(0, 1), **kwargs
):
    rng_factory = RngFactory(0)
    partitions = iid_partition(split.train, num_clients, rng=rng_factory.make("p"))
    clients = build_clients(
        split.train,
        partitions,
        byzantine,
        batch_size=16,
        poison_labels=attack.poisons_data,
        rng_factory=rng_factory,
    )
    model = build_model("mlp", split.spec, rng=0, params={"hidden_dims": (16,)})
    server = FederatedServer(
        model, aggregator, learning_rate=0.1, num_byzantine_hint=len(byzantine), rng=0
    )
    return FederatedSimulation(
        server,
        clients,
        attack,
        split.test,
        attack_rng=np.random.default_rng(0),
        **kwargs,
    )


class RecordingAttack(Attack):
    """Captures the context the simulation hands to the attacker."""

    name = "recording"

    def __init__(self):
        self.contexts = []

    def apply(self, honest_gradients, context):
        self.contexts.append(context)
        return NoAttack().apply(honest_gradients, context)


class HintRecordingAggregator(Aggregator):
    name = "hint_recorder"

    def __init__(self):
        self.hints = []
        self.row_counts = []

    def aggregate(self, gradients, context=None):
        self.hints.append(context.num_byzantine_hint)
        self.row_counts.append(len(gradients))
        return AggregationResult(
            gradient=gradients.mean(axis=0), selected_indices=all_indices(gradients)
        )


class TestSimulationParticipation:
    def test_full_default_matches_explicit_schedule(self, split):
        results = []
        for participation in ("full", FullParticipation()):
            simulation = make_simulation(
                split, SignFlipAttack(), SignGuard(), participation=participation
            )
            recorder = simulation.run(3)
            results.append(
                [
                    (r.train_loss, r.test_accuracy, r.selected_clients)
                    for r in recorder.rounds
                ]
            )
        assert results[0] == results[1]

    def test_full_round_records_population_cohort(self, split):
        simulation = make_simulation(split, SignFlipAttack(), SignGuard())
        record = simulation.run(1).rounds[0]
        assert record.cohort_size == 10
        assert record.num_dropped == 0 and record.num_stragglers == 0
        # A population-sized cohort is derivable from cohort_size; explicit
        # ids are only serialized for strict-subset cohorts.
        assert record.cohort_clients == ()
        assert record.num_reporting == 10

    def test_sampled_round_scopes_attack_context_to_cohort(self, split):
        attack = RecordingAttack()
        simulation = make_simulation(
            split,
            attack,
            MeanAggregator(),
            byzantine=(0, 1, 2),
            participation=UniformParticipation(0.5, rng=np.random.default_rng(7)),
        )
        recorder = simulation.run(4)
        for context, record in zip(attack.contexts, recorder.rounds):
            assert context.num_clients == record.num_reporting == 5
            # No dropouts or stragglers: the cohort is the matrix's rows.
            cohort = np.asarray(record.cohort_clients)
            assert len(cohort) == context.num_clients
            # Byzantine indices are positions within the cohort matrix...
            if context.num_byzantine:
                assert context.byzantine_indices.max() < context.num_clients
            # ...and map back to sampled Byzantine client ids.
            np.testing.assert_array_equal(
                cohort[context.byzantine_indices],
                [i for i in (0, 1, 2) if i in cohort],
            )
            assert record.byzantine_total == context.num_byzantine

    def test_selected_clients_are_global_ids(self, split):
        simulation = make_simulation(
            split,
            NoAttack(),
            MeanAggregator(),
            byzantine=(),
            participation=UniformParticipation(0.3, rng=np.random.default_rng(1)),
        )
        recorder = simulation.run(3)
        for record in recorder.rounds:
            assert set(record.selected_clients) <= set(record.cohort_clients)
            assert len(record.selected_clients) == record.num_reporting == 3

    def test_byzantine_hint_scaled_to_cohort(self, split):
        aggregator = HintRecordingAggregator()
        simulation = make_simulation(
            split,
            NoAttack(),
            aggregator,
            byzantine=(0, 1),
            participation=UniformParticipation(0.5, rng=np.random.default_rng(3)),
        )
        simulation.run(2)
        assert aggregator.row_counts == [5, 5]
        assert aggregator.hints == [1, 1]  # round(2 * 5/10)

    def test_all_byzantine_cohort_stays_finite_under_statistics_attacks(self, split):
        # A sampled cohort can be 100% Byzantine — statistics-based attacks
        # must fall back to the colluders' own honest gradients instead of
        # taking the mean/std of an empty benign matrix (NaN poisoning).
        from repro.attacks import ByzMeanAttack, LittleIsEnoughAttack

        class AllByzantineCohort(FullParticipation):
            def _sample_cohort(self, round_index, population_size):
                return np.arange(3)  # exactly the Byzantine clients

        for attack in (LittleIsEnoughAttack(z=0.3), ByzMeanAttack()):
            simulation = make_simulation(
                split,
                attack,
                MeanAggregator(),
                byzantine=(0, 1, 2),
                participation=AllByzantineCohort(),
            )
            recorder = simulation.run(2)
            for record in recorder.rounds:
                assert np.isfinite(record.train_loss)
            # The model survives: every parameter is still finite.
            flat = np.concatenate(
                [p.data.ravel() for p in simulation.model.parameters()]
            )
            assert np.all(np.isfinite(flat)), attack.name

    def test_lie_adaptive_z_survives_degenerate_cohorts(self):
        # z=None (the adaptive z_max variant) must not crash when a sampled
        # cohort has no benign majority to hide among: it degrades to z=0
        # (submit the plain mean) instead of raising mid-run.
        from repro.attacks import LittleIsEnoughAttack
        from repro.attacks.base import AttackContext

        rng = np.random.default_rng(0)
        attack = LittleIsEnoughAttack(z=None)
        for n, byzantine in ((3, [0, 1, 2]), (1, [0])):
            honest = rng.normal(size=(n, 8))
            context = AttackContext.make(
                num_clients=n, byzantine_indices=byzantine, rng=0
            )
            submitted = attack.apply(honest, context)
            assert np.all(np.isfinite(submitted))
            np.testing.assert_allclose(submitted[0], honest.mean(axis=0))

    def test_all_byzantine_cohort_byzmean_still_steers_mean_exactly(self):
        # Eq. 8's defining property — the submitted mean equals the target —
        # must survive the all-Byzantine corner: the empty benign sum is
        # legitimately zero, and only LIE's mean/std estimate falls back.
        from repro.attacks import ByzMeanAttack
        from repro.attacks.base import AttackContext

        rng = np.random.default_rng(0)
        honest = rng.normal(size=(4, 30))
        context = AttackContext.make(
            num_clients=4, byzantine_indices=[0, 1, 2, 3], rng=0
        )
        attack = ByzMeanAttack()
        target = attack._target_gradient(honest, context)
        submitted = attack.apply(honest, context)
        assert np.all(np.isfinite(submitted))
        np.testing.assert_allclose(submitted.mean(axis=0), target)

    def test_straggler_batch_stats_discarded(self, split):
        # Two plans with the same active set — one where extra clients
        # straggle, one where they were never sampled — must produce the
        # same global model: a discarded submission leaks nothing.
        from repro.fl.participation import RoundPlan

        class FixedPlanSchedule(FullParticipation):
            def __init__(self, plans):
                super().__init__()
                self.plans = plans

            def plan(self, round_index, population_size):
                return self.plans[round_index]

        def run(plans):
            rng_factory = RngFactory(0)
            partitions = iid_partition(split.train, 6, rng=rng_factory.make("p"))
            clients = build_clients(
                split.train, partitions, (), batch_size=16, rng_factory=rng_factory
            )
            model = BatchNormMLP()
            server = FederatedServer(model, MeanAggregator(), learning_rate=0.1, rng=0)
            simulation = FederatedSimulation(
                server,
                clients,
                NoAttack(),
                split.test,
                attack_rng=np.random.default_rng(0),
                participation=FixedPlanSchedule(plans),
            )
            recorder = simulation.run(len(plans))
            return recorder, {k: v.copy() for k, v in model.state_dict().items()}

        def plan(round_index, active, stragglers=()):
            cohort = sorted(set(active) | set(stragglers))
            return RoundPlan(
                round_index=round_index,
                population_size=6,
                cohort=cohort,
                active=active,
                dropped=[],
                stragglers=list(stragglers),
            )

        # Straggler 5 is never sampled again, so the only thing that could
        # leak into the later rounds is its (discarded) round-0 submission.
        with_stragglers, state_a = run(
            [plan(0, [0, 2, 4], stragglers=[5]), plan(1, [1, 3])]
        )
        without, state_b = run([plan(0, [0, 2, 4]), plan(1, [1, 3])])
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key
        for ra, rb in zip(with_stragglers.rounds, without.rounds):
            assert ra.train_loss == rb.train_loss
            assert ra.test_accuracy == rb.test_accuracy
            assert ra.selected_clients == rb.selected_clients

    def test_stragglers_compute_but_are_excluded(self, split):
        simulation = make_simulation(
            split,
            NoAttack(),
            MeanAggregator(),
            byzantine=(),
            participation=FullParticipation(
                straggler_rate=0.4, rng=np.random.default_rng(2)
            ),
        )
        recorder = simulation.run(3)
        total_stragglers = sum(r.num_stragglers for r in recorder.rounds)
        assert total_stragglers > 0
        for record in recorder.rounds:
            assert record.num_reporting == 10 - record.num_stragglers
            assert len(record.selected_clients) == record.num_reporting

    def test_dropped_clients_keep_rng_state(self, split):
        simulation = make_simulation(
            split,
            NoAttack(),
            MeanAggregator(),
            byzantine=(),
            participation=UniformParticipation(0.3, rng=np.random.default_rng(4)),
        )
        states = [c.loader._rng.bit_generator.state for c in simulation.clients]
        record = simulation.run_round(0)
        sampled = set(record.cohort_clients)
        for client, before in zip(simulation.clients, states):
            advanced = client.loader._rng.bit_generator.state != before
            assert advanced == (client.client_id in sampled)

    def test_default_attack_rng_is_deterministic(self, split):
        def run():
            rng_factory = RngFactory(0)
            partitions = iid_partition(split.train, 8, rng=rng_factory.make("p"))
            clients = build_clients(
                split.train, partitions, (0, 1), batch_size=16, rng_factory=rng_factory
            )
            model = build_model("mlp", split.spec, rng=0, params={"hidden_dims": (16,)})
            server = FederatedServer(
                model, MeanAggregator(), learning_rate=0.1, rng=0
            )
            # No attack_rng passed: the stream must derive from `seed`.
            simulation = FederatedSimulation(
                server, clients, SignFlipAttack(), split.test, seed=11
            )
            return [r.train_loss for r in simulation.run(2).rounds]

        assert run() == run()

    def test_profiler_round_totals_annotated(self, split):
        from repro.perf.profiler import RoundProfiler

        profiler = RoundProfiler()
        simulation = make_simulation(
            split,
            NoAttack(),
            MeanAggregator(),
            byzantine=(0,),
            participation=UniformParticipation(
                0.5, dropout_rate=0.2, rng=np.random.default_rng(6)
            ),
            profiler=profiler,
        )
        simulation.run(3)
        for totals in profiler.round_totals:
            assert totals["cohort_size"] == 5
            assert totals["num_active"] + totals["num_dropped"] == 5
            assert "byzantine_in_cohort" in totals
            assert "num_stragglers" in totals


class TestExperimentIntegration:
    def config(self, backend="thread", n_workers=1, **training_overrides):
        training = dict(
            model="mlp",
            rounds=3,
            batch_size=16,
            n_workers=n_workers,
            collect_backend=backend,
            participation="uniform",
            participation_fraction=0.5,
            dropout_rate=0.2,
        )
        training.update(training_overrides)
        return ExperimentConfig(
            num_clients=8,
            seed=5,
            data=DataConfig(dataset="mnist_like", num_train=160, num_test=40),
            training=TrainingConfig(**training),
            defense=DefenseConfig(name="signguard"),
        )

    def test_partial_runs_equivalent_across_backends(self):
        fingerprints = []
        for backend, workers in (("sequential", 1), ("thread", 2), ("process", 2)):
            recorder = run_experiment(self.config(backend, workers))
            fingerprints.append(
                [
                    (
                        r.train_loss,
                        r.test_accuracy,
                        r.selected_clients,
                        r.cohort_clients,
                        r.num_dropped,
                    )
                    for r in recorder.rounds
                ]
            )
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_partial_participation_reproducible(self):
        a = run_experiment(self.config())
        b = run_experiment(self.config())
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra.cohort_clients == rb.cohort_clients
            assert ra.train_loss == rb.train_loss

    def test_fixed_cohort_runs(self):
        recorder = run_experiment(
            self.config(
                participation="fixed_cohort", cohort_size=3, participation_fraction=1.0
            )
        )
        assert all(r.cohort_size == 3 for r in recorder.rounds)
        assert recorder.mean_cohort_size() == 3.0

    def test_recorder_participation_summaries(self):
        recorder = run_experiment(self.config())
        assert recorder.mean_cohort_size() == 4.0
        assert recorder.total_dropouts() >= 0
        assert recorder.total_stragglers() == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="participation"):
            TrainingConfig(participation="sometimes").validate()
        with pytest.raises(ValueError, match="participation_fraction"):
            TrainingConfig(participation_fraction=0.0).validate()
        with pytest.raises(ValueError, match="cohort_size"):
            TrainingConfig(participation="fixed_cohort").validate()
        with pytest.raises(ValueError, match="dropout_rate"):
            TrainingConfig(dropout_rate=1.0).validate()
        with pytest.raises(ValueError, match="exceeds"):
            self.config(participation="fixed_cohort", cohort_size=99).validate()

    def test_config_round_trip(self):
        config = self.config()
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.training.participation == "uniform"
        assert restored.training.participation_fraction == 0.5
        assert restored.training.dropout_rate == 0.2
        assert restored.training.cohort_size is None


class TestDemoteToDropped:
    """Edge cases of the recovery ladder's demotion rung."""

    def make_plan(self, **overrides):
        fields = dict(
            round_index=2,
            population_size=10,
            cohort=[0, 2, 4, 6, 8],
            active=[0, 2, 4, 6],
            dropped=[8],
            stragglers=[],
        )
        fields.update(overrides)
        return RoundPlan(**fields)

    def test_demotion_moves(self):
        plan = self.make_plan().demote_to_dropped([2, 6])
        np.testing.assert_array_equal(plan.active, [0, 4])
        np.testing.assert_array_equal(plan.dropped, [2, 6, 8])
        np.testing.assert_array_equal(plan.cohort, [0, 2, 4, 6, 8])

    def test_empty_demotion_returns_the_same_plan(self):
        plan = self.make_plan()
        assert plan.demote_to_dropped([]) is plan

    def test_demoting_every_active_client_raises(self):
        # No survivor can report: the caller must escalate to a run-level
        # failure (FleetOutageError), never a zero-row aggregation.
        with pytest.raises(ValueError, match="every active client"):
            self.make_plan().demote_to_dropped([0, 2, 4, 6])

    def test_demoting_non_active_clients_raises(self):
        # Stragglers and already-dropped clients are not active rows; a
        # collector reporting them as failed is a bookkeeping bug.
        plan = self.make_plan(active=[0, 2, 4], stragglers=[6])
        with pytest.raises(ValueError, match="not active"):
            plan.demote_to_dropped([6])  # straggler
        with pytest.raises(ValueError, match="not active"):
            plan.demote_to_dropped([8])  # already dropped
        with pytest.raises(ValueError, match="not active"):
            plan.demote_to_dropped([1])  # not even in the cohort

    def test_repeated_demotion_accumulates(self):
        # The distributed collector may demote in waves (a survivor dying
        # during re-dispatch); each wave shrinks the remainder.
        plan = self.make_plan().demote_to_dropped([0]).demote_to_dropped([6])
        np.testing.assert_array_equal(plan.active, [2, 4])
        np.testing.assert_array_equal(plan.dropped, [0, 6, 8])
