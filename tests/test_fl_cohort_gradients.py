"""The grouped collect path against the per-client loop.

``compute_cohort_gradients`` computes a chunk of clients with one stacked
forward/backward pass.  Every backend-equivalence suite compares backends
that all take that path, so none of them could see it drift from
``FederatedClient.compute_gradient``.  Here each cohort is computed twice
from deep copies of the same clients: once grouped, once by calling
``compute_gradient`` client by client.  Rows must match byte for byte, and
so must every ``last_loss`` and every sampling-RNG state.  The fallbacks
(an overriding client class, ``local_iterations=2``, a BatchNorm model)
must call ``compute_gradient`` once per client.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.fl.client as client_module
from repro.data.factory import build_dataset
from repro.fl.client import BenignClient, compute_cohort_gradients
from repro.fl.collector import SequentialCollector, make_collector
from repro.nn.layers import BatchNorm1d, Conv2d, Dropout, Flatten, Linear, Sequential
from repro.nn.models.factory import build_model
from repro.nn.vectorize import get_flat_gradients, get_flat_parameters
from repro.utils.rng import RngFactory

from test_fl_parallel_collect import BatchNormMLP

#: (model name, constructor params) of the models with a grouped pass.
GROUPED_MODELS = [("logistic", {}), ("mlp", {"hidden_dims": (24, 12)})]


class OverridingClient(BenignClient):
    """Overrides ``compute_gradient``, so it keeps the per-client path."""

    def compute_gradient(self, model):
        return super().compute_gradient(model)


def make_population(n_clients, *, samples=20, ragged=None, overriding=(), seed=0):
    """``n_clients`` benign clients holding ``samples`` samples each at
    ``batch_size=16``; client ``i`` in ``ragged`` holds ``ragged[i]``
    instead, and clients in ``overriding`` are :class:`OverridingClient`."""
    split = build_dataset(
        "mnist_like",
        num_train=n_clients * samples,
        num_test=8,
        rng=np.random.default_rng(seed),
    )
    factory = RngFactory(seed)
    shards = np.array_split(np.arange(n_clients * samples), n_clients)
    ragged = ragged or {}
    clients = []
    for cid, shard in enumerate(shards):
        cls = OverridingClient if cid in overriding else BenignClient
        clients.append(
            cls(
                cid,
                split.train.subset(shard[: ragged.get(cid, samples)]),
                batch_size=16,
                rng=factory.make(f"client-{cid}"),
            )
        )
    return clients, split.spec


def make_model(spec, name="mlp", params=None, dtype=np.float64, seed=1):
    model = build_model(name, spec, rng=np.random.default_rng(seed), params=params)
    return model.astype(dtype)


def per_client_rows(clients, model, dtype=None):
    """The reference: ``compute_gradient`` client by client."""
    out = np.empty((len(clients), model.num_parameters()), dtype=dtype or model.dtype)
    for row, client in enumerate(clients):
        out[row] = client.compute_gradient(model)
    return out


def assert_same_clients(grouped, reference):
    for mine, theirs in zip(grouped, reference):
        assert mine.last_loss == theirs.last_loss
        assert mine.loader.rng_state == theirs.loader.rng_state


def spy_on(clients):
    """Shadow each instance's ``compute_gradient`` with a counting wrapper
    (as a tracer does); returns the call counter."""
    calls = {"n": 0}
    for client in clients:
        method = client.compute_gradient

        def counted(model, _method=method):
            calls["n"] += 1
            return _method(model)

        client.compute_gradient = counted
    return calls


class TestGroupedMatchesPerClient:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name,params", GROUPED_MODELS)
    def test_rows_losses_and_rng_streams(self, name, params, dtype):
        clients, spec = make_population(12)
        model = make_model(spec, name, params, dtype)
        assert model.supports_grouped()
        reference_clients = copy.deepcopy(clients)
        expected = per_client_rows(reference_clients, model)
        out = np.full_like(expected, np.nan)
        compute_cohort_gradients(clients, model, out)
        assert out.tobytes() == expected.tobytes()
        assert_same_clients(clients, reference_clients)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name,params", GROUPED_MODELS)
    def test_ragged_batches(self, name, params, dtype):
        # Clients holding fewer samples than batch_size draw smaller
        # batches, as non-IID partitions produce: each starts a new chunk.
        clients, spec = make_population(10, ragged={2: 3, 3: 5, 7: 7})
        model = make_model(spec, name, params, dtype)
        reference_clients = copy.deepcopy(clients)
        expected = per_client_rows(reference_clients, model)
        out = np.full_like(expected, np.nan)
        compute_cohort_gradients(clients, model, out)
        assert out.tobytes() == expected.tobytes()
        assert_same_clients(clients, reference_clients)

    def test_chunk_boundaries_do_not_move_bytes(self, monkeypatch):
        clients, spec = make_population(11)
        model = make_model(spec)
        reference_clients = copy.deepcopy(clients)
        expected = per_client_rows(reference_clients, model)
        row_bytes = model.num_parameters() * 8
        monkeypatch.setattr(client_module, "COHORT_CHUNK_BYTES", 3 * row_bytes)
        out = np.full_like(expected, np.nan)
        compute_cohort_gradients(clients, model, out)
        assert out.tobytes() == expected.tobytes()
        assert_same_clients(clients, reference_clients)

    def test_buffer_dtype_differs_from_model(self):
        # A float64 buffer over a float32 model stores the float32
        # gradients cast on assignment, as the per-client loop does.
        clients, spec = make_population(6)
        model = make_model(spec, dtype=np.float32)
        expected = per_client_rows(copy.deepcopy(clients), model, dtype=np.float64)
        out = np.full_like(expected, np.nan)
        compute_cohort_gradients(clients, model, out)
        assert out.tobytes() == expected.tobytes()

    def test_model_parameters_and_gradients_untouched(self):
        clients, spec = make_population(6)
        model = make_model(spec)
        parameters = get_flat_parameters(model).copy()
        out = np.empty((6, model.num_parameters()))
        compute_cohort_gradients(clients, model, out)
        assert get_flat_parameters(model).tobytes() == parameters.tobytes()
        assert not np.any(get_flat_gradients(model))

    def test_mixed_population_keeps_row_order(self):
        # Per-client clients split the grouped runs; every row still holds
        # its own client's gradient.
        clients, spec = make_population(9, overriding=(0, 4, 5))
        model = make_model(spec)
        reference_clients = copy.deepcopy(clients)
        expected = per_client_rows(reference_clients, model)
        out = np.full_like(expected, np.nan)
        done = []
        compute_cohort_gradients(clients, model, out, on_done=done.append)
        assert out.tobytes() == expected.tobytes()
        assert_same_clients(clients, reference_clients)
        # Progress is reported in order and ends at the full cohort.
        assert done == sorted(done) and done[-1] == len(clients)


class TestThroughTheCollectors:
    @pytest.mark.parametrize("name,params", GROUPED_MODELS)
    def test_sequential_collector_noncontiguous_rows(self, name, params):
        clients, spec = make_population(12, ragged={4: 5})
        model = make_model(spec, name, params)
        rows = [1, 4, 5, 9, 11]
        reference_clients = copy.deepcopy(clients)
        expected = per_client_rows([reference_clients[r] for r in rows], model)
        out = np.empty_like(expected)
        SequentialCollector().collect(clients, model, out, rows=rows)
        assert out.tobytes() == expected.tobytes()
        assert_same_clients(
            [clients[r] for r in rows], [reference_clients[r] for r in rows]
        )
        # Clients outside the subset never sample.
        for row in set(range(12)) - set(rows):
            mine, theirs = clients[row], reference_clients[row]
            assert np.isnan(mine.last_loss)
            assert mine.loader.rng_state == theirs.loader.rng_state

    @pytest.mark.parametrize("name,params", GROUPED_MODELS)
    def test_two_worker_thread_fleet(self, name, params):
        clients, spec = make_population(10, ragged={3: 7})
        model = make_model(spec, name, params)
        reference_clients = copy.deepcopy(clients)
        expected = per_client_rows(reference_clients, model)
        out = np.empty_like(expected)
        with make_collector(backend="thread", n_workers=2) as collector:
            collector.collect(clients, model, out)
            rng_states = collector.client_rng_states()
        assert out.tobytes() == expected.tobytes()
        for cid, theirs in enumerate(reference_clients):
            assert clients[cid].last_loss == theirs.last_loss
            assert rng_states[cid] == theirs.loader.rng_state


class TestFallbacks:
    def test_overriding_class_calls_compute_gradient_per_client(self):
        clients, spec = make_population(5, overriding=range(5))
        model = make_model(spec)
        expected = per_client_rows(copy.deepcopy(clients), model)
        calls = spy_on(clients)
        out = np.full_like(expected, np.nan)
        compute_cohort_gradients(clients, model, out)
        assert calls["n"] == 5
        assert out.tobytes() == expected.tobytes()

    def test_two_local_iterations_call_compute_gradient_per_client(self):
        clients, spec = make_population(5)
        for client in clients:
            client.local_iterations = 2
        model = make_model(spec)
        expected = per_client_rows(copy.deepcopy(clients), model)
        calls = spy_on(clients)
        out = np.full_like(expected, np.nan)
        compute_cohort_gradients(clients, model, out)
        assert calls["n"] == 5
        assert out.tobytes() == expected.tobytes()

    def test_batchnorm_model_calls_compute_gradient_per_client(self):
        clients, _ = make_population(5)
        model = BatchNormMLP()
        assert not model.supports_grouped()
        reference_model = copy.deepcopy(model)
        expected = per_client_rows(copy.deepcopy(clients), reference_model)
        calls = spy_on(clients)
        out = np.full_like(expected, np.nan)
        compute_cohort_gradients(clients, model, out)
        assert calls["n"] == 5
        assert out.tobytes() == expected.tobytes()
        # The running statistics advanced once per client, as before.
        for mine, theirs in zip(model.named_buffers(), reference_model.named_buffers()):
            assert mine[1].tobytes() == theirs[1].tobytes()

    @pytest.mark.parametrize(
        "layer",
        [BatchNorm1d(4), Dropout(0.5, rng=0), Conv2d(1, 2, 3, rng=0)],
        ids=["batchnorm", "dropout", "conv2d"],
    )
    def test_unlisted_layers_report_unsupported(self, layer):
        assert not layer.supports_grouped()
        assert not Sequential(Flatten(), layer).supports_grouped()
        assert Sequential(Flatten(), Linear(4, 2, rng=0)).supports_grouped()


class TestFailures:
    def test_negative_label_still_raises(self):
        clients, spec = make_population(4)
        clients[2].dataset.labels[:] = -1
        model = make_model(spec)
        with pytest.raises(ValueError, match="labels must be in"):
            copy.deepcopy(clients[2]).compute_gradient(model)
        out = np.full((4, model.num_parameters()), np.nan)
        with pytest.raises(ValueError, match="labels must be in"):
            compute_cohort_gradients(clients, model, out)

    def test_failing_chunk_leaves_its_rows_unwritten(self, monkeypatch):
        clients, spec = make_population(6)
        clients[4].dataset.labels[:] = -1
        model = make_model(spec)
        row_bytes = model.num_parameters() * 8
        monkeypatch.setattr(client_module, "COHORT_CHUNK_BYTES", 3 * row_bytes)
        expected = per_client_rows(copy.deepcopy(clients[:3]), model)
        out = np.full((6, model.num_parameters()), np.nan)
        done = []
        with pytest.raises(ValueError):
            compute_cohort_gradients(clients, model, out, on_done=done.append)
        assert done == [3]
        assert out[:3].tobytes() == expected.tobytes()
        assert np.all(np.isnan(out[3:]))


class TestCostGuard:
    def test_eligible_sequential_collect_makes_no_per_client_call(self):
        # Timing-free: a 64-client collect of default clients on an mlp
        # goes through grouped passes, never through compute_gradient.
        clients, spec = make_population(64)
        model = make_model(spec)
        calls = spy_on(clients)
        out = np.empty((64, model.num_parameters()))
        SequentialCollector().collect(clients, model, out)
        assert calls["n"] == 0
        assert np.all(np.isfinite(out))
