"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.data.datasets import ArrayDataset, DataSpec


@pytest.fixture
def rng():
    """A deterministic generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def benign_gradients(rng):
    """A small population of 'honest' gradients: common signal + per-client noise."""
    num_clients, dim = 20, 150
    signal = rng.normal(0.2, 1.0, size=dim)
    noise = rng.normal(0.0, 0.3, size=(num_clients, dim))
    return signal[None, :] + noise


@pytest.fixture
def tiny_image_dataset(rng):
    """A 60-sample, 3-class, 6x6 single-channel image dataset."""
    spec = DataSpec(kind="image", num_classes=3, channels=1, height=6, width=6)
    labels = np.repeat(np.arange(3), 20)
    prototypes = rng.normal(size=(3, 1, 6, 6))
    inputs = prototypes[labels] + 0.3 * rng.normal(size=(60, 1, 6, 6))
    return ArrayDataset(inputs, labels, spec)


@pytest.fixture
def tiny_text_dataset(rng):
    """A 40-sample, 2-class token-sequence dataset."""
    spec = DataSpec(kind="text", num_classes=2, vocab_size=20, seq_len=6)
    labels = np.repeat(np.arange(2), 20)
    tokens = np.where(
        labels[:, None] == 0,
        rng.integers(0, 10, size=(40, 6)),
        rng.integers(10, 20, size=(40, 6)),
    )
    return ArrayDataset(tokens, labels, spec)


def numerical_gradient(func, x, epsilon=1e-5):
    """Central-difference numerical gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func(x)
        flat[index] = original - epsilon
        minus = func(x)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad


@pytest.fixture
def gradcheck():
    """Expose the numerical gradient helper as a fixture."""
    return numerical_gradient


@pytest.fixture
def workers_import_tests(monkeypatch):
    """Let ``repro-worker`` subprocesses unpickle classes the test modules
    define (``ExplodingClient``, ``BatchNormMLP``).

    Spawned workers inherit ``PYTHONPATH``; the suite imports its helper
    modules both as ``test_fl_parallel_collect`` and as
    ``tests.test_fl_parallel_collect``, so both roots go on the path.
    """
    tests_dir = Path(__file__).resolve().parent
    paths = [str(tests_dir), str(tests_dir.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(paths))
