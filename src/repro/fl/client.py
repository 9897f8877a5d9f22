"""Federated clients: benign and Byzantine.

Clients in this simulation are *stateless with respect to model parameters*:
the global model lives on the server/simulator and every client computes its
gradient at the current global parameters (Algorithm 1 of the paper with one
local iteration).  A client owns only its local dataset and batch sampler.

Because every client of a round evaluates the same model,
:func:`compute_cohort_gradients` computes a cohort's gradients with one
stacked forward/backward pass per chunk of clients (a leading client axis,
``Module.forward_grouped``) instead of one :meth:`FederatedClient.compute_gradient`
call per client, with byte-identical rows, losses and RNG streams.  Every
collect backend goes through it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataloader import BatchLoader
from repro.data.datasets import ArrayDataset
from repro.data.poisoning import flip_labels
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.vectorize import get_flat_gradients, grouped_gradient_views
from repro.utils.rng import RngLike, as_rng

#: Byte budget of the gradient rows one grouped pass computes.  It bounds a
#: chunk's stacked activations and gradient temporaries: unchunked, a
#: 100-client round of a 106k-parameter mlp would stack 80 MB of weight
#: gradients at once, for no speed gain over chunks of a few clients.
COHORT_CHUNK_BYTES = 4 * 2**20


class FederatedClient:
    """Base federated client owning a local dataset shard.

    Args:
        client_id: index of the client in the federation.
        dataset: the client's local training data.
        batch_size: mini-batch size for local gradient computation.
        local_iterations: number of mini-batches averaged into the submitted
            gradient (the paper uses 1).
        rng: seed or generator for batch sampling.
    """

    is_byzantine: bool = False

    def __init__(
        self,
        client_id: int,
        dataset: ArrayDataset,
        *,
        batch_size: int = 32,
        local_iterations: int = 1,
        rng: RngLike = None,
    ):
        if local_iterations < 1:
            raise ValueError(f"local_iterations must be >= 1, got {local_iterations}")
        self.client_id = client_id
        self.dataset = dataset
        self.local_iterations = local_iterations
        self.loader = BatchLoader(dataset, batch_size, rng=as_rng(rng))
        self._loss_fn = CrossEntropyLoss()
        self.last_loss: float = float("nan")

    @property
    def num_samples(self) -> int:
        """Number of local training samples."""
        return len(self.dataset)

    def compute_gradient(self, model: Module) -> np.ndarray:
        """Compute the client's local stochastic gradient at the current model.

        The model's parameters are treated as read-only; only its gradient
        buffers are used as scratch space and are zeroed before returning.
        The returned gradient has the model's dtype: float32 models compute
        (not just store) reduced-precision gradients.

        The collectors reach this method only for clients the grouped pass
        cannot take (see :func:`compute_cohort_gradients`).  A subclass
        that overrides it keeps every one of its instances on this
        per-client path.
        """
        accumulated: Optional[np.ndarray] = None
        losses = []
        dtype = model.dtype
        model.train()
        for _ in range(self.local_iterations):
            inputs, labels = self.loader.sample()
            if inputs.dtype.kind == "f" and inputs.dtype != dtype:
                inputs = inputs.astype(dtype)
            model.zero_grad()
            logits = model(inputs)
            losses.append(self._loss_fn(logits, labels))
            model.backward(self._loss_fn.backward())
            gradient = get_flat_gradients(model)
            accumulated = gradient if accumulated is None else accumulated + gradient
        model.zero_grad()
        self.last_loss = float(np.mean(losses))
        assert accumulated is not None
        return accumulated / self.local_iterations


def _takes_grouped_path(client: FederatedClient) -> bool:
    """Whether a grouped pass reproduces ``client.compute_gradient``.

    The class is checked, not the instance: a wrapper shadowing one
    instance's method (a tracer's span) does not change what it computes.
    """
    compute = getattr(type(client), "compute_gradient", None)
    return compute is FederatedClient.compute_gradient and client.local_iterations == 1


def _grouped_losses(
    model: Module, batches: List[Tuple[np.ndarray, np.ndarray]], block: np.ndarray
) -> np.ndarray:
    """One grouped pass over equal-shape batches: gradients into ``block``'s
    rows, per-batch mean losses returned."""
    inputs = np.stack([batch[0] for batch in batches])
    labels = np.stack([batch[1] for batch in batches])
    loss_fn = CrossEntropyLoss()
    model.train()
    losses = loss_fn.forward_grouped(model.forward_grouped(inputs), labels)
    model.backward_grouped(
        loss_fn.backward_grouped(), grouped_gradient_views(model, block)
    )
    return losses


def compute_cohort_gradients(
    clients: Sequence[FederatedClient],
    model: Module,
    out: np.ndarray,
    *,
    on_done: Optional[Callable[[int], None]] = None,
) -> None:
    """Fill ``out[k]`` with ``clients[k].compute_gradient(model)``'s result.

    Consecutive clients share one grouped pass when a grouped pass can
    reproduce their gradient:

    * the client's class does not override ``compute_gradient``, and it
      runs one local iteration;
    * the model supports the grouped pass (``Module.supports_grouped``:
      ``Linear``, ``ReLU`` and ``Flatten`` chains such as ``logistic`` and
      ``mlp``); and
    * the batches have equal shapes (a client holding fewer samples than
      ``batch_size`` draws a smaller batch and starts a new chunk).

    A chunk holds at most :data:`COHORT_CHUNK_BYTES` of gradient rows.
    Every other client runs ``compute_gradient`` itself, in row order, so
    BatchNorm, Dropout, convolutional and recurrent models keep the
    per-client loop unchanged.  Each client samples its batch once through
    its own loader and gets its ``last_loss``, exactly as the per-client
    call would; rows, losses and RNG streams are byte-identical.  The
    model's parameters and gradients are left untouched.

    An exception propagates at once, leaving the rows of the failing client
    (or chunk) and of every later client incomplete; the collectors
    NaN-fill those rows (see :mod:`repro.fl.collector`).  ``on_done(k)`` is
    called whenever rows ``[0, k)`` are complete.
    """
    grouped = model.supports_grouped()
    dtype = model.dtype
    row_bytes = max(1, out.shape[1]) * dtype.itemsize
    chunk_clients = max(1, COHORT_CHUNK_BYTES // row_bytes)
    batches: List[Tuple[np.ndarray, np.ndarray]] = []
    done = 0

    def finish(stop: int) -> None:
        nonlocal done
        done = stop
        if on_done is not None:
            on_done(done)

    def run_chunk() -> None:
        stop = done + len(batches)
        block = out[done:stop]
        direct = block.dtype == dtype and block.flags.c_contiguous
        target = block if direct else np.empty(block.shape, dtype=dtype)
        losses = _grouped_losses(model, batches, target)
        if not direct:
            block[...] = target
        for client, loss in zip(clients[done:stop], losses):
            client.last_loss = float(loss)
        batches.clear()
        finish(stop)

    for position, client in enumerate(clients):
        if not (grouped and _takes_grouped_path(client)):
            if batches:
                run_chunk()
            out[position] = client.compute_gradient(model)
            finish(position + 1)
            continue
        inputs, labels = client.loader.sample()
        if inputs.dtype.kind == "f" and inputs.dtype != dtype:
            inputs = inputs.astype(dtype)
        if batches and (
            len(batches) == chunk_clients
            or inputs.shape != batches[0][0].shape
            or inputs.dtype != batches[0][0].dtype
        ):
            run_chunk()
        batches.append((inputs, labels))
    if batches:
        run_chunk()


class BenignClient(FederatedClient):
    """A client that always reports its honest local gradient."""

    is_byzantine = False


class ByzantineClient(FederatedClient):
    """A client controlled by the attacker.

    The gradient it *computes* is still the honest gradient over its local
    data (or over label-flipped data when the configured attack poisons
    data); the attacker-side transformation of the submitted gradients is
    applied centrally by the simulation, which matches the paper's
    omniscient, colluding threat model.
    """

    is_byzantine = True

    def __init__(
        self,
        client_id: int,
        dataset: ArrayDataset,
        *,
        batch_size: int = 32,
        local_iterations: int = 1,
        poison_labels: bool = False,
        rng: RngLike = None,
    ):
        if poison_labels:
            dataset = flip_labels(dataset)
        super().__init__(
            client_id,
            dataset,
            batch_size=batch_size,
            local_iterations=local_iterations,
            rng=rng,
        )
        self.poison_labels = poison_labels
