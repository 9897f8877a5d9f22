"""Equivalence suite: optimized paths vs frozen seed implementations.

The round-level compute cache, the partition-based Krum scoring, the sliced
Bulyan selection, and the vectorized Mean-Shift must all make *exactly* the
same decisions as the pre-refactor implementations (kept frozen in
:mod:`repro.perf.reference`).  Selections are compared exactly; aggregated
gradients within tight float tolerance (summation orders may legally differ
by ulps).  A float32 section checks the reduced-precision mode stays within
float32 tolerance of the float64 reference.  The CNN window kernels
(im2col, col2im, max-pool) and ReLU keep the seed's arithmetic, so their
section compares bytes, kernel by kernel and through whole models.
"""

import numpy as np
import pytest

from repro.aggregators.base import ServerContext
from repro.aggregators.bulyan import BulyanAggregator
from repro.aggregators.dnc import DivideAndConquerAggregator
from repro.aggregators.krum import KrumAggregator, MultiKrumAggregator, krum_scores
from repro.clustering import MeanShift
from repro.core.pipeline import SignGuardPipeline
from repro.nn import layers
from repro.nn.activations import ReLU
from repro.nn.functional import col2im, im2col
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, ResNetLite, SimpleCNN
from repro.nn.vectorize import get_flat_gradients, grouped_gradient_views
from repro.perf import reference as ref
from repro.utils.batch import GradientBatch


@pytest.fixture
def population(rng):
    """30 honest gradients + 6 colluding outliers, dim 200."""
    signal = rng.normal(0.1, 1.0, size=200)
    honest = signal[None, :] + rng.normal(0, 0.3, size=(30, 200))
    malicious = -1.5 * signal[None, :] + rng.normal(0, 0.05, size=(6, 200))
    return np.vstack([honest, malicious])


class TestKrumEquivalence:
    def test_scores_bit_identical(self, population):
        for f in (0, 2, 6, 10):
            optimized = krum_scores(population, f)
            seed = ref.krum_scores_reference(population, f)
            np.testing.assert_array_equal(optimized, seed)

    def test_krum_selects_same_winner(self, population):
        result = KrumAggregator(num_byzantine=6)(population)
        seed_scores = ref.krum_scores_reference(population, 6)
        assert result.selected_indices[0] == int(np.argmin(seed_scores))

    def test_multi_krum_selects_same_set(self, population):
        result = MultiKrumAggregator(num_byzantine=6)(population)
        seed = np.sort(ref.multi_krum_select_reference(population, 6))
        np.testing.assert_array_equal(result.selected_indices, seed)

    def test_multi_krum_aggregate_matches(self, population):
        result = MultiKrumAggregator(num_byzantine=6)(population)
        seed = ref.multi_krum_select_reference(population, 6)
        np.testing.assert_allclose(
            result.gradient, population[seed].mean(axis=0), rtol=1e-12, atol=1e-12
        )

    def test_two_clients_edge_case(self, rng):
        pair = rng.normal(size=(2, 8))
        np.testing.assert_array_equal(
            krum_scores(pair, 0), ref.krum_scores_reference(pair, 0)
        )


class TestBulyanEquivalence:
    @pytest.mark.parametrize("f", [0, 2, 6])
    def test_same_selection_and_aggregate(self, population, f):
        result = BulyanAggregator(num_byzantine=f)(population)
        seed = ref.bulyan_reference(population, f)
        np.testing.assert_array_equal(result.selected_indices, seed["selected_indices"])
        np.testing.assert_allclose(
            result.gradient, seed["gradient"], rtol=1e-12, atol=1e-12
        )


class TestDnCEquivalence:
    def test_same_selection_with_identical_rng(self, population):
        aggregator = DivideAndConquerAggregator(num_byzantine=6)
        context = ServerContext.make(rng=7)
        result = aggregator(population, context)
        seed = ref.dnc_reference(population, 6, np.random.default_rng(7))
        np.testing.assert_array_equal(result.selected_indices, seed["selected_indices"])
        np.testing.assert_allclose(
            result.gradient, seed["gradient"], rtol=1e-12, atol=1e-12
        )


class TestMeanShiftEquivalence:
    def test_same_labels_and_centers(self, rng):
        features = np.vstack(
            [
                rng.normal([0.6, 0.05, 0.35], 0.02, size=(16, 3)),
                rng.normal([0.3, 0.05, 0.65], 0.02, size=(4, 3)),
            ]
        )
        model = MeanShift(quantile=0.5).fit(features)
        seed = ref.meanshift_reference(features, quantile=0.5)
        np.testing.assert_array_equal(model.labels_, seed["labels"])
        assert model.n_clusters_ == seed["n_clusters"]
        np.testing.assert_allclose(
            model.cluster_centers_, seed["cluster_centers"], rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("columns", [3, 4])
    def test_duplicate_heavy_same_labels_and_centers(self, rng, columns):
        # SignGuard features repeat: sign fractions are multiples of 1/m and
        # colluding clients submit one identical row.  Four columns add a
        # continuous similarity feature, so only the attackers coincide.
        m = 60
        positive = rng.binomial(m, 0.55, size=160)
        zero = rng.binomial(m - positive, 0.05)
        honest = np.column_stack([positive, zero, m - positive - zero]) / m
        attack = np.array([0.3, 0.0, 0.7])
        if columns == 4:
            honest = np.column_stack([honest, rng.normal(0.8, 0.05, 160)])
            attack = np.append(attack, -0.6)
        features = rng.permutation(np.vstack([honest, np.tile(attack, (40, 1))]))
        assert len(np.unique(features, axis=0)) < len(features)
        model = MeanShift(quantile=0.5).fit(features)
        seed = ref.meanshift_reference(features, quantile=0.5)
        np.testing.assert_array_equal(model.labels_, seed["labels"])
        assert model.n_clusters_ == seed["n_clusters"]
        np.testing.assert_allclose(
            model.cluster_centers_, seed["cluster_centers"], rtol=1e-9, atol=1e-12
        )

    def test_same_largest_cluster_across_bandwidths(self, rng):
        features = rng.normal(size=(25, 4))
        for bandwidth in (0.5, 1.0, 3.0):
            model = MeanShift(bandwidth=bandwidth).fit(features)
            seed = ref.meanshift_reference(features, bandwidth=bandwidth)
            np.testing.assert_array_equal(model.labels_, seed["labels"])

    def test_identical_points(self):
        features = np.zeros((6, 3))
        model = MeanShift().fit(features)
        seed = ref.meanshift_reference(features)
        np.testing.assert_array_equal(model.labels_, seed["labels"])


class TestSignGuardEquivalence:
    @pytest.mark.parametrize("similarity", ["none", "cosine", "euclidean"])
    def test_all_variants_same_selection_and_aggregate(
        self, population, rng, similarity
    ):
        reference_gradient = population[:30].mean(axis=0)
        pipeline = SignGuardPipeline(similarity=similarity)
        optimized = pipeline.aggregate(
            population, reference=reference_gradient, rng=np.random.default_rng(11)
        )
        seed = ref.signguard_pipeline_reference(
            population,
            reference=reference_gradient,
            rng=np.random.default_rng(11),
            similarity=similarity,
        )
        np.testing.assert_array_equal(
            optimized["selected_indices"], seed["selected_indices"]
        )
        np.testing.assert_allclose(
            optimized["gradient"], seed["gradient"], rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("similarity", ["none", "cosine", "euclidean"])
    def test_first_round_no_reference(self, population, similarity):
        pipeline = SignGuardPipeline(similarity=similarity)
        optimized = pipeline.aggregate(
            population, reference=None, rng=np.random.default_rng(3)
        )
        seed = ref.signguard_pipeline_reference(
            population, reference=None, rng=np.random.default_rng(3),
            similarity=similarity,
        )
        np.testing.assert_array_equal(
            optimized["selected_indices"], seed["selected_indices"]
        )
        np.testing.assert_allclose(
            optimized["gradient"], seed["gradient"], rtol=1e-10, atol=1e-12
        )

    def test_ablation_toggles(self, population):
        for toggles in (
            dict(use_sign_clustering=False),
            dict(use_norm_threshold=False),
            dict(use_norm_clipping=False),
        ):
            pipeline = SignGuardPipeline(**toggles)
            optimized = pipeline.aggregate(population, rng=np.random.default_rng(5))
            seed = ref.signguard_pipeline_reference(
                population, rng=np.random.default_rng(5), **toggles
            )
            np.testing.assert_array_equal(
                optimized["selected_indices"], seed["selected_indices"]
            )
            np.testing.assert_allclose(
                optimized["gradient"], seed["gradient"], rtol=1e-10, atol=1e-12
            )

    def test_pipeline_computes_each_cached_quantity_once(self, population):
        """The optimized pipeline must never fall back to naive recomputation."""
        # Unvalidated: validation computes the norms, so a count of 1 would
        # not show a filter or the clipped mean bypassing them.
        batch = GradientBatch(population, validate=False)
        pipeline = SignGuardPipeline(similarity="euclidean")
        pipeline.aggregate(batch, reference=None, rng=np.random.default_rng(1))
        assert batch.compute_count("norms") == 1
        assert batch.compute_count("sq_norms") <= 1
        assert batch.compute_count("gram") == 1
        assert batch.compute_count("sq_distances") == 1
        assert batch.compute_count("distances") == 1


class TestFloat32Mode:
    def test_selections_match_float64_reference(self, population):
        """Reduced precision may shift aggregates within float32 tolerance but
        must keep the same trusted set on well-separated data."""
        pipeline = SignGuardPipeline()
        result32 = pipeline.aggregate(
            population.astype(np.float32), rng=np.random.default_rng(2)
        )
        seed = ref.signguard_pipeline_reference(
            population, rng=np.random.default_rng(2)
        )
        np.testing.assert_array_equal(
            result32["selected_indices"], seed["selected_indices"]
        )
        np.testing.assert_allclose(
            result32["gradient"], seed["gradient"], rtol=1e-4, atol=1e-4
        )

    def test_krum_float32_same_winner(self, population):
        result32 = KrumAggregator(num_byzantine=6)(population.astype(np.float32))
        seed_scores = ref.krum_scores_reference(population, 6)
        assert result32.selected_indices[0] == int(np.argmin(seed_scores))


# ---------------------------------------------------------------------------
# CNN window kernels and ReLU: byte equality with the seed kernels
# ---------------------------------------------------------------------------

DTYPES = pytest.mark.parametrize(
    "dtype", [np.float32, np.float64], ids=["float32", "float64"]
)
#: Odd sides and a non-square image, so strided sweeps drop a remainder.
IMAGE_SHAPES = [(2, 3, 7, 9), (3, 2, 8, 5)]


@DTYPES
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_im2col_col2im_match_seed_bytes(kernel, stride, padding, dtype):
    rng = np.random.default_rng(100 * kernel + 10 * stride + padding)
    for shape in IMAGE_SHAPES:
        x = rng.normal(size=shape).astype(dtype)
        columns, out_h, out_w = im2col(x, kernel, stride, padding)
        seed_columns, seed_h, seed_w = ref.im2col_reference(x, kernel, stride, padding)
        assert (out_h, out_w) == (seed_h, seed_w)
        assert columns.dtype == seed_columns.dtype == dtype
        assert columns.tobytes() == seed_columns.tobytes()

        grad = rng.normal(size=columns.shape).astype(dtype)
        folded = col2im(grad, shape, kernel, stride, padding)
        seed = ref.col2im_reference(grad, shape, kernel, stride, padding)
        assert folded.shape == seed.shape and folded.dtype == seed.dtype
        assert folded.flags.c_contiguous
        assert folded.tobytes() == seed.tobytes()


@DTYPES
def test_relu_matches_seed_bytes(dtype):
    """NaN, -NaN, signed zeros, infinities and subnormals, on the contiguous
    inputs numpy's SIMD loops take and on strided and one-element inputs,
    where ``fmax`` keeps a -0.0 that ``np.where`` turns into +0.0."""
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array(
        [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.5],
        dtype=dtype,
    )
    assert np.signbit(specials[1]) and not np.signbit(specials[0])
    values = np.random.default_rng(7).permutation(np.tile(specials, 13))
    inputs = {
        "contiguous": values,
        "strided": values[::3],
        "transposed": values[:120].reshape(10, 12).T,
        "channels-last": values[:120].reshape(2, 3, 4, 5).transpose(0, 3, 1, 2),
    }
    for index, value in enumerate(specials):
        inputs[f"one-element {value!r}"] = specials[index : index + 1]
    for name, x in inputs.items():
        relu, seed = ReLU(), ReLU()
        output = relu.forward(x)
        expected = ref.relu_forward_reference(seed, x)
        assert output.dtype == expected.dtype == dtype, name
        assert output.tobytes() == expected.tobytes(), name
        assert relu._mask.tobytes() == seed._mask.tobytes(), name


def _pool_inputs(rng, shape):
    """Distinct values, ties among small integers, and ReLU-like output whose
    all-zero windows tie on +0.0 (ReLU never emits -0.0)."""
    x = rng.normal(size=shape)
    return {
        "normal": x,
        "ties": np.round(x) + 0.0,  # + 0.0 turns round's -0.0 into +0.0
        "relu": np.where(x > 0, x, 0.0),
    }


@DTYPES
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_maxpool_matches_seed_bytes(kernel, stride, dtype):
    """Overlapping (stride < kernel), disjoint and gapped windows."""
    rng = np.random.default_rng(10 * kernel + stride)
    for shape in IMAGE_SHAPES:
        for name, x in _pool_inputs(rng, shape).items():
            x = x.astype(dtype)
            pool = layers.MaxPool2d(kernel, stride=stride)
            output = pool.forward(x)
            grad_output = rng.normal(size=output.shape).astype(dtype)
            grad_output[rng.random(output.shape) < 0.25] = -0.0
            grad_input = pool.backward(grad_output)

            seed_pool = layers.MaxPool2d(kernel, stride=stride)
            seed_output = ref.maxpool2d_forward_reference(seed_pool, x)
            seed_grad = ref.maxpool2d_backward_reference(seed_pool, grad_output)
            assert output.flags.c_contiguous, name
            assert output.tobytes() == seed_output.tobytes(), name
            np.testing.assert_array_equal(
                pool._argmax, seed_pool._argmax, err_msg=name
            )
            assert grad_input.dtype == seed_grad.dtype
            assert grad_input.tobytes() == seed_grad.tobytes(), name


@pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1)])
def test_maxpool_nan_in_window_makes_output_nan(kernel, stride):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 7, 9))
    x[1, 2, 3, 4] = np.nan
    pool = layers.MaxPool2d(kernel, stride=stride)
    output = pool.forward(x)
    seed = ref.maxpool2d_forward_reference(layers.MaxPool2d(kernel, stride=stride), x)
    assert np.isnan(output).any()
    np.testing.assert_array_equal(np.isnan(output), np.isnan(seed))
    finite = ~np.isnan(seed)
    assert output[finite].tobytes() == seed[finite].tobytes()

    # A NaN window's gradient lands on its first maximum before the NaN, or
    # on the NaN when it is the window's first element.  The seed's
    # np.argmax sent it to the NaN: this pins the documented divergence.
    grad_input = pool.backward(np.where(np.isnan(output), 1.0, 0.0))
    expected = np.zeros_like(x)
    for oy, ox in zip(*np.nonzero(np.isnan(output[1, 2]))):
        top, left = oy * stride, ox * stride
        window = x[1, 2, top : top + kernel, left : left + kernel].ravel()
        before = window[: int(np.argmax(np.isnan(window)))]
        j = int(np.argmax(before)) if before.size else 0
        expected[1, 2, top + j // kernel, left + j % kernel] += 1.0
    assert grad_input.tobytes() == expected.tobytes()


@DTYPES
@pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 3), (3, 1)])
def test_maxpool_backward_non_finite_gradient_matches_seed_bytes(
    kernel, stride, dtype
):
    # NaN or inf times a False mask is NaN, so routing by a product would
    # spread it to pixels that np.add.at leaves at +0.0.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6, 6)).astype(dtype)
    pool, seed_pool = layers.MaxPool2d(kernel, stride), layers.MaxPool2d(kernel, stride)
    output = pool.forward(x)
    ref.maxpool2d_forward_reference(seed_pool, x)
    grad_output = rng.normal(size=output.shape).astype(dtype)
    flat = grad_output.reshape(-1)
    flat[::5], flat[1::7], flat[3::11] = np.nan, np.inf, -np.inf
    with np.errstate(invalid="ignore"):  # inf + -inf where windows overlap
        grad_input = pool.backward(grad_output)
        seed = ref.maxpool2d_backward_reference(seed_pool, grad_output)
    nan = np.isnan(seed)
    assert nan.any()
    np.testing.assert_array_equal(np.isnan(grad_input), nan)
    assert grad_input[~nan].tobytes() == seed[~nan].tobytes()
    # Where windows overlap, a pixel can sum two non-finite gradients; the
    # sign of the NaN that makes follows the add loop (np.add.at and an
    # in-place add differ), so there only the NaN positions are compared.
    if stride >= kernel:
        assert grad_input.tobytes() == seed.tobytes()


def test_conv2d_output_keeps_channels_last_storage(rng):
    # The gemm's (batch, h, w, channels) result behind an NCHW view: numpy
    # reduces in memory order, so a contiguous copy would move the bytes of
    # BatchNorm2d's statistics (resnet_lite) although each value is equal.
    conv = layers.Conv2d(3, 4, 3, padding=1, rng=rng)
    output = conv(rng.normal(size=(2, 3, 5, 5)))
    assert not output.flags.c_contiguous
    assert output.transpose(0, 2, 3, 1).flags.c_contiguous


def _form_input_gradients(model):
    """Have every layer form its input gradient, as the seed did."""
    for module in model.modules():
        if isinstance(module, (layers.Linear, layers.Conv2d)):
            module.input_gradient = True


def _mlp_grouped_step(dtype, *, seed):
    """Per-batch losses, gradient rows and eval-mode logits of one grouped
    pass over four 16-sample batches, as the cohort collect runs ``mlp``."""
    rng = np.random.default_rng(21)
    model = MLP(196, 10, hidden_dims=(64,), rng=3).astype(dtype)
    if seed:
        _form_input_gradients(model)
    x = rng.normal(size=(4, 16, 196)).astype(dtype)
    labels = rng.integers(0, 10, size=(4, 16))
    loss_fn = CrossEntropyLoss()
    model.train()
    losses = loss_fn.forward_grouped(model.forward_grouped(x), labels)
    rows = np.empty((4, model.num_parameters()), dtype=dtype)
    model.backward_grouped(
        loss_fn.backward_grouped(), grouped_gradient_views(model, rows)
    )
    model.eval()
    return losses, rows, model(x[0])


def _cnn_step(model_name, dtype, *, seed=False):
    """Loss, flat gradient and eval-mode logits of one 32-sample batch.

    ``seed`` has every layer form its input gradient, as the seed did.
    """
    if model_name == "mlp":
        return _mlp_grouped_step(dtype, seed=seed)
    rng = np.random.default_rng(21)
    if model_name == "simple_cnn":
        model = SimpleCNN(in_channels=1, image_size=(14, 14), rng=3)
        x = rng.normal(size=(32, 1, 14, 14))
    else:
        model = ResNetLite(in_channels=3, image_size=(16, 16), rng=3)
        x = rng.normal(size=(32, 3, 16, 16))
    model.astype(dtype)
    if seed:
        _form_input_gradients(model)
    x = x.astype(dtype)
    labels = rng.integers(0, 10, size=32)
    loss_fn = CrossEntropyLoss()
    model.train()
    model.zero_grad()
    loss = loss_fn(model(x), labels)
    model.backward(loss_fn.backward())
    gradient = get_flat_gradients(model)
    model.eval()
    return np.asarray(loss), gradient, model(x)


@DTYPES
@pytest.mark.parametrize("model_name", ["simple_cnn", "resnet_lite", "mlp"])
def test_cnn_models_match_seed_kernels_bytes(model_name, dtype, monkeypatch):
    loss, gradient, logits = _cnn_step(model_name, dtype)
    monkeypatch.setattr(layers, "im2col", ref.im2col_reference)
    monkeypatch.setattr(layers, "col2im", ref.col2im_reference)
    monkeypatch.setattr(layers.MaxPool2d, "forward", ref.maxpool2d_forward_reference)
    monkeypatch.setattr(layers.MaxPool2d, "backward", ref.maxpool2d_backward_reference)
    monkeypatch.setattr(ReLU, "forward", ref.relu_forward_reference)
    seed_loss, seed_gradient, seed_logits = _cnn_step(model_name, dtype, seed=True)
    assert gradient.dtype == seed_gradient.dtype == dtype
    assert loss.tobytes() == seed_loss.tobytes()
    assert gradient.tobytes() == seed_gradient.tobytes()
    assert logits.tobytes() == seed_logits.tobytes()
