"""Pinning tests for behavior touched while fixing ``repro-lint`` findings.

Most lint fixes were provably behavior-free (adding ``dtype=`` where the
default already produced that dtype, renaming private helpers).  The
ones that *could* differ are pinned here:

* ``ServerContext()`` built with no arguments now defaults to a *seeded*
  generator instead of an unseeded ``default_rng()`` — the zero-config
  path must be deterministic and stay that way;
* the dtype-pinned allocations still produce float64, bit-identical to
  NumPy's historical default.
"""

import numpy as np

from repro.aggregators.base import ServerContext
from repro.core.signguard import SignGuard
from repro.fl.metrics import selection_confusion


class TestServerContextDefaultRng:
    def test_default_context_is_deterministic(self):
        draws_a = ServerContext().rng.random(8)
        draws_b = ServerContext().rng.random(8)
        np.testing.assert_array_equal(draws_a, draws_b)

    def test_default_seed_is_zero(self):
        np.testing.assert_array_equal(
            ServerContext().rng.random(8), np.random.default_rng(0).random(8)
        )

    def test_make_with_seed_overrides_default(self):
        context = ServerContext.make(rng=123)
        np.testing.assert_array_equal(
            context.rng.random(4), np.random.default_rng(123).random(4)
        )

    def test_signguard_zero_config_is_reproducible(self):
        rng = np.random.default_rng(7)
        gradients = rng.normal(size=(12, 40))
        first = SignGuard()(gradients, ServerContext())
        second = SignGuard()(gradients, ServerContext())
        np.testing.assert_array_equal(first.gradient, second.gradient)
        np.testing.assert_array_equal(
            first.selected_indices, second.selected_indices
        )


class TestDtypePinnedAllocations:
    def test_selection_confusion_accepts_plain_lists(self):
        confusion = selection_confusion(
            np.array([0, 1, 2]), np.array([2, 3]), num_clients=5
        )
        assert confusion == {
            "benign_selected": 2,
            "benign_total": 3,
            "byzantine_selected": 1,
            "byzantine_total": 2,
        }

    def test_selection_confusion_empty_selection(self):
        confusion = selection_confusion(
            np.array([], dtype=np.int64), np.array([1]), num_clients=3
        )
        assert confusion["benign_selected"] == 0
        assert confusion["byzantine_selected"] == 0
