"""From-scratch Mean-Shift clustering for SignGuard's sign-based filter.

The paper clusters the per-client sign-statistics features with Mean-Shift,
which finds the number of clusters itself, and trusts the largest cluster.
scikit-learn is not available in this environment, so the algorithm is
implemented here on top of numpy.  It has two fit paths: the dense fit
(the paper default) and the binned fit (``bin_seeding=True``), which
starts the shift iterations from occupied grid cells and is the path that
scales to large cohorts.
"""

from repro.clustering.meanshift import MeanShift, estimate_bandwidth, get_bin_seeds
from repro.clustering.metrics import pairwise_distances

__all__ = [
    "MeanShift",
    "estimate_bandwidth",
    "get_bin_seeds",
    "pairwise_distances",
]
