"""Gradient aggregation rules (GARs): the baselines the paper compares against.

Every aggregator implements :class:`~repro.aggregators.base.Aggregator` and
returns an :class:`~repro.aggregators.base.AggregationResult` carrying the
aggregated gradient, the set of client rows it trusted (when meaningful), and
free-form diagnostic info.  The SignGuard family lives in :mod:`repro.core`
but implements the same interface, so the federated server treats all rules
uniformly.

No rule takes per-client weights: each counts a reporting client's row
once, as SignGuard's norm-clipped mean does (Algorithm 2), so ``fedavg``
is an alias of ``mean``.
"""

from repro.aggregators.base import AggregationResult, Aggregator, ServerContext
from repro.aggregators.mean import MeanAggregator
from repro.aggregators.trimmed_mean import TrimmedMeanAggregator
from repro.aggregators.median import CoordinateMedianAggregator
from repro.aggregators.geometric_median import (
    GeometricMedianAggregator,
    geometric_median,
)
from repro.aggregators.krum import KrumAggregator, MultiKrumAggregator
from repro.aggregators.bulyan import BulyanAggregator
from repro.aggregators.dnc import DivideAndConquerAggregator
from repro.aggregators.norms import clip_gradients_to_norm, median_norm
from repro.aggregators.factory import AGGREGATOR_REGISTRY, build_aggregator

__all__ = [
    "AggregationResult",
    "Aggregator",
    "ServerContext",
    "MeanAggregator",
    "TrimmedMeanAggregator",
    "CoordinateMedianAggregator",
    "GeometricMedianAggregator",
    "geometric_median",
    "KrumAggregator",
    "MultiKrumAggregator",
    "BulyanAggregator",
    "DivideAndConquerAggregator",
    "clip_gradients_to_norm",
    "median_norm",
    "AGGREGATOR_REGISTRY",
    "build_aggregator",
]
