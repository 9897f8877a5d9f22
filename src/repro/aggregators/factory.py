"""Aggregator factory: build registered aggregation rules by name.

The SignGuard variants register themselves here as well (see
``repro.core.signguard``), so the federated experiment runner can construct
any rule from its string name.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.aggregators.base import Aggregator
from repro.aggregators.bulyan import BulyanAggregator
from repro.aggregators.dnc import DivideAndConquerAggregator
from repro.aggregators.geometric_median import GeometricMedianAggregator
from repro.aggregators.krum import KrumAggregator, MultiKrumAggregator
from repro.aggregators.mean import MeanAggregator
from repro.aggregators.median import CoordinateMedianAggregator
from repro.aggregators.trimmed_mean import TrimmedMeanAggregator
from repro.utils.registry import Registry

AGGREGATOR_REGISTRY = Registry("aggregators")

AGGREGATOR_REGISTRY.register("mean", MeanAggregator)
AGGREGATOR_REGISTRY.register("trimmed_mean", TrimmedMeanAggregator)
AGGREGATOR_REGISTRY.register("median", CoordinateMedianAggregator)
AGGREGATOR_REGISTRY.register("geomed", GeometricMedianAggregator)
AGGREGATOR_REGISTRY.register("krum", KrumAggregator)
AGGREGATOR_REGISTRY.register("multi_krum", MultiKrumAggregator)
AGGREGATOR_REGISTRY.register("bulyan", BulyanAggregator)
AGGREGATOR_REGISTRY.register("dnc", DivideAndConquerAggregator)

AGGREGATOR_REGISTRY.register_alias("fedavg", "mean")
AGGREGATOR_REGISTRY.register_alias("trmean", "trimmed_mean")
AGGREGATOR_REGISTRY.register_alias("geometric_median", "geomed")
AGGREGATOR_REGISTRY.register_alias("multikrum", "multi_krum")
AGGREGATOR_REGISTRY.register_alias("divide_and_conquer", "dnc")


def build_aggregator(name: str, params: Dict[str, Any] = None) -> Aggregator:
    """Instantiate the aggregation rule registered under ``name``.

    Importing :mod:`repro.core` (done lazily here) makes sure the SignGuard
    variants are registered before lookup.
    """
    import repro.core  # noqa: F401  (registers the SignGuard aggregators)

    params = dict(params or {})
    return AGGREGATOR_REGISTRY.create(name, **params)
