"""Learned cost models and adaptive policies (docs/ADAPTIVE.md).

Closes the loop between the observability stream (PR 4) and the static
cost assumptions baked into the planners, the tiered store's eviction
policy, and the service's merge batching.  Everything here is opt-in:
nothing in this package runs unless a :class:`FeedbackCollector` and its
adapters are explicitly installed (``swarm --adaptive``, or manual
wiring), and every learned decision falls back to the exact static
behaviour while its predictor is cold or unhealthy.
"""

from .adapters import AdaptiveBatchSizer, LearnedLoadCostModel, ReuseValueScorer
from .collector import AdaptiveConfig, FeedbackCollector, LoadObservation
from .features import (
    BATCH_FEATURE_NAMES,
    LOAD_FEATURE_NAMES,
    batch_features,
    load_features,
)
from .online import OnlinePredictor, RecursiveLeastSquares

__all__ = [
    "AdaptiveBatchSizer",
    "AdaptiveConfig",
    "BATCH_FEATURE_NAMES",
    "FeedbackCollector",
    "LOAD_FEATURE_NAMES",
    "LearnedLoadCostModel",
    "LoadObservation",
    "OnlinePredictor",
    "RecursiveLeastSquares",
    "ReuseValueScorer",
    "batch_features",
    "load_features",
]
