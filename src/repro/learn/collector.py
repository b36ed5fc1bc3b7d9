"""FeedbackCollector: observability stream in, labeled samples out.

The collector closes the loop between what the system *measures* (cold
disk reads, merge batches — both instrumented since the observability
PR) and what the planners *assume* (static bandwidth/latency pairs, fixed
per-tier load costs).  It maintains one
:class:`~repro.learn.online.OnlinePredictor` per cost kind:

``load_hot`` / ``load_cold``
    per-tier artifact retrieval latency over
    :data:`~repro.learn.features.LOAD_FEATURE_NAMES`;
``merge``
    merge-batch publish cost over
    :data:`~repro.learn.features.BATCH_FEATURE_NAMES` — its two weights
    (fixed overhead, marginal per-workload cost) drive the adaptive
    batch sizer's closed-form linger.

Samples arrive by direct, thread-safe observation: the tiered store's
``load_observer`` hook calls :meth:`observe_cold_load` with exact
sizes/column mixes (works with the default noop tracer), and the service
merge worker feeds :meth:`AdaptiveBatchSizer.observe_batch`.

Prediction-vs-observed error, sample counts, and learned/static decision
counts are published as ``repro_learn_*`` metrics (table in
docs/OBSERVABILITY.md), so the fallback behaviour is itself observable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from ..eg.storage import StorageTier
from ..obs.metrics import MetricsRegistry, get_registry
from .features import batch_features, load_features
from .online import OnlinePredictor

__all__ = ["AdaptiveConfig", "LoadObservation", "FeedbackCollector"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Opt-in switches and hyper-parameters of the adaptive policies.

    Everything is off unless a collector/adapter is explicitly installed;
    this object only tunes *how* the installed pieces behave.  The
    defaults are deliberately conservative: a predictor must see
    ``min_samples`` observations and keep its relative-error EWMA under
    ``error_threshold`` before any of its numbers replace a static cost.
    """

    #: observations before a predictor may answer at all
    min_samples: int = 16
    #: relative-error EWMA above which predictions fall back to static
    error_threshold: float = 0.5
    #: EWMA decay for the prediction-error gauge (closer to 1 = smoother)
    error_decay: float = 0.9
    #: RLS forgetting factor — how fast old samples fade (drift tracking)
    forgetting: float = 0.995
    #: RLS prior strength (P = ridge * I); large = weak prior
    ridge: float = 1e4
    #: EWMA decay for the rolling cold-hit-rate / column-mix features
    feature_decay: float = 0.95
    #: LRU candidates the adaptive eviction scorer ranks per demotion
    eviction_scan: int = 8
    #: half-life (in hot-tier accesses) of the scorer's recency decay —
    #: short enough that a stale access count cannot outvote recency for
    #: long (a dead twice-read artifact drops below a live once-read one
    #: within ~a half-life of inactivity)
    recency_halflife: float = 16.0
    #: adaptive merge linger bounds (seconds)
    min_linger_s: float = 0.005
    max_linger_s: float = 0.5


@dataclass(frozen=True)
class LoadObservation:
    """One completed artifact retrieval, as reported by the store."""

    vertex_id: str
    size_bytes: int
    n_columns: int
    object_columns: int
    tier: StorageTier
    seconds: float


@dataclass
class _TierFeatureState:
    """Rolling per-tier feature context (EWMA over recent observations)."""

    mean_columns: float = 1.0
    object_fraction: float = 0.0
    seen: int = 0


class FeedbackCollector:
    """Turns load/merge observations into online cost predictors."""

    LOAD_MODELS = {StorageTier.HOT: "load_hot", StorageTier.COLD: "load_cold"}

    def __init__(
        self,
        config: AdaptiveConfig | None = None,
        registry: MetricsRegistry | None = None,
        queue_depth_fn: Callable[[], float] | None = None,
    ):
        self.config = config if config is not None else AdaptiveConfig()
        #: live merge-queue depth probe (installed by the service wiring);
        #: defaults to 0.0 so the feature is inert until wired
        self.queue_depth_fn = queue_depth_fn
        self._lock = threading.Lock()

        cfg = self.config

        def predictor(n_features: int) -> OnlinePredictor:
            return OnlinePredictor(
                n_features,
                min_samples=cfg.min_samples,
                error_threshold=cfg.error_threshold,
                error_decay=cfg.error_decay,
                forgetting=cfg.forgetting,
                ridge=cfg.ridge,
            )

        self.predictors: dict[str, OnlinePredictor] = {
            "load_hot": predictor(len(load_features(0, 0, 0.0, 0.0))),
            "load_cold": predictor(len(load_features(0, 0, 0.0, 0.0))),
            "merge": predictor(len(batch_features(0))),
        }
        #: recent share of loads served by a disk read (EWMA)
        self._cold_hit_rate = 0.0
        self._tier_state = {
            StorageTier.HOT: _TierFeatureState(),
            StorageTier.COLD: _TierFeatureState(),
        }

        registry = registry if registry is not None else get_registry()
        self._samples_counter = registry.counter(
            "repro_learn_samples_total",
            "labeled training samples ingested per predictor",
            labelnames=("model",),
        )
        self._error_gauge = registry.gauge(
            "repro_learn_error_ewma",
            "EWMA of relative prediction-vs-observed error per predictor",
            labelnames=("model",),
        )
        self._predictions_counter = registry.counter(
            "repro_learn_predictions_total",
            "cost queries answered, by predictor and source (learned/static)",
            labelnames=("model", "source"),
        )
        self._healthy_gauge = registry.gauge(
            "repro_learn_predictor_healthy",
            "1 when the predictor's error EWMA is under its threshold",
            labelnames=("model",),
        )

    # ------------------------------------------------------------------
    # Feature context
    # ------------------------------------------------------------------
    @property
    def cold_hit_rate(self) -> float:
        """Recent cold-hit share of store loads (EWMA; 0.0 until observed)."""
        with self._lock:
            return self._cold_hit_rate

    def _queue_depth(self) -> float:
        if self.queue_depth_fn is None:
            return 0.0
        try:
            return float(self.queue_depth_fn())
        except Exception:  # noqa: BLE001 - a probe must never kill a cost query
            return 0.0

    def _load_feature_vector(
        self,
        size_bytes: int,
        n_columns: float,
        tier: StorageTier,
        object_fraction: float | None = None,
    ) -> list[float]:
        """Build the load feature vector (lock held)."""
        if object_fraction is None:
            object_fraction = self._tier_state[tier].object_fraction
        return load_features(
            size_bytes,
            n_columns,
            self._cold_hit_rate,
            self._queue_depth(),
            object_fraction,
        )

    # ------------------------------------------------------------------
    # Observation (training) side
    # ------------------------------------------------------------------
    def observe_load(self, observation: LoadObservation) -> None:
        """Ingest one completed retrieval as a labeled sample."""
        cfg = self.config
        model = self.LOAD_MODELS[observation.tier]
        with self._lock:
            # feature context first, so the sample trains against the
            # same rolling values a prediction made *now* would use
            decay = cfg.feature_decay
            is_cold = 1.0 if observation.tier is StorageTier.COLD else 0.0
            self._cold_hit_rate = decay * self._cold_hit_rate + (1 - decay) * is_cold
            state = self._tier_state[observation.tier]
            object_frac = (
                observation.object_columns / observation.n_columns
                if observation.n_columns
                else 0.0
            )
            if state.seen == 0:
                state.mean_columns = float(observation.n_columns)
                state.object_fraction = object_frac
            else:
                state.mean_columns = (
                    decay * state.mean_columns + (1 - decay) * observation.n_columns
                )
                state.object_fraction = (
                    decay * state.object_fraction + (1 - decay) * object_frac
                )
            state.seen += 1
            features = self._load_feature_vector(
                observation.size_bytes,
                observation.n_columns,
                observation.tier,
                object_fraction=object_frac,
            )
            predictor = self.predictors[model]
            predictor.observe(features, observation.seconds)
            error = predictor.error_ewma
            healthy = predictor.healthy
        self._samples_counter.inc(model=model)
        self._error_gauge.set(error, model=model)
        self._healthy_gauge.set(1.0 if healthy else 0.0, model=model)

    def observe_cold_load(
        self,
        vertex_id: str,
        size_bytes: int,
        n_columns: int,
        object_columns: int,
        seconds: float,
    ) -> None:
        """Keyword-shaped adapter matching ``TieredArtifactStore.load_observer``.

        Install with ``store.load_observer = collector.observe_cold_load``.
        """
        self.observe_load(
            LoadObservation(
                vertex_id=vertex_id,
                size_bytes=size_bytes,
                n_columns=n_columns,
                object_columns=object_columns,
                tier=StorageTier.COLD,
                seconds=seconds,
            )
        )

    def observe_merge(self, batch_size: int, seconds: float) -> None:
        """Ingest one merge batch (size -> publish seconds) sample."""
        with self._lock:
            predictor = self.predictors["merge"]
            predictor.observe(batch_features(batch_size), seconds)
            error = predictor.error_ewma
            healthy = predictor.healthy
        self._samples_counter.inc(model="merge")
        self._error_gauge.set(error, model="merge")
        self._healthy_gauge.set(1.0 if healthy else 0.0, model="merge")

    # ------------------------------------------------------------------
    # Prediction side
    # ------------------------------------------------------------------
    def predict_load(
        self,
        size_bytes: int,
        tier: StorageTier,
        n_columns: float | None = None,
    ) -> float | None:
        """Predicted retrieval seconds, or ``None`` to use the static model.

        Callers that only know (size, tier) — the planner's
        ``cost_for_tier`` interface — omit ``n_columns``; the rolling
        per-tier mean fills the feature in, so prediction features stay
        on the manifold the model was trained on.
        """
        model = self.LOAD_MODELS[tier]
        with self._lock:
            if n_columns is None:
                n_columns = self._tier_state[tier].mean_columns
            features = self._load_feature_vector(size_bytes, n_columns, tier)
            value = self.predictors[model].predict(features)
        self._predictions_counter.inc(
            model=model, source="static" if value is None else "learned"
        )
        return value

    def merge_cost_params(self) -> tuple[float, float] | None:
        """(fixed overhead, marginal per-workload seconds) of a merge batch.

        Read straight off the merge model's weights (bias, batch_size) —
        only when the model is healthy and the weights are physically
        sensible (non-negative fixed cost); ``None`` means the batch
        sizer should stick to heuristics.
        """
        with self._lock:
            predictor = self.predictors["merge"]
            if not predictor.healthy:
                return None
            fixed, marginal = (float(w) for w in predictor.model.weights)
        if fixed <= 0.0:
            return None
        return fixed, max(0.0, marginal)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, dict[str, float]]:
        """Frozen per-predictor summary (the swarm's --adaptive-report)."""
        with self._lock:
            return {
                name: {
                    "samples": float(predictor.samples),
                    "error_ewma": predictor.error_ewma,
                    "healthy": 1.0 if predictor.healthy else 0.0,
                    "fallbacks": float(predictor.fallbacks),
                    "predictions": float(predictor.predictions),
                }
                for name, predictor in self.predictors.items()
            }
