"""FeedbackCollector: observation ingestion, prediction, metrics."""

import pytest

from repro.eg.storage import StorageTier
from repro.learn import FeedbackCollector, LoadObservation
from repro.obs.metrics import MetricsRegistry

_COLD = StorageTier.COLD
_HOT = StorageTier.HOT

# the synthetic ground truth the collector should learn: retrieval time is
# a pure bandwidth model, seconds = size_mib * secs_per_mib + latency
_SECS_PER_MIB = 0.010
_LATENCY = 0.002


def _cold_observation(i: int, size_bytes: int) -> LoadObservation:
    return LoadObservation(
        vertex_id=f"v{i}",
        size_bytes=size_bytes,
        n_columns=4,
        object_columns=0,
        tier=_COLD,
        seconds=_LATENCY + (size_bytes / float(1 << 20)) * _SECS_PER_MIB,
    )


def _train_cold(collector: FeedbackCollector, n: int = 40) -> None:
    for i in range(n):
        collector.observe_load(_cold_observation(i, (i % 8 + 1) * (1 << 18)))


class TestFeedbackCollector:
    def setup_method(self):
        self.registry = MetricsRegistry()
        self.collector = FeedbackCollector(registry=self.registry)

    def test_predict_falls_back_until_warm(self):
        assert self.collector.predict_load(1 << 20, _COLD) is None
        counter = self.registry.counter(
            "repro_learn_predictions_total", labelnames=("model", "source")
        )
        assert counter.value(model="load_cold", source="static") == 1.0

    def test_learns_linear_load_cost(self):
        _train_cold(self.collector)
        predicted = self.collector.predict_load(2 << 20, _COLD, n_columns=4)
        assert predicted == pytest.approx(_LATENCY + 2 * _SECS_PER_MIB, rel=0.05)

    def test_prediction_without_columns_uses_rolling_mean(self):
        _train_cold(self.collector)
        # the planner only knows (size, tier); the rolling per-tier mean
        # must fill in the column feature so the prediction stays usable
        predicted = self.collector.predict_load(2 << 20, _COLD)
        assert predicted is not None
        assert predicted == pytest.approx(_LATENCY + 2 * _SECS_PER_MIB, rel=0.05)

    def test_tiers_train_independent_models(self):
        _train_cold(self.collector)
        assert self.collector.predict_load(1 << 20, _COLD) is not None
        assert self.collector.predict_load(1 << 20, _HOT) is None

    def test_observe_cold_load_matches_store_hook_shape(self):
        for i in range(40):
            size = (i % 8 + 1) * (1 << 18)
            self.collector.observe_cold_load(
                vertex_id=f"v{i}",
                size_bytes=size,
                n_columns=4,
                object_columns=0,
                seconds=_LATENCY + (size / float(1 << 20)) * _SECS_PER_MIB,
            )
        assert self.collector.predict_load(1 << 20, _COLD) is not None

    def test_cold_hit_rate_tracks_tier_mix(self):
        assert self.collector.cold_hit_rate == 0.0
        for i in range(30):
            self.collector.observe_load(_cold_observation(i, 1 << 20))
        assert self.collector.cold_hit_rate > 0.5

    def test_queue_depth_probe_failures_are_swallowed(self):
        def exploding_probe() -> float:
            raise RuntimeError("probe raced a shutdown")

        self.collector.queue_depth_fn = exploding_probe
        _train_cold(self.collector)
        assert self.collector.predict_load(1 << 20, _COLD) is not None

    def test_merge_cost_params_expose_fixed_and_marginal(self):
        assert self.collector.merge_cost_params() is None
        for i in range(40):
            batch = i % 6 + 1
            self.collector.observe_merge(batch, 0.02 + 0.004 * batch)
        params = self.collector.merge_cost_params()
        assert params is not None
        fixed, marginal = params
        assert fixed == pytest.approx(0.02, rel=0.05)
        assert marginal == pytest.approx(0.004, rel=0.05)

    def test_metrics_published_per_model(self):
        _train_cold(self.collector, n=20)
        samples = self.registry.counter(
            "repro_learn_samples_total", labelnames=("model",)
        )
        healthy = self.registry.gauge(
            "repro_learn_predictor_healthy", labelnames=("model",)
        )
        assert samples.value(model="load_cold") == 20.0
        assert healthy.value(model="load_cold") == 1.0

    def test_report_lists_every_predictor(self):
        report = self.collector.report()
        assert set(report) == {"load_hot", "load_cold", "merge"}
        for summary in report.values():
            assert {"samples", "error_ewma", "healthy", "fallbacks", "predictions"} <= (
                set(summary)
            )
