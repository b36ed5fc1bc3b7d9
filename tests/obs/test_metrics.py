"""Metrics registry: instruments, percentiles, and both expositions."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    set_registry,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_element_returns_it(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([7.0], 0.0) == 7.0

    def test_two_elements_interpolate(self):
        assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
        assert percentile([1.0, 2.0], 0.0) == 1.0
        assert percentile([1.0, 2.0], 1.0) == 2.0
        assert percentile([1.0, 2.0], 0.99) == pytest.approx(1.99)

    def test_matches_numpy_linear_interpolation(self):
        import numpy as np

        values = [0.1, 0.5, 1.0, 2.0, 9.0]
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert percentile(values, fraction) == pytest.approx(
                float(np.percentile(values, fraction * 100))
            )

    def test_fraction_is_clamped(self):
        assert percentile([1.0, 2.0], -1.0) == 1.0
        assert percentile([1.0, 2.0], 2.0) == 2.0


class TestCounter:
    def test_inc_and_total_across_labels(self):
        counter = Counter("c_total", "help", labelnames=("session",))
        counter.inc(session="a")
        counter.inc(2.5, session="b")
        assert counter.value(session="a") == 1.0
        assert counter.value(session="b") == 2.5
        assert counter.total() == 3.5

    def test_negative_increment_raises(self):
        counter = Counter("c_total", "")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_label_mismatch_raises(self):
        counter = Counter("c_total", "", labelnames=("session",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.inc(session="a", extra="b")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6.0

    def test_set_max_keeps_running_maximum(self):
        gauge = Gauge("g", "")
        gauge.set_max(3)
        gauge.set_max(1)
        assert gauge.value() == 3.0
        gauge.set_max(9)
        assert gauge.value() == 9.0


class TestHistogram:
    def test_observe_fills_buckets_and_sum(self):
        hist = Histogram("h", "", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            hist.observe(value)
        [(labels, plain)] = hist.items()
        assert labels == {}
        assert plain["buckets"] == {"1.0": 2, "10.0": 1}
        assert plain["count"] == 4
        assert plain["sum"] == pytest.approx(56.2)

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("h", "", buckets=())


class TestRegistry:
    def test_getters_are_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "a counter")
        second = registry.counter("x_total")
        assert first is second

    def test_kind_or_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("session",))
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("other",))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs", ("kind",)).inc(kind="merge")
        registry.gauge("depth").set(3)
        hist = registry.histogram("wait_seconds", labelnames=("op",), buckets=(1.0,))
        hist.observe(0.5, op="plan")
        hist.observe(9.0, op="commit")
        snapshot = registry.snapshot()
        assert snapshot["jobs_total"]["type"] == "counter"
        assert snapshot["jobs_total"]["series"] == [
            {"labels": {"kind": "merge"}, "value": 1.0}
        ]
        assert snapshot["depth"]["series"][0]["value"] == 3.0
        # one series per label value, each its own buckets, sum and count
        assert snapshot["wait_seconds"]["series"] == [
            {
                "labels": {"op": "plan"},
                "value": {"buckets": {"1.0": 1}, "sum": 0.5, "count": 1},
            },
            {
                "labels": {"op": "commit"},
                "value": {"buckets": {"1.0": 0}, "sum": 9.0, "count": 1},
            },
        ]

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs processed", ("kind",)).inc(kind="merge")
        hist = registry.histogram("latency_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP jobs_total jobs processed" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{kind="merge"} 1' in text
        assert "# TYPE latency_seconds histogram" in text
        # cumulative buckets: 1 at le=0.1, 2 at le=1.0 and +Inf
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1.0"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_count 2" in text
        assert text.endswith("\n")

    def test_global_registry_swap(self):
        previous = get_registry()
        replacement = MetricsRegistry()
        assert set_registry(replacement) is previous
        try:
            assert get_registry() is replacement
        finally:
            set_registry(previous)
