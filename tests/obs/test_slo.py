"""SLO engine: sources, multi-window burn-rate alerting, the journal."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SLO,
    BurnWindow,
    CounterRatioSource,
    HistogramLatencySource,
    SLOEngine,
    default_service_slos,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


WINDOW = BurnWindow(short_s=10.0, long_s=30.0, threshold=2.0, severity="page")


def ratio_engine(source_registry: MetricsRegistry, clock: FakeClock, **kwargs) -> SLOEngine:
    slo = SLO(
        "shed-rate",
        CounterRatioSource("shed_total", "requests_total"),
        objective=0.9,
    )
    return SLOEngine(
        [slo],
        registries=[source_registry],
        windows=(WINDOW,),
        min_eval_interval_s=0.0,
        clock=clock,
        **kwargs,
    )


class TestSources:
    def test_counter_ratio_none_until_total_exists(self):
        registry = MetricsRegistry()
        source = CounterRatioSource("bad_total", "all_total")
        assert source.sample([registry]) is None
        registry.counter("all_total").inc(10)
        assert source.sample([registry]) == (0.0, 10.0)
        registry.counter("bad_total").inc(3)
        assert source.sample([registry]) == (3.0, 10.0)

    def test_counter_ratio_sums_labels_and_registries(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("all_total", labelnames=("op",)).inc(4, op="plan")
        first.counter("all_total", labelnames=("op",)).inc(6, op="commit")
        second.counter("all_total").inc(10)
        source = CounterRatioSource("bad_total", "all_total")
        assert source.sample([first, second]) == (0.0, 20.0)

    def test_histogram_latency_counts_above_threshold_as_bad(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)  # good: <= 1.0 bound
        hist.observe(0.5)  # good
        hist.observe(5.0)  # +Inf bucket: bad
        source = HistogramLatencySource("latency_seconds", 1.0)
        assert source.sample([registry]) == (1.0, 3.0)

    def test_histogram_latency_absent_means_no_sample(self):
        source = HistogramLatencySource("latency_seconds", 1.0)
        assert source.sample([MetricsRegistry()]) is None


class TestBurnAlerting:
    def test_fires_on_sustained_burn_and_resolves_after(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        engine = ratio_engine(registry, clock)
        shed = registry.counter("shed_total")
        requests = registry.counter("requests_total")

        requests.inc(10)
        assert engine.evaluate() == []  # single sample: no burn yet

        clock.now = 5.0
        shed.inc(8)
        requests.inc(10)
        [event] = engine.evaluate()
        # 8 bad / 20 requests = 40% bad over a 10% budget -> burn 4 >= 2
        assert event.state == "firing"
        assert event.severity == "page"
        assert event.burn_short >= WINDOW.threshold
        assert engine.active() == [{"slo": "shed-rate", "severity": "page"}]
        assert engine.status()["shed-rate"]["firing"] is True

        clock.now = 45.0  # both windows have rolled past the bad burst
        requests.inc(100)
        [event] = engine.evaluate()
        assert event.state == "resolved"
        assert engine.active() == []

    def test_short_blip_does_not_fire_the_long_window(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        engine = ratio_engine(registry, clock)
        shed = registry.counter("shed_total")
        requests = registry.counter("requests_total")

        requests.inc(1000)
        engine.evaluate()
        clock.now = 25.0
        requests.inc(1000)
        engine.evaluate()
        # burst confined to the short window: long window dilutes it
        clock.now = 29.0
        shed.inc(60)
        requests.inc(100)
        assert engine.evaluate() == []
        assert engine.active() == []

    def test_missing_metrics_never_alert(self):
        engine = ratio_engine(MetricsRegistry(), FakeClock())
        assert engine.evaluate() == []
        status = engine.status()["shed-rate"]
        assert status["firing"] is False
        assert status["total"] == 0.0

    def test_journal_is_bounded_and_oldest_first(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        engine = ratio_engine(registry, clock, journal_size=4)
        shed = registry.counter("shed_total")
        requests = registry.counter("requests_total")
        requests.inc(10)
        engine.evaluate()
        for flap in range(4):
            clock.now += 50.0
            shed.inc(40)
            requests.inc(50)
            engine.evaluate()  # fires
            clock.now += 50.0
            requests.inc(1000)
            engine.evaluate()  # resolves
        journal = engine.journal()
        assert len(journal) == 4
        states = [entry["state"] for entry in journal]
        assert states == ["firing", "resolved", "firing", "resolved"]
        assert journal[0]["at_s"] < journal[-1]["at_s"]

    def test_maybe_evaluate_rate_limits(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(5)
        clock = FakeClock()
        slo = SLO(
            "shed-rate",
            CounterRatioSource("shed_total", "requests_total"),
            objective=0.9,
        )
        engine = SLOEngine(
            [slo],
            registries=[registry],
            windows=(WINDOW,),
            min_eval_interval_s=10.0,
            clock=clock,
        )
        engine.maybe_evaluate()
        clock.now = 5.0
        engine.maybe_evaluate()  # inside the interval: skipped
        assert engine.status()["shed-rate"]["total"] == 5.0
        clock.now = 11.0
        registry.counter("requests_total").inc(5)
        engine.maybe_evaluate()
        assert engine.status()["shed-rate"]["total"] == 10.0

    def test_publishes_gauges_and_transition_counter(self):
        source_registry = MetricsRegistry()
        own_registry = MetricsRegistry()
        clock = FakeClock()
        engine = ratio_engine(source_registry, clock, registry=own_registry)
        shed = source_registry.counter("shed_total")
        requests = source_registry.counter("requests_total")
        requests.inc(10)
        engine.evaluate()
        clock.now = 5.0
        shed.inc(8)
        requests.inc(10)
        engine.evaluate()
        firing = own_registry.get("repro_obs_slo_firing")
        assert firing.value(slo="shed-rate") == 1.0
        burn = own_registry.get("repro_obs_slo_burn_rate")
        assert burn.value(slo="shed-rate", window="10s/30s", severity="page") >= 2.0
        alerts = own_registry.get("repro_obs_slo_alerts_total")
        assert alerts.value(slo="shed-rate", severity="page", state="firing") == 1.0

    def test_duplicate_slo_names_rejected(self):
        slo = SLO("dup", CounterRatioSource("a", "b"))
        with pytest.raises(ValueError):
            SLOEngine([slo, slo])


class TestDefaultServiceSLOs:
    def test_names_and_clean_evaluation_on_empty_registries(self):
        slos = default_service_slos()
        assert [slo.name for slo in slos] == [
            "merge-batch-p99",
            "plan-latency-p95",
            "queue-wait-p99",
            "cold-hit-rate",
        ]
        engine = SLOEngine(
            slos, registries=[MetricsRegistry()], clock=FakeClock()
        )
        assert engine.evaluate() == []
        assert engine.active() == []
