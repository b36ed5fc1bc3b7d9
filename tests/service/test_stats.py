"""ServiceMetrics: percentile edges, the consistent cut, and expositions."""

import threading
import time

import pytest

from repro.materialization.simple import MaterializeAll
from repro.service import EGService
from repro.service.stats import STAT_FIELDS, ServiceStats, roll_up
from repro.service.telemetry import ServiceMetrics
from repro.transport import AsyncTransportServer, TransportServiceClient


def snap(metrics: ServiceMetrics):
    return metrics.cut(
        version=0,
        open_sessions=0,
        queue_depth=0,
        queue_capacity=8,
        deferred_evictions=0,
    )


def record_batch(metrics: ServiceMetrics, batch_size: int, seconds: float):
    """What ``EGService._drain_once`` records per merged batch."""
    metrics.batches.inc()
    metrics.merged_workloads.inc(batch_size)
    metrics.merge_seconds_total.inc(seconds)
    metrics.max_batch_size.set_max(batch_size)
    metrics.max_merge_seconds.set_max(seconds)
    metrics.merge_batch_seconds.observe(seconds)


class TestLatencyPercentiles:
    def test_empty_window_reports_zero(self):
        stats = snap(ServiceMetrics())
        assert stats.requests_timed == 0
        assert stats.request_p50_s == 0.0
        assert stats.request_p99_s == 0.0

    def test_single_element_window(self):
        recorder = ServiceMetrics()
        recorder.observe_request(0.25)
        stats = snap(recorder)
        assert stats.requests_timed == 1
        assert stats.request_p50_s == 0.25
        assert stats.request_p99_s == 0.25

    def test_two_element_window_interpolates(self):
        recorder = ServiceMetrics()
        recorder.observe_request(1.0)
        recorder.observe_request(2.0)
        stats = snap(recorder)
        assert stats.request_p50_s == pytest.approx(1.5)
        assert stats.request_p99_s == pytest.approx(1.99)

    def test_p99_below_max_for_larger_windows(self):
        recorder = ServiceMetrics()
        for ms in range(1, 101):
            recorder.observe_request(ms / 1000.0)
        stats = snap(recorder)
        assert stats.request_p50_s == pytest.approx(0.0505)
        assert 0.099 < stats.request_p99_s < 0.100


class TestSnapshotConcurrency:
    def test_snapshot_never_blocks_recorders(self):
        """Recording must stay fast while cuts run in a tight loop."""
        recorder = ServiceMetrics()
        recorder.register_session("s1", "writer")
        stop = threading.Event()

        def snapshotter():
            while not stop.is_set():
                snap(recorder)

        thread = threading.Thread(target=snapshotter)
        thread.start()
        try:
            waits = []
            for index in range(2000):
                begin = time.perf_counter()
                recorder.count_plan("s1", planned_loads=index % 3)
                recorder.observe_request(0.001)
                record_batch(recorder, 2, 0.002)
                waits.append(time.perf_counter() - begin)
        finally:
            stop.set()
            thread.join()
        # generous bound: each record_* holds only one instrument lock at a
        # time, so even under a snapshot storm a write stays sub-50ms.  Read
        # at the 99th percentile: a recorder that waited for snapshots would
        # be slow on every write, while the single worst of 2 000 wall-clock
        # samples is whatever the scheduler did to this thread once.
        assert sorted(waits)[int(0.99 * len(waits))] < 0.05
        stats = snap(recorder)
        assert stats.plans_total == 2000
        assert stats.batches == 2000

    def test_snapshot_is_one_consistent_cut(self):
        """Regression: a snapshot must not tear across instruments.

        Every writer records a plan strictly before its commit, so any
        consistent cut satisfies ``commits_total <= plans_total``.  The
        old snapshot read each instrument at a different instant, letting
        commits recorded after the plans were read leak in and violate
        the invariant.
        """
        recorder = ServiceMetrics()
        recorder.register_session("s1", "writer")
        stop = threading.Event()
        violations: list[tuple[int, int]] = []

        def snapshotter():
            while not stop.is_set():
                stats = snap(recorder)
                if stats.commits_total > stats.plans_total:
                    violations.append((stats.commits_total, stats.plans_total))

        threads = [threading.Thread(target=snapshotter) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(3000):
                recorder.count_plan("s1", planned_loads=1)
                recorder.commits_total.inc(session="s1")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert violations == []
        stats = snap(recorder)
        assert stats.plans_total == stats.commits_total == 3000

    def test_concurrent_writers_lose_no_counts(self):
        recorder = ServiceMetrics()
        recorder.register_session("s1", "a")

        def hammer():
            for _ in range(500):
                recorder.count_plan("s1", planned_loads=1)
                recorder.commits_total.inc(session="s1")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = snap(recorder)
        assert stats.plans_total == 2000
        assert stats.commits_total == 2000
        assert stats.reuse_hits_total == 2000


class TestFieldTable:
    def test_every_instrument_feeds_its_field_and_session_counter(self):
        """Each table row round-trips: one increment of the instrument
        shows up in its ``ServiceStats`` field (and ``SessionStats`` one)."""
        metrics = ServiceMetrics()
        metrics.register_session("s1", "tenant")
        for position, spec in enumerate(STAT_FIELDS, start=1):
            instrument = getattr(metrics, spec.name)
            labels = {"session": "s1"} if spec.metadata["session"] else {}
            if spec.metadata["kind"] == "gauge":
                instrument.set_max(position, **labels)
            else:
                instrument.inc(position, **labels)
        stats = snap(metrics)
        for position, spec in enumerate(STAT_FIELDS, start=1):
            assert getattr(stats, spec.name) == position, spec.name
            assert type(getattr(stats, spec.name)) is type(spec.default)
            if spec.metadata["session"]:
                session = stats.sessions["s1"]
                assert getattr(session, spec.metadata["session"]) == position

    def test_roll_up_sums_and_maxes_over_shards(self):
        own = ServiceStats(version=7, plans_total=3, publishes=1)
        shards = [
            ServiceStats(
                version=4,
                plans_total=2,
                batches=2,
                max_batch_size=3,
                queue_capacity=64,
                queue_peak=5,
                publishes=2,
                merge_seconds_total=0.5,
                max_merge_seconds=0.4,
            ),
            ServiceStats(
                version=3,
                plans_total=1,
                batches=1,
                max_batch_size=1,
                queue_capacity=64,
                queue_peak=2,
                merge_seconds_total=0.25,
                max_merge_seconds=0.25,
            ),
        ]
        combined = roll_up(own, shards)
        # request-shaped fields are the coordinator's own
        assert (combined.version, combined.plans_total) == (7, 3)
        # merge-shaped fields sum / max over coordinator + shards
        assert (combined.batches, combined.queue_capacity) == (3, 128)
        assert (combined.max_batch_size, combined.queue_peak) == (3, 5)
        assert combined.publishes == 3
        assert combined.merge_seconds_total == 0.75
        assert combined.max_merge_seconds == 0.4


class TestQueueWait:
    def test_queue_wait_lands_in_the_shared_registry(self):
        recorder = ServiceMetrics()
        recorder.queue_wait_seconds.observe(0.003)
        recorder.queue_wait_seconds.observe(0.004)
        text = recorder.registry.render_prometheus()
        assert "repro_service_queue_wait_seconds_count 2" in text
        assert "repro_service_queue_wait_seconds_sum 0.007" in text


class TestServiceExposition:
    def test_metrics_text_and_snapshot(self):
        with EGService(MaterializeAll()) as service:
            text = service.metrics_text()
            assert "# TYPE repro_service_version gauge" in text
            assert "repro_service_queue_depth 0" in text
            snapshot = service.metrics_snapshot()
            assert snapshot["repro_service_version"]["type"] == "gauge"
            assert snapshot["repro_service_queue_depth"]["series"][0]["value"] == 0.0

    def test_metrics_over_tcp(self):
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                host, port = server.address
                with TransportServiceClient(host, port) as client:
                    text = client.metrics()
                    assert "repro_service_version" in text
                    snapshot = client.metrics(format="json")
                    assert isinstance(snapshot, dict)
                    assert "repro_service_version" in snapshot
