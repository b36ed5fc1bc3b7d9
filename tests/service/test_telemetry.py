"""EGService telemetry plane: recorder defaults, health, and debug_info."""

import numpy as np

from repro.client.executor import VirtualCostModel
from repro.dataframe import DataFrame
from repro.materialization.simple import MaterializeAll
from repro.obs.plane import FlightRecorder
from repro.obs.trace import NoopTracer, get_tracer
from repro.service import EGService, ServiceClient
from repro.workloads.synthetic_dag import SleepOperation


def script(workspace, sources):
    node = workspace.source("src", sources["src"])
    node = node.add(SleepOperation(branch=0, step=0, seconds=0.001))
    node.terminal()


def run_one_workload(service: EGService) -> None:
    sources = {"src": DataFrame({"x": np.arange(8.0)})}
    with ServiceClient(
        service, name="tenant", cost_model=VirtualCostModel()
    ) as client:
        client.run_script(script, sources, label="one")


class TestRecorderDefaults:
    def test_background_service_records_by_default(self):
        service = EGService(MaterializeAll(), background=True)
        try:
            assert service.flight_recorder is not None
            assert service.telemetry.slo_engine is not None
            assert get_tracer().enabled
        finally:
            service.stop()
        assert isinstance(get_tracer(), NoopTracer)

    def test_inline_service_stays_dark(self):
        with EGService(MaterializeAll()) as service:
            assert service.flight_recorder is None
            assert service.telemetry.slo_engine is None
            assert isinstance(get_tracer(), NoopTracer)

    def test_false_disables_even_in_background(self):
        service = EGService(
            MaterializeAll(), background=True, flight_recorder=False
        )
        try:
            assert service.flight_recorder is None
            assert isinstance(get_tracer(), NoopTracer)
        finally:
            service.stop()

    def test_caller_instance_is_used_and_survives_stop(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        service = EGService(
            MaterializeAll(), background=True, flight_recorder=recorder
        )
        try:
            assert service.flight_recorder is recorder
            run_one_workload(service)
        finally:
            service.stop()
        # the data outlives the uninstall: every trace was slow at 0s
        stats = recorder.stats()
        assert stats["kept_total"] >= 1
        assert stats["decisions"]["dropped"] == 0
        assert isinstance(get_tracer(), NoopTracer)


class TestIntrospectionSurface:
    def test_health_shape_and_status(self):
        service = EGService(MaterializeAll(), background=True)
        try:
            health = service.health()
            assert health["status"] == "ok"
            assert health["queue"]["capacity"] > 0
            assert health["queue"]["headroom"] <= health["queue"]["capacity"]
            assert health["recorder"]["spans_seen"] >= 0
            assert set(health["slo"]) == {
                "merge-batch-p99",
                "plan-latency-p95",
                "queue-wait-p99",
                "cold-hit-rate",
            }
            assert health["alerts"] == []
        finally:
            service.stop()
        assert service.health()["status"] == "stopped"

    def test_debug_info_lists_kept_traces_and_slow_spans(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        service = EGService(
            MaterializeAll(), background=True, flight_recorder=recorder
        )
        try:
            run_one_workload(service)
            info = service.debug_info()
            assert info["recorder"]["kept_total"] >= 1
            assert info["recent_traces"]
            assert info["slowest_spans"]
            assert info["alerts"] == []
            trace_id = info["recent_traces"][0]["trace_id"]
            detail = service.debug_info(trace_id=trace_id)
            assert detail["trace"]
            assert all(s["trace_id"] == trace_id for s in detail["trace"])
        finally:
            service.stop()

    def test_debug_info_without_recorder_is_empty_but_valid(self):
        with EGService(MaterializeAll()) as service:
            info = service.debug_info()
            assert info["recorder"] is None
            assert info["recent_traces"] == []
            assert info["slowest_spans"] == []

    def test_merge_batch_exemplars_link_to_kept_traces(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        service = EGService(
            MaterializeAll(), background=True, flight_recorder=recorder
        )
        try:
            run_one_workload(service)
        finally:
            service.stop()
        hist = service.metrics_registry.get("repro_service_merge_batch_seconds")
        exemplars = hist.exemplars()
        assert exemplars, "merge batches should record exemplars while traced"
        kept_ids = {t["trace_id"] for t in recorder.kept_traces(limit=None)}
        assert any(e["trace_id"] in kept_ids for e in exemplars.values())
