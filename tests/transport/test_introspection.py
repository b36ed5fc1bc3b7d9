"""Live introspection over the wire: health, debug, shed tail-keeping."""

import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.client.executor import VirtualCostModel
from repro.dataframe import DataFrame
from repro.graph.dag import WorkloadDAG
from repro.materialization.simple import MaterializeAll
from repro.obs.plane import FlightRecorder, perfetto_document
from repro.service import EGService
from repro.transport import (
    AsyncTransportServer,
    ProtocolError,
    TransportConnection,
    TransportServiceClient,
)
from repro.workloads.synthetic_dag import wide_workload_script


def make_sources():
    rng = np.random.default_rng(7)
    return {"wide": DataFrame({"x": rng.normal(size=8), "y": rng.normal(size=8)})}


def run_remote_workload(host, port, label="traced"):
    script = wide_workload_script(3, 2, 0.05)
    with TransportServiceClient(
        host, port, name="probe", cost_model=VirtualCostModel()
    ) as client:
        client.run_script(script, make_sources(), label=label)


class TestHealthOp:
    def test_health_has_service_and_transport_sections(self):
        service = EGService(MaterializeAll(), background=True)
        try:
            with AsyncTransportServer(service) as server:
                with TransportServiceClient(
                    *server.address, cost_model=VirtualCostModel()
                ) as client:
                    health = client.health()
                    assert health["status"] == "ok"
                    assert health["queue"]["capacity"] > 0
                    assert "queue-wait-p99" in health["slo"]
                    transport = health["transport"]
                    assert transport["open_connections"] >= 1
                    assert transport["requests"] >= 1
                    assert "inflight" in transport
        finally:
            service.stop()

    def test_health_falls_back_without_a_health_surface(self):
        # duck-typed service with neither health() nor debug_info()
        service = SimpleNamespace(version=7, metrics_registry=None)
        with AsyncTransportServer(service) as server:
            connection = TransportConnection(*server.address)
            try:
                health = connection.request({"op": "health"})["health"]
                assert health["status"] == "ok"
                assert "transport" in health
            finally:
                connection.close()


class TestDebugOp:
    def test_debug_lists_traces_and_fetches_detail(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        service = EGService(
            MaterializeAll(), background=True, flight_recorder=recorder
        )
        try:
            with AsyncTransportServer(service) as server:
                host, port = server.address
                run_remote_workload(host, port)
                with TransportServiceClient(
                    host, port, cost_model=VirtualCostModel()
                ) as client:
                    info = client.debug()
                    assert info["recorder"]["kept_total"] >= 1
                    assert info["recent_traces"]
                    assert info["slowest_spans"]
                    trace_id = info["recent_traces"][0]["trace_id"]
                    detail = client.debug(trace_id=trace_id)
                    assert detail["trace"]
                    assert all(
                        span["trace_id"] == trace_id for span in detail["trace"]
                    )
                    # the wire-shipped spans render straight to Perfetto
                    document = perfetto_document(detail["trace"])
                    assert document["traceEvents"]
        finally:
            service.stop()

    def test_debug_without_surface_is_a_protocol_error(self):
        service = SimpleNamespace(version=7, metrics_registry=None)
        with AsyncTransportServer(service) as server:
            connection = TransportConnection(*server.address)
            try:
                with pytest.raises(ProtocolError):
                    connection.request({"op": "debug"})
            finally:
                connection.close()


class TestShedTailKeeping:
    def test_shed_requests_are_kept_and_health_still_answers(self):
        """A commit the full merge queue bounces is retried; the tenant's
        whole trace is kept for the bounce, and health answers meanwhile."""
        # nothing is slow and head sampling is off: only the shed path
        # can make the recorder keep a trace
        recorder = FlightRecorder(slow_threshold_s=1e9, head_sample_every=0)
        service = EGService(
            MaterializeAll(),
            queue_capacity=1,
            background=True,
            flight_recorder=recorder,
        )
        try:
            with AsyncTransportServer(service) as server:
                filler = service.open_session("filler")
                service._merge_lock.acquire()  # the one queue slot stays taken
                service.submit_update(filler.session_id, WorkloadDAG())

                def release_after_a_bounce():
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        if service.stats().overload_rejections:
                            break
                        time.sleep(0.001)
                    service._merge_lock.release()

                releaser = threading.Thread(target=release_after_a_bounce)
                releaser.start()
                with TransportConnection(*server.address) as connection:
                    health = connection.request({"op": "health"})["health"]
                    assert health["status"] == "ok"
                    assert health["queue"]["headroom"] == 0
                with TransportServiceClient(
                    *server.address, name="late", cost_model=VirtualCostModel()
                ) as client:
                    client.run_script(
                        wide_workload_script(2, 1, 0.05), make_sources(), label="late"
                    )
                    assert client.retries >= 1
                releaser.join()
        finally:
            service.stop()
        kept = recorder.kept_traces(limit=None)
        shed = [t for t in kept if t["decision"] == "shed"]
        assert shed, f"expected a shed-kept trace, got {kept}"
        assert shed[0]["root"] == "client.workload"


class TestCLISmoke:
    def test_metrics_and_inspect_against_a_live_server(self, tmp_path):
        from repro.experiments import cli

        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        service = EGService(
            MaterializeAll(), background=True, flight_recorder=recorder
        )
        try:
            with AsyncTransportServer(service) as server:
                host, port = server.address
                run_remote_workload(host, port, label="cli")
                addr = f"{host}:{port}"
                assert cli.main(["metrics", "--addr", addr]) == 0
                out = tmp_path / "metrics.json"
                assert (
                    cli.main(
                        [
                            "metrics",
                            "--addr",
                            addr,
                            "--format",
                            "json",
                            "--metrics-out",
                            str(out),
                        ]
                    )
                    == 0
                )
                assert "repro_service_commits_total" in json.loads(out.read_text())
                perfetto = tmp_path / "trace.json"
                assert (
                    cli.main(
                        ["inspect", "--addr", addr, "--perfetto-out", str(perfetto)]
                    )
                    == 0
                )
                document = json.loads(perfetto.read_text())
                assert document["traceEvents"]
        finally:
            service.stop()
