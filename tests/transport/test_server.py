"""End-to-end tests for the async multiplexed transport server."""

import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.client.executor import VirtualCostModel
from repro.dataframe import DataFrame
from repro.materialization.simple import MaterializeAll
from repro.graph.dag import WorkloadDAG
from repro.service import EGService, ServiceOverloadedError, UnknownSessionError
from repro.shard import ProcessShardCoordinator
from repro.transport import (
    AsyncTransportServer,
    ConnectionPool,
    TransportConnection,
    TransportServiceClient,
)
from repro.workloads.synthetic_dag import wide_workload_script

EMPTY_WORKLOAD = {"v": [], "e": [], "tm": []}


def make_sources():
    rng = np.random.default_rng(7)
    return {"wide": DataFrame({"x": rng.normal(size=8), "y": rng.normal(size=8)})}


class TestEndToEnd:
    @pytest.mark.parametrize("codec", ["binary", "json"])
    def test_plan_commit_reuse_and_stats(self, codec):
        script = wide_workload_script(3, 2, 0.05)
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                with ConnectionPool(*server.address, codec=codec) as pool, (
                    TransportServiceClient(
                        name="remote", cost_model=VirtualCostModel(), pool=pool
                    )
                ) as client:
                    assert client.ping() == 0
                    first = client.run_script(script, make_sources(), label="w1")
                    second = client.run_script(script, make_sources(), label="w2")
                    assert first.executed_vertices == 6
                    assert second.loaded_vertices == 3
                    assert second.executed_vertices == 0
                    stats = client.stats()
                    assert stats["commits_total"] == 2
                    assert stats["reuse_hit_rate"] == 0.5
                wire = server.wire_stats()
                assert wire["frames_in"] > 0 and wire["bytes_in"] > 0
            assert service.eg.num_vertices == 7

    def test_two_clients_share_the_graph(self):
        script = wide_workload_script(2, 2, 0.05)
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                host, port = server.address
                with TransportServiceClient(
                    host, port, name="a", cost_model=VirtualCostModel()
                ) as alice:
                    alice.run_script(script, make_sources())
                with TransportServiceClient(
                    host, port, name="b", cost_model=VirtualCostModel()
                ) as bob:
                    report = bob.run_script(script, make_sources())
                assert report.loaded_vertices > 0  # bob reuses alice's work

    def test_sharded_service_behind_the_transport(self):
        script = wide_workload_script(3, 2, 0.05)
        with ProcessShardCoordinator(2) as service:
            with AsyncTransportServer(service) as server:
                host, port = server.address
                with TransportServiceClient(
                    host, port, name="s", cost_model=VirtualCostModel()
                ) as client:
                    first = client.run_script(script, make_sources(), label="a")
                    second = client.run_script(script, make_sources(), label="b")
                    assert first.executed_vertices == 6
                    assert second.loaded_vertices == 3

    def test_json_and_binary_runs_converge_identically(self):
        from repro.experiments.swarm import eg_fingerprint

        script = wide_workload_script(3, 2, 0.05)
        fingerprints = {}
        for codec in ("binary", "json"):
            with EGService(MaterializeAll()) as service:
                with AsyncTransportServer(service) as server:
                    with ConnectionPool(*server.address, codec=codec) as pool, (
                        TransportServiceClient(
                            name="c", cost_model=VirtualCostModel(), pool=pool
                        )
                    ) as client:
                        client.run_script(script, make_sources(), label="w1")
                        client.run_script(script, make_sources(), label="w2")
                fingerprints[codec] = eg_fingerprint(service.eg)
        assert fingerprints["binary"] == fingerprints["json"]

    def test_trace_context_crosses_the_wire(self):
        from repro.obs.sinks import InMemorySink
        from repro.obs.trace import Tracer, use_tracer

        script = wide_workload_script(3, 2, 0.05)
        sink = InMemorySink()
        with use_tracer(Tracer(sinks=[sink])):
            with EGService(MaterializeAll()) as service:
                with AsyncTransportServer(service) as server:
                    with TransportServiceClient(
                        *server.address, cost_model=VirtualCostModel()
                    ) as client:
                        client.run_script(script, make_sources(), label="traced")
        workloads = [s for s in sink.spans if s.name == "client.workload"]
        assert len(workloads) == 1
        # the client stamps its span context onto each request frame and
        # the server parents its spans to it — so the merge worker's
        # commit lands in the same trace as the workload, matching the
        # in-process path
        in_trace = {s.name for s in sink.spans if s.trace_id == workloads[0].trace_id}
        assert "transport.request" in in_trace
        assert "service.commit" in in_trace

    def test_metrics_exposition_includes_transport_counters(self):
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                with TransportServiceClient(
                    *server.address, cost_model=VirtualCostModel()
                ) as client:
                    client.ping()
                    text = client.metrics()
                    assert "repro_transport_wire_bytes_total" in text
                    snapshot = client.metrics(format="json")
                    assert "repro_transport_requests_total" in snapshot


class TestTypedErrors:
    def test_unknown_session_crosses_the_wire(self):
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                with TransportServiceClient(
                    *server.address, cost_model=VirtualCostModel()
                ) as client:
                    with pytest.raises(UnknownSessionError):
                        client.request(
                            {
                                "op": "plan",
                                "session_id": "s9999",
                                "workload": EMPTY_WORKLOAD,
                            }
                        )

    def test_overload_is_typed_and_counted(self):
        with EGService(MaterializeAll(), queue_capacity=1, background=True) as service:
            with AsyncTransportServer(service) as server:
                with TransportServiceClient(
                    *server.address, name="late", cost_model=VirtualCostModel()
                ) as client:
                    filler = service.open_session("filler")
                    with service._merge_lock:  # the one queue slot stays taken
                        service.submit_update(filler.session_id, WorkloadDAG())
                        with pytest.raises(ServiceOverloadedError):
                            client.request(
                                {
                                    "op": "commit",
                                    "session_id": client.session_id,
                                    "workload": EMPTY_WORKLOAD,
                                }
                            )
                    client.ping()  # the connection lives on
                assert service.stats().overload_rejections == 1
                assert server._inflight == 0

    def test_garbage_bytes_drop_the_connection(self):
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                host, port = server.address
                raw = socket.create_connection((host, port), timeout=5.0)
                try:
                    raw.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
                    raw.settimeout(5.0)
                    assert raw.recv(1) == b""  # server closed on bad magic
                finally:
                    raw.close()
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    if server.metrics_registry.counter(
                        "repro_transport_protocol_errors_total"
                    ).total() >= 1:
                        break
                    time.sleep(0.01)
                assert (
                    server.metrics_registry.counter(
                        "repro_transport_protocol_errors_total"
                    ).total()
                    == 1
                )


class _SlowCommitService:
    """Duck-typed service whose commits are slow: exposes multiplexing."""

    version = 7

    def __init__(self, commit_seconds=0.4):
        self.commit_seconds = commit_seconds
        self.metrics_registry = None

    def open_session(self, name):
        return SimpleNamespace(session_id="s1", name=name or "anon")

    def close_session(self, session_id):
        pass

    def commit(self, session_id, executed, label=""):
        time.sleep(self.commit_seconds)
        return SimpleNamespace(commit_index=1, version=8, batch_size=1, new_sources=0)


class TestMultiplexing:
    def test_responses_return_out_of_order_on_one_connection(self):
        service = _SlowCommitService(commit_seconds=0.5)
        with AsyncTransportServer(service) as server:
            connection = TransportConnection(*server.address)
            try:
                opened = connection.request({"op": "open_session", "name": "p"})
                order = []

                def commit():
                    connection.request(
                        {
                            "op": "commit",
                            "session_id": opened["session_id"],
                            "label": "slow",
                            "workload": EMPTY_WORKLOAD,
                        },
                        timeout_s=30.0,
                    )
                    order.append("commit")

                worker = threading.Thread(target=commit)
                worker.start()
                time.sleep(0.1)  # the commit frame is on the wire first
                connection.request({"op": "ping"}, timeout_s=30.0)
                order.append("ping")
                worker.join(timeout=30.0)
                # the ping overtook the half-second commit: pipelining works
                assert order == ["ping", "commit"]
            finally:
                connection.close()

    def test_many_concurrent_requests_on_one_connection(self):
        service = _SlowCommitService(commit_seconds=0.05)
        with AsyncTransportServer(service, max_workers=8) as server:
            connection = TransportConnection(*server.address)
            try:
                results = []
                errors = []

                def commit(index):
                    try:
                        response = connection.request(
                            {
                                "op": "commit",
                                "session_id": "s1",
                                "label": str(index),
                                "workload": EMPTY_WORKLOAD,
                            },
                            timeout_s=30.0,
                        )
                        results.append(response["version"])
                    except Exception as error:  # noqa: BLE001 - surfaced below
                        errors.append(error)

                threads = [
                    threading.Thread(target=commit, args=(i,)) for i in range(16)
                ]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                elapsed = time.perf_counter() - started
                assert not errors
                assert len(results) == 16
                # 16 sequential 50ms commits would take 0.8s; pipelined
                # across 8 workers they must land well under that
                assert elapsed < 0.8
            finally:
                connection.close()
        inflight_peak = server.metrics_registry.gauge(
            "repro_transport_inflight_peak"
        ).value()
        assert inflight_peak >= 2
