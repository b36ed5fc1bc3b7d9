"""Flight recorder: tail-based sampling, bounds, and tracer attachment."""

import sys
import threading
import zlib
from collections import Counter

import pytest

from repro.client.executor import Executor, VirtualCostModel
from repro.materialization.simple import MaterializeAll
from repro.obs.metrics import MetricsRegistry
from repro.obs.plane import (
    FlightRecorder,
    install_recorder,
    perfetto_document,
    uninstall_recorder,
)
from repro.obs.trace import NoopTracer, SpanContext, Tracer, get_tracer, use_tracer
from repro.service import EGService
from repro.transport import AsyncTransportServer, TransportServiceClient

from ..conftest import Shift, wide_dag, wide_sources


def recorded_tracer(**kwargs) -> tuple[Tracer, FlightRecorder]:
    recorder = FlightRecorder(**kwargs)
    return Tracer(sinks=[recorder]), recorder


class TestTailDecisions:
    def test_slow_root_is_kept(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0
        )
        with tracer.span("request"):
            pass
        [kept] = recorder.kept_traces()
        assert kept["decision"] == "slow"
        assert kept["root"] == "request"
        assert recorder.stats()["decisions"]["slow"] == 1

    def test_errored_trace_is_kept_even_when_fast(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=1e9, head_sample_every=0
        )
        try:
            with tracer.span("request"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        except ValueError:
            pass
        [kept] = recorder.kept_traces()
        assert kept["decision"] == "error"
        assert kept["spans"] == 2

    def test_overload_error_attribute_classifies_as_shed(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=1e9, head_sample_every=0
        )
        with tracer.span("request") as root:
            tracer.span("other", parent=root.context, error="KeyError").finish()
            root.set_attribute("error", "ServiceOverloadedError")
        [kept] = recorder.kept_traces()
        assert kept["decision"] == "shed"

    def test_fast_healthy_trace_is_dropped_without_sampling(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=1e9, head_sample_every=0
        )
        with tracer.span("request"):
            pass
        assert recorder.kept_traces() == []
        stats = recorder.stats()
        assert stats["decisions"]["dropped"] == 1
        assert stats["kept_total"] == 0

    def test_head_sampling_is_deterministic_crc32(self):
        every = 4
        tracer, recorder = recorded_tracer(
            slow_threshold_s=1e9, head_sample_every=every
        )
        for index in range(64):
            tracer.span(f"request-{index}").finish()
        kept_ids = {t["trace_id"] for t in recorder.kept_traces(limit=None)}
        for span in tracer.finished_spans():
            expected = zlib.crc32(span.trace_id.encode()) % every == 0
            assert (span.trace_id in kept_ids) == expected

    def test_head_sample_every_one_keeps_everything(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=1e9, head_sample_every=1
        )
        for _ in range(5):
            tracer.span("request").finish()
        assert recorder.stats()["decisions"]["sampled"] == 5

    def test_negative_sampling_rate_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(head_sample_every=-1)


class TestBounds:
    def test_span_cap_drops_children_but_roots_always_enter(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0, max_spans_per_trace=2
        )
        with tracer.span("root"):
            for index in range(3):
                with tracer.span(f"child-{index}"):
                    pass
        [kept] = recorder.kept_traces()
        # 2 buffered children + the root (always admitted), 1 overflowed
        assert kept["spans"] == 3
        assert kept["dropped_spans"] == 1
        assert recorder.stats()["span_overflow"] == 1

    def test_lru_eviction_still_decides_the_evicted_trace(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0, max_traces=2
        )
        # remote-rooted spans: parents never arrive, buffers linger
        for index in range(3):
            tracer.span(
                "server.work", parent=SpanContext(f"trace-{index}", "remote")
            ).finish()
        stats = recorder.stats()
        assert stats["evicted_traces"] == 1
        assert stats["decisions"]["slow"] == 1  # evicted one got a decision
        assert stats["buffered_traces"] == 2

    def test_kept_ring_is_bounded_and_newest_first(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0, keep_last=3
        )
        for index in range(6):
            tracer.span(f"request-{index}").finish()
        kept = recorder.kept_traces()
        assert [t["root"] for t in kept] == [
            "request-5",
            "request-4",
            "request-3",
        ]
        assert recorder.kept_traces(limit=1)[0]["root"] == "request-5"

    def test_stale_flush_finalizes_remote_rooted_traces(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0
        )
        tracer.span("server.only", parent=SpanContext("remote-1", "s")).finish()
        assert recorder.stats()["buffered_traces"] == 1
        assert recorder.flush_stale() == 0  # too young for the default age
        assert recorder.flush_stale(max_age_s=0.0) == 1
        [kept] = recorder.kept_traces()
        assert kept["root"] == "server.only"

    def test_close_flushes_everything(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0
        )
        tracer.span("pending", parent=SpanContext("remote-2", "s")).finish()
        recorder.close()
        assert recorder.stats()["buffered_traces"] == 0
        assert recorder.stats()["decisions"]["slow"] == 1


class TestReadSurface:
    def test_trace_returns_span_dicts_sorted_by_start(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0
        )
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        spans = recorder.trace(root.trace_id)
        assert [s["name"] for s in spans] == ["root", "child"]
        assert spans[0]["parent_id"] is None
        assert spans[1]["parent_id"] == root.span_id

    def test_unknown_trace_raises_key_error(self):
        recorder = FlightRecorder()
        with pytest.raises(KeyError):
            recorder.trace("no-such-trace")

    def test_slowest_spans_rank_by_self_time(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0
        )
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        rows = recorder.slowest_spans()
        assert {row["name"] for row in rows} == {"root", "child"}
        root_row = next(row for row in rows if row["name"] == "root")
        child_row = next(row for row in rows if row["name"] == "child")
        # the child's time is subtracted from the root's self time
        assert root_row["self_s"] <= root.duration_s
        assert child_row["self_s"] == pytest.approx(child_row["duration_s"])
        assert all(row["decision"] == "slow" for row in rows)

    def test_registry_instruments_mirror_decisions(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(
            slow_threshold_s=0.0, head_sample_every=0, registry=registry
        )
        tracer = Tracer(sinks=[recorder])
        with tracer.span("request"):
            pass
        counter = registry.get("repro_obs_recorder_traces_total")
        assert counter.value(decision="slow") == 1.0
        assert registry.get("repro_obs_recorder_spans_total").total() == 1.0
        assert registry.get("repro_obs_recorder_buffered_traces").value() == 0.0

    def test_concurrent_traces_lose_no_span(self):
        """Eight threads record interleaved traces under a tiny switch
        interval: every span is counted and every trace decided once."""
        registry = MetricsRegistry()
        recorder = FlightRecorder(
            slow_threshold_s=1e9, head_sample_every=3, registry=registry
        )
        tracer = Tracer(sinks=[recorder], keep_last=0)

        def traces() -> None:
            for _ in range(200):
                with tracer.span("request"):
                    for _ in range(3):
                        with tracer.span("child"):
                            pass

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=traces) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        stats = recorder.stats()
        assert stats["spans_seen"] == 8 * 200 * 4
        assert stats["traces_total"] == 8 * 200
        assert stats["buffered_traces"] == 0
        assert registry.get("repro_obs_recorder_spans_total").total() == 8 * 200 * 4
        assert registry.get("repro_obs_recorder_traces_total").total() == 8 * 200

    def test_registry_instruments_equal_stats_with_a_trace_still_buffered(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(
            slow_threshold_s=1e9, head_sample_every=2, registry=registry
        )
        tracer = Tracer(sinks=[recorder], keep_last=0)
        for index in range(40):
            with tracer.span("request", index=index):
                with tracer.span("child"):
                    pass
        tracer.span("server.work", parent=SpanContext("remote", "s")).finish()
        with tracer.span("open"):
            with tracer.span("done-child"):
                pass
            stats = recorder.stats()
            snapshot = registry.snapshot()
            spans = registry.get("repro_obs_recorder_spans_total")
            buffered = registry.get("repro_obs_recorder_buffered_traces")
            traces = registry.get("repro_obs_recorder_traces_total")
            assert spans.total() == spans.value() == stats["spans_seen"] == 82
            assert buffered.value() == stats["buffered_traces"] == 2
            assert traces.total() == stats["traces_total"] == 40
            for decision, count in stats["decisions"].items():
                assert traces.value(decision=decision) == count
            [series] = snapshot["repro_obs_recorder_spans_total"]["series"]
            assert series["value"] == 82
            [series] = snapshot["repro_obs_recorder_buffered_traces"]["series"]
            assert series["value"] == 2
            assert "repro_obs_recorder_spans_total 82" in registry.render_prometheus()


class TestPerfettoExport:
    def test_document_shape(self):
        tracer, recorder = recorded_tracer(
            slow_threshold_s=0.0, head_sample_every=0
        )
        with tracer.span("transport.request", op="plan") as root:
            root.add_event("decoded", frames=2)
            with tracer.span("service.plan"):
                pass
        document = recorder.export_perfetto(root.trace_id)
        phases = [event["ph"] for event in document["traceEvents"]]
        assert phases.count("M") == 1  # one thread-name metadata row
        assert phases.count("X") == 2  # two complete spans
        assert phases.count("i") == 1  # the span event as an instant
        [instant] = [e for e in document["traceEvents"] if e["ph"] == "i"]
        # the event's own name, exactly as ChromeTraceSink writes it
        assert instant["name"] == "decoded"
        request = next(
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "transport.request"
        )
        assert request["cat"] == "transport"
        assert request["args"]["op"] == "plan"
        assert request["args"]["trace_id"] == root.trace_id
        assert document["displayTimeUnit"] == "ms"

    def test_document_accepts_plain_dicts(self):
        document = perfetto_document(
            [{"name": "x", "start_s": 1.0, "duration_s": 0.5, "thread": "t"}]
        )
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert events[0]["ts"] == pytest.approx(1e6)
        assert events[0]["dur"] == pytest.approx(5e5)


class TestInstallation:
    def test_install_enables_tracing_and_uninstall_restores_noop(self):
        assert isinstance(get_tracer(), NoopTracer)
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        install_recorder(recorder)
        try:
            assert get_tracer().enabled
            with get_tracer().span("auto"):
                pass
            assert recorder.stats()["decisions"]["slow"] == 1
        finally:
            uninstall_recorder(recorder)
        assert isinstance(get_tracer(), NoopTracer)

    def test_two_recorders_share_the_auto_tracer(self):
        first = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        second = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        install_recorder(first)
        install_recorder(second)
        try:
            tracer = get_tracer()
            assert tracer.sink_count == 2
            uninstall_recorder(first)
            assert get_tracer() is tracer  # still alive for the second
        finally:
            uninstall_recorder(second)
        assert isinstance(get_tracer(), NoopTracer)

    def test_install_onto_an_existing_tracer_leaves_it_installed(self):
        user_tracer = Tracer()
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        with use_tracer(user_tracer):
            install_recorder(recorder)
            assert get_tracer() is user_tracer
            with user_tracer.span("shared"):
                pass
            uninstall_recorder(recorder)
            assert get_tracer() is user_tracer
            assert user_tracer.sink_count == 0
        assert recorder.stats()["decisions"]["slow"] == 1

    def test_the_plane_tracer_keeps_no_ring_and_builds_no_profile(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        install_recorder(recorder)
        try:
            tracer = get_tracer()
            workload = wide_dag(n_branches=2, ops_per_branch=1, op_seconds=0.001)
            report = Executor(cost_model=VirtualCostModel()).execute(workload)
        finally:
            uninstall_recorder(recorder)
        assert report.profile is None
        assert tracer.finished_spans() == []
        [kept] = recorder.kept_traces()
        assert kept["root"] == "executor.execute" and kept["spans"] == 3

    def test_install_is_idempotent(self):
        recorder = FlightRecorder()
        install_recorder(recorder)
        install_recorder(recorder)
        try:
            assert get_tracer().sink_count == 1
        finally:
            uninstall_recorder(recorder)
        assert isinstance(get_tracer(), NoopTracer)


def _shift_twice(ws, frames):
    ws.source("wide", frames["wide"]).add(Shift(1)).add(Shift(2)).terminal()


#: every (span name, parent span name) edge one workload through the
#: transport leaves in a keep-everything recorder: session open and close,
#: the workload's trace (a 64 KiB commit, so its decode span too) and the
#: merge batch's.  Recorded before the plane's hot path was rewritten;
#: cheaper recording must not lose, add or re-parent a span.
WORKLOAD_SPAN_EDGES = [
    ("client.workload", None),
    ("executor.compute", "executor.execute"),
    ("executor.compute", "executor.execute"),
    ("executor.execute", "client.workload"),
    ("optimizer.optimize", "service.plan"),
    ("reuse.plan", "optimizer.optimize"),
    ("service.commit", "transport.request"),
    ("service.merge_batch", None),
    ("service.plan", "transport.request"),
    ("service.publish", "service.merge_batch"),
    ("transport.decode", "client.workload"),
    ("transport.request", "client.workload"),
    ("transport.request", "client.workload"),
    ("transport.request", None),
    ("transport.request", None),
]


class TestSpanTreeOfAWorkload:
    def test_one_transport_workload_records_the_same_edges(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        with EGService(
            MaterializeAll(), background=True, flight_recorder=recorder
        ) as service:
            with AsyncTransportServer(service) as server:
                with TransportServiceClient(
                    *server.address, name="t", cost_model=VirtualCostModel()
                ) as client:
                    client.run_script(_shift_twice, wide_sources(n_rows=4096))
        recorder.close()
        spans = [
            span
            for kept in recorder.kept_traces(limit=None)
            for span in recorder.trace(kept["trace_id"])
        ]
        names = {span["span_id"]: span["name"] for span in spans}
        edges = Counter((span["name"], names.get(span["parent_id"])) for span in spans)
        assert edges == Counter(WORKLOAD_SPAN_EDGES)
        assert recorder.stats()["spans_seen"] == len(WORKLOAD_SPAN_EDGES)
