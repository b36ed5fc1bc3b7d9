"""Tracing core: span trees, thread-local context, the no-op default."""

import threading

from repro.obs.sinks import InMemorySink
from repro.obs.trace import (
    NOOP_SPAN,
    NoopTracer,
    Span,
    SpanContext,
    Tracer,
    get_tracer,
    use_tracer,
)


class TestSpanLifecycle:
    def test_context_manager_times_and_records(self):
        tracer = Tracer()
        with tracer.span("work", kind="test") as span:
            assert not span.finished
        assert span.finished
        assert span.duration_s >= 0.0
        assert span.attributes["kind"] == "test"
        assert tracer.finished_spans() == [span]

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once")
        span.finish()
        end = span.end_s
        span.finish()
        assert span.end_s == end
        assert len(tracer.finished_spans()) == 1

    def test_exception_sets_error_attribute(self):
        tracer = Tracer()
        try:
            with tracer.span("boom") as span:
                raise ValueError("nope")
        except ValueError:
            pass
        assert span.attributes["error"] == "ValueError"
        assert span.finished

    def test_events_are_recorded_in_order(self):
        tracer = Tracer()
        with tracer.span("evented") as span:
            span.add_event("first", n=1)
            span.add_event("second")
        names = [name for _ts, name, _attrs in span.events]
        assert names == ["first", "second"]
        assert span.events[0][2] == {"n": 1}


class TestContextPropagation:
    def test_nesting_follows_the_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
            assert tracer.current_span() is outer
        assert tracer.current_span() is None

    def test_unentered_span_never_touches_the_stack(self):
        tracer = Tracer()
        with tracer.span("active") as active:
            orphan = tracer.span("manual", parent=None)
            # parent=None attaches to the current span but does NOT activate
            assert orphan.parent_id == active.span_id
            assert tracer.current_span() is active
            orphan.finish()
        assert {s.name for s in tracer.finished_spans()} == {"manual", "active"}

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        child_ids = {}

        def worker(parent: SpanContext):
            with tracer.span("child", parent=parent) as child:
                child_ids["parent"] = child.parent_id
                child_ids["trace"] = child.trace_id

        with tracer.span("root") as root:
            thread = threading.Thread(target=worker, args=(root.context,))
            thread.start()
            thread.join()
        assert child_ids["parent"] == root.span_id
        assert child_ids["trace"] == root.trace_id

    def test_threads_do_not_inherit_context_implicitly(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["current"] = tracer.current_span()

        with tracer.span("root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["current"] is None

    def test_sibling_traces_are_distinct(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id


class TestTracerSurface:
    def test_ring_is_bounded(self):
        tracer = Tracer(keep_last=4)
        for index in range(10):
            tracer.span(f"s{index}").finish()
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_spans_for_trace_filters(self):
        tracer = Tracer()
        with tracer.span("keep") as keep:
            with tracer.span("keep.child"):
                pass
        with tracer.span("other"):
            pass
        spans = tracer.spans_for_trace(keep.trace_id)
        assert {s.name for s in spans} == {"keep", "keep.child"}

    def test_spans_for_trace_follows_the_ring_as_it_rolls_over(self):
        # the per-trace index must answer exactly what a scan of the
        # ring would, while interleaved traces fall off it span by span
        tracer = Tracer(keep_last=5)
        roots = [tracer.span(f"root{i}") for i in range(3)]
        for step in range(12):
            root = roots[step % 3]
            tracer.span(f"{root.name}.{step}", parent=root).finish()
            ring = tracer.finished_spans()
            assert len(ring) == min(step + 1, 5)
            for candidate in roots:
                expected = [s for s in ring if s.trace_id == candidate.trace_id]
                assert tracer.spans_for_trace(candidate.trace_id) == expected
        assert tracer.spans_for_trace("no-such-trace") == []
        # a trace whose last span left the ring leaves the index too
        for _ in range(5):
            tracer.span("filler", parent=roots[0]).finish()
        assert set(tracer._by_trace) == {roots[0].trace_id}

    def test_a_ringless_tracer_indexes_nothing(self):
        tracer = Tracer(keep_last=0)
        span = tracer.span("s")
        span.finish()
        assert tracer.finished_spans() == []
        assert tracer.spans_for_trace(span.trace_id) == []
        assert tracer._by_trace == {}

    def test_sink_errors_are_swallowed(self):
        class Bomb:
            def on_span(self, span):
                raise RuntimeError("sink died")

            def close(self):
                raise RuntimeError("close died")

        tracer = Tracer(sinks=[Bomb(), InMemorySink()])
        with tracer.span("survives"):
            pass
        tracer.close()  # must not raise
        assert len(tracer.finished_spans()) == 1

    def test_sink_errors_are_counted_per_stage(self):
        from repro.obs.metrics import MetricsRegistry, set_registry

        class Bomb:
            def on_span(self, span):
                raise RuntimeError("sink died")

            def close(self):
                raise RuntimeError("close died")

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            tracer = Tracer(sinks=[Bomb()])
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
            tracer.close()
            counter = registry.get("repro_obs_sink_errors_total")
            assert counter is not None
            assert counter.value(stage="on_span") == 2.0
            assert counter.value(stage="close") == 1.0
        finally:
            set_registry(previous)

    def test_add_and_remove_sink_are_idempotent(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=())
        tracer.add_sink(sink)
        tracer.add_sink(sink)
        assert tracer.sink_count == 1
        with tracer.span("seen"):
            pass
        assert [span.name for span in sink.spans] == ["seen"]
        tracer.remove_sink(sink)
        tracer.remove_sink(sink)
        assert tracer.sink_count == 0
        with tracer.span("unseen"):
            pass
        assert len(sink.spans) == 1


class TestNoopDefault:
    def test_default_tracer_is_noop(self):
        tracer = get_tracer()
        assert isinstance(tracer, NoopTracer)
        assert not tracer.enabled

    def test_noop_span_is_one_shared_object(self):
        tracer = NoopTracer()
        a = tracer.span("x", irrelevant=1)
        b = tracer.span("y", parent=SpanContext("t", "s"))
        assert a is b is NOOP_SPAN
        with a as entered:
            entered.set_attribute("k", "v")
            entered.add_event("e")
        assert a.attributes == {}
        assert tracer.current_span() is None
        assert tracer.current_context() is None
        assert tracer.finished_spans() == []

    def test_use_tracer_restores_previous(self):
        previous = get_tracer()
        replacement = Tracer()
        with use_tracer(replacement):
            assert get_tracer() is replacement
            with get_tracer().span("inside"):
                pass
        assert get_tracer() is previous
        assert [s.name for s in replacement.finished_spans()] == ["inside"]

    def test_real_span_type_under_real_tracer(self):
        with use_tracer(Tracer()) as tracer:
            span = tracer.span("typed")
            assert isinstance(span, Span)
            span.finish()
