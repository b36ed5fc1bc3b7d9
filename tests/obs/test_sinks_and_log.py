"""Span exporters and the structured event log."""

import io
import json
import logging

from repro.obs.log import JsonFormatter, configure_logging, get_logger
from repro.obs.sinks import (
    ChromeTraceSink,
    InMemorySink,
    JsonLinesSink,
    perfetto_document,
    span_to_dict,
)
from repro.obs.trace import Tracer, use_tracer


class TestJsonLinesSink:
    def test_one_parseable_line_per_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(sinks=[JsonLinesSink(path)])
        with tracer.span("outer", a=1):
            with tracer.span("inner"):
                pass
        tracer.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["inner", "outer"]
        outer = lines[1]
        assert outer["attributes"] == {"a": 1}
        assert lines[0]["parent_id"] == outer["span_id"]

    def test_non_json_attributes_fall_back_to_repr(self):
        tracer = Tracer()
        with tracer.span("odd", payload=object()) as span:
            pass
        document = span_to_dict(span)
        assert document["attributes"]["payload"].startswith("<object object")


class TestChromeTraceSink:
    def test_document_is_valid_and_complete(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        tracer = Tracer(sinks=[sink])
        with tracer.span("subsystem.outer") as outer:
            outer.add_event("marker", note="hi")
            with tracer.span("subsystem.inner"):
                pass
        tracer.close()

        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"subsystem.outer", "subsystem.inner"}
        for event in complete:
            assert event["cat"] == "subsystem"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "trace_id" in event["args"] and "span_id" in event["args"]
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["marker"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata and metadata[0]["name"] == "thread_name"

    def test_file_is_the_perfetto_document_of_the_same_spans(self, tmp_path):
        """``--trace-out`` and ``inspect --perfetto-out`` are one rendering."""
        path = tmp_path / "trace.json"
        memory = InMemorySink()
        tracer = Tracer(sinks=[ChromeTraceSink(path), memory])
        with tracer.span("subsystem.outer", payload=object()) as outer:
            outer.add_event("marker", note="hi")
            with tracer.span("subsystem.inner"):
                pass
        tracer.close()

        rows = [span_to_dict(span) for span in memory.spans]
        document = json.loads(json.dumps(perfetto_document(rows)))
        assert json.loads(path.read_text()) == document

    def test_close_is_idempotent(self, tmp_path):
        sink = ChromeTraceSink(tmp_path / "trace.json")
        sink.close()
        sink.close()


class TestStructuredLog:
    def test_get_logger_normalizes_namespace(self):
        assert get_logger("repro.reuse.linear").name == "repro.reuse.linear"
        assert get_logger("custom").name == "repro.custom"

    def test_kv_lines_carry_trace_correlation(self):
        stream = io.StringIO()
        handler = configure_logging(level=logging.DEBUG, stream=stream, fmt="kv")
        try:
            with use_tracer(Tracer()) as tracer:
                with tracer.span("traced") as span:
                    get_logger("repro.test").info('something "quoted" happened')
            line = stream.getvalue().strip()
            assert "level=INFO" in line
            assert "logger=repro.test" in line
            assert f"trace_id={span.trace_id}" in line
            assert f"span_id={span.span_id}" in line
            assert 'msg="something \'quoted\' happened"' in line
        finally:
            logging.getLogger("repro").removeHandler(handler)

    def test_json_lines_parse_and_correlate(self):
        stream = io.StringIO()
        handler = configure_logging(level=logging.INFO, stream=stream, fmt="json")
        try:
            with use_tracer(Tracer()) as tracer:
                with tracer.span("traced") as span:
                    get_logger("repro.test").warning("wat")
            document = json.loads(stream.getvalue().strip())
            assert document["level"] == "WARNING"
            assert document["msg"] == "wat"
            assert document["trace_id"] == span.trace_id
        finally:
            logging.getLogger("repro").removeHandler(handler)

    def test_no_correlation_fields_outside_spans(self):
        stream = io.StringIO()
        handler = configure_logging(level=logging.INFO, stream=stream, fmt="kv")
        try:
            get_logger("repro.test").info("plain")
            line = stream.getvalue().strip()
            assert "trace_id=" not in line
        finally:
            logging.getLogger("repro").removeHandler(handler)

    def test_configure_logging_replaces_not_stacks(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        handler = configure_logging(stream=stream)
        try:
            tagged = [
                h
                for h in logging.getLogger("repro").handlers
                if getattr(h, "_repro_obs_handler", False)
            ]
            assert len(tagged) == 1
        finally:
            logging.getLogger("repro").removeHandler(handler)

    def test_exception_is_rendered(self):
        import sys

        formatter = JsonFormatter()
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            record = logging.LogRecord(
                "repro.test",
                logging.ERROR,
                __file__,
                1,
                "failed",
                (),
                exc_info=sys.exc_info(),
            )
        document = json.loads(formatter.format(record))
        assert "RuntimeError: boom" in document["exc"]
