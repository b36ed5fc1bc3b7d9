"""Span exporters."""

import json

from repro.obs.sinks import (
    ChromeTraceSink,
    InMemorySink,
    perfetto_document,
    span_to_dict,
)
from repro.obs.trace import Tracer


class TestSpanToDict:
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
