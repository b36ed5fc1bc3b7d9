"""Profile reports: self-time aggregation and trace-subtree selection."""

import pytest

from repro.obs.profile import ProfileReport
from repro.obs.trace import Tracer


def _span(tracer, name, start, end, parent=None):
    span = tracer.span(name, parent=parent)
    span.start_s = start
    span.end_s = end
    tracer._record(span)
    return span


class TestFromSpans:
    def test_self_time_excludes_direct_children(self):
        tracer = Tracer()
        parent = _span(tracer, "parent", 0.0, 1.0)
        _span(tracer, "child", 0.1, 0.4, parent=parent)
        _span(tracer, "child", 0.5, 0.9, parent=parent)
        report = ProfileReport.from_spans(tracer.finished_spans())

        by_name = {entry.name: entry for entry in report.entries}
        assert by_name["parent"].total_s == pytest.approx(1.0)
        assert by_name["parent"].self_s == pytest.approx(0.3)  # 1.0 - 0.3 - 0.4
        assert by_name["child"].count == 2
        assert by_name["child"].self_s == pytest.approx(0.7)
        assert report.span_count == 3

    def test_self_time_clamped_at_zero(self):
        tracer = Tracer()
        parent = _span(tracer, "parent", 0.0, 0.1)
        _span(tracer, "child", 0.0, 0.5, parent=parent)  # overlapping clock skew
        report = ProfileReport.from_spans(tracer.finished_spans())
        by_name = {entry.name: entry for entry in report.entries}
        assert by_name["parent"].self_s == 0.0

    def test_sorted_by_self_time_and_top_k(self):
        tracer = Tracer()
        _span(tracer, "small", 0.0, 0.1)
        _span(tracer, "big", 0.0, 2.0)
        _span(tracer, "medium", 0.0, 1.0)
        report = ProfileReport.from_spans(tracer.finished_spans(), top_k=2)
        assert [entry.name for entry in report.entries] == ["big", "medium"]

    def test_unfinished_spans_are_ignored(self):
        tracer = Tracer()
        open_span = tracer.span("open")
        report = ProfileReport.from_spans([open_span])
        assert report.span_count == 0


class TestFromTrace:
    def test_selects_only_the_root_subtree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        with tracer.span("unrelated"):
            pass
        report = ProfileReport.from_trace(tracer, root)
        names = {entry.name for entry in report.entries}
        assert names == {"root", "child", "grandchild"}

    def test_top_names_the_root(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        report = ProfileReport.from_trace(tracer, root)
        assert report.top(1)[0].name == "root"
