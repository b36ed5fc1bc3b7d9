"""Span sinks: where finished spans go.

A sink is anything with ``on_span(span)`` and ``close()``.  Sinks must
tolerate concurrent ``on_span`` calls — spans finish on whatever thread
ran the work (tenant threads, the merge worker, transport work threads).

* :class:`InMemorySink` — collect spans in a list (tests, profiling).
* :class:`ChromeTraceSink` — the Chrome trace-event format
  (``chrome://tracing`` / https://ui.perfetto.dev): buffered spans
  written as one :func:`perfetto_document` on ``close()``, with
  per-thread tracks named after the Python thread, so a swarm run
  renders as one timeline per tenant and service thread.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable, Mapping

from .trace import Span

__all__ = [
    "InMemorySink",
    "ChromeTraceSink",
    "span_to_dict",
    "perfetto_document",
]


def span_to_dict(span: Span) -> dict[str, Any]:
    """Portable JSON form of one finished span."""
    return {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_s": span.start_s,
        "duration_s": span.duration_s,
        "thread": span.thread_name,
        "attributes": _jsonable(span.attributes),
        "events": [
            {"ts_s": ts, "name": name, "attributes": _jsonable(attrs)}
            for ts, name, attrs in span.events
        ],
    }


def _jsonable(attributes: dict[str, Any]) -> dict[str, Any]:
    safe: dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        else:
            safe[key] = repr(value)
    return safe


class InMemorySink:
    """Collects every finished span; ``spans`` is safe to read after work
    quiesces (appends are guarded for concurrent finishers)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def on_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def close(self) -> None:
        pass


def perfetto_document(spans: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Chrome trace-event JSON for a list of span dicts.

    Accepts the portable form :func:`span_to_dict` produces (also what
    the transport ``debug`` op ships): one complete ``"X"`` event per span
    in microseconds — the viewer only needs timestamps consistent, not
    absolute — one instant ``"i"`` event per span event under the event's
    own name, one timeline row per recording thread, and the dotted
    span-name prefix as category (``executor.load`` -> ``executor``),
    which gives Perfetto one color per subsystem.
    """
    thread_ids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    pid = os.getpid()
    for span in spans:
        thread = str(span.get("thread", "") or "main")
        tid = thread_ids.setdefault(thread, len(thread_ids) + 1)
        name = str(span.get("name", "?"))
        args = dict(span.get("attributes") or {})
        args["trace_id"] = span.get("trace_id", "")
        args["span_id"] = span.get("span_id", "")
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": float(span.get("start_s", 0.0)) * 1e6,
                "dur": float(span.get("duration_s", 0.0)) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for event in span.get("events") or ():
            events.append(
                {
                    "name": str(event.get("name", "?")),
                    "cat": name.split(".", 1)[0],
                    "ph": "i",
                    "s": "t",
                    "ts": float(event.get("ts_s", 0.0)) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(event.get("attributes") or {}),
                }
            )
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in thread_ids.items()
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


class ChromeTraceSink:
    """Buffers finished spans and writes them as one
    :func:`perfetto_document` on ``close()``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._rows: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._closed = False

    def on_span(self, span: Span) -> None:
        row = span_to_dict(span)
        with self._lock:
            self._rows.append(row)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            document = perfetto_document(self._rows)
            self.path.write_text(json.dumps(document), encoding="utf-8")
