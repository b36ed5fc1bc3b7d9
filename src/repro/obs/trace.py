"""Tracing core: spans, tracers, thread-local context propagation.

A :class:`Span` is one timed region of work — a reuse-planning pass, one
operator execution, a cold-tier disk read, a merge batch.  Spans carry a
``trace_id`` shared by every span of one logical request (a client
workload end to end, service merge included), a unique ``span_id``, the
``parent_id`` linking them into a tree, free-form attributes, and
monotonic start/end timestamps (``time.perf_counter`` — one process-wide
clock, so spans from different threads order correctly on a timeline).

Context propagation is thread-local: entering a span (``with
tracer.span(...)``) makes it the *current* span of the calling thread,
and spans created without an explicit parent attach to it.  Work handed
to another thread does **not** inherit the submitter's context — the
submitter captures ``span.context`` (or :func:`Tracer.current_context`)
and passes it explicitly, as the service's commit ticket does for the
merge worker, so a worker's child spans parent to the submitting workload
span and never to whatever another task left on that worker's stack.

Tracing is **off by default and free when off**: the module-level tracer
is a :class:`NoopTracer` whose ``span()`` returns one shared inert span
object — no allocation, no id generation, no clock read, no sink call.
``benchmarks/test_obs_overhead.py`` gates that this stays below 3% of
the swarm benchmark's wall time.  Enable tracing by installing a real
:class:`Tracer` with :func:`set_tracer` (or :func:`use_tracer` in
tests); finished spans go to the tracer's sinks
(:mod:`repro.obs.sinks`) and into a bounded in-memory ring the profiler
reads (:mod:`repro.obs.profile`).
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NoopTracer",
    "NOOP_SPAN",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

_span_counter = itertools.count(1)


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def _new_span_id() -> str:
    return f"{next(_span_counter):012x}"


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: pass across threads or the wire."""

    trace_id: str
    span_id: str


class Span:
    """One timed region; use as a context manager or finish() manually.

    Entering the span activates it on the calling thread (children
    created there attach to it); a span that is never entered — e.g. one
    the merge worker opens on behalf of a queued ticket — is finished
    explicitly with :meth:`finish` and never touches any thread's stack.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "events",
        "start_s",
        "end_s",
        "thread_name",
        "_tracer",
        "_activated",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: str | None,
        attributes: dict[str, Any],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.events: list[tuple[float, str, dict[str, Any]]] = []
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        self.thread_name = threading.current_thread().name
        self._tracer = tracer
        self._activated = False

    # ------------------------------------------------------------------
    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time marker inside the span."""
        self.events.append((time.perf_counter(), name, attributes))

    def finish(self) -> None:
        """Close the span and hand it to the tracer (idempotent)."""
        if self.end_s is None:
            self.end_s = time.perf_counter()
            self._tracer._record(self)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._activate(self)
        self._activated = True
        return self

    def __exit__(self, exc_type: type | None, exc: BaseException | None, _tb: object) -> None:
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        if self._activated:
            self._tracer._deactivate(self)
            self._activated = False
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id})"


class _NoopSpan:
    """The shared inert span the noop tracer hands out."""

    __slots__ = ()

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    finished = True
    context = None
    attributes: dict[str, Any] = {}
    events: list[tuple[float, str, dict[str, Any]]] = []

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc: object) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans, tracks per-thread context, fans out to sinks.

    ``keep_last`` bounds the in-memory ring of finished spans that
    :meth:`finished_spans` / :meth:`spans_for_trace` read (the profiler's
    data source); sinks receive every span regardless.
    """

    enabled = True

    def __init__(self, sinks: Iterator[Any] | list[Any] | tuple[Any, ...] = (), keep_last: int = 8192):
        self._sinks = list(sinks)
        self._finished: deque[Span] = deque(maxlen=keep_last)
        #: the ring's spans by trace id, each trace in ring order; a span
        #: leaves its trace's entry when it falls off the ring
        self._by_trace: dict[str, deque[Span]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Span creation and context
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span; with no explicit parent it attaches to the
        calling thread's current span (or starts a fresh trace)."""
        if parent is None:
            parent = self.current_span()
        if parent is None:
            trace_id, parent_id = _new_trace_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, trace_id, parent_id, attributes)

    def current_span(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_context(self) -> SpanContext | None:
        span = self.current_span()
        return span.context if span is not None else None

    # ------------------------------------------------------------------
    # Internal hooks used by Span
    # ------------------------------------------------------------------
    def _activate(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _deactivate(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # unbalanced exit; drop defensively
            stack.remove(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            ring = self._finished
            if ring and len(ring) == ring.maxlen:
                oldest = ring[0]  # about to be pushed out by the append
                trace = self._by_trace[oldest.trace_id]
                trace.popleft()
                if not trace:
                    del self._by_trace[oldest.trace_id]
            ring.append(span)
            if ring:  # keep_last=0 keeps no ring to index
                self._by_trace.setdefault(span.trace_id, deque()).append(span)
        for sink in self._sinks:
            try:
                sink.on_span(span)
            except Exception:  # noqa: BLE001 - observability must not kill work
                _note_sink_error("on_span")

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def spans_for_trace(self, trace_id: str) -> list[Span]:
        with self._lock:
            return list(self._by_trace.get(trace_id, ()))

    def close(self) -> None:
        """Flush and close every sink (file sinks write out here)."""
        for sink in self._sinks:
            try:
                sink.close()
            except Exception:  # noqa: BLE001
                _note_sink_error("close")

    # ------------------------------------------------------------------
    # Sink management (the flight recorder attaches/detaches at runtime)
    # ------------------------------------------------------------------
    def add_sink(self, sink: Any) -> None:
        """Attach a sink (idempotent); it starts seeing finished spans.

        The sink list is swapped copy-on-write under the tracer lock, so
        :meth:`_record` iterates it without locking.
        """
        with self._lock:
            if not any(existing is sink for existing in self._sinks):
                self._sinks = [*self._sinks, sink]

    def remove_sink(self, sink: Any) -> None:
        """Detach a sink by identity (no-op when not attached)."""
        with self._lock:
            self._sinks = [s for s in self._sinks if s is not sink]

    @property
    def sink_count(self) -> int:
        return len(self._sinks)


#: seconds between repeated warnings about the same failing sink stage
_SINK_WARN_INTERVAL_S = 60.0
_sink_warn_lock = threading.Lock()
_sink_warned_at: dict[str, float] = {}


def _note_sink_error(stage: str) -> None:
    """Account for a swallowed sink exception: count it, warn rate-limited.

    Swallowing stays the contract — a broken exporter must never fail a
    workload — but it is no longer invisible: every occurrence bumps
    ``repro_obs_sink_errors_total{stage}`` in the process-global registry
    and at most one warning per stage per minute carries the traceback.
    The import is lazy because :mod:`.metrics` is layered on top of this
    module.
    """
    try:
        from .metrics import get_registry

        get_registry().counter(
            "repro_obs_sink_errors_total",
            "span-sink exceptions swallowed by the tracer",
            ("stage",),
        ).inc(stage=stage)
        now = time.monotonic()
        with _sink_warn_lock:
            last = _sink_warned_at.get(stage)
            if last is not None and now - last < _SINK_WARN_INTERVAL_S:
                return
            _sink_warned_at[stage] = now
        logging.getLogger(__name__).warning(
            "span sink raised in %s; suppressing repeats for %.0fs "
            "(repro_obs_sink_errors_total counts every occurrence)",
            stage,
            _SINK_WARN_INTERVAL_S,
            exc_info=True,
        )
    except Exception:  # noqa: BLE001 - error accounting must not raise either
        pass


class NoopTracer:
    """The default tracer: every operation is an inert constant."""

    enabled = False

    def span(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        **attributes: Any,
    ) -> _NoopSpan:
        return NOOP_SPAN

    def current_span(self) -> None:
        return None

    def current_context(self) -> None:
        return None

    def finished_spans(self) -> list[Span]:
        return []

    def spans_for_trace(self, trace_id: str) -> list[Span]:
        return []

    def add_sink(self, sink: Any) -> None:
        pass

    def remove_sink(self, sink: Any) -> None:
        pass

    @property
    def sink_count(self) -> int:
        return 0

    def close(self) -> None:
        pass


_tracer: Tracer | NoopTracer = NoopTracer()


def get_tracer() -> Tracer | NoopTracer:
    """The process-wide tracer (a no-op unless one was installed)."""
    return _tracer


def set_tracer(tracer: Tracer | NoopTracer) -> Tracer | NoopTracer:
    """Install the process-wide tracer; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NoopTracer):
    """Temporarily install a tracer (tests and the CLI's --trace-out)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
