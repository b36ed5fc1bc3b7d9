"""The always-on telemetry plane: flight recorder with tail-based sampling.

Head sampling (decide at trace start) is cheap but blind: it keeps a
random 1% and almost certainly throws away the one trace you wanted —
the slow one, the errored one, the one the service refused for
overload.  The :class:`FlightRecorder` samples at the *tail* instead, in the Dapper
lineage: every finished span is buffered per trace-id in a bounded ring,
and the keep/drop decision is made once the trace's **root** span (the
span with no parent) finishes, when the outcome is known:

* **shed** — a span of the trace was refused for overload
  (``ServiceOverloadedError``, the merge queue's bounce): always kept;
* **error** — any span carries an ``error`` attribute: always kept;
* **slow** — the root's duration is at or above ``slow_threshold_s``:
  always kept;
* **sampled** — a deterministic 1-in-``head_sample_every`` hash of the
  trace-id (``crc32``), so a healthy baseline remains observable and the
  choice is reproducible across processes;
* **dropped** — everything else, retained only as a counter.

Everything is bounded: at most ``max_traces`` in-flight trace buffers
(LRU-evicted, the evicted trace still gets a decision on what it has),
512 spans buffered per trace (root spans always make it in so the
decision can run), ``keep_last`` kept traces.  A trace whose root never
arrives locally — e.g. a server whose spans all parent into a remote
caller's context — is finalized after 30 s idle, checked
opportunistically every few dozen new traces and on reads, so
remote-rooted traces are kept too, just a little late.

:func:`install_recorder` / :func:`uninstall_recorder` attach a recorder
to the process tracer.  If tracing is off (the default
:class:`~repro.obs.trace.NoopTracer`), installing creates a real tracer
whose only sink is the recorder and removes it again when the last
recorder leaves — so `EGService` can keep the recorder on by default
without changing the "tracing is off unless asked" contract for
everyone else.

:func:`~repro.obs.sinks.perfetto_document` (re-exported here) renders
any list of span dicts (from :meth:`FlightRecorder.trace` or the
transport ``debug`` op) as a Chrome trace-event JSON document loadable
in https://ui.perfetto.dev.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict, deque
from operator import attrgetter, methodcaller
from typing import Any

from .metrics import MetricsRegistry
from .sinks import perfetto_document, span_to_dict
from .trace import NoopTracer, Span, Tracer, get_tracer, set_tracer

__all__ = [
    "FlightRecorder",
    "install_recorder",
    "uninstall_recorder",
    "perfetto_document",
]

#: the error attribute value that means "refused for overload"
_SHED_ERROR = "ServiceOverloadedError"

#: how many opened trace buffers between opportunistic stale-trace sweeps
_STALE_SWEEP_EVERY = 32

#: spans buffered per trace beyond its root; the rest are only counted
_MAX_SPANS_PER_TRACE = 512

#: idle seconds after which a trace whose root never arrived is finalized
_STALE_AFTER_S = 30.0

_DECISIONS = ("shed", "error", "slow", "sampled", "dropped")

_attributes = attrgetter("attributes")
_error = methodcaller("get", "error")


class _TraceBuffer:
    __slots__ = ("spans", "dropped", "last_seen")

    def __init__(self, now: float):
        self.spans: list[Span] = []
        self.dropped = 0
        self.last_seen = now


class _KeptTrace:
    __slots__ = (
        "trace_id",
        "root_name",
        "root_span_id",
        "duration_s",
        "decision",
        "spans",
        "dropped_spans",
        "seq",
    )

    def __init__(
        self,
        trace_id: str,
        root: Span,
        decision: str,
        spans: tuple[Span, ...],
        dropped_spans: int,
        seq: int,
    ):
        self.trace_id = trace_id
        self.root_name = root.name
        self.root_span_id = root.span_id
        self.duration_s = root.duration_s
        self.decision = decision
        self.spans = spans
        self.dropped_spans = dropped_spans
        self.seq = seq

    def summary(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "root": self.root_name,
            "root_span_id": self.root_span_id,
            "duration_s": self.duration_s,
            "decision": self.decision,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }


class FlightRecorder:
    """Tail-sampling span sink; cheap enough to leave on in production.

    The hot path (:meth:`on_span`) does one lock acquire, a dict upsert
    and a list append, and touches no metric instrument (the registry
    reads the recorder's counts when it is read); classification and
    retention run only when a root span closes a trace.  On
    ``stream_tcp`` that is about 13 spans and 2 traces per workload, and
    the whole plane — spans plus recorder — measures 3–5 % of the
    workload's CPU in ``benchmarks/obs_cost.py``'s plane-on / plane-off
    pairs (8–10 % before the plane's tracer lost its ring and per-workload
    profile); ``benchmarks/test_obs_overhead.py`` holds the counts exact.
    """

    def __init__(
        self,
        *,
        slow_threshold_s: float = 0.25,
        head_sample_every: int = 10,
        keep_last: int = 256,
        max_traces: int = 512,
        registry: MetricsRegistry | None = None,
    ):
        if head_sample_every < 0:
            raise ValueError("head_sample_every must be >= 0 (0 disables)")
        self.slow_threshold_s = float(slow_threshold_s)
        self.head_sample_every = int(head_sample_every)
        self.max_traces = int(max_traces)
        self._lock = threading.Lock()
        self._buffers: OrderedDict[str, _TraceBuffer] = OrderedDict()
        self._kept: deque[_KeptTrace] = deque(maxlen=keep_last)
        self._decisions = dict.fromkeys(_DECISIONS, 0)
        #: spans of finalized traces; the buffered ones are counted on read
        self._spans_finalized = 0
        self._opened = 0
        self._span_overflow = 0
        self._evictions = 0
        self._seq = 0
        if registry is not None:
            # read off the recorder whenever the registry is read, so the
            # hot path touches no instrument
            registry.counter(
                "repro_obs_recorder_traces_total",
                "traces finalized by the flight recorder, by keep/drop decision",
                ("decision",),
            ).set_function(
                lambda: {(key,): n for key, n in self._decisions.items() if n}
            )
            registry.counter(
                "repro_obs_recorder_spans_total",
                "spans ingested by the flight recorder",
            ).set_function(self._read_spans_seen)
            registry.gauge(
                "repro_obs_recorder_buffered_traces",
                "trace buffers currently awaiting their root span",
            ).set_function(lambda: {(): len(self._buffers)})

    # ------------------------------------------------------------------
    # Sink protocol
    # ------------------------------------------------------------------
    def on_span(self, span: Span) -> None:
        trace_id = span.trace_id
        if not trace_id:
            return
        now = span.end_s or time.perf_counter()  # the recorder's clock
        with self._lock:
            buffers = self._buffers
            buffer = buffers.get(trace_id)
            if buffer is None:
                if len(buffers) >= self.max_traces:
                    evicted_id, evicted = buffers.popitem(last=False)
                    self._evictions += 1
                    self._finalize_locked(evicted_id, evicted)
                self._opened += 1
                if self._opened % _STALE_SWEEP_EVERY == 0:
                    self._flush_stale_locked(now)
                buffer = buffers[trace_id] = _TraceBuffer(now)
            else:
                buffers.move_to_end(trace_id)
                buffer.last_seen = now
            if span.parent_id is None:  # always buffered: the decision needs it
                buffer.spans.append(span)
                del buffers[trace_id]
                self._finalize_locked(trace_id, buffer, span)
                return
            if len(buffer.spans) < _MAX_SPANS_PER_TRACE:
                buffer.spans.append(span)
            else:
                buffer.dropped += 1
                self._span_overflow += 1

    def _spans_seen(self) -> int:
        buffered = sum(len(b.spans) + b.dropped for b in self._buffers.values())
        return self._spans_finalized + buffered

    def _read_spans_seen(self) -> dict[tuple[str, ...], int]:
        with self._lock:
            return {(): self._spans_seen()}

    def close(self) -> None:
        """Finalize every pending buffer (e.g. on tracer close)."""
        self.flush_stale(max_age_s=0.0)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _decide(self, root: Span, spans: list[Span]) -> str:
        # the scans run in C: a healthy trace costs no Python step per span
        errors = list(filter(None, map(_error, map(_attributes, spans))))
        if _SHED_ERROR in errors:
            return "shed"
        if errors:
            return "error"
        if root.duration_s >= self.slow_threshold_s:
            return "slow"
        every = self.head_sample_every
        if every == 1 or (
            every > 1 and zlib.crc32(root.trace_id.encode()) % every == 0
        ):
            return "sampled"
        return "dropped"

    def _finalize_locked(
        self, trace_id: str, buffer: _TraceBuffer, root: Span | None = None
    ) -> None:
        spans = buffer.spans
        self._spans_finalized += len(spans) + buffer.dropped
        if root is None:  # remote-rooted or truncated: earliest span stands in
            root = min(spans, key=lambda s: s.start_s)
        decision = self._decide(root, spans)
        self._decisions[decision] += 1
        if decision != "dropped":
            self._seq += 1
            self._kept.append(
                _KeptTrace(
                    trace_id, root, decision, tuple(spans), buffer.dropped, self._seq
                )
            )

    def _flush_stale_locked(self, now: float, max_age_s: float | None = None) -> int:
        age = _STALE_AFTER_S if max_age_s is None else max_age_s
        cutoff = now - age
        finalized = 0
        # OrderedDict is in last-touched order: stop at the first live one
        while self._buffers:
            trace_id, buffer = next(iter(self._buffers.items()))
            if buffer.last_seen > cutoff:
                break
            del self._buffers[trace_id]
            self._finalize_locked(trace_id, buffer)
            finalized += 1
        return finalized

    def flush_stale(self, max_age_s: float | None = None) -> int:
        """Finalize buffers idle longer than ``max_age_s`` (default 30 s);
        returns how many were finalized."""
        now = time.perf_counter()
        with self._lock:
            return self._flush_stale_locked(now, max_age_s)

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            decisions = dict(self._decisions)
            return {
                "decisions": decisions,
                "traces_total": sum(decisions.values()),
                "kept_total": sum(decisions.values()) - decisions["dropped"],
                "kept_retained": len(self._kept),
                "buffered_traces": len(self._buffers),
                "spans_seen": self._spans_seen(),
                "span_overflow": self._span_overflow,
                "evicted_traces": self._evictions,
                "slow_threshold_s": self.slow_threshold_s,
                "head_sample_every": self.head_sample_every,
            }

    def kept_traces(self, limit: int | None = 16) -> list[dict[str, Any]]:
        """Summaries of retained traces, newest first."""
        self.flush_stale()
        with self._lock:
            kept = list(self._kept)
        kept.reverse()
        if limit is not None:
            kept = kept[:limit]
        return [trace.summary() for trace in kept]

    def trace(self, trace_id: str) -> list[dict[str, Any]]:
        """Every retained span of one kept trace as portable dicts,
        ordered by start time.  Raises ``KeyError`` when unknown."""
        self.flush_stale()
        with self._lock:
            for kept in reversed(self._kept):
                if kept.trace_id == trace_id:
                    spans = kept.spans
                    break
            else:
                raise KeyError(f"trace {trace_id!r} was not kept")
        return [span_to_dict(span) for span in sorted(spans, key=lambda s: s.start_s)]

    def slowest_spans(self, limit: int = 20) -> list[dict[str, Any]]:
        """Individual spans across kept traces ranked by **self time**
        (duration minus direct children), the profiler's metric."""
        self.flush_stale()
        with self._lock:
            kept = list(self._kept)
        rows = []
        for trace in kept:
            child_time: dict[str, float] = {}
            for span in trace.spans:
                if span.parent_id is not None:
                    child_time[span.parent_id] = (
                        child_time.get(span.parent_id, 0.0) + span.duration_s
                    )
            for span in trace.spans:
                self_s = max(0.0, span.duration_s - child_time.get(span.span_id, 0.0))
                rows.append(
                    {
                        "name": span.name,
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "self_s": self_s,
                        "duration_s": span.duration_s,
                        "thread": span.thread_name,
                        "decision": trace.decision,
                    }
                )
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows[:limit]

    def export_perfetto(self, trace_id: str) -> dict[str, Any]:
        """One kept trace as a Chrome trace-event document."""
        return perfetto_document(self.trace(trace_id))


# ----------------------------------------------------------------------
# Process-tracer attachment
# ----------------------------------------------------------------------
_install_lock = threading.Lock()
#: tracer this module created because recording was requested while the
#: process tracer was a noop; removed once its last recorder uninstalls
_auto_tracer: Tracer | None = None


def install_recorder(recorder: FlightRecorder) -> None:
    """Attach ``recorder`` to the process tracer, enabling tracing if off.

    When the current tracer is real (someone already enabled tracing,
    e.g. ``swarm --trace-out``), the recorder simply becomes one more
    sink on it.  When tracing is off, a dedicated tracer is installed so
    spans exist for the recorder to judge; :func:`uninstall_recorder`
    restores the noop once the last recorder is gone.
    """
    global _auto_tracer
    with _install_lock:
        tracer = get_tracer()
        if not tracer.enabled:
            if _auto_tracer is None:
                _auto_tracer = Tracer(sinks=(), keep_last=0)
            set_tracer(_auto_tracer)
            tracer = _auto_tracer
        tracer.add_sink(recorder)


def uninstall_recorder(recorder: FlightRecorder) -> None:
    """Detach ``recorder``; restore the noop tracer if this module had
    enabled tracing and no recorder remains on its tracer."""
    global _auto_tracer
    with _install_lock:
        tracer = get_tracer()
        tracer.remove_sink(recorder)
        auto = _auto_tracer
        if auto is None:
            return
        if auto is not tracer:
            auto.remove_sink(recorder)
        if auto.sink_count == 0:
            if get_tracer() is auto:
                set_tracer(NoopTracer())
            _auto_tracer = None
