"""Unified observability layer: tracing and metrics.

See ``docs/OBSERVABILITY.md``.  The pillars share this package so
instrumented code needs one import surface:

* :mod:`repro.obs.trace` — spans with thread-local context propagation;
  the process-wide tracer defaults to a free no-op.
* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms with
  Prometheus text exposition and a JSON snapshot.
* :mod:`repro.obs.sinks` / :mod:`repro.obs.profile` — span exporters
  (in memory, Chrome trace events) and top-k self-time summaries.
* :mod:`repro.obs.plane` — the always-on telemetry plane: the
  tail-sampling :class:`FlightRecorder` and Perfetto export.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    set_registry,
)
from .plane import (
    FlightRecorder,
    install_recorder,
    uninstall_recorder,
)
from .profile import ProfileEntry, ProfileReport
from .sinks import ChromeTraceSink, InMemorySink, perfetto_document
from .trace import (
    NoopTracer,
    Span,
    SpanContext,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "percentile",
    "FlightRecorder",
    "install_recorder",
    "uninstall_recorder",
    "perfetto_document",
    "ProfileEntry",
    "ProfileReport",
    "ChromeTraceSink",
    "InMemorySink",
    "NoopTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
