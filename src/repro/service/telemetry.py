"""The live half of what a service reports: instruments and the plane.

:class:`ServiceMetrics` declares a service's registry instruments from
the field→instrument table (:data:`~repro.service.stats.STAT_FIELDS`);
services call ``inc`` / ``observe`` / ``set_max`` on them directly, and
:meth:`ServiceMetrics.cut` freezes them into one consistent
:class:`~repro.service.stats.ServiceStats`.  :class:`TelemetryPlane` owns
the flight recorder and the SLO engine of one service — plain or sharded
— and fills the sections of ``health()`` / ``debug_info()`` they answer.

Locking: each registry instrument guards itself.  :meth:`ServiceMetrics.cut`
acquires **all** the instruments it reads in one stable (name-sorted)
order, copies every raw series, releases the locks, and only then builds
the dataclasses — one consistent cut across related counters (commits can
never exceed plans in a snapshot taken mid-flight).  Record paths take a
single instrument lock at a time and never nest them, so a cut holding
many cannot deadlock against recorders, and two concurrent cuts acquire
in the same order.

Request latencies keep the most recent window (a bounded deque) and
report p50/p99 over it with interpolated percentiles
(:func:`repro.obs.metrics.percentile`).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import ExitStack
from functools import partial
from typing import TYPE_CHECKING, Any

from ..obs.metrics import MetricsRegistry, get_registry, percentile
from ..obs.plane import FlightRecorder, install_recorder, uninstall_recorder
from ..obs.slo import SLOEngine, default_service_slos
from .stats import STAT_FIELDS, ServiceStats, SessionStats

__all__ = ["ServiceMetrics", "TelemetryPlane", "LATENCY_WINDOW"]

#: how many recent request latencies the percentile window retains
LATENCY_WINDOW = 4096

#: request/queue-wait latency buckets (seconds) for the exposition
#: histograms; the exact window percentiles come from the deque below
_LATENCY_BUCKETS = (0.0005, 0.002, 0.01, 0.05, 0.2, 1.0, 5.0, 30.0)


class ServiceMetrics:
    """A service's instruments, declared from :data:`STAT_FIELDS`.

    Each backed field's instrument is an attribute under the field's
    name (``metrics.commits_total.inc(session=...)``), each histogram
    under its short name; the session names and the exact latency window
    are the only state outside the registry.  A service's metrics live in
    their own ``registry`` by default, so two services in one process
    never cross-count; the sharding coordinator passes the registry its
    own instruments already live in.
    """

    if TYPE_CHECKING:
        # the STAT_FIELDS instruments are attributes set by name in __init__
        def __getattr__(self, name: str) -> Any: ...

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        for spec in STAT_FIELDS:
            row = spec.metadata
            declare = registry.gauge if row["kind"] == "gauge" else registry.counter
            labels = ("session",) if row["session"] else ()
            setattr(self, spec.name, declare(row["metric"], row["help"], labels))
        #: latency histograms: they feed the exposition and the SLO engine,
        #: not ``ServiceStats``
        histogram = partial(registry.histogram, buckets=_LATENCY_BUCKETS)
        self.request_seconds = histogram(
            "repro_service_request_seconds", "end-to-end request latency"
        )
        self.queue_wait_seconds = histogram(
            "repro_service_queue_wait_seconds",
            "submit-to-merge-start wait of committed workloads",
        )
        self.plan_seconds = histogram(
            "repro_service_plan_seconds",
            "service-side plan latency (cache hits included)",
        )
        self.merge_batch_seconds = histogram(
            "repro_service_merge_batch_seconds", "wall seconds per merge batch"
        )
        #: session_id -> display name, and the exact sliding window behind
        #: the reported p50/p99; recorders hold this lock alone
        self._names: dict[str, str] = {}
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._window_lock = threading.Lock()

    def register_session(self, session_id: str, name: str) -> None:
        with self._window_lock:
            self._names.setdefault(session_id, name)

    def count_plan(self, session_id: str, planned_loads: int) -> None:
        self.plans_total.inc(session=session_id)
        if planned_loads:
            self.planned_loads_total.inc(planned_loads, session=session_id)
            self.reuse_hits_total.inc(session=session_id)

    def observe_request(self, seconds: float) -> None:
        with self._window_lock:
            self._latencies.append(seconds)
        self.request_seconds.observe(seconds)

    def cut(self, **point_in_time: int) -> ServiceStats:
        """One consistent :class:`ServiceStats` off the registry;
        ``point_in_time`` supplies the fields no instrument backs."""
        # read phase: take every read instrument's lock in a stable
        # (name-sorted) order, copy all raw series in one consistent cut,
        # then release everything before any dataclass builds.  Recorders
        # never hold two instrument locks at once, so this cannot deadlock.
        with ExitStack() as stack:
            stack.enter_context(self._window_lock)
            for spec in sorted(STAT_FIELDS, key=lambda spec: spec.metadata["metric"]):
                stack.enter_context(getattr(self, spec.name).sync_lock)
            names = dict(self._names)
            latencies = tuple(self._latencies)
            raw = {
                spec.name: getattr(self, spec.name).items_unlocked()
                for spec in STAT_FIELDS
            }

        # build phase: plain inputs only
        totals: dict[str, Any] = dict(point_in_time)
        per_session: dict[str, dict[str, int]] = {sid: {} for sid in names}
        for spec in STAT_FIELDS:
            # int() or float(), as the field is declared
            totals[spec.name] = type(spec.default)(sum(v for _, v in raw[spec.name]))
            if spec.metadata["session"]:
                for labels, value in raw[spec.name]:
                    counters = per_session.get(labels["session"])
                    if counters is not None:
                        counters[spec.metadata["session"]] = int(value)
        ordered = sorted(latencies)
        return ServiceStats(
            **totals,
            requests_timed=len(ordered),
            request_p50_s=percentile(ordered, 0.50),
            request_p99_s=percentile(ordered, 0.99),
            sessions={
                session_id: SessionStats(session_id, name, **per_session[session_id])
                for session_id, name in names.items()
            },
        )


class TelemetryPlane:
    """Flight recorder + SLO engine of one service, plain or sharded.

    ``flight_recorder`` is a recorder instance (shared), True (own one),
    False (off) or None — the default, on only for a ``background``
    service: that is the production shape, while the paper figures
    construct thousands of short-lived inline services that must stay
    zero-overhead.  With a recorder comes an SLO engine over the
    service's ``registry`` and the process-global registry (store/planner
    series live there).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        flight_recorder: FlightRecorder | bool | None,
        background: bool,
    ) -> None:
        if flight_recorder is None:
            flight_recorder = background
        self.recorder: FlightRecorder | None
        if flight_recorder is True:
            self.recorder = FlightRecorder(registry=registry)
        elif flight_recorder is False:
            self.recorder = None
        else:
            self.recorder = flight_recorder
        self.slo_engine: SLOEngine | None = None
        if self.recorder is not None:
            install_recorder(self.recorder)
            self.slo_engine = SLOEngine(
                default_service_slos(),
                registries=[registry, get_registry()],
                registry=registry,
            )

    def evaluate(self) -> None:
        """Rate-limited SLO evaluation; merge loops and read surfaces call it."""
        if self.slo_engine is not None:
            self.slo_engine.maybe_evaluate()

    def health(
        self, stopped: bool, degraded: bool = False, **sections: Any
    ) -> dict[str, Any]:
        """A ``health()`` report: status, the service's own ``sections``,
        recorder totals and the currently-firing SLO burns.  ``degraded``
        is the service's own reason to be less than ok."""
        self.evaluate()
        engine, recorder = self.slo_engine, self.recorder
        alerts = engine.active() if engine is not None else []
        if stopped:
            status = "stopped"
        else:
            status = "degraded" if alerts or degraded else "ok"
        return {
            "status": status,
            **sections,
            "recorder": recorder.stats() if recorder is not None else None,
            "slo": engine.status() if engine is not None else None,
            "alerts": alerts,
        }

    def debug_info(
        self, traces: int, spans: int, trace_id: str | None, **sections: Any
    ) -> dict[str, Any]:
        """A ``debug_info()`` report: recent kept traces, slowest spans by
        self-time, the SLO alert journal, the service's own ``sections``
        — and, when ``trace_id`` names a kept trace, its full span list
        (Perfetto-renderable via :func:`repro.obs.sinks.perfetto_document`)."""
        self.evaluate()
        engine, recorder = self.slo_engine, self.recorder
        info: dict[str, Any] = {
            "recorder": recorder.stats() if recorder is not None else None,
            "recent_traces": (
                recorder.kept_traces(traces) if recorder is not None else []
            ),
            "slowest_spans": (
                recorder.slowest_spans(spans) if recorder is not None else []
            ),
            "alerts": engine.journal() if engine is not None else [],
            **sections,
        }
        if trace_id is not None and recorder is not None:
            info["trace"] = recorder.trace(trace_id)
        return info

    def close(self) -> None:
        """Detach the recorder from the process tracer; its retained
        traces stay readable (debug surfaces work on a stopped service)."""
        if self.recorder is not None:
            uninstall_recorder(self.recorder)
