"""Metrics registry: named counters, gauges and fixed-bucket histograms.

All instruments are label-aware (one time series per distinct label
combination) and thread-safe — every instrument guards its own series
map with its own lock, so a long registry snapshot never blocks a
concurrent ``inc``/``observe`` on another instrument, and updates to one
instrument block a snapshot of that instrument only for a dict copy.

Two read surfaces:

* :meth:`MetricsRegistry.snapshot` — plain-data JSON form, the machine
  surface (the TCP ``metrics`` request returns it);
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition (``# HELP``/``# TYPE`` + one line per series; histograms
  expand to ``_bucket``/``_sum``/``_count``).

:func:`percentile` is the shared percentile primitive — linear
interpolation between closest ranks, the numpy default — used by the
histogram's quantile estimate and by the service's latency window
(:mod:`repro.service.telemetry`), which previously carried its own
nearest-rank variant.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping, Sequence

from .trace import get_tracer

__all__ = [
    "percentile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "rollup_snapshots",
    "DEFAULT_BUCKETS",
]

#: latency-shaped default buckets (seconds), 50us .. 30s
DEFAULT_BUCKETS = (
    0.00005,
    0.0002,
    0.001,
    0.005,
    0.02,
    0.1,
    0.5,
    2.0,
    10.0,
    30.0,
)


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Interpolated percentile of an ascending sequence (0.0 when empty).

    Linear interpolation between closest ranks: ``percentile(xs, 0.5)``
    of ``[1, 2]`` is 1.5, of ``[7]`` is 7.  ``fraction`` is clamped to
    [0, 1].
    """
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    fraction = min(1.0, max(0.0, fraction))
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return float(ordered[lower]) * (1.0 - weight) + float(ordered[upper]) * weight


def _label_key(labelnames: tuple[str, ...], labels: Mapping[str, Any]) -> tuple[str, ...]:
    if len(labels) == len(labelnames):
        try:
            return tuple([str(labels[name]) for name in labelnames])
        except KeyError:
            pass
    raise ValueError(f"expected labels {sorted(labelnames)}, got {sorted(labels)}")


class _Instrument:
    """Shared series bookkeeping: one lock, one map keyed by label values."""

    kind = "untyped"
    #: see :meth:`set_function`
    _read: Callable[[], Mapping[tuple[str, ...], float]] | None = None

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], Any] = {}

    def set_function(self, read: Callable[[], Mapping[tuple[str, ...], float]]) -> None:
        """Read the series from ``read()`` — label values → value, ``()``
        for an unlabelled instrument — whenever the instrument is read,
        instead of having them pushed: for counts its owner keeps anyway."""
        self._read = read

    def _live(self) -> dict[tuple[str, ...], Any]:
        if self._read is None:
            return self._series
        return {key: float(value) for key, value in self._read().items()}

    def items(self) -> list[tuple[dict[str, str], Any]]:
        """Snapshot of every series as (labels dict, plain value)."""
        with self._lock:
            entries = list(self._live().items())
        return [
            (dict(zip(self.labelnames, key)), self._plain(value))
            for key, value in entries
        ]

    @property
    def sync_lock(self) -> threading.Lock:
        """The instrument's own series lock, exposed for readers that must
        cut *several* instruments at one consistent instant (e.g. the
        service stats snapshot).  Record paths only ever take one
        instrument lock at a time, so a reader holding many in a stable
        order cannot deadlock against them."""
        return self._lock

    def items_unlocked(self) -> list[tuple[dict[str, str], Any]]:
        """Like :meth:`items`, but the caller already holds :attr:`sync_lock`."""
        return [
            (dict(zip(self.labelnames, key)), self._plain(value))
            for key, value in list(self._live().items())
        ]

    def _plain(self, value: Any) -> Any:
        return value


class Counter(_Instrument):
    """Monotonically increasing float counter."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._live().get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._live().values())


class Gauge(_Instrument):
    """Set-to-current-value instrument (queue depths, versions, maxima)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels: Any) -> None:
        """Keep the running maximum of the observed values."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            current = self._series.get(key)
            if current is None or value > current:
                self._series[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._live().get(key, 0.0)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count", "exemplars")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets  # one per finite bound; +Inf is implied
        self.sum = 0.0
        self.count = 0
        # last exemplar per bucket index (the +Inf bucket is index
        # n_buckets), as (value, trace_id, span_id); a fixed-size list, so
        # a snapshot reader outside the lock sees each slot old or new
        self.exemplars: list[tuple[float, str, str] | None] = [None] * (n_buckets + 1)


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative exposition semantics.

    ``buckets`` are the finite upper bounds, ascending; an implicit
    ``+Inf`` bucket catches the rest.  ``quantile`` interpolates within
    the bucket containing the target rank — coarse by design (the exact
    service latency window lives in :mod:`repro.service.telemetry`), but
    monotone and machine-independent.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(
        self, value: float, exemplar: Any | None = None, **labels: Any
    ) -> None:
        """Record ``value``; optionally link the bucket to a trace.

        ``exemplar`` is anything with ``trace_id``/``span_id`` attributes
        (a :class:`~repro.obs.trace.SpanContext` or a span).  When omitted
        and tracing is enabled, the calling thread's current span context
        is captured automatically, so a p99 bucket points at a concrete
        trace the flight recorder may have kept.
        """
        key = _label_key(self.labelnames, labels)
        index = bisect_left(self.buckets, value)
        if exemplar is None:
            tracer = get_tracer()
            if tracer.enabled:
                exemplar = tracer.current_span()
        trace_id = getattr(exemplar, "trace_id", None)
        span_id = getattr(exemplar, "span_id", None)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            if index < len(series.bucket_counts):
                series.bucket_counts[index] += 1
            series.sum += value
            series.count += 1
            if trace_id:
                series.exemplars[index] = (float(value), str(trace_id), str(span_id or ""))

    def quantile(self, fraction: float, **labels: Any) -> float:
        """Estimated value at ``fraction`` via in-bucket interpolation."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or series.count == 0:
                return 0.0
            counts = list(series.bucket_counts)
            count = series.count
        target = min(1.0, max(0.0, fraction)) * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lower = self.buckets[index - 1] if index else 0.0
            upper = self.buckets[index]
            if cumulative + bucket_count >= target:
                within = (target - cumulative) / bucket_count
                return lower + (upper - lower) * within
            cumulative += bucket_count
        return self.buckets[-1]  # target fell into the +Inf bucket

    def _bucket_bound(self, index: int) -> str:
        return "+Inf" if index >= len(self.buckets) else str(self.buckets[index])

    def exemplars(self, **labels: Any) -> dict[str, dict[str, Any]]:
        """Exemplars of one series keyed by bucket upper bound."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            stored = list(series.exemplars) if series is not None else []
        return self._exemplar_dicts(stored)

    def _exemplar_dicts(
        self, stored: Sequence[tuple[float, str, str] | None]
    ) -> dict[str, dict[str, Any]]:
        return {
            self._bucket_bound(index): dict(zip(("value", "trace_id", "span_id"), slot))
            for index, slot in enumerate(stored)
            if slot is not None
        }

    def _plain(self, value: _HistogramSeries) -> dict[str, Any]:
        plain = {
            "buckets": dict(zip([str(b) for b in self.buckets], value.bucket_counts)),
            "sum": value.sum,
            "count": value.count,
        }
        exemplars = self._exemplar_dicts(value.exemplars)
        if exemplars:
            plain["exemplars"] = exemplars
        return plain


class MetricsRegistry:
    """Creates-or-returns named instruments and renders them.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing instrument (and raises if the
    kind or labels disagree — two subsystems fighting over one name is
    a bug worth hearing about early).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    kwargs.get("labelnames", ())
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames=tuple(labelnames))

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames=tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames=tuple(labelnames), buckets=buckets
        )

    def get(self, name: str) -> _Instrument | None:
        """The registered instrument named ``name`` (no creation), or None."""
        with self._lock:
            return self._instruments.get(name)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-data view: ``{name: {type, help, series: [...]}}``."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {
            instrument.name: {
                "type": instrument.kind,
                "help": instrument.help,
                "series": [
                    {"labels": labels, "value": value}
                    for labels, value in instrument.items()
                ],
            }
            for instrument in instruments
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, series sorted for stability."""
        with self._lock:
            instruments = sorted(self._instruments.values(), key=lambda i: i.name)
        lines: list[str] = []
        for instrument in instruments:
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            entries = sorted(instrument.items(), key=lambda kv: sorted(kv[0].items()))
            for labels, value in entries:
                if instrument.kind == "histogram":
                    lines.extend(_render_histogram(instrument.name, labels, value))
                else:
                    lines.append(f"{instrument.name}{_render_labels(labels)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _render_histogram(name: str, labels: dict[str, str], value: dict[str, Any]) -> list[str]:
    lines = []
    cumulative = 0
    for bound, count in value["buckets"].items():
        cumulative += count
        lines.append(
            f"{name}_bucket{_render_labels(labels, {'le': bound})} {cumulative}"
        )
    lines.append(
        f"{name}_bucket{_render_labels(labels, {'le': '+Inf'})} {value['count']}"
    )
    lines.append(f"{name}_sum{_render_labels(labels)} {value['sum']:g}")
    lines.append(f"{name}_count{_render_labels(labels)} {value['count']}")
    return lines


_registry = MetricsRegistry()


def rollup_snapshots(
    primary: Mapping[str, Any],
    children: Mapping[str, Mapping[str, Any]],
    label: str = "source",
) -> dict[str, Any]:
    """Merge child registry snapshots into a primary one.

    Every child series is re-labelled with ``label=<child key>`` and
    appended under the same instrument name (created from the child's
    type/help when the primary never registered it).  No arithmetic is
    performed — histograms and gauges survive untouched — so the rollup
    is lossless: a reader can still slice per-source or aggregate.  Used
    by the multi-process shard coordinator to fold each worker process's
    metrics into one snapshot.
    """
    merged: dict[str, Any] = {
        name: {
            "type": record["type"],
            "help": record["help"],
            "series": [dict(series) for series in record["series"]],
        }
        for name, record in primary.items()
    }
    for source, snapshot in children.items():
        for name, record in snapshot.items():
            target = merged.setdefault(
                name,
                {"type": record["type"], "help": record["help"], "series": []},
            )
            for series in record["series"]:
                labels = dict(series.get("labels") or {})
                labels[label] = str(source)
                target["series"].append(
                    {"labels": labels, "value": series["value"]}
                )
    return merged


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (executor/store/planner metrics)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
