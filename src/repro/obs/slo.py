"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLO` names an objective ("99% of merge batches finish within
1s") over metrics that already exist in one or more
:class:`~repro.obs.metrics.MetricsRegistry` instances; a *source* turns
those metrics into a cumulative ``(bad, total)`` event pair:

* :class:`HistogramLatencySource` — observations above a latency
  threshold are bad (bucketed, so the threshold should sit on or near a
  bucket bound);
* :class:`CounterRatioSource` — one counter over another (cold-hit
  rate), each summed across label series and registries.

The :class:`SLOEngine` samples every source on ``evaluate()`` and keeps
a bounded history per SLO.  Alerting is the multi-window burn-rate
scheme from the Google SRE workbook: the **burn rate** is the bad
fraction over a window divided by the error budget (``1 - objective``)
— burn 1.0 spends the budget exactly at the objective's horizon — and
an alert fires only while *both* a short and a long window exceed a
threshold, so brief blips don't page but sustained burns do, and the
alert resolves quickly once the burn stops.  State *transitions* (fire,
resolve) append to a bounded journal; the current state is exported as
``repro_obs_slo_*`` gauges/counters when the engine is given a registry.

Windows here default to seconds-scale rather than the workbook's hours
— this engine observes a single service process, not a quarter-long
budget — but the structure (pairing, thresholds, severities) is the
same and fully configurable.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "SLO",
    "CounterRatioSource",
    "HistogramLatencySource",
    "AlertEvent",
    "SLOEngine",
    "default_service_slos",
]


@dataclass(frozen=True)
class BurnWindow:
    """One (short, long) window pair with its firing threshold."""

    short_s: float
    long_s: float
    threshold: float
    severity: str = "page"


#: fast-burn pages, slow-burn tickets (seconds-scale for a live process)
DEFAULT_WINDOWS = (
    BurnWindow(short_s=30.0, long_s=300.0, threshold=10.0, severity="page"),
    BurnWindow(short_s=120.0, long_s=900.0, threshold=2.0, severity="ticket"),
)


# ----------------------------------------------------------------------
# Sources: metrics -> cumulative (bad, total)
# ----------------------------------------------------------------------
def _sum_series(registries: Sequence[MetricsRegistry], name: str, kinds: tuple[type, ...]):
    """Sum one counter/gauge over all label series of all registries;
    None when no registry has the metric."""
    total = None
    for registry in registries:
        instrument = registry.get(name)
        if instrument is None or not isinstance(instrument, kinds):
            continue
        value = sum(v for _labels, v in instrument.items())
        total = value if total is None else total + value
    return total


@dataclass(frozen=True)
class CounterRatioSource:
    """bad/total from two counters (e.g. cold hits over planned loads)."""

    bad: str
    total: str

    def sample(
        self, registries: Sequence[MetricsRegistry]
    ) -> tuple[float, float] | None:
        total = _sum_series(registries, self.total, (Counter, Gauge))
        if total is None:
            return None
        bad = _sum_series(registries, self.bad, (Counter, Gauge)) or 0.0
        return bad, total


@dataclass(frozen=True)
class HistogramLatencySource:
    """Observations of a histogram above ``threshold_s`` are bad.

    Goodness is judged from bucket counts: an observation is good when
    it landed in a finite bucket whose upper bound is at or under the
    threshold, so pick thresholds on bucket bounds for exact accounting.
    """

    histogram: str
    threshold_s: float

    def sample(
        self, registries: Sequence[MetricsRegistry]
    ) -> tuple[float, float] | None:
        found = False
        good = 0.0
        total = 0.0
        for registry in registries:
            instrument = registry.get(self.histogram)
            if not isinstance(instrument, Histogram):
                continue
            found = True
            for _labels, plain in instrument.items():
                total += plain["count"]
                for bound, count in plain["buckets"].items():
                    if float(bound) <= self.threshold_s:
                        good += count
        if not found:
            return None
        return total - good, total


@dataclass(frozen=True)
class SLO:
    """One objective over a source's bad/total stream."""

    name: str
    source: Any
    objective: float = 0.99
    description: str = ""

    @property
    def error_budget(self) -> float:
        return max(1e-9, 1.0 - self.objective)


@dataclass(frozen=True)
class AlertEvent:
    """One burn-rate state transition (fired or resolved)."""

    at_s: float
    slo: str
    severity: str
    state: str  # "firing" | "resolved"
    burn_short: float
    burn_long: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "at_s": self.at_s,
            "slo": self.slo,
            "severity": self.severity,
            "state": self.state,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
        }


class SLOEngine:
    """Evaluates SLOs against live registries; journals burn transitions.

    ``registries`` are where the source metrics live (service registry,
    per-shard registries, the process-global one); ``registry`` is where
    the engine *publishes* its own ``repro_obs_slo_*`` state.  The
    engine is pull-based and cheap — the service calls
    :meth:`maybe_evaluate` from its merge loop and read surfaces, rate
    limited by ``min_eval_interval_s`` — and everything it retains is
    bounded.
    """

    def __init__(
        self,
        slos: Iterable[SLO],
        registries: Sequence[MetricsRegistry] | None = None,
        *,
        registry: MetricsRegistry | None = None,
        windows: Sequence[BurnWindow] = DEFAULT_WINDOWS,
        journal_size: int = 256,
        history_size: int = 4096,
        min_eval_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.slos = list(slos)
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self._registries = (
            list(registries) if registries is not None else [get_registry()]
        )
        self.windows = tuple(windows)
        self.min_eval_interval_s = float(min_eval_interval_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._history: dict[str, deque[tuple[float, float, float]]] = {
            slo.name: deque(maxlen=history_size) for slo in self.slos
        }
        self._firing: dict[tuple[str, str], bool] = {}
        self._journal: deque[AlertEvent] = deque(maxlen=journal_size)
        self._last_eval: float | None = None
        self._burn_gauge = None
        self._firing_gauge = None
        self._alerts_counter = None
        if registry is not None:
            self._burn_gauge = registry.gauge(
                "repro_obs_slo_burn_rate",
                "error-budget burn rate per SLO and window",
                ("slo", "window", "severity"),
            )
            self._firing_gauge = registry.gauge(
                "repro_obs_slo_firing",
                "1 while any burn window of the SLO is firing",
                ("slo",),
            )
            self._alerts_counter = registry.counter(
                "repro_obs_slo_alerts_total",
                "burn-rate alert state transitions",
                ("slo", "severity", "state"),
            )

    # ------------------------------------------------------------------
    def maybe_evaluate(self, now: float | None = None) -> list[AlertEvent]:
        """Evaluate unless one ran within ``min_eval_interval_s``."""
        now = self._clock() if now is None else now
        with self._lock:
            if (
                self._last_eval is not None
                and now - self._last_eval < self.min_eval_interval_s
            ):
                return []
        return self.evaluate(now)

    def evaluate(self, now: float | None = None) -> list[AlertEvent]:
        """Sample every source, update burn state; returns transitions."""
        now = self._clock() if now is None else now
        events: list[AlertEvent] = []
        with self._lock:
            self._last_eval = now
            for slo in self.slos:
                sample = slo.source.sample(self._registries)
                if sample is None:
                    continue
                bad, total = sample
                history = self._history[slo.name]
                history.append((now, float(bad), float(total)))
                firing_any = False
                for window in self.windows:
                    burn_short = self._burn(history, now, window.short_s, slo)
                    burn_long = self._burn(history, now, window.long_s, slo)
                    firing = (
                        burn_short >= window.threshold
                        and burn_long >= window.threshold
                    )
                    key = (slo.name, window.severity)
                    was_firing = self._firing.get(key, False)
                    if firing != was_firing:
                        event = AlertEvent(
                            at_s=now,
                            slo=slo.name,
                            severity=window.severity,
                            state="firing" if firing else "resolved",
                            burn_short=burn_short,
                            burn_long=burn_long,
                        )
                        self._journal.append(event)
                        events.append(event)
                    self._firing[key] = firing
                    firing_any = firing_any or firing
                    if self._burn_gauge is not None:
                        label = f"{window.short_s:g}s/{window.long_s:g}s"
                        self._burn_gauge.set(
                            burn_short,
                            slo=slo.name,
                            window=label,
                            severity=window.severity,
                        )
                if self._firing_gauge is not None:
                    self._firing_gauge.set(1.0 if firing_any else 0.0, slo=slo.name)
        if self._alerts_counter is not None:
            for event in events:
                self._alerts_counter.inc(
                    slo=event.slo, severity=event.severity, state=event.state
                )
        return events

    @staticmethod
    def _window_delta(
        history: deque[tuple[float, float, float]], now: float, window_s: float
    ) -> tuple[float, float]:
        """(d_bad, d_total) between the newest sample and the newest
        sample at or before the window start — the oldest sample stands
        in while history is shorter than the window, so early burns are
        judged on what has been seen so far."""
        start = None
        window_start = now - window_s
        for entry in history:  # oldest -> newest
            if entry[0] <= window_start:
                start = entry
            else:
                break
        if start is None:
            start = history[0]
        end = history[-1]
        return end[1] - start[1], end[2] - start[2]

    def _burn(
        self,
        history: deque[tuple[float, float, float]],
        now: float,
        window_s: float,
        slo: SLO,
    ) -> float:
        if len(history) < 2:
            return 0.0
        d_bad, d_total = self._window_delta(history, now, window_s)
        if d_total <= 0:
            return 0.0
        return max(0.0, d_bad / d_total) / slo.error_budget

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    def status(self, now: float | None = None) -> dict[str, Any]:
        """Per-SLO burn rates, firing state, and latest bad/total."""
        now = self._clock() if now is None else now
        with self._lock:
            out: dict[str, Any] = {}
            for slo in self.slos:
                history = self._history[slo.name]
                windows = []
                firing_any = False
                for window in self.windows:
                    firing = self._firing.get((slo.name, window.severity), False)
                    firing_any = firing_any or firing
                    windows.append(
                        {
                            "severity": window.severity,
                            "short_s": window.short_s,
                            "long_s": window.long_s,
                            "threshold": window.threshold,
                            "burn_short": self._burn(history, now, window.short_s, slo),
                            "burn_long": self._burn(history, now, window.long_s, slo),
                            "firing": firing,
                        }
                    )
                latest = history[-1] if history else (now, 0.0, 0.0)
                out[slo.name] = {
                    "objective": slo.objective,
                    "description": slo.description,
                    "firing": firing_any,
                    "bad": latest[1],
                    "total": latest[2],
                    "windows": windows,
                }
            return out

    def active(self) -> list[dict[str, str]]:
        """Currently-firing (slo, severity) pairs."""
        with self._lock:
            return [
                {"slo": name, "severity": severity}
                for (name, severity), firing in sorted(self._firing.items())
                if firing
            ]

    def journal(self) -> list[dict[str, Any]]:
        """The bounded alert journal, oldest first."""
        with self._lock:
            return [event.to_dict() for event in self._journal]


def default_service_slos() -> list[SLO]:
    """The stock objectives an `EGService` watches over its own registry
    (plus the process-global one for store/planner series)."""
    return [
        SLO(
            "merge-batch-p99",
            HistogramLatencySource("repro_service_merge_batch_seconds", 1.0),
            objective=0.99,
            description="99% of merge batches complete within 1s",
        ),
        SLO(
            "plan-latency-p95",
            HistogramLatencySource("repro_service_plan_seconds", 0.2),
            objective=0.95,
            description="95% of plans return within 200ms",
        ),
        SLO(
            "queue-wait-p99",
            HistogramLatencySource("repro_service_queue_wait_seconds", 1.0),
            objective=0.99,
            description="99% of commits start merging within 1s of submit",
        ),
        SLO(
            "cold-hit-rate",
            CounterRatioSource(
                "repro_store_cold_hits_total", "repro_planner_loads_total"
            ),
            objective=0.80,
            description="at most 20% of planned loads hit the cold tier",
        ),
    ]
