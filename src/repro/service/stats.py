"""What a service reports: frozen stats and the field→instrument table.

Every number a service reports lives in its
:class:`~repro.obs.metrics.MetricsRegistry` as a named instrument, so the
Prometheus exposition / JSON snapshot and the frozen :class:`ServiceStats`
are two reads of the same counters.  The ``ServiceStats`` declaration is
the one table between them: each instrument-backed field carries its
instrument (name, kind, help, session-labelled or not) and every field
says how a sharding coordinator rolls it up over its shards
(:func:`roll_up`).  :class:`~repro.service.telemetry.ServiceMetrics`
declares the instruments from :data:`STAT_FIELDS` and cuts one consistent
``ServiceStats`` off them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Sequence

__all__ = ["SessionStats", "ServiceStats", "STAT_FIELDS", "roll_up"]


@dataclass(frozen=True)
class SessionStats:
    """Frozen per-session counters."""

    session_id: str
    name: str
    plans: int = 0
    commits: int = 0
    rejected_commits: int = 0
    retries: int = 0
    planned_loads: int = 0
    #: plans whose reuse plan contained at least one EG load
    reuse_hits: int = 0


def _stat(
    metric: str = "",
    help: str = "",
    *,
    kind: str = "counter",
    session: str = "",
    rollup: str = "own",
    default: Any = 0,
) -> Any:
    """A :class:`ServiceStats` field plus its row of the field→instrument
    table (carried as the dataclass field's metadata).

    ``metric`` / ``help`` / ``kind`` name the registry instrument behind
    the field — none for a point-in-time number the service reads off
    itself and hands to :meth:`ServiceMetrics.cut`; ``session`` is the
    :class:`SessionStats` field of a ``session``-labelled counter;
    ``rollup`` is how a sharding coordinator aggregates the field: "own"
    (it sees every request once, its number stands), or its number
    combined with every shard's by "sum" / "max".
    """
    row = dict(metric=metric, help=help, kind=kind, session=session, rollup=rollup)
    return field(default=default, metadata=row)


@dataclass(frozen=True)
class ServiceStats:
    """Frozen service-wide counters (one consistent snapshot)."""

    # fmt: off
    #: latest published EG version
    version: int = 0
    open_sessions: int = 0
    plans_total: int = _stat(
        "repro_service_plans_total", "optimize/plan requests served", session="plans")
    commits_total: int = _stat(
        "repro_service_commits_total", "workloads merged into the EG",
        session="commits")
    rejected_commits_total: int = _stat(
        "repro_service_rejected_commits_total", "commits rejected by conflicts",
        session="rejected_commits")
    #: submissions bounced off the full update queue
    overload_rejections: int = _stat(
        "repro_service_overload_rejections_total",
        "submissions bounced off the full update queue", rollup="sum")
    retries_total: int = _stat(
        "repro_service_retries_total", "client retries after backpressure",
        session="retries")
    queue_depth: int = _stat(rollup="sum")
    queue_capacity: int = _stat(rollup="sum")
    #: high-water mark of the update queue since the service started
    queue_peak: int = _stat(rollup="max")
    #: merge batches applied / workloads merged across them
    batches: int = _stat(
        "repro_service_merge_batches_total", "merge batches applied", rollup="sum")
    merged_workloads: int = _stat(
        "repro_service_merged_workloads_total", "workloads merged across batches",
        rollup="sum")
    max_batch_size: int = _stat(
        "repro_service_max_batch_size", "largest merge batch so far",
        kind="gauge", rollup="max")
    merge_seconds_total: float = _stat(
        "repro_service_merge_seconds_total", "seconds spent merging batches",
        rollup="sum", default=0.0)
    max_merge_seconds: float = _stat(
        "repro_service_max_merge_seconds", "slowest merge batch so far",
        kind="gauge", rollup="max", default=0.0)
    planned_loads_total: int = _stat(
        "repro_service_planned_loads_total", "EG loads planned across plans",
        session="planned_loads")
    reuse_hits_total: int = _stat(
        "repro_service_reuse_hits_total", "plans with at least one EG load",
        session="reuse_hits")
    #: read by benchmarks/e2e/; there is no plan cache
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: snapshot publishes, and dirty vertices cloned across COW publishes
    publishes: int = _stat(
        "repro_service_publishes_total", "EG snapshot publishes", rollup="sum")
    publish_dirty_vertices: int = _stat(
        "repro_service_publish_dirty_vertices_total",
        "dirty vertices cloned across copy-on-write publishes", rollup="sum")
    #: vertices whose recreation cost / potential the utility index
    #: recomputed incrementally (total across all merge batches)
    utility_cost_dirty: int = _stat(
        "repro_service_utility_cost_dirty_total",
        "vertices whose recreation cost the utility index recomputed", rollup="sum")
    utility_potential_dirty: int = _stat(
        "repro_service_utility_potential_dirty_total",
        "vertices whose potential the utility index recomputed", rollup="sum")
    #: content removals still deferred for outstanding snapshot leases
    deferred_evictions: int = _stat(rollup="sum")
    #: end-to-end request latencies observed in the sliding window
    requests_timed: int = 0
    request_p50_s: float = 0.0
    request_p99_s: float = 0.0
    sessions: dict[str, SessionStats] = field(default_factory=dict)
    # fmt: on

    @property
    def mean_batch_size(self) -> float:
        return self.merged_workloads / self.batches if self.batches else 0.0

    @property
    def mean_merge_seconds(self) -> float:
        return self.merge_seconds_total / self.batches if self.batches else 0.0

    @property
    def reuse_hit_rate(self) -> float:
        return self.reuse_hits_total / self.plans_total if self.plans_total else 0.0

    @property
    def mean_dirty_per_publish(self) -> float:
        return self.publish_dirty_vertices / self.publishes if self.publishes else 0.0


#: the field→instrument table: every ``ServiceStats`` field an instrument backs
STAT_FIELDS = tuple(f for f in fields(ServiceStats) if f.metadata.get("metric"))


def roll_up(own: ServiceStats, shards: Sequence[ServiceStats]) -> ServiceStats:
    """A coordinator's stats: its own cut, with every field declared
    ``rollup="sum"`` / ``"max"`` combined over its shards' stats."""
    merged = {}
    for spec in fields(ServiceStats):
        rule = spec.metadata.get("rollup", "own")
        if rule != "own":
            values = [getattr(stats, spec.name) for stats in (own, *shards)]
            merged[spec.name] = sum(values) if rule == "sum" else max(values)
    return replace(own, **merged)
