"""Per-layer metrics of a traced run.

Everything is read from outside the program: the harness's own spans
(:mod:`tracing`) and the program's public read surfaces —
``service.stats()``, ``metrics_snapshot()``, ``store.statistics()``,
``pool.wire_stats()``, ``server.wire_stats()``, ``shard_stats()``.
A metric that has no meaning on a workload (``transport.*`` on the inline
``kaggle_*``, ``materialization.select_ms`` inside shard workers) reads 0.
"""

from __future__ import annotations

from typing import Any

from harness import Drive
from metrics import PER_LAYER
from tracing import SpanLog

__all__ = ["layer_metrics", "layer_shares"]

ROOT_SPAN = "client.workload"


def _histogram_mean_ms(snapshots: list[dict[str, Any]], name: str) -> float:
    """Mean of a seconds histogram over every series of every snapshot."""
    values = [
        entry["value"]
        for snapshot in snapshots
        for entry in snapshot.get(name, {}).get("series", ())
    ]
    count = sum(value["count"] for value in values)
    return 1000.0 * sum(value["sum"] for value in values) / count if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _script_seconds(repeat: dict[str, Any]) -> float:
    """Wall seconds per script of one repeat, read at reference speed."""
    drive: Drive = repeat["drive"]
    return drive.wall_s / len(drive.latencies) / repeat["slowdown"]


def layer_metrics(
    workload: Any,
    log: SpanLog,
    traced: dict[str, Any],
    untraced: dict[str, Any],
    probes: dict[str, float],
) -> dict[str, float]:
    """Every :data:`metrics.PER_LAYER` value for one traced repeat.

    Times are raw readings of this run; ``obs.machine_slowdown`` is the
    factor that reads them at the reference machine speed.
    """
    drive: Drive = traced["drive"]
    scripts = len(drive.latencies)
    stats = workload.stats
    snapshots = workload.metrics
    store = workload.store_counters
    eg = workload.final_eg
    moved = drive.executed_vertices + drive.loaded_vertices
    budget = log.layer_budget(ROOT_SPAN)
    round_trip = sum(budget.values())

    values = {
        "client.parse_ms": log.mean_ms("client.parse"),
        "client.prune_ms": log.mean_ms("client.prune"),
        # execute minus the store time spent on the calling thread
        "client.execute_ms": log.mean_self_ms("client.execute"),
        "client.executed_vertices": drive.executed_vertices / scripts,
        "client.loaded_vertices": drive.loaded_vertices / scripts,
        "client.retries": float(workload.retries),
        "reuse.plan_ms": log.mean_ms("reuse.plan"),
        "reuse.load_ratio": _ratio(drive.loaded_vertices, moved),
        "service.commit_ms": log.mean_ms("service.commit"),
        "service.queue_wait_ms": _histogram_mean_ms(
            snapshots, "repro_service_queue_wait_seconds"
        ),
        "service.merge_batch_ms": 1000.0
        * _ratio(stats["merge_seconds_total"], stats["batches"]),
        "service.merge_busy_ratio": stats["merge_seconds_total"] / drive.wall_s,
        "service.mean_batch_size": _ratio(stats["merged_workloads"], stats["batches"]),
        "service.plan_cache_hit_rate": _ratio(
            stats["plan_cache_hits"],
            stats["plan_cache_hits"] + stats["plan_cache_misses"],
        ),
        "service.dirty_per_publish": _ratio(
            stats["publish_dirty_vertices"], stats["publishes"]
        ),
        "service.overload_rejections": float(stats["overload_rejections"]),
        "eg.utility_dirty_per_batch": _ratio(
            stats["utility_cost_dirty"] + stats["utility_potential_dirty"],
            stats["batches"],
        ),
        "eg.vertices_final": float(eg.num_vertices),
        "eg.edges_final": float(eg.graph.number_of_edges()),
        "materialization.select_ms": log.mean_ms("materialization.select"),
        "materialization.materialized_vertices": float(len(eg.materialized_ids())),
        "materialization.evicted": log.count("storage.remove") / scripts,
        "materialization.budget_fill_ratio": workload.budget_fill_ratio(),
        "storage.put_ms": log.mean_ms("storage.put"),
        "storage.get_hot_ms": log.mean_ms("storage.get_hot"),
        "storage.get_cold_ms": log.mean_ms("storage.get_cold"),
        "storage.put_calls": log.count("storage.put") / scripts,
        "storage.get_calls": (
            log.count("storage.get_hot") + log.count("storage.get_cold")
        )
        / scripts,
        "storage.hot_hit_ratio": _ratio(
            log.count("storage.get_hot"),
            log.count("storage.get_hot") + log.count("storage.get_cold"),
        ),
        "storage.promotions": store.get("promotions", 0) / scripts,
        "storage.demotions": store.get("demotions", 0) / scripts,
        "storage.bytes_demoted": store.get("bytes_demoted", 0) / scripts,
        "storage.physical_bytes": float(workload.physical_bytes),
        "storage.logical_bytes": float(
            eg.materialized_artifact_bytes(include_sources=True)
        ),
        "transport.plan_rtt_ms": log.mean_ms("transport.plan_rtt"),
        "transport.commit_rtt_ms": log.mean_ms("transport.commit_rtt"),
        "transport.wire_encode_ms": log.mean_ms("transport.wire_encode"),
        "shard.plan_ms": log.mean_ms("shard.plan"),
        "shard.commit_ms": log.mean_ms("shard.commit"),
        "shard.worker_cpu_s": drive.worker_cpu_s,
        # per-script wall of the traced drive against the untraced one
        "obs.harness_trace_overhead_ratio": _script_seconds(traced)
        / _script_seconds(untraced)
        - 1.0,
        "obs.machine_slowdown": traced["slowdown"],
        "obs.unattributed_ratio": _ratio(budget.get("unattributed", 0.0), round_trip),
    }

    # where the service's plan ran on a harness-visible thread its span is
    # the call minus reuse.plan; shard workers only report their histogram
    if log.count("service.plan"):
        values["service.plan_ms"] = log.mean_self_ms("service.plan")
    else:
        values["service.plan_ms"] = _histogram_mean_ms(
            snapshots, "repro_service_plan_seconds"
        )

    values.update(workload.surface_metrics(scripts))
    values.update(probes)
    unknown = set(values) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise RuntimeError(f"per-layer values outside the catalogue: {sorted(unknown)}")
    # what a workload's topology does not have (no transport, no shards) reads 0
    return {metric.name: float(values.get(metric.name, 0.0)) for metric in PER_LAYER}


def layer_shares(log: SpanLog) -> dict[str, float]:
    """Share of the mean traced round trip each layer's self-time owns."""
    budget = log.layer_budget(ROOT_SPAN)
    total = sum(budget.values())
    return {layer: own / total for layer, own in sorted(budget.items())} if total else {}
