"""The benchmark's metric catalogue: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root lists the same names; the smoke
test checks that the two agree.  ``moves`` on a per-layer metric is the
prediction written down before measuring: which end-to-end metric it
should move, and on which workload.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "TAIL_PERCENTILE"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


#: the tail percentile per workload.  The other workloads complete several
#: hundred scripts a run, so p95 has well over ten samples beyond it;
#: kaggle_first completes 48 (six passes over 8 scripts is what fits the
#: driver's time budget), so its tail is p75 — 12 samples beyond it, the
#: slowest two script kinds.  p99 is not used anywhere: on this shared
#: 2-core box identical runs move it by a factor of two.
TAIL_PERCENTILE = {
    "kaggle_first": 75,
    "kaggle_repeat": 95,
    "stream_tcp": 95,
    "stream_mproc": 95,
}

END_TO_END = [
    EndToEnd(
        "throughput_wps", "workloads/s", "higher", 0.25,
        "scripts completed / seconds of the timed phase, at reference machine speed",
    ),
    EndToEnd(
        "workload_p50_ms", "ms", "lower", 0.25,
        "median run_script round trip (parse, prune, plan, execute, commit ack), "
        "at reference machine speed",
    ),
    EndToEnd(
        "workload_tail_ms", "ms", "lower", 0.25,
        "p95 round trip (p75 on kaggle_first), see TAIL_PERCENTILE",
    ),
    EndToEnd(
        "cpu_ms_per_workload", "ms", "lower", 0.25,
        "process CPU time of the driver plus worker processes / scripts, "
        "at reference machine speed",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.25,
        "peak resident set of the driver plus its worker processes",
    ),
    EndToEnd(
        "store_amplification", "ratio", "lower", 0.20,
        "physical store bytes / logical materialized bytes at the end",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "data generation, eager reference run, service/worker start, warm-EG build",
    ),
]

_K1 = "kaggle_first"
_K2 = "kaggle_repeat"
_TCP = "stream_tcp"
_MP = "stream_mproc"

PER_LAYER = [
    # client
    PerLayer("client.parse_ms", "ms", "lower", f"workload_p50_ms on {_TCP}, {_MP}"),
    PerLayer("client.prune_ms", "ms", "lower", f"workload_p50_ms on {_TCP}, {_MP}"),
    PerLayer(
        "client.execute_ms", "ms", "lower",
        f"workload_p50_ms and cpu_ms_per_workload on {_K1}; about nothing on stream_*",
    ),
    PerLayer("client.executed_vertices", "count", "lower", f"client.execute_ms on {_K1}"),
    PerLayer("client.loaded_vertices", "count", "higher", f"workload_p50_ms on {_K2}"),
    PerLayer("client.retries", "count", "lower", "workload_tail_ms where backpressure bites"),
    # reuse
    PerLayer("reuse.plan_ms", "ms", "lower", f"workload_p50_ms on {_K2}"),
    PerLayer("reuse.plan_us_per_vertex", "us/vertex", "lower", "reuse.plan_ms"),
    PerLayer(
        "reuse.load_ratio", "ratio", "higher",
        f"throughput_wps on {_K2}: a drop must show as lower throughput there",
    ),
    # service
    PerLayer("service.plan_ms", "ms", "lower", f"workload_p50_ms on {_K2}, {_TCP}"),
    PerLayer("service.commit_ms", "ms", "lower", f"workload_p50_ms on {_K1}, {_TCP}"),
    PerLayer("service.queue_wait_ms", "ms", "lower", f"workload_tail_ms on {_TCP}"),
    PerLayer("service.merge_batch_ms", "ms", "lower", f"throughput_wps on {_TCP}"),
    PerLayer(
        "service.merge_busy_ratio", "ratio", "lower",
        f"queue wait and workload_tail_ms on {_TCP} rise as this nears 1, "
        "before throughput stops",
    ),
    PerLayer("service.mean_batch_size", "count", "higher", f"throughput_wps on {_TCP}"),
    PerLayer("service.plan_cache_hit_rate", "ratio", "higher", "service.plan_ms"),
    PerLayer("service.dirty_per_publish", "count", "lower", "service.merge_batch_ms"),
    PerLayer("service.overload_rejections", "count", "lower", "failed scripts, client.retries"),
    # eg
    PerLayer("eg.update_batch_us_per_vertex", "us/vertex", "lower", "service.merge_batch_ms"),
    PerLayer("eg.utility_dirty_per_batch", "count", "lower", "materialization.select_ms"),
    PerLayer("eg.vertices_final", "count", "lower", f"service.merge_batch_ms on {_TCP}"),
    PerLayer("eg.edges_final", "count", "lower", f"service.merge_batch_ms on {_TCP}"),
    # materialization
    PerLayer(
        "materialization.select_ms", "ms", "lower",
        f"service.merge_batch_ms on {_TCP}; throughput_wps on {_K1}",
    ),
    PerLayer(
        "materialization.materialized_vertices", "count", "higher",
        f"reuse.load_ratio on {_K2}",
    ),
    PerLayer("materialization.evicted", "count", "lower", f"store_amplification on {_K1}"),
    PerLayer(
        "materialization.budget_fill_ratio", "ratio", "higher",
        f"store_amplification and throughput_wps on {_K1} (binding budget)",
    ),
    # storage
    PerLayer("storage.put_ms", "ms", "lower", f"throughput_wps on {_K1}"),
    PerLayer("storage.get_hot_ms", "ms", "lower", f"workload_p50_ms on {_K2}"),
    PerLayer(
        "storage.get_cold_ms", "ms", "lower",
        f"workload_p50_ms on {_K2}; opposite-sign risk against storage.put_ms on {_K1}",
    ),
    PerLayer("storage.put_calls", "count", "lower", f"throughput_wps on {_K1}"),
    PerLayer("storage.get_calls", "count", "lower", f"workload_p50_ms on {_K2}"),
    PerLayer("storage.hot_hit_ratio", "ratio", "higher", f"workload_p50_ms on {_K2}"),
    PerLayer("storage.promotions", "count", "lower", f"workload_p50_ms on {_K2}"),
    PerLayer("storage.demotions", "count", "lower", f"throughput_wps on {_K1}"),
    PerLayer("storage.bytes_demoted", "bytes", "lower", f"throughput_wps on {_K1}"),
    PerLayer("storage.physical_bytes", "bytes", "lower", "store_amplification, peak_rss_mb"),
    PerLayer("storage.logical_bytes", "bytes", "higher", "store_amplification"),
    PerLayer("storage.probe_put_us", "us", "lower", "storage.put_ms"),
    PerLayer("storage.probe_get_hot_us", "us", "lower", "storage.get_hot_ms"),
    PerLayer("storage.probe_get_cold_us", "us", "lower", "storage.get_cold_ms"),
    # transport
    PerLayer("transport.ping_rtt_us", "us", "lower", f"workload_p50_ms on {_TCP}, {_MP}"),
    PerLayer("transport.plan_rtt_ms", "ms", "lower", f"workload_p50_ms on {_TCP}"),
    PerLayer("transport.commit_rtt_ms", "ms", "lower", f"workload_p50_ms on {_TCP}"),
    PerLayer("transport.wire_encode_ms", "ms", "lower", f"cpu_ms_per_workload on {_TCP}"),
    PerLayer("transport.encode_mb_s", "MB/s", "higher", "transport.commit_rtt_ms"),
    PerLayer("transport.decode_mb_s", "MB/s", "higher", "transport.commit_rtt_ms"),
    PerLayer("transport.encode_repeat_mb_s", "MB/s", "higher", "transport.commit_rtt_ms"),
    PerLayer(
        "transport.wire_bytes_per_workload", "bytes", "lower",
        f"workload_p50_ms and cpu_ms_per_workload on {_TCP} and, through the "
        f"coordinator-to-worker hop, {_MP}",
    ),
    PerLayer("transport.dedup_ref_ratio", "ratio", "higher", "transport.wire_bytes_per_workload"),
    PerLayer("transport.shed_total", "count", "lower", "failed scripts, client.retries"),
    PerLayer("transport.pool_retries", "count", "lower", "workload_tail_ms"),
    # shard
    PerLayer("shard.route_us", "us", "lower", f"workload_p50_ms on {_MP}"),
    PerLayer("shard.plan_ms", "ms", "lower", f"workload_p50_ms on {_MP} only"),
    PerLayer("shard.commit_ms", "ms", "lower", f"workload_p50_ms on {_MP} only"),
    PerLayer("shard.cross_shard_ratio", "ratio", "lower", "shard.plan_ms, shard.commit_ms"),
    PerLayer("shard.remote_planned_loads", "count", "lower", "shard.plan_ms"),
    PerLayer("shard.stub_edges", "count", "lower", "shard.commit_ms"),
    PerLayer("shard.worker_merge_ms", "ms", "lower", f"shard.commit_ms, throughput_wps on {_MP}"),
    PerLayer("shard.worker_cpu_s", "s", "lower", f"cpu_ms_per_workload on {_MP}"),
    # obs
    PerLayer("obs.harness_trace_overhead_ratio", "ratio", "lower", "nothing: reported only"),
    PerLayer("obs.recorder_spans", "count", "lower", "nothing: reported only"),
    PerLayer(
        "obs.machine_slowdown", "ratio", "lower",
        "nothing: divide this run's per-layer times by it to read them at reference speed",
    ),
    PerLayer(
        "obs.unattributed_ratio", "ratio", "lower",
        "nothing: share of the traced round trip no layer span covers",
    ),
]
