"""Sharded merge over worker processes: convergence and throughput.

Not a figure from the paper: this gates the sharded Experiment Graph
service.  Two workload streams — four root-lineage groups with shared
per-group prefixes and periodic cross-group joins — are committed through
:class:`~repro.shard.ProcessShardCoordinator` at 4 shards, one worker
process per shard behind the binary transport:

* ``test_sharded_merge_throughput`` — 16 tenants committing one after
  the other, so the commit order is the submission order;
* ``test_multiproc_merge_throughput`` — 8 tenant threads committing
  concurrently, with wider payloads that keep the merge path CPU-bound.

The contract: each run ends bit-identical, after flattening the workers'
checkpoints, to a plain sequential ``Updater`` replay in the
coordinator's commit order; the stub registry holds the cross-group
edges, and every worker merged pieces.  The reported workloads/s is
wall clock over the whole stream, worker hops included.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
from conftest import report, scaled

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization import MaterializeAll
from repro.shard import ProcessShardCoordinator, balanced_source_names
from repro.shard.persistence import load_partitioned_eg

N_SHARDS = 4
JOIN_EVERY = 4  # every JOIN_EVERY-th round ends in a cross-group join
TIMED_RUNS = 3


class Step(DataOperation):
    def __init__(self, kind, tag):
        super().__init__(f"{kind}-step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class Join(DataOperation):
    def __init__(self, kind, tag):
        super().__init__(f"{kind}-join", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data[0]


@dataclass(frozen=True)
class Stream:
    """One tenant workload stream over ``N_SHARDS`` lineage groups."""

    kind: str
    tenants: int
    rounds: int
    prefix: int  # shared per-group chain every tenant reuses
    suffix: int  # per-(tenant, round) private branch
    frame_floats: int  # payload width

    @property
    def names(self) -> list[str]:
        return balanced_source_names(N_SHARDS, N_SHARDS, prefix=self.kind)

    def frame(self, offset: float = 0.0) -> DataFrame:
        return DataFrame({"x": np.arange(float(self.frame_floats)) + offset})

    def workload(self, tenant: int, round_index: int) -> WorkloadDAG:
        """Group chain prefix + a private suffix; periodically a cross join."""
        names, kind = self.names, self.kind
        group = tenant % N_SHARDS
        dag = WorkloadDAG()
        current = dag.add_source(names[group], payload=self.frame(group))
        for level in range(self.prefix):
            current = dag.add_operation([current], Step(kind, (group, level)))
            dag.vertex(current).record_result(
                self.frame(level), compute_time=0.001 * (level + 1)
            )
        for leaf in range(self.suffix):
            current = dag.add_operation([current], Step(kind, (tenant, round_index, leaf)))
            dag.vertex(current).record_result(
                self.frame(leaf), compute_time=0.002 * (leaf + 1)
            )
        if round_index % JOIN_EVERY == JOIN_EVERY - 1:
            other_group = (group + 1) % N_SHARDS
            other = dag.add_source(names[other_group], payload=self.frame(other_group))
            current = dag.add_operation([current, other], Join(kind, (tenant, round_index)))
            dag.vertex(current).record_result(self.frame(9.0), compute_time=0.01)
        dag.mark_terminal(current)
        return dag

    def replay(self, labels) -> ExperimentGraph:
        """Plain sequential ``Updater`` replay in ``labels`` order."""
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        for label in labels:
            tenant, round_index = (int(part) for part in label.split(":"))
            updater.update(self.workload(tenant, round_index))
        return eg


SEQUENTIAL = Stream(
    "bench",
    tenants=16,
    rounds=scaled(8, minimum=3),
    prefix=scaled(12, minimum=4),
    suffix=4,
    frame_floats=4,
)
CONCURRENT = Stream(
    "mproc",
    tenants=8,
    rounds=scaled(6, minimum=2),
    prefix=scaled(8, minimum=3),
    suffix=3,
    frame_floats=128,
)


def commit_sequentially(service, stream: Stream) -> None:
    sessions = [service.open_session(f"tenant-{t}") for t in range(stream.tenants)]
    for round_index in range(stream.rounds):
        for tenant in range(stream.tenants):
            service.commit(
                sessions[tenant].session_id,
                stream.workload(tenant, round_index),
                label=f"{tenant}:{round_index}",
            )


def commit_concurrently(service, stream: Stream) -> None:
    sessions = [service.open_session(f"tenant-{t}") for t in range(stream.tenants)]
    errors: list[BaseException] = []

    def tenant_thread(tenant: int) -> None:
        try:
            for round_index in range(stream.rounds):
                service.commit(
                    sessions[tenant].session_id,
                    stream.workload(tenant, round_index),
                    label=f"{tenant}:{round_index}",
                )
        except BaseException as error:  # noqa: BLE001 - surfaced after join
            errors.append(error)

    threads = [
        threading.Thread(target=tenant_thread, args=(tenant,))
        for tenant in range(stream.tenants)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_stream(benchmark, stream: Stream, commit, title: str) -> None:
    """Commit ``stream`` through 4 worker processes ``TIMED_RUNS`` times,
    then gate the last run's convergence and record its exact counters."""
    runs = []

    def run():
        service = ProcessShardCoordinator(N_SHARDS, flight_recorder=False)
        try:
            started = time.perf_counter()
            commit(service, stream)
            seconds = time.perf_counter() - started
        finally:
            service.stop()
        runs.append((service, seconds))

    benchmark.pedantic(run, rounds=TIMED_RUNS, iterations=1)
    service, _ = runs[-1]
    labels = [record.label for record in service.commit_log()]
    workloads = len(labels)
    assert workloads == stream.tenants * stream.rounds
    rates = sorted(workloads / seconds for _, seconds in runs)

    partitioned = load_partitioned_eg(service.persist_dir)
    flat = partitioned.flatten()
    merged_pieces = [stats.merged_workloads for stats in service.shard_stats()]
    report(
        f"{title}: {N_SHARDS} worker processes x {stream.tenants} tenants, "
        f"{workloads} workloads ({flat.num_vertices}-vertex EG, "
        f"{service.partitioned.stub_count} stubs)",
        "  wall clock: "
        + " ".join(f"{rate:.1f}" for rate in rates)
        + f" workloads/s ({TIMED_RUNS} runs)",
        "  per-worker merge seconds: "
        + " ".join(
            f"{stats.merge_seconds_total * 1e3:.1f}ms"
            for stats in service.shard_stats()
        ),
    )

    # convergence gate: the flattened checkpoints == sequential replay in
    # the coordinator's commit order
    replay = stream.replay(labels)
    assert eg_fingerprint(flat) == eg_fingerprint(replay)
    assert flat.materialized_ids() == replay.materialized_ids()
    assert flat.recreation_costs() == replay.recreation_costs()

    # partitioning sanity: cross-group joins leave stubs, load spreads
    assert service.partitioned.stub_count > 0
    assert all(pieces > 0 for pieces in merged_pieces)

    prefix = f"vc_exact_{'shard' if stream is SEQUENTIAL else 'mproc'}"
    benchmark.extra_info[f"{prefix}_workloads"] = workloads
    benchmark.extra_info[f"{prefix}_eg_vertices"] = flat.num_vertices
    benchmark.extra_info[f"{prefix}_stub_edges"] = service.partitioned.stub_count
    benchmark.extra_info[f"{prefix}_materialized"] = len(flat.materialized_ids())
    benchmark.extra_info[f"{prefix}_merged_pieces"] = sum(merged_pieces)


def test_sharded_merge_throughput(benchmark):
    run_stream(benchmark, SEQUENTIAL, commit_sequentially, "Sharded merge")


def test_multiproc_merge_throughput(benchmark):
    run_stream(benchmark, CONCURRENT, commit_concurrently, "Multi-process merge")
