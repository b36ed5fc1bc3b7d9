"""Swarm experiment: N concurrent tenants against one EG service.

This is the service subsystem's acceptance experiment.  ``run_swarm``
drives ``clients`` concurrent :class:`~repro.service.client.ServiceClient`
sessions, each submitting ``rounds`` synthetic sleep-operation workloads
with heavily shared prefixes, against one background service of any
topology (:func:`build_service`: an
:class:`~repro.service.core.EGService`, or a sharding coordinator over
worker-process shards).  The merge worker lingers
``batch_linger_s`` so near-simultaneous commits coalesce into batches (one
materialization pass per batch).  ``run_swarm``'s default of 150 ms is a
*demonstration* value, chosen so the acceptance run shows batches about as
large as the client count; it is also that run's request latency and
throughput (every commit waits out the sleep — docs/SERVICE.md, "The swarm
experiment"), so quote those numbers with the linger they ran at.  The
service's own default is 0.

Everything that reaches the Experiment Graph is machine-independent: the
workloads declare virtual costs (:class:`VirtualCostModel` records those
instead of wall time), payload sizes are deterministic, and
``MaterializeAll`` keeps the materialized set order-insensitive.  The
experiment therefore ends with a strong correctness check — the final EG
must be **bit-identical** (vertices, edges, bookkeeping, materialized
set) to a sequential replay of the same workloads through a plain
:class:`CollaborativeOptimizer` in the service's recorded commit order.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..client.executor import VirtualCostModel
from ..dataframe import DataFrame
from ..eg.graph import ExperimentGraph
from ..eg.storage import ArtifactStore
from ..materialization import MaterializeAll
from ..server.service import CollaborativeOptimizer
from ..service import EGService, ServiceClient, ServiceStats
from ..workloads.synthetic_dag import (
    SleepJoinOperation,
    SleepOperation,
    wide_workload_script,
)

__all__ = [
    "SwarmResult",
    "build_service",
    "run_swarm",
    "swarm_family",
    "eg_fingerprint",
    "swarm_script",
    "swarm_sources",
    "sharded_swarm_script",
    "sharded_swarm_sources",
]


# ----------------------------------------------------------------------
# EG fingerprinting
# ----------------------------------------------------------------------
def eg_fingerprint(eg: ExperimentGraph) -> str:
    """Canonical digest of an EG's full observable state.

    Covers every vertex's bookkeeping (frequency, compute time, size,
    materialized flag, quality, last_seen), every edge with its operation
    hash, the materialized set, and the workload counter — two EGs with
    equal fingerprints are interchangeable for planning and accounting.
    """
    vertices = sorted(
        (
            v.vertex_id,
            v.artifact_type.value,
            v.frequency,
            round(v.compute_time, 9),
            v.size,
            v.materialized,
            round(v.quality, 9),
            v.is_source,
            v.last_seen,
        )
        for v in eg.vertices()
    )
    edges = sorted(
        (src, dst, attrs.get("op_hash"), attrs.get("order", 0))
        for src, dst, attrs in eg.graph.edges(data=True)
    )
    state = {
        "vertices": vertices,
        "edges": edges,
        "materialized": sorted(eg.materialized_ids()),
        "workloads_observed": eg.workloads_observed,
    }
    payload = json.dumps(state, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Workload family (deterministic, shared prefixes)
# ----------------------------------------------------------------------
def swarm_script(
    client: int, round_index: int, op_seconds: float = 0.02
) -> Callable[[Any, Mapping[str, Any]], None]:
    """The workload client ``client`` runs in round ``round_index``.

    All scripts share one source and the per-branch sleep chains, so
    tenants keep hitting each other's artifacts; branch/depth counts vary
    deterministically with (client, round) to keep the union growing.
    """
    n_branches = 2 + (client + round_index) % 3
    ops_per_branch = 2 + round_index % 2
    return wide_workload_script(
        n_branches=n_branches, ops_per_branch=ops_per_branch, op_seconds=op_seconds
    )


def swarm_sources() -> dict[str, DataFrame]:
    """The shared source dataset (fixed seed — identical for every tenant)."""
    rng = np.random.default_rng(7)
    return {"wide": DataFrame({"x": rng.normal(size=64), "y": rng.normal(size=64)})}


# ----------------------------------------------------------------------
# Sharded workload family (one lineage group per shard, periodic joins)
# ----------------------------------------------------------------------
def _sharded_source_names(shards: int) -> list[str]:
    from ..shard import balanced_source_names

    return balanced_source_names(shards, shards, prefix="swarm")


def sharded_swarm_sources(shards: int) -> dict[str, DataFrame]:
    """One source dataset per lineage group, each routing to its own shard.

    Names come from :func:`repro.shard.balanced_source_names`, so group
    ``g`` deterministically lands on shard ``g`` — the workload mix stays
    balanced instead of depending on hash luck.
    """
    sources: dict[str, DataFrame] = {}
    for group, name in enumerate(_sharded_source_names(shards)):
        rng = np.random.default_rng(100 + group)
        sources[name] = DataFrame(
            {"x": rng.normal(size=64), "y": rng.normal(size=64)}
        )
    return sources


def sharded_swarm_script(
    client: int, round_index: int, shards: int, op_seconds: float = 0.02
) -> Callable[[Any, Mapping[str, Any]], None]:
    """The workload tenant ``client`` runs in round ``round_index``.

    Each tenant works its group's lineage (``client % shards``) with a
    sleep chain whose depth varies deterministically with (client, round)
    — tenants in one group keep hitting each other's artifacts on one
    shard.  Every third round ends in a cross-group
    :class:`SleepJoinOperation` (a virtual-cost row concat), so the run
    exercises cross-shard routing, edge stubs, and stitched planning,
    not just disjoint per-shard traffic.
    """
    names = _sharded_source_names(shards)
    group = client % shards
    depth = 2 + (client + round_index) % 3

    def script(workspace: Any, sources: Mapping[str, Any]) -> None:
        node = workspace.source(names[group], sources[names[group]])
        for step in range(depth):
            node = node.add(
                SleepOperation(branch=group, step=step, seconds=op_seconds)
            )
        if shards > 1 and round_index % 3 == 2:
            other = names[(group + 1) % shards]
            node = node.add(
                SleepJoinOperation(branch=group, step=depth, seconds=op_seconds),
                workspace.source(other, sources[other]),
            )
        node.terminal()

    return script


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------
@dataclass
class SwarmResult:
    """Outcome of one swarm run."""

    clients: int
    rounds: int
    workloads: int
    wall_seconds: float
    #: frozen service-wide counters at shutdown
    stats: ServiceStats = field(repr=False, default=None)  # type: ignore[assignment]
    #: commit order as ``client:round`` labels
    commit_labels: list[str] = field(default_factory=list)
    eg_vertices: int = 0
    eg_edges: int = 0
    eg_materialized: int = 0
    store_bytes: int = 0
    concurrent_fingerprint: str = ""
    replay_fingerprint: str | None = None
    #: EG shards the run used (1 = the classic single-service swarm; more
    #: = one worker process per shard)
    shards: int = 1
    #: per-shard frozen stats (empty on single-service runs)
    shard_stats: list[ServiceStats] = field(default_factory=list, repr=False)
    #: cross-partition edge stubs registered by the end of the run
    stub_edges: int = 0
    #: merge linger the service ran with (it bounds p50 and throughput)
    batch_linger_s: float = 0.0
    #: how tenants reached the service: "inproc" or "tcp"
    transport: str = "inproc"
    #: server-side transport counters (bytes, frames, dedup refs)
    wire_stats: dict[str, float] = field(default_factory=dict, repr=False)
    #: client-side pool counters (dedup refs sent, retries)
    client_wire_stats: dict[str, int] = field(default_factory=dict, repr=False)
    #: Prometheus text render of the service registry at shutdown
    #: (sharded runs concatenate coordinator + per-shard sections)
    metrics_text: str = field(default="", repr=False)
    #: flight-recorder counters at shutdown (empty when recorder off)
    recorder_stats: dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def fingerprint_match(self) -> bool | None:
        """Concurrent EG ≡ sequential commit-order replay (None: no replay)."""
        if self.replay_fingerprint is None:
            return None
        return self.replay_fingerprint == self.concurrent_fingerprint

    @property
    def throughput(self) -> float:
        """Workloads committed per wall-clock second."""
        return self.workloads / self.wall_seconds if self.wall_seconds > 0 else 0.0


def swarm_family(
    shards: int, op_seconds: float
) -> tuple[Callable[[int, int], Callable[[Any, Mapping[str, Any]], None]], dict]:
    """``(script_for(client, round), sources)`` of the workload family a
    swarm over ``shards`` shards runs: the shared-prefix family on one
    shard, one lineage group per shard with periodic joins otherwise."""
    if shards > 1:
        return (
            lambda client, round_index: sharded_swarm_script(
                client, round_index, shards, op_seconds
            ),
            sharded_swarm_sources(shards),
        )
    return (
        lambda client, round_index: swarm_script(client, round_index, op_seconds),
        swarm_sources(),
    )


def build_service(
    shards: int = 1,
    *,
    store: ArtifactStore | None = None,
    flight_recorder: Any | None = None,
    batch_linger_s: float = 0.0,
    request_timeout_s: float = 30.0,
) -> Any:
    """Construct a background materialize-all service of any topology.

    ``shards == 1`` is one :class:`~repro.service.core.EGService` (over
    ``store``, if given); ``shards > 1`` a
    :class:`~repro.shard.ProcessShardCoordinator` with one worker process
    per shard.
    """
    if shards > 1 and store is not None:
        raise ValueError(
            "a custom store cannot cross process boundaries; each shard "
            "worker owns its partition's store"
        )
    common: dict[str, Any] = {
        "batch_linger_s": batch_linger_s,
        "request_timeout_s": request_timeout_s,
        "flight_recorder": flight_recorder,
    }
    if shards > 1:
        from ..shard import ProcessShardCoordinator

        return ProcessShardCoordinator(shards, **common)
    return EGService(MaterializeAll(), store=store, background=True, **common)


def _replay(
    commit_labels: list[str],
    script_for: Callable[[int, int], Callable[[Any, Mapping[str, Any]], None]],
    sources: Mapping[str, Any],
) -> ExperimentGraph:
    """Re-run a swarm's workloads through a plain single-tenant optimizer.

    Follows the service's recorded commit order, so the resulting single
    graph must match the concurrent run's (flattened) EG exactly
    (``eg_fingerprint`` equality).
    """
    optimizer = CollaborativeOptimizer(MaterializeAll(), cost_model=VirtualCostModel())
    for label in commit_labels:
        client, round_index = (int(part) for part in label.split(":"))
        optimizer.run_script(script_for(client, round_index), sources)
    return optimizer.eg


def replay_sequentially(commit_labels: list[str], op_seconds: float) -> ExperimentGraph:
    """Sequential replay of a single-service swarm's commit log."""
    return _replay(commit_labels, *swarm_family(1, op_seconds))


def run_swarm(
    clients: int = 8,
    rounds: int = 3,
    op_seconds: float = 0.02,
    batch_linger_s: float = 0.15,
    replay: bool = True,
    store: ArtifactStore | None = None,
    shards: int = 1,
    transport: str | None = None,
    flight_recorder: Any | None = None,
) -> SwarmResult:
    """Run the swarm and (optionally) verify against a sequential replay.

    Tenant ``index`` runs its family's script for each round, in its own
    thread and session, against one background service; the service is
    then stopped and its commit log replayed sequentially.

    ``store`` overrides the service's artifact store (e.g. a
    :class:`~repro.storage.TieredArtifactStore` with a small hot budget to
    exercise demotions under concurrency); the fingerprint check is
    store-independent — ``MaterializeAll`` and the virtual costs make the
    merged EG identical regardless of where artifact bytes live.

    ``shards`` picks the topology (:func:`build_service`); ``shards > 1``
    runs one worker process per shard and the sharded workload family —
    one lineage group per shard with periodic cross-group joins.  The
    fingerprint check then compares the *flattened* partitioned EG
    (read back from the workers' checkpoints) against the sequential
    single-graph replay, and must pass for every topology.

    ``transport="tcp"`` routes every tenant through the async multiplexed
    binary transport (:mod:`repro.transport`) instead of in-process
    calls: one :class:`~repro.transport.AsyncTransportServer` in front of
    the service (a second hop when the shards are worker processes), one
    :class:`~repro.transport.ConnectionPool` shared by every tenant
    thread (multiplexing carries many logical clients per socket).  The
    fingerprint check is transport-independent — the merged EG must be
    bit-identical either way.

    ``flight_recorder`` passes through to the service's telemetry plane:
    ``None`` keeps the background default (on), ``False`` runs dark, and
    a :class:`~repro.obs.plane.FlightRecorder` instance lets the caller
    inspect kept traces after the run.  The result captures the
    recorder's final counters and the registry's Prometheus text before
    shutdown.
    """
    if transport not in (None, "inproc", "tcp"):
        raise ValueError(f"unknown transport {transport!r} (expected 'inproc' or 'tcp')")
    service = build_service(
        shards,
        store=store,
        flight_recorder=flight_recorder,
        batch_linger_s=batch_linger_s,
        request_timeout_s=60.0,
    )
    script_for, sources = swarm_family(shards, op_seconds)
    server = pool = None
    if transport == "tcp":
        from ..transport import AsyncTransportServer, ConnectionPool

        server = AsyncTransportServer(
            service, max_workers=min(32, max(8, clients // 2))
        )
        host, port = server.start()
        pool = ConnectionPool(
            host,
            port,
            size=min(8, max(2, clients // 8)),
            timeout_s=120.0,
        )
    errors: list[BaseException] = []

    def tenant(index: int) -> None:
        try:
            if pool is not None:
                from ..transport import TransportServiceClient

                client_cm: Any = TransportServiceClient(
                    name=f"client-{index}", cost_model=VirtualCostModel(), pool=pool
                )
            else:
                client_cm = ServiceClient(
                    service, name=f"client-{index}", cost_model=VirtualCostModel()
                )
            with client_cm as client:
                for round_index in range(rounds):
                    client.run_script(
                        script_for(index, round_index),
                        sources,
                        label=f"{index}:{round_index}",
                    )
        except BaseException as error:  # noqa: BLE001 - surfaced after join
            errors.append(error)

    threads = [
        threading.Thread(target=tenant, args=(index,), name=f"tenant-{index}")
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - started
    wire_stats: dict = {}
    client_wire_stats: dict = {}
    if server is not None:
        # pool first: the server samples per-connection dedup counters
        # when a connection closes
        client_wire_stats = pool.wire_stats()
        pool.close()
        wire_stats = server.wire_stats()
        server.stop()
    # snapshot telemetry before stop(): shutdown uninstalls the recorder
    # (a coordinator's metrics_text appends the per-shard sections)
    metrics_text = service.metrics_text()
    recorder = service.flight_recorder
    recorder_stats = recorder.stats() if recorder is not None else {}
    service.stop()
    if errors:
        raise errors[0]

    if shards > 1:
        # worker processes persist their partitions on stop
        from ..shard.persistence import load_partitioned_eg

        partitioned = load_partitioned_eg(service.persist_dir)
        eg = partitioned.flatten()
        store_bytes = sum(
            partition.store.total_bytes for partition in partitioned.partitions
        )
    else:
        eg = service.eg
        store_bytes = eg.store.total_bytes
    log = sorted(service.commit_log(), key=lambda record: record.commit_index)
    result = SwarmResult(
        clients=clients,
        rounds=rounds,
        workloads=len(log),
        wall_seconds=wall_seconds,
        stats=service.stats(),
        commit_labels=[record.label for record in log],
        eg_vertices=eg.num_vertices,
        eg_edges=eg.graph.number_of_edges(),
        eg_materialized=len(eg.materialized_ids()),
        store_bytes=store_bytes,
        concurrent_fingerprint=eg_fingerprint(eg),
        shards=shards,
        shard_stats=service.shard_stats() if shards > 1 else [],
        stub_edges=service.partitioned.stub_count if shards > 1 else 0,
        batch_linger_s=batch_linger_s,
        transport="tcp" if server is not None else "inproc",
        wire_stats=wire_stats,
        client_wire_stats=client_wire_stats,
        metrics_text=metrics_text,
        recorder_stats=recorder_stats,
    )
    if replay:
        result.replay_fingerprint = eg_fingerprint(
            _replay(result.commit_labels, script_for, sources)
        )
    return result
