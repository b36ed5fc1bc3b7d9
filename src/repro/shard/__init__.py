"""Sharded Experiment Graph: partition-aware EG + cross-shard coordinator.

The scale-out layer over the single-graph service stack:

* :mod:`repro.shard.routing` — root-lineage fingerprints deciding which
  partition owns which vertex;
* :mod:`repro.shard.partition` — :class:`PartitionedExperimentGraph`,
  N ordinary Experiment Graphs joined by explicit cross-partition edge
  stubs, with composed union / utility / flatten;
* :mod:`repro.shard.service` — :class:`ProcessShardCoordinator`, the one
  routing and plan-stitching coordinator over N shard worker processes
  (one merge worker + snapshot chain per shard);
* :mod:`repro.shard.proc` — :class:`ShardWorkerProcess`, which hosts one
  shard's ``EGService`` behind the binary transport, and
  :class:`RemoteShard`, the ``EGService``-shaped handle the coordinator
  calls it through;
* :mod:`repro.shard.persistence` — save/load of all partitions plus the
  stub registry.
"""

from .partition import EdgeStub, PartitionedExperimentGraph, SplitWorkload
from .persistence import (
    load_partitioned_eg,
    save_partitioned_eg,
    write_partition_manifest,
)
from .proc import RemoteShard, ShardWorkerProcess, WorkerSpec
from .routing import (
    RoutedWorkload,
    balanced_source_names,
    lineage_fingerprint,
    route_workload,
    shard_of_source,
)
from .service import (
    ProcessShardCoordinator,
    ShardedCommitResult,
    ShardedUpdateTicket,
    StitchedSnapshot,
)

__all__ = [
    "EdgeStub",
    "PartitionedExperimentGraph",
    "SplitWorkload",
    "RoutedWorkload",
    "balanced_source_names",
    "lineage_fingerprint",
    "route_workload",
    "shard_of_source",
    "ShardedCommitResult",
    "ShardedUpdateTicket",
    "StitchedSnapshot",
    "ProcessShardCoordinator",
    "RemoteShard",
    "ShardWorkerProcess",
    "WorkerSpec",
    "save_partitioned_eg",
    "load_partitioned_eg",
    "write_partition_manifest",
]
