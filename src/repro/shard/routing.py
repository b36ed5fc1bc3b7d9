"""Root-lineage routing: which EG partition owns which vertex.

Every vertex of a workload DAG is assigned a *lineage fingerprint* — the
digest of the set of raw source datasets reachable upstream of it.  Vertex
ids are content addresses, so the fingerprint is a pure function of the
vertex id's derivation and is identical across workloads and processes:
wherever an artifact appears, it routes to the same partition.

Single-input operations preserve the root set, so an entire
transformation chain below its last join shares one fingerprint and lands
on one partition — partitions are the connected components of the
root-dataset lineage, exactly the granularity the paper's Experiment
Graph unions grow at.  Multi-input operations (joins/concats through
supernodes) take the union of their inputs' root sets; their output may
therefore route to a *different* partition than either input, and the
edges into the supernode become cross-partition stubs
(:mod:`repro.shard.partition`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..graph.dag import WorkloadDAG, source_vertex_id

__all__ = [
    "RoutedWorkload",
    "lineage_fingerprint",
    "route_workload",
    "shard_of_source",
    "balanced_source_names",
]


def lineage_fingerprint(root_ids: frozenset[str] | set[str]) -> str:
    """Digest of a sorted root-source id set (the routing key)."""
    digest = hashlib.sha256(b"lineage")
    for root in sorted(root_ids):
        digest.update(b"\x00")
        digest.update(root.encode("utf-8"))
    return digest.hexdigest()


def _shard_of_fingerprint(fingerprint: str, n_shards: int) -> int:
    return int(fingerprint[:16], 16) % n_shards


def shard_of_source(name: str, n_shards: int) -> int:
    """The partition a raw source dataset (and its whole chain) routes to."""
    return _shard_of_fingerprint(
        lineage_fingerprint({source_vertex_id(name)}), n_shards
    )


def balanced_source_names(
    groups: int, n_shards: int, prefix: str = "ds"
) -> list[str]:
    """Deterministic source names where group ``g`` routes to shard ``g % n``.

    Routing is hash-based, so arbitrary names can collide onto one shard;
    experiments and benchmarks that want a *balanced* spread pick names
    whose lineage hash lands on the intended shard.  The search is a
    deterministic salt scan, so every process agrees on the names.
    """
    names: list[str] = []
    for group in range(groups):
        target = group % n_shards
        salt = 0
        while True:
            candidate = f"{prefix}{group}" if salt == 0 else f"{prefix}{group}~{salt}"
            if shard_of_source(candidate, n_shards) == target:
                names.append(candidate)
                break
            salt += 1
    return names


@dataclass
class RoutedWorkload:
    """Pure routing decision for one workload (no registry mutation)."""

    n_shards: int
    #: vertex id -> owning partition, for every vertex in the workload
    owner: dict[str, int] = field(default_factory=dict)
    #: vertex id -> lineage fingerprint
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: cross-partition edges as (src, dst) in workload edge order
    cross_edges: list[tuple[str, str]] = field(default_factory=list)

    @property
    def involved_shards(self) -> list[int]:
        """Partitions owning at least one vertex, ascending."""
        return sorted(set(self.owner.values()))

    def shard_vertex_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for shard in self.owner.values():
            counts[shard] = counts.get(shard, 0) + 1
        return counts

    def home_shard(self) -> int:
        """The partition owning the largest share of the workload.

        Ties break to the lowest shard id, so the choice is deterministic.
        Cross-shard plans treat the home shard's artifacts as local (hot)
        and every other partition's as remote (cold).
        """
        counts = self.shard_vertex_counts()
        return max(counts, key=lambda shard: (counts[shard], -shard))


def route_workload(workload: WorkloadDAG, n_shards: int) -> RoutedWorkload:
    """Assign every workload vertex to a partition by root lineage.

    One topological pass: a source's root set is itself; a derived
    vertex's root set is the union of its parents'.  Root sets only grow
    along edges, so the induced partition-level graph is acyclic and a
    stitched topological pass over partitions terminates
    (:meth:`repro.shard.partition.PartitionedExperimentGraph.recreation_costs`).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    routed = RoutedWorkload(n_shards=n_shards)
    roots: dict[str, frozenset[str]] = {}
    for vertex_id in workload.topological_order():
        vertex = workload.vertex(vertex_id)
        if vertex.is_source:
            merged = frozenset({vertex_id})
        else:
            merged = frozenset().union(
                *(roots[parent] for parent in workload.parents(vertex_id))
            )
        roots[vertex_id] = merged
        fingerprint = lineage_fingerprint(merged)
        routed.fingerprints[vertex_id] = fingerprint
        routed.owner[vertex_id] = _shard_of_fingerprint(fingerprint, n_shards)
    for src, dst, _edge in workload.edges():
        if routed.owner[src] != routed.owner[dst]:
            routed.cross_edges.append((src, dst))
    return routed
