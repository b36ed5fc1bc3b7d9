"""Disk persistence for a partitioned Experiment Graph.

Layout under the target directory::

    manifest.json     — format version, partition count, global workload
                        counter, and every cross-partition edge stub
    partition0/       — ordinary EG persistence v2 (graph.json + store/)
    partition1/
    ...

Each partition round-trips through the existing
:func:`repro.eg.persistence.save_eg` / :func:`~repro.eg.persistence.load_eg`
pair, so partitioned persistence inherits v2's incremental store layout and
error reporting.  Stubs persist the same fields v2 keeps for ordinary edges
(operation hash/name and input order — not ``op_params``); the owner map is
not persisted because it is recomputed from partition membership, which is
authoritative.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..eg.persistence import EGPersistenceError, load_eg, save_eg
from .partition import EdgeStub, PartitionedExperimentGraph

__all__ = [
    "save_partitioned_eg",
    "load_partitioned_eg",
    "write_partition_manifest",
]

_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"


def write_partition_manifest(
    peg: PartitionedExperimentGraph, directory: str | Path
) -> None:
    """Write only ``manifest.json`` for ``peg`` (stubs + global counter).

    Used directly by the multi-process coordinator, whose partitions are
    persisted *by the workers that own them*: each worker writes its own
    ``partition{i}/`` on graceful stop, and the coordinator — the sole
    authority on the stub registry and the global commit counter —
    completes the layout with this manifest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": _FORMAT_VERSION,
        "n_partitions": peg.n_partitions,
        "workloads_observed": peg.workloads_observed,
        "stubs": [
            {
                "src": stub.src,
                "dst": stub.dst,
                "src_partition": stub.src_partition,
                "dst_partition": stub.dst_partition,
                "op_hash": stub.op_hash,
                "op_name": stub.op_name,
                "order": stub.order,
            }
            for stub in sorted(peg.stubs(), key=lambda s: (s.src, s.dst))
        ],
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest))


def save_partitioned_eg(
    peg: PartitionedExperimentGraph, directory: str | Path
) -> None:
    """Persist every partition plus the stub registry to a directory."""
    directory = Path(directory)
    write_partition_manifest(peg, directory)
    for index, partition in enumerate(peg.partitions):
        save_eg(partition, directory / f"partition{index}")


def load_partitioned_eg(directory: str | Path) -> PartitionedExperimentGraph:
    """Restore a partitioned EG written by :func:`save_partitioned_eg`."""
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise EGPersistenceError(
            f"no persisted partitioned Experiment Graph at {manifest_path}",
            path=manifest_path,
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise EGPersistenceError(
            f"corrupt partition manifest {manifest_path}: {error}",
            path=manifest_path,
        ) from error
    version = manifest.get("version")
    if version != _FORMAT_VERSION:
        raise EGPersistenceError(
            f"unsupported partitioned EG format version {version!r} "
            f"in {manifest_path}",
            path=manifest_path,
        )

    try:
        n_partitions = int(manifest["n_partitions"])
        workloads_observed = int(manifest["workloads_observed"])
        stub_records = manifest["stubs"]
    except (KeyError, TypeError, ValueError) as error:
        raise EGPersistenceError(
            f"corrupt partition manifest {manifest_path}: {error}",
            path=manifest_path,
        ) from error

    partitions = [
        load_eg(directory / f"partition{index}") for index in range(n_partitions)
    ]
    peg = PartitionedExperimentGraph(n_partitions, partitions=partitions)
    peg.workloads_observed = workloads_observed
    # rebuild the owner map from partition membership (authoritative)
    for index, partition in enumerate(partitions):
        for vertex_id in partition.graph.nodes:
            peg._owner[vertex_id] = index
    try:
        for record in stub_records:
            stub = EdgeStub(
                src=record["src"],
                dst=record["dst"],
                src_partition=int(record["src_partition"]),
                dst_partition=int(record["dst_partition"]),
                op_hash=record["op_hash"],
                op_name=record["op_name"],
                order=int(record["order"]),
            )
            peg._stubs[(stub.src, stub.dst)] = stub
    except (KeyError, TypeError, ValueError) as error:
        raise EGPersistenceError(
            f"corrupt stub records in {manifest_path}: {error}",
            path=manifest_path,
        ) from error
    return peg
