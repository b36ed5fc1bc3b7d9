"""Disk persistence for the Experiment Graph.

A collaborative server restarts; the EG must survive.  ``save_eg`` writes
the graph structure, per-vertex bookkeeping, and the artifact store's
contents to a directory; ``load_eg`` restores them.  Formats:

* ``graph.json`` — vertices (id, type, f/t/s, materialization flag,
  last-seen workload index, meta, and the recorded column footprint of
  stored content) and edges (op hash/name, input order);
* ``store/`` — the artifact contents in the on-disk layout of
  :class:`~repro.storage.disk.DiskColdTier`: one append-only log holding a
  record per distinct column (keyed by lineage id, so shared columns are
  serialized once) and a pickle per non-frame payload, and a
  ``manifest.json`` naming the log, every record's location and every
  vertex's layout.  Payloads are this library's own
  ``DataFrame``/estimator objects, produced and consumed locally by the
  server, so pickle's trust model matches the deployment.

A :class:`~repro.storage.TieredArtifactStore` saved this way is *reopened
in place*: ``load_eg`` reattaches to the manifest with every artifact in
the cold tier and reads nothing into RAM until it is requested.  The
in-memory stores are rebuilt eagerly from the same layout.  Format
version 1 (a single ``store.pkl`` pickle of the whole store) is no longer
readable: it is refused like any other unknown version.

All I/O failures surface as :class:`EGPersistenceError` naming the
offending path, instead of leaking raw ``FileNotFoundError`` /
``JSONDecodeError`` / pickle errors to the server loop.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..dataframe import Column, DataFrame
from ..graph.artifacts import (
    ArtifactMeta,
    ArtifactType,
    Footprint,
    payload_size_bytes,
)
from ..storage.disk import DiskColdTier
from ..storage.tiered import TieredArtifactStore
from .graph import EGVertex, ExperimentGraph
from .storage import ArtifactStore, DedupArtifactStore, SimpleArtifactStore

__all__ = ["save_eg", "load_eg", "EGPersistenceError"]

_FORMAT_VERSION = 2
_STORE_DIR = "store"


class EGPersistenceError(ValueError):
    """A persisted Experiment Graph is missing or unreadable.

    Carries the offending ``path`` so callers (and their logs) can point at
    the exact file instead of decoding a raw ``FileNotFoundError`` or
    ``JSONDecodeError`` from deep inside the loader.
    """

    def __init__(self, message: str, path: str | Path | None = None):
        super().__init__(message)
        self.path = Path(path) if path is not None else None


def _meta_to_dict(meta: ArtifactMeta | None) -> dict | None:
    if meta is None:
        return None
    return {
        "artifact_type": meta.artifact_type.value,
        "schema": {k: repr(v) for k, v in meta.schema.items()},
        "column_ids": dict(meta.column_ids),
        "quality": meta.quality,
        "model_type": meta.model_type,
        "warmstartable": meta.warmstartable,
    }


def _meta_from_dict(data: dict | None) -> ArtifactMeta | None:
    if data is None:
        return None
    return ArtifactMeta(
        artifact_type=ArtifactType(data["artifact_type"]),
        schema=dict(data["schema"]),
        column_ids=dict(data["column_ids"]),
        quality=data["quality"],
        model_type=data["model_type"],
        warmstartable=data["warmstartable"],
    )


def _footprint_from_json(data: list | int | None) -> Footprint | None:
    """JSON turns a frame's ``((column id, bytes), ...)`` into nested lists."""
    if isinstance(data, list):
        return tuple((column_id, nbytes) for column_id, nbytes in data)
    return data


def save_eg(eg: ExperimentGraph, directory: str | Path) -> None:
    """Persist an Experiment Graph (structure + store) to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    vertices = []
    for vertex in eg.vertices():
        vertices.append(
            {
                "vertex_id": vertex.vertex_id,
                "artifact_type": vertex.artifact_type.value,
                "frequency": vertex.frequency,
                "compute_time": vertex.compute_time,
                "size": vertex.size,
                "materialized": vertex.materialized,
                "last_seen": vertex.last_seen,
                "is_source": vertex.is_source,
                "source_name": vertex.source_name,
                "meta": _meta_to_dict(vertex.meta),
                "footprint": vertex.footprint,
            }
        )
    edges = [
        {
            "src": src,
            "dst": dst,
            "op_hash": attrs.get("op_hash"),
            "op_name": attrs.get("op_name"),
            "order": attrs.get("order", 0),
        }
        for src, dst, attrs in eg.graph.edges(data=True)
    ]
    document = {
        "version": _FORMAT_VERSION,
        "workloads_observed": eg.workloads_observed,
        "store_type": type(eg.store).__name__,
        "vertices": vertices,
        "edges": edges,
    }
    (directory / "graph.json").write_text(json.dumps(document))
    _save_store(eg.store, directory / _STORE_DIR)


def _save_store(store: ArtifactStore, store_dir: Path) -> None:
    """Write any store's contents in the cold tier's log-and-manifest layout."""
    if isinstance(store, TieredArtifactStore):
        # write-through flush: cold content stays on disk, hot content is
        # made durable; nothing is demoted or duplicated into RAM
        store.flush(store_dir)
        return

    cold = DiskColdTier(store_dir)
    vertices: dict[str, dict] = {}
    for vertex_id in sorted(store.vertex_ids):
        payload = store.get(vertex_id)
        if isinstance(payload, DataFrame):
            layout = []
            for name in payload.columns:
                column = payload.column(name)
                cold.write_column(column)
                layout.append([name, column.column_id])
            vertices[vertex_id] = {"kind": "frame", "layout": layout}
        else:
            size = payload_size_bytes(payload)
            cold.write_object(vertex_id, payload, size)
            vertices[vertex_id] = {"kind": "object", "nbytes": size}
    # non-tiered stores have no budget, but a store that *does* carry one
    # (e.g. a tiered subclass routed through this generic path) must keep
    # its RAM limit across a save/load round-trip
    cold.write_manifest(
        {
            "vertices": vertices,
            "hot_budget_bytes": getattr(store, "hot_budget_bytes", None),
        }
    )


def load_eg(directory: str | Path) -> ExperimentGraph:
    """Restore an Experiment Graph previously written by :func:`save_eg`.

    Raises :class:`EGPersistenceError` when the directory, ``graph.json``,
    or the store files are absent or corrupt.
    """
    directory = Path(directory)
    graph_path = directory / "graph.json"
    if not graph_path.exists():
        raise EGPersistenceError(
            f"no persisted Experiment Graph at {graph_path}", path=graph_path
        )
    try:
        document = json.loads(graph_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise EGPersistenceError(
            f"corrupt graph document {graph_path}: {error}", path=graph_path
        ) from error

    version = document.get("version")
    if version != _FORMAT_VERSION:
        raise EGPersistenceError(
            f"unsupported EG format version {version!r} in {graph_path}",
            path=graph_path,
        )
    store = _load_store(directory / _STORE_DIR, document)

    eg = ExperimentGraph(store)
    try:
        eg.workloads_observed = document["workloads_observed"]
        for record in document["vertices"]:
            vertex = EGVertex(
                vertex_id=record["vertex_id"],
                artifact_type=ArtifactType(record["artifact_type"]),
                frequency=record["frequency"],
                compute_time=record["compute_time"],
                size=record["size"],
                materialized=record["materialized"],
                # documents written before last_seen was persisted load as 0,
                # the "never seen" recency the field defaults to
                last_seen=record.get("last_seen", 0),
                is_source=record["is_source"],
                source_name=record["source_name"],
                meta=_meta_from_dict(record["meta"]),
                # absent in documents written before footprints were
                # recorded: derived from one load on first use
                footprint=_footprint_from_json(record.get("footprint")),
            )
            eg.graph.add_node(vertex.vertex_id, vertex=vertex)
            if vertex.is_source:
                eg.source_ids.add(vertex.vertex_id)
        for edge in document["edges"]:
            eg.graph.add_edge(
                edge["src"],
                edge["dst"],
                op_hash=edge["op_hash"],
                op_name=edge["op_name"],
                order=edge["order"],
            )
    except (KeyError, TypeError, ValueError) as error:
        raise EGPersistenceError(
            f"corrupt graph document {graph_path}: {error}", path=graph_path
        ) from error
    return eg


def _load_store(store_dir: Path, document: dict) -> ArtifactStore:
    """Incremental layout: reopen tiered stores in place, rebuild RAM stores."""
    store_type = document.get("store_type")
    manifest_path = store_dir / "manifest.json"
    if not manifest_path.exists():
        raise EGPersistenceError(
            f"missing store manifest {manifest_path}", path=manifest_path
        )

    if store_type == "TieredArtifactStore":
        try:
            return TieredArtifactStore.open(store_dir)
        except Exception as error:
            raise EGPersistenceError(
                f"corrupt store layout under {store_dir}: {error}", path=store_dir
            ) from error

    if store_type == "SimpleArtifactStore":
        store: ArtifactStore = SimpleArtifactStore()
    elif store_type == "DedupArtifactStore":
        store = DedupArtifactStore()
    else:
        raise EGPersistenceError(
            f"unexpected store type {store_type!r} recorded for {store_dir}",
            path=store_dir,
        )

    try:
        cold = DiskColdTier(store_dir)
        manifest = cold.read_manifest()
        column_cache: dict[str, Column] = {}
        for vertex_id, entry in manifest["vertices"].items():
            if entry["kind"] == "frame":
                columns = []
                for name, column_id in entry["layout"]:
                    cached = column_cache.get(column_id)
                    if cached is None:
                        cached = cold.read_column(column_id, name)
                        column_cache[column_id] = cached
                    columns.append(
                        cached.rename(name) if cached.name != name else cached
                    )
                store.put(vertex_id, DataFrame(columns))
            else:
                store.put(vertex_id, cold.read_object(vertex_id))
    except EGPersistenceError:
        raise
    except Exception as error:
        raise EGPersistenceError(
            f"corrupt store layout under {store_dir}: {error}", path=store_dir
        ) from error
    return store
