"""Payload and workload codecs for the binary transport.

Mirrors the request surface of :mod:`repro.service.tcp` but produces
*message trees* — JSON-shaped structures whose array leaves stay numpy
arrays — which the frame codecs (:mod:`repro.transport.codec`) then
serialize: the binary codec ships the arrays as raw buffers, the JSON
fallback flattens them to lists.  Transportability rules are identical
to the legacy socket: dataframes, ndarrays, scalars and lists
round-trip; object-dtype columns only when every value is a string
(anything else would be mutated by stringification under its
content-addressed id); fitted estimators do not cross the wire.

Because the binary codec deduplicates at the *column* level, frame
columns keep their lineage ``column_id`` next to their values — a column
the peer has already seen on this connection ships as a reference.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping

import numpy as np

from ..dataframe import Column, DataFrame
from ..graph.artifacts import ArtifactMeta, ArtifactType
from ..graph.dag import Vertex, WorkloadDAG
from ..graph.operations import Operation
from ..service.errors import ServiceError
from .errors import ProtocolError

__all__ = [
    "encode_payload",
    "decode_payload",
    "encode_workload",
    "decode_workload",
    "sanitize_tree",
]


def sanitize_tree(obj: Any) -> Any:
    """Deep-copy an introspection payload into wire-safe plain data.

    The ``debug``/``health`` ops ship dicts assembled from live objects
    (span attributes, SLO status, recorder stats) that may contain numpy
    scalars, tuples, or arbitrary values; the codecs expect message
    trees of JSON-shaped plain data.  Scalars pass through, numpy
    numbers collapse to Python numbers, containers recurse, and anything
    else degrades to ``repr`` — introspection must never fail to encode.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, Mapping):
        return {str(key): sanitize_tree(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [sanitize_tree(item) for item in obj]
    return repr(obj)


# ----------------------------------------------------------------------
# Payloads
# ----------------------------------------------------------------------
def encode_payload(payload: Any) -> dict[str, Any] | None:
    """Message-tree encoding of one artifact payload; ``None`` when not
    transportable."""
    if isinstance(payload, DataFrame):
        columns = []
        for name in payload.columns:
            column = payload.column(name)
            values = column.values
            if values.dtype == object and not all(
                isinstance(value, str) for value in values
            ):
                # stringification would mutate content under its
                # content-addressed id; the receiver must recompute
                return None
            columns.append(
                {
                    "name": name,
                    "dtype": str(values.dtype),
                    "column_id": column.column_id,
                    "values": values,
                }
            )
        return {"kind": "frame", "columns": columns}
    if isinstance(payload, np.ndarray):
        if payload.dtype == object:
            return None
        return {
            "kind": "ndarray",
            "dtype": str(payload.dtype),
            "shape": list(payload.shape),
            "values": payload.ravel(),
        }
    if isinstance(payload, (np.floating, np.integer)):
        return {"kind": "scalar", "value": payload.item()}
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return {"kind": "scalar", "value": payload}
    if isinstance(payload, (list, tuple)):
        items = [encode_payload(item) for item in payload]
        if any(item is None for item in items):
            return None
        return {
            "kind": "tuple" if isinstance(payload, tuple) else "list",
            "items": items,
        }
    return None


def _as_array(values: Any, dtype: np.dtype) -> np.ndarray:
    """Array leaf back to numpy: already an array on the binary path,
    a plain list on the JSON fallback."""
    if isinstance(values, np.ndarray):
        if values.dtype == object or dtype == object:
            return values
        return values if values.dtype == dtype else values.astype(dtype)
    return np.array(values, dtype=dtype)


def decode_payload(obj: dict[str, Any] | None) -> Any:
    if obj is None:
        return None
    kind = obj["kind"]
    if kind == "frame":
        columns = []
        for spec in obj["columns"]:
            dtype = np.dtype(spec["dtype"])
            values = _as_array(spec["values"], dtype)
            columns.append(Column(spec["name"], values, column_id=spec["column_id"]))
        return DataFrame(columns)
    if kind == "ndarray":
        values = _as_array(obj["values"], np.dtype(obj["dtype"]))
        return values.reshape(obj["shape"])
    if kind == "scalar":
        return obj["value"]
    if kind in ("list", "tuple"):
        items = [decode_payload(item) for item in obj["items"]]
        return tuple(items) if kind == "tuple" else items
    raise ProtocolError(f"unknown payload kind {kind!r}")


# ----------------------------------------------------------------------
# Workload DAGs
# ----------------------------------------------------------------------
def _encode_meta(meta: ArtifactMeta | None) -> dict[str, Any] | None:
    if meta is None:
        return None
    record = asdict(meta)
    record["artifact_type"] = meta.artifact_type.value
    return record


def _decode_meta(obj: dict[str, Any] | None) -> ArtifactMeta | None:
    if obj is None:
        return None
    record = dict(obj)
    record["artifact_type"] = ArtifactType(record["artifact_type"])
    return ArtifactMeta(**record)


class _WireOperation(Operation):
    """Structural stand-in for an operation decoded from the wire.

    Carries the original identity hash so vertex ids recompute exactly;
    it is never executed — the server only merges already-executed DAGs.
    """

    def __init__(
        self, name: str, return_type: ArtifactType, params: dict, op_hash: str
    ):
        super().__init__(name, return_type, params)
        self.op_hash = op_hash

    def run(self, underlying_data: Any) -> Any:
        raise ServiceError("wire operations carry identity only and cannot run")


def encode_workload(dag: WorkloadDAG, include_payloads: bool) -> dict[str, Any]:
    """Structural DAG encoding; payloads only when transportable and asked
    for (identical semantics to the legacy JSON socket).

    Keys are single characters: a plan re-ships the full workload
    structure every round, and on structure-heavy messages the key text
    is a third of the meta JSON the codec pool has to parse.
    """
    vertices = []
    for vertex in dag.vertices():
        record: dict[str, Any] = {
            "i": vertex.vertex_id,
            "t": vertex.artifact_type.value,
            "c": vertex.computed,
            "ct": vertex.compute_time,
            "s": vertex.size,
            "so": vertex.is_source,
            "sn": vertex.source_name,
            "m": _encode_meta(vertex.meta),
        }
        if include_payloads and vertex.computed:
            record["p"] = encode_payload(vertex.data)
        vertices.append(record)
    edges = []
    for src, dst, attrs in dag.graph.edges(data=True):
        operation = attrs["operation"]
        edges.append(
            {
                "s": src,
                "d": dst,
                "o": attrs["order"],
                "a": attrs["active"],
                "op": None
                if operation is None
                else {
                    "n": operation.name,
                    "r": operation.return_type.value,
                    "p": operation.params,
                    "h": operation.op_hash,
                },
            }
        )
    encoded: dict[str, Any] = {
        "v": vertices,
        "e": edges,
        "tm": list(dag.terminals),
    }
    if dag.global_index is not None:
        encoded["g"] = dag.global_index
    return encoded


def decode_workload(obj: dict[str, Any]) -> WorkloadDAG:
    """Rebuild a workload DAG (ids are trusted — they are content addresses).

    Accepts the compact single-character keys :func:`encode_workload`
    emits and, for hand-written test fixtures, the verbose legacy names.
    """
    dag = WorkloadDAG()
    for record in obj.get("v", obj.get("vertices", ())):
        compact = "i" in record
        vertex = Vertex(
            vertex_id=record["i" if compact else "id"],
            artifact_type=ArtifactType(record["t" if compact else "type"]),
            computed=record["c" if compact else "computed"],
            compute_time=record["ct" if compact else "compute_time"],
            size=record["s" if compact else "size"],
            is_source=record["so" if compact else "is_source"],
            source_name=record["sn" if compact else "source_name"],
            meta=_decode_meta(record["m" if compact else "meta"]),
        )
        payload = record.get("p" if compact else "payload")
        if payload is not None:
            vertex.data = decode_payload(payload)
        dag.graph.add_node(vertex.vertex_id, vertex=vertex)
    for edge in obj.get("e", obj.get("edges", ())):
        compact = "d" in edge
        operation = edge["op"]
        dag.graph.add_edge(
            edge["s" if compact else "src"],
            edge["d" if compact else "dst"],
            operation=None
            if operation is None
            else _WireOperation(
                operation["n" if compact else "name"],
                ArtifactType(operation["r" if compact else "return_type"]),
                operation["p" if compact else "params"],
                operation["h" if compact else "hash"],
            ),
            order=edge["o" if compact else "order"],
            active=edge["a" if compact else "active"],
        )
    dag.terminals = list(obj.get("tm", obj.get("terminals", ())))
    global_index = obj.get("g", obj.get("global_index"))
    if global_index is not None:
        dag.global_index = global_index
    return dag
