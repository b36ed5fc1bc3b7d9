"""What crosses the wire: payloads, workload DAGs, plans and commits.

Every function here maps a service object to or from a *message tree* —
a JSON-shaped structure whose array leaves stay numpy arrays — which the
frame codecs (:mod:`repro.transport.codec`) then serialize: the binary
codec ships the arrays as raw buffers, the JSON fallback flattens them
to lists.  Each record's layout is written down exactly once, as an
``encode_*``/``decode_*`` pair; servers, clients and shard handles call
the pair instead of spelling the keys (``docs/TRANSPORT.md`` has the
schemas).

Transportability: dataframes, ndarrays, scalars and lists round-trip;
object-dtype columns only when every value is a string (anything else
would be mutated by stringification under its content-addressed id);
fitted estimators do not cross the wire — a commit still merges their
meta-data and measured costs (content stays unmaterialized), and a plan
drops loads whose stored payload cannot be shipped, falling back to
recomputation.  Warmstart assignments are likewise in-process only.

A commit names the plan it follows and carries only what the tenant
computed itself (:func:`encode_results`); the server rebuilds the
executed DAG from the one it decoded at plan and the loads it shipped
(:func:`decode_results`).

Because the binary codec deduplicates at the *column* level, frame
columns keep their lineage ``column_id`` next to their values — a column
the peer has already seen on this connection ships as a reference.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import AbstractSet, Any, Mapping

import numpy as np

from ..dataframe import Column, DataFrame, dtype_name
from ..eg.graph import EGVertex
from ..eg.storage import StorageTier
from ..graph.artifacts import ArtifactMeta, ArtifactType
from ..graph.dag import Vertex, WorkloadDAG
from ..graph.operations import Operation
from ..reuse.plan import ReusePlan
from ..server.optimizer import OptimizationResult
from ..service.core import CommitResult
from ..service.errors import ServiceError
from .errors import ProtocolError

__all__ = [
    "encode_payload",
    "decode_payload",
    "encode_workload",
    "decode_workload",
    "encode_load",
    "decode_load",
    "encode_plan_reply",
    "decode_plan_reply",
    "encode_results",
    "decode_results",
    "encode_commit_reply",
    "decode_commit_reply",
    "encode_stats",
    "sanitize_tree",
]


def sanitize_tree(obj: Any) -> Any:
    """Deep-copy an introspection payload into wire-safe plain data.

    The ``debug``/``health`` ops ship dicts assembled from live objects
    (span attributes, recorder stats) that may contain numpy scalars,
    tuples, or arbitrary values; the codecs expect message trees of
    JSON-shaped plain data.  Scalars pass through, numpy
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
                    "dtype": dtype_name(values.dtype),
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
            "dtype": dtype_name(payload.dtype),
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
    # spelled out: ``asdict`` would deep-copy both per-column dicts leaf by leaf
    return {
        "artifact_type": meta.artifact_type.value,
        "schema": meta.schema,
        "column_ids": meta.column_ids,
        "quality": meta.quality,
        "model_type": meta.model_type,
        "warmstartable": meta.warmstartable,
    }


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
        # no Operation.__init__: the hash that crossed the wire *is* the identity
        self.name = name
        self.return_type = return_type
        self.params = dict(params or {})
        self.op_hash = op_hash

    def run(self, underlying_data: Any) -> Any:
        raise ServiceError("wire operations carry identity only and cannot run")


def encode_workload(dag: WorkloadDAG, include_payloads: bool) -> dict[str, Any]:
    """Structural DAG encoding; payloads only when transportable and asked
    for.

    Keys are single characters: a plan re-ships the full workload
    structure every round, and on structure-heavy messages the key text
    is a third of the meta JSON the receiver has to parse.
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
    for src, dst, edge in dag.edges():
        operation = edge.operation
        edges.append(
            {
                "s": src,
                "d": dst,
                "o": edge.order,
                "a": edge.active,
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
    """Rebuild a workload DAG (ids are trusted — they are content addresses)."""
    dag = WorkloadDAG()
    for record in obj["v"]:
        vertex = Vertex(
            vertex_id=record["i"],
            artifact_type=ArtifactType(record["t"]),
            computed=record["c"],
            compute_time=record["ct"],
            size=record["s"],
            is_source=record["so"],
            source_name=record["sn"],
            meta=_decode_meta(record["m"]),
        )
        payload = record.get("p")
        if payload is not None:
            vertex.data = decode_payload(payload)
        dag.add_vertex(vertex)
    for edge in obj["e"]:
        operation = edge["op"]
        dag.add_edge(
            edge["s"],
            edge["d"],
            None
            if operation is None
            else _WireOperation(
                operation["n"],
                ArtifactType(operation["r"]),
                operation["p"],
                operation["h"],
            ),
            edge["o"],
            edge["a"],
        )
    dag.terminals = list(obj["tm"])
    global_index = obj.get("g")
    if global_index is not None:
        dag.global_index = global_index
    return dag


# ----------------------------------------------------------------------
# Plan and commit replies
# ----------------------------------------------------------------------
def encode_load(
    eg: Any, vertex_id: str, shipped: dict[str, tuple] | None = None
) -> dict[str, Any] | None:
    """One materialized artifact of ``eg`` as a planned-load record;
    ``None`` when its payload is not transportable (the receiver then
    recomputes the vertex).  A shipped load is also noted in ``shipped``
    as ``(payload, size, meta)``: the objects the record was encoded from."""
    payload = eg.load(vertex_id)
    encoded = encode_payload(payload)
    if encoded is None:
        return None
    record = eg.vertex(vertex_id)
    if shipped is not None:
        shipped[vertex_id] = (payload, record.size, record.meta)
    return {
        "vertex_id": vertex_id,
        "size": record.size,
        "compute_time": record.compute_time,
        "tier": eg.tier_of(vertex_id).name,
        "meta": _encode_meta(record.meta),
        "payload": encoded,
    }


def decode_load(record: dict[str, Any]) -> tuple[EGVertex, Any, StorageTier]:
    """A planned-load record back as (EG bookkeeping, payload, the tier
    the sender priced it at)."""
    meta = _decode_meta(record["meta"])
    vertex = EGVertex(
        vertex_id=record["vertex_id"],
        artifact_type=meta.artifact_type if meta else ArtifactType.DATASET,
        compute_time=record["compute_time"],
        size=record["size"],
        meta=meta,
    )
    return vertex, decode_payload(record["payload"]), StorageTier[record["tier"]]


def encode_plan_reply(
    plan: Any, token: int, need: list[str], shipped: dict[str, tuple] | None = None
) -> dict[str, Any]:
    """The ``plan`` op's reply for a :class:`~repro.service.core.ServicePlan`
    (or the sharded plan, same shape): the plan's scalars plus one load
    record per planned load that can be shipped, read off the pinned
    snapshot — the caller still holds, and releases, the lease.  ``token``
    names the plan to the commit that follows it, ``need`` lists what the
    workload already held that this commit must still carry, and
    ``shipped`` collects what each load record was encoded from (see
    :func:`encode_load`)."""
    records = (
        encode_load(plan.eg, v, shipped) for v in sorted(plan.result.plan.loads)
    )
    return {
        "version": plan.version,
        "algorithm": plan.result.plan.algorithm,
        "planning_seconds": plan.result.planning_seconds,
        "estimated_cost": plan.result.plan.estimated_cost,
        "loads": [record for record in records if record is not None],
        "plan": token,
        "need": need,
    }


def decode_plan_reply(
    reply: dict[str, Any], eg: Any
) -> tuple[OptimizationResult, int, list[str]]:
    """Rebuild the optimization result of a ``plan`` reply, handing every
    shipped load to ``eg.add_load`` so the plan executes against ``eg``;
    with the plan's token and ``need`` list."""
    plan = ReusePlan(algorithm=reply["algorithm"])
    plan.estimated_cost = reply["estimated_cost"]
    load_tiers: dict[str, StorageTier] = {}
    for record in reply["loads"]:
        eg.add_load(record)
        plan.loads.add(record["vertex_id"])
        load_tiers[record["vertex_id"]] = StorageTier[record["tier"]]
    result = OptimizationResult(
        plan=plan, planning_seconds=reply["planning_seconds"], load_tiers=load_tiers
    )
    return result, reply["plan"], reply["need"]


def encode_results(
    executed: WorkloadDAG, planned: AbstractSet[str]
) -> list[dict[str, Any]]:
    """The ``r`` of a ``commit``: one result record per computed vertex
    not in ``planned`` — the vertices whose results the server already
    holds: those the workload held when planned and the reply did not ask
    back, and the loads the reply shipped.  ``p`` is ``None`` when the
    payload is not transportable."""
    return [
        {
            "i": vertex.vertex_id,
            "ct": vertex.compute_time,
            "s": vertex.size,
            "m": _encode_meta(vertex.meta),
            "p": encode_payload(vertex.data),
        }
        for vertex in executed.vertices()
        if vertex.computed and vertex.vertex_id not in planned
    ]


def decode_results(
    planned: WorkloadDAG,
    loads: Mapping[str, tuple],
    results: list[dict[str, Any]],
) -> WorkloadDAG:
    """The executed DAG of a ``commit``, rebuilt in place from the DAG the
    server decoded at plan, the loads its reply shipped that the tenant
    applied (``(payload, size, meta)`` each, applied as the executor does)
    and the tenant's result records.  Equal to decoding the whole executed
    DAG with payloads, but for the payloads of sources the server stored
    at plan; applying the same records twice changes nothing."""
    unplanned = [record["i"] for record in results if record["i"] not in planned]
    if unplanned:
        raise ProtocolError(f"results for unplanned vertices {unplanned}")
    for vertex_id, (payload, size, meta) in loads.items():
        planned.vertex(vertex_id).record_load(payload, size, meta)
    for record in results:
        vertex = planned.vertex(record["i"])
        vertex.data = decode_payload(record["p"])
        vertex.computed = True
        vertex.compute_time = record["ct"]
        vertex.size = record["s"]
        vertex.meta = _decode_meta(record["m"])
    return planned


def encode_commit_reply(result: Any) -> dict[str, Any]:
    """Reply of ``commit`` and ``shard.commit``; batch reports stay on
    the merging side."""
    return {
        "commit_index": result.commit_index,
        "version": result.version,
        "batch_size": result.batch_size,
        "new_sources": result.new_sources,
    }


def decode_commit_reply(reply: dict[str, Any]) -> CommitResult:
    return CommitResult(
        commit_index=reply["commit_index"],
        version=reply["version"],
        batch_size=reply["batch_size"],
        new_sources=reply["new_sources"],
    )


def encode_stats(stats: Any) -> dict[str, Any]:
    """A frozen :class:`~repro.service.stats.ServiceStats` as the ``stats``
    record: its fields plus the derived means and hit rate."""
    record = asdict(stats)
    record["mean_batch_size"] = stats.mean_batch_size
    record["mean_merge_seconds"] = stats.mean_merge_seconds
    record["reuse_hit_rate"] = stats.reuse_hit_rate
    return record
