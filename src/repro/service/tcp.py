"""Optional socket transport for the EG service.

The in-process :class:`~repro.service.client.ServiceClient` is the
reference transport; this module exposes the same request surface over a
TCP socket speaking **length-prefixed JSON**: every frame is a 4-byte
big-endian payload length followed by one UTF-8 JSON object.  Requests
carry an ``op`` field (``ping``, ``open_session``, ``close_session``,
``plan``, ``commit``, ``stats``); responses carry ``ok`` plus either the
result fields or a typed ``error`` name that the client maps back onto
the exception classes of :mod:`repro.service.errors`.

Workload DAGs cross the wire *structurally* (vertices, edges, operation
name/hash/params, terminals, pruning state); payloads are re-encoded per
artifact kind.  Dataframes, numpy arrays, scalars and lists round-trip
(object-dtype columns only when every value is a string — anything else
would be mutated by stringification under its content-addressed id);
fitted estimators do not — a commit still merges their meta-data and
measured costs (content stays unmaterialized), and a plan drops loads
whose stored payload cannot be shipped, falling back to recomputation.
Warmstart assignments are likewise an in-process-only feature.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from dataclasses import asdict
from typing import Any, Callable, Mapping

import numpy as np

from ..client.api import Workspace
from ..client.executor import (
    ExecutionReport,
    Executor,
    VirtualCostModel,
    WallClockCostModel,
)
from ..client.parser import parse_workload
from ..dataframe import Column, DataFrame
from ..eg.graph import EGVertex, ExperimentGraph
from ..eg.storage import ArtifactDivergenceError, SimpleArtifactStore, StorageTier
from ..graph.artifacts import ArtifactType
from ..graph.dag import Vertex, WorkloadDAG
from ..graph.pruning import prune_workload
from ..reuse.plan import ReusePlan
from ..transport.wire import _decode_meta, _encode_meta, _WireOperation
from .client import RetryPolicy
from .core import EGService
from .errors import (
    RequestTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
    TruncatedFrameError,
    UnknownSessionError,
)

__all__ = ["ServiceTCPServer", "TCPServiceClient", "encode_workload", "decode_workload"]

#: refuse frames beyond this size (a corrupt length prefix must not OOM us)
MAX_FRAME_BYTES = 256 * 1024 * 1024

_ERROR_TYPES: dict[str, type[Exception]] = {
    "ServiceError": ServiceError,
    "ServiceOverloadedError": ServiceOverloadedError,
    "ServiceStoppedError": ServiceStoppedError,
    "RequestTimeoutError": RequestTimeoutError,
    "UnknownSessionError": UnknownSessionError,
    "ArtifactDivergenceError": ArtifactDivergenceError,
    "TruncatedFrameError": TruncatedFrameError,
}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _send_frame(sock: socket.socket, obj: dict[str, Any]) -> None:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ServiceError(f"frame of {len(payload)} bytes exceeds the transport limit")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(
    sock: socket.socket, n: int, *, at_boundary: bool = False
) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` only on clean EOF at a frame boundary.

    EOF after a partial read — or anywhere mid-frame when ``at_boundary``
    is false — raises :class:`TruncatedFrameError`: bytes were lost, and
    treating that as an orderly close would silently drop an in-flight
    request.
    """
    chunks = b""
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if at_boundary and not chunks:
                return None
            raise TruncatedFrameError(
                f"connection closed after {len(chunks)} of {n} frame bytes"
            )
        chunks += chunk
    return chunks


def _recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    header = _recv_exact(sock, 4, at_boundary=True)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(f"peer announced a {length}-byte frame; refusing")
    payload = _recv_exact(sock, length)
    assert payload is not None  # mid-frame EOF raises instead
    return json.loads(payload.decode("utf-8"))


# ----------------------------------------------------------------------
# Payload codec
# ----------------------------------------------------------------------
def encode_payload(payload: Any) -> dict[str, Any] | None:
    """JSON-encode an artifact payload; ``None`` when not transportable."""
    if isinstance(payload, DataFrame):
        columns = []
        for name in payload.columns:
            column = payload.column(name)
            values = column.values
            if values.dtype == object and not all(isinstance(v, str) for v in values):
                # mirrors the object-dtype ndarray rule: stringifying
                # would mutate content under its content-addressed id
                return None
            columns.append(
                {
                    "name": name,
                    "dtype": str(values.dtype),
                    "column_id": column.column_id,
                    "values": values.tolist(),
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
            "values": payload.ravel().tolist(),
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


def decode_payload(obj: dict[str, Any] | None) -> Any:
    if obj is None:
        return None
    kind = obj["kind"]
    if kind == "frame":
        columns = []
        for spec in obj["columns"]:
            dtype = np.dtype(spec["dtype"])
            values = np.array(spec["values"], dtype=dtype)
            columns.append(Column(spec["name"], values, column_id=spec["column_id"]))
        return DataFrame(columns)
    if kind == "ndarray":
        values = np.array(obj["values"], dtype=np.dtype(obj["dtype"]))
        return values.reshape(obj["shape"])
    if kind == "scalar":
        return obj["value"]
    if kind in ("list", "tuple"):
        items = [decode_payload(item) for item in obj["items"]]
        return tuple(items) if kind == "tuple" else items
    raise ServiceError(f"unknown payload kind {kind!r}")


# ----------------------------------------------------------------------
# Workload DAG codec
# ----------------------------------------------------------------------
def encode_workload(dag: WorkloadDAG, include_payloads: bool) -> dict[str, Any]:
    """Encode a workload DAG; payloads only when transportable and asked for."""
    vertices = []
    for vertex in dag.vertices():
        record: dict[str, Any] = {
            "id": vertex.vertex_id,
            "type": vertex.artifact_type.value,
            "computed": vertex.computed,
            "compute_time": vertex.compute_time,
            "size": vertex.size,
            "is_source": vertex.is_source,
            "source_name": vertex.source_name,
            "meta": _encode_meta(vertex.meta),
        }
        if include_payloads and vertex.computed:
            record["payload"] = encode_payload(vertex.data)
        vertices.append(record)
    edges = []
    for src, dst, attrs in dag.graph.edges(data=True):
        operation = attrs["operation"]
        edges.append(
            {
                "src": src,
                "dst": dst,
                "order": attrs["order"],
                "active": attrs["active"],
                "op": None
                if operation is None
                else {
                    "name": operation.name,
                    "return_type": operation.return_type.value,
                    "params": operation.params,
                    "hash": operation.op_hash,
                },
            }
        )
    return {"vertices": vertices, "edges": edges, "terminals": list(dag.terminals)}


def decode_workload(obj: dict[str, Any]) -> WorkloadDAG:
    """Rebuild a workload DAG (ids are trusted — they are content addresses)."""
    dag = WorkloadDAG()
    for record in obj["vertices"]:
        vertex = Vertex(
            vertex_id=record["id"],
            artifact_type=ArtifactType(record["type"]),
            computed=record["computed"],
            compute_time=record["compute_time"],
            size=record["size"],
            is_source=record["is_source"],
            source_name=record["source_name"],
            meta=_decode_meta(record["meta"]),
        )
        if record.get("payload") is not None:
            vertex.data = decode_payload(record["payload"])
        dag.graph.add_node(vertex.vertex_id, vertex=vertex)
    for edge in obj["edges"]:
        operation = edge["op"]
        dag.graph.add_edge(
            edge["src"],
            edge["dst"],
            operation=None
            if operation is None
            else _WireOperation(
                operation["name"],
                ArtifactType(operation["return_type"]),
                operation["params"],
                operation["hash"],
            ),
            order=edge["order"],
            active=edge["active"],
        )
    dag.terminals = list(obj["terminals"])
    return dag


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class ServiceTCPServer:
    """Serves one :class:`EGService` over length-prefixed JSON on TCP."""

    def __init__(self, service: EGService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._host = host
        self._port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closing = False

    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, listen and serve in background threads; returns the address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen()
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="eg-tcp-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    def stop(self) -> None:
        """Stop accepting and close every open connection (not the service)."""
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ServiceTCPServer":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = _recv_frame(conn)
                except (OSError, ServiceError, json.JSONDecodeError):
                    return
                if request is None:
                    return
                response = self._dispatch(request)
                try:
                    _send_frame(conn, response)
                except OSError:
                    return
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            handler = getattr(self, f"_op_{request.get('op')}", None)
            if handler is None:
                raise ServiceError(f"unknown op {request.get('op')!r}")
            result = handler(request)
            result["ok"] = True
            return result
        except Exception as error:  # noqa: BLE001 - every error maps onto the wire
            return {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
            }

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _op_ping(self, _request: dict[str, Any]) -> dict[str, Any]:
        return {"version": self.service.versioned.version}

    def _op_open_session(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self.service.open_session(request.get("name"))
        return {"session_id": session.session_id, "name": session.name}

    def _op_close_session(self, request: dict[str, Any]) -> dict[str, Any]:
        self.service.close_session(request["session_id"])
        return {}

    def _op_plan(self, request: dict[str, Any]) -> dict[str, Any]:
        workload = decode_workload(request["workload"])
        plan = self.service.plan(request["session_id"], workload)
        try:
            loads = []
            for vertex_id in sorted(plan.result.plan.loads):
                record = plan.eg.vertex(vertex_id)
                payload = encode_payload(plan.eg.load(vertex_id))
                if payload is None:
                    continue  # not transportable; the client recomputes
                loads.append(
                    {
                        "vertex_id": vertex_id,
                        "size": record.size,
                        "compute_time": record.compute_time,
                        "tier": plan.eg.tier_of(vertex_id).name,
                        "meta": _encode_meta(record.meta),
                        "payload": payload,
                    }
                )
        finally:
            plan.release()
        return {
            "version": plan.version,
            "algorithm": plan.result.plan.algorithm,
            "planning_seconds": plan.result.planning_seconds,
            "estimated_cost": plan.result.plan.estimated_cost,
            "loads": loads,
        }

    def _op_commit(self, request: dict[str, Any]) -> dict[str, Any]:
        executed = decode_workload(request["workload"])
        result = self.service.commit(
            request["session_id"], executed, label=request.get("label", "")
        )
        return {
            "commit_index": result.commit_index,
            "version": result.version,
            "batch_size": result.batch_size,
            "new_sources": result.new_sources,
        }

    def _op_stats(self, _request: dict[str, Any]) -> dict[str, Any]:
        stats = self.service.stats()
        record = asdict(stats)
        record["mean_batch_size"] = stats.mean_batch_size
        record["mean_merge_seconds"] = stats.mean_merge_seconds
        record["reuse_hit_rate"] = stats.reuse_hit_rate
        return {"stats": record}

    def _op_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        """Registry exposition: Prometheus text or the JSON snapshot."""
        if request.get("format", "text") == "json":
            return {"metrics": self.service.metrics_snapshot()}
        return {"text": self.service.metrics_text()}


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _SnapshotStubEG(ExperimentGraph):
    """Client-side stand-in for the server's EG snapshot.

    Holds exactly the planned-load artifacts shipped in a plan response,
    and reports the storage tier the server priced them at.
    """

    def __init__(self) -> None:
        super().__init__(SimpleArtifactStore())
        self._tiers: dict[str, StorageTier] = {}

    def add_load(self, record: dict[str, Any]) -> None:
        vertex_id = record["vertex_id"]
        payload = decode_payload(record["payload"])
        meta = _decode_meta(record["meta"])
        self.graph.add_node(
            vertex_id,
            vertex=EGVertex(
                vertex_id=vertex_id,
                artifact_type=meta.artifact_type if meta else ArtifactType.DATASET,
                compute_time=record["compute_time"],
                size=record["size"],
                meta=meta,
            ),
        )
        self.materialize(vertex_id, payload)
        self._tiers[vertex_id] = StorageTier[record["tier"]]

    def tier_of(self, vertex_id: str) -> StorageTier:
        return self._tiers.get(vertex_id, StorageTier.HOT)


class TCPServiceClient:
    """Remote counterpart of :class:`~repro.service.client.ServiceClient`.

    Plans and commits over the socket; execution stays local, against a
    stub EG holding the payloads the plan response shipped.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str | None = None,
        cost_model: WallClockCostModel | VirtualCostModel | None = None,
        max_workers: int = 1,
        retry_policy: RetryPolicy | None = None,
        timeout_s: float = 30.0,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._lock = threading.Lock()
        self.cost_model = cost_model if cost_model is not None else WallClockCostModel()
        self.executor = Executor(cost_model=self.cost_model, max_workers=max_workers)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        opened = self.request({"op": "open_session", "name": name})
        self.session_id: str = opened["session_id"]
        self.session_name: str = opened["name"]

    # ------------------------------------------------------------------
    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip; raises the mapped typed error."""
        with self._lock:
            _send_frame(self._sock, message)
            response = _recv_frame(self._sock)
        if response is None:
            raise ServiceError("connection closed by the service")
        if response.pop("ok", False):
            return response
        error_type = _ERROR_TYPES.get(response.get("error", ""), ServiceError)
        raise error_type(response.get("message", "service request failed"))

    def ping(self) -> int:
        return self.request({"op": "ping"})["version"]

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})["stats"]

    def metrics(self, format: str = "text") -> str | dict[str, Any]:
        """The service's metrics registry: Prometheus text or JSON snapshot."""
        response = self.request({"op": "metrics", "format": format})
        return response["metrics"] if format == "json" else response["text"]

    # ------------------------------------------------------------------
    def run_script(
        self,
        script: Callable[[Workspace, Mapping[str, Any]], None],
        sources: Mapping[str, Any],
        label: str = "",
    ) -> ExecutionReport:
        workspace = parse_workload(script, sources, cost_model=self.cost_model)
        return self.run_workspace(workspace, label=label)

    def run_workspace(self, workspace: Workspace, label: str = "") -> ExecutionReport:
        workload = workspace.dag
        prune_workload(workload)

        planned = self.request(
            {
                "op": "plan",
                "session_id": self.session_id,
                "workload": encode_workload(workload, include_payloads=False),
            }
        )
        stub = _SnapshotStubEG()
        plan = ReusePlan(algorithm=planned["algorithm"])
        plan.estimated_cost = planned["estimated_cost"]
        for record in planned["loads"]:
            stub.add_load(record)
            plan.loads.add(record["vertex_id"])

        report = self.executor.execute(workload, plan=plan, eg=stub)
        report.optimizer_overhead = planned["planning_seconds"]
        report.total_time += planned["planning_seconds"]

        self._commit_with_retry(workload, label)
        return report

    def _commit_with_retry(self, workload: WorkloadDAG, label: str) -> dict[str, Any]:
        encoded = encode_workload(workload, include_payloads=True)
        attempt = 0
        while True:
            try:
                return self.request(
                    {
                        "op": "commit",
                        "session_id": self.session_id,
                        "label": label,
                        "workload": encoded,
                    }
                )
            except ServiceOverloadedError:
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    raise
                time.sleep(self.retry_policy.backoff(attempt))

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self.request({"op": "close_session", "session_id": self.session_id})
        except (ServiceError, OSError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TCPServiceClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
