"""Blocking client side of the async binary transport.

Four layers:

* :class:`TransportConnection` — one multiplexed socket.  Callers stamp
  requests with fresh tags and park on per-request events; a daemon
  reader thread demultiplexes response frames by tag, so **many threads
  share one connection** and responses may return out of order.  A
  dropped connection fails every in-flight request with
  :class:`~repro.transport.errors.ConnectionLostError`.
* :class:`ConnectionPool` — lazy, round-robin pool of connections.  A
  request that dies with ``ConnectionLostError`` is retried on a fresh
  connection **exactly once** (a replayed commit names a plan the server
  already consumed, so it returns the first merge's result; everything
  else is read-only).
* :class:`RemoteService` — the sessions/``plan``/``commit`` slice of
  :class:`~repro.service.core.EGService` answered over such a pool: a
  plan comes back as a :class:`~repro.service.core.ServicePlan` over a
  stub EG built from the shipped loads, a commit as a
  :class:`~repro.service.core.CommitResult`.
* :class:`TransportServiceClient` — the one client loop
  (:class:`~repro.service.client.ServiceClient`) run against a
  ``RemoteService``, plus the server's introspection ops.  A full merge
  queue comes back as :class:`~repro.service.errors.ServiceOverloadedError`
  and backs off in that loop exactly as in-process.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from typing import Any, Callable, Iterable, Mapping

from ..client.executor import VirtualCostModel, WallClockCostModel
from ..eg.graph import EGVertex, ExperimentGraph
from ..eg.storage import ArtifactDivergenceError, SimpleArtifactStore, StorageTier
from ..graph.artifacts import ArtifactType
from ..graph.dag import WorkloadDAG
from ..obs.trace import get_tracer
from ..service.client import ServiceClient
from ..service.core import CommitResult, ServicePlan, ServiceSession
from ..service.errors import (
    RequestTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ShardUnavailableError,
    UnknownSessionError,
)
from ..service.versioned import SnapshotLease
from .codec import BinaryWireCodec, ColumnLedger, codec_for_id, make_codec
from .errors import (
    ConnectionLostError,
    ProtocolError,
    StaleColumnReferenceError,
    TransportError,
    TruncatedFrameError,
    UnknownPlanError,
)
from .frames import KIND_ERROR, KIND_REQUEST, recv_frame, send_frame
from .wire import (
    decode_commit_reply,
    decode_load,
    decode_plan_reply,
    encode_results,
    encode_workload,
)

__all__ = [
    "TransportConnection",
    "PendingReply",
    "ConnectionPool",
    "RemoteSnapshot",
    "RemoteService",
    "TransportServiceClient",
    "error_from_wire",
]

#: seconds to wait for a TCP connect before the pool counts an attempt failed
_CONNECT_TIMEOUT_S = 10.0

#: wire error name -> exception class
_WIRE_ERROR_TYPES: dict[str, type[Exception]] = {
    "ServiceError": ServiceError,
    "ServiceOverloadedError": ServiceOverloadedError,
    "ServiceStoppedError": ServiceStoppedError,
    "RequestTimeoutError": RequestTimeoutError,
    "UnknownSessionError": UnknownSessionError,
    "ShardUnavailableError": ShardUnavailableError,
    "ArtifactDivergenceError": ArtifactDivergenceError,
    "TransportError": TransportError,
    "TruncatedFrameError": TruncatedFrameError,
    "ProtocolError": ProtocolError,
    "StaleColumnReferenceError": StaleColumnReferenceError,
    "UnknownPlanError": UnknownPlanError,
}


def error_from_wire(record: Mapping[str, Any]) -> Exception:
    """Map an error frame body back onto the matching exception class."""
    error_type = _WIRE_ERROR_TYPES.get(str(record.get("error", "")), ServiceError)
    return error_type(str(record.get("message", "service request failed")))


class PendingReply:
    """One request already on the wire: the slot the reader thread fills,
    and the caller's handle to ``wait()`` on it.

    Splitting send from wait lets a dispatcher fire requests at many
    peers under one lock (fixing their relative wire order) and collect
    the replies later, outside it.
    """

    __slots__ = ("request_id", "_event", "_kind", "_message", "_error")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._kind = 0
        self._message: Any = None
        self._error: Exception | None = None

    def resolve(self, kind: int, message: Any) -> None:
        self._kind = kind
        self._message = message
        self._event.set()

    def fail(self, error: Exception) -> None:
        self._error = error
        self._event.set()

    @property
    def ready(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout_s: float | None = 30.0) -> Any:
        """The reply, once the reader fills this slot.

        A timeout leaves the slot registered: a live peer always replies,
        so a later ``wait`` observes the outcome, and a lost connection
        fails every slot still registered.
        """
        if not self._event.wait(timeout_s):
            raise RequestTimeoutError(
                f"no response within {timeout_s}s (request {self.request_id})"
            )
        if self._error is not None:
            raise self._error
        if self._kind == KIND_ERROR:
            raise error_from_wire(self._message)
        return self._message


class TransportConnection:
    """One multiplexed connection to an :class:`AsyncTransportServer`.

    ``response_hook`` (if given) is invoked from the reader thread for
    every response frame — including frames whose waiter already timed
    out — so callers can keep an exact count of replies drained from
    this socket (the coordinator's backpressure accounting relies on
    this).  The hook must be fast and must not raise.
    """

    def __init__(
        self,
        host: str,
        port: int,
        codec: str = "binary",
        response_hook: Callable[[int, int], None] | None = None,
    ):
        self._sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT_S)
        self._sock.settimeout(None)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._binary = BinaryWireCodec(ColumnLedger())
        self._codec = self._binary if codec == "binary" else make_codec(codec)
        self._send_lock = threading.Lock()
        self._waiters: dict[int, PendingReply] = {}
        self._waiters_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._response_hook = response_hook
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="eg-transport-reader", daemon=True
        )
        self._reader.start()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def dedup_refs_sent(self) -> int:
        return self._binary.refs_sent

    @property
    def dedup_bytes_saved(self) -> int:
        return self._binary.ref_bytes_saved

    # ------------------------------------------------------------------
    def submit(self, message: dict[str, Any]) -> PendingReply:
        """Put one request on the wire now; the caller waits later.

        Calls made under an external lock leave in lock order — the peer
        decodes them in that order — which is what the process-shard
        coordinator uses to keep per-shard commit dispatch FIFO.
        """
        if self._closed:
            raise ConnectionLostError("connection already closed")
        request_id = next(self._request_ids)
        waiter = PendingReply(request_id)
        with self._waiters_lock:
            self._waiters[request_id] = waiter
        try:
            # encode under the send lock: ledger updates must land in
            # frame order or the peer could see a reference before the
            # bytes it names
            with self._send_lock:
                parts = self._codec.encode(message)
                send_frame(
                    self._sock, KIND_REQUEST, self._codec.codec_id, request_id, parts
                )
        except BaseException as error:
            self._abandon(request_id)
            if isinstance(error, (OSError, ValueError)):
                raise ConnectionLostError(f"send failed: {error}") from error
            raise  # the codec refused the message: nothing left this socket
        return waiter

    def request(self, message: dict[str, Any], timeout_s: float = 30.0) -> Any:
        """One round trip; blocks this thread only — others keep flowing."""
        return self.submit(message).wait(timeout_s)

    def _abandon(self, request_id: int) -> None:
        with self._waiters_lock:
            self._waiters.pop(request_id, None)

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                frame = recv_frame(self._sock)
                if frame is None:
                    break  # orderly close between frames
                header, body = frame
                codec = codec_for_id(header.codec, self._binary)
                message = codec.decode(body)
                if self._response_hook is not None:
                    # fires for every drained frame, matched or not, so
                    # inflight accounting survives timed-out waiters
                    self._response_hook(header.request_id, header.kind)
                with self._waiters_lock:
                    waiter = self._waiters.pop(header.request_id, None)
                if waiter is not None:
                    waiter.resolve(header.kind, message)
                # an unmatched tag names no request of ours: drop it
        except (OSError, TransportError) as read_error:
            error = read_error
        finally:
            self._closed = True
            with self._waiters_lock:
                orphans = list(self._waiters.values())
                self._waiters.clear()
            for waiter in orphans:
                waiter.fail(
                    ConnectionLostError(
                        "connection lost with request in flight: "
                        f"{error or 'closed by peer'}"
                    )
                )

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "TransportConnection":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class ConnectionPool:
    """Sticky pool of multiplexed connections, created lazily.

    One pool is typically shared by every client thread in a process
    (e.g. all swarm tenants): multiplexing means a handful of sockets
    carry hundreds of logical clients.  Threads are assigned a
    connection round-robin on first use and then **stick to it** — the
    codec's dedup ledger is per connection, so a thread that hops
    between sockets would keep re-shipping columns its previous socket
    already delivered.

    Reconnects after a connection loss use jittered exponential backoff
    (``connect_attempts`` tries, delays ``backoff_base_s * 2**n`` capped
    at ``backoff_max_s``, each scaled by a random factor in [0.5, 1.5))
    so a pool full of clients does not hammer a restarting worker in
    lockstep.  The first attempt is immediate, which keeps the healthy
    path latency-free.
    """

    def __init__(
        self,
        host: str,
        port: int,
        size: int = 2,
        codec: str = "binary",
        timeout_s: float = 30.0,
        connect_attempts: int = 4,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ):
        if size < 1:
            raise ValueError("pool size must be at least 1")
        if connect_attempts < 1:
            raise ValueError("connect_attempts must be at least 1")
        self.host = host
        self.port = port
        self.codec = codec
        self.timeout_s = timeout_s
        self.connect_attempts = connect_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self._slots: list[TransportConnection | None] = [None] * size
        self._lock = threading.Lock()
        # per-slot locks so a slot sleeping through backoff does not
        # stall requests flowing on the other slots
        self._slot_locks = [threading.Lock() for _ in range(size)]
        self._next = 0
        self._local = threading.local()
        self._rng = random.Random()
        self._retries = 0
        self._reconnect_backoffs = 0
        self._retired_refs = 0
        self._retired_saved = 0

    @property
    def retries(self) -> int:
        """Requests replayed on a fresh connection after a drop."""
        return self._retries

    @property
    def reconnect_backoffs(self) -> int:
        """Backoff sleeps taken while re-dialling a lost connection."""
        return self._reconnect_backoffs

    def _connection_at(self, index: int) -> TransportConnection:
        with self._slot_locks[index]:
            with self._lock:
                connection = self._slots[index]
            if connection is not None and not connection.closed:
                return connection
            last_error: OSError | None = None
            for attempt in range(self.connect_attempts):
                if attempt > 0:
                    delay = min(
                        self.backoff_max_s, self.backoff_base_s * 2 ** (attempt - 1)
                    )
                    time.sleep(delay * (0.5 + self._rng.random()))
                    with self._lock:
                        self._reconnect_backoffs += 1
                try:
                    connection = TransportConnection(
                        self.host, self.port, codec=self.codec
                    )
                except OSError as error:
                    last_error = error
                    continue
                with self._lock:
                    self._slots[index] = connection
                return connection
            raise ConnectionLostError(
                f"could not reconnect to {self.host}:{self.port} after "
                f"{self.connect_attempts} attempts: {last_error}"
            ) from last_error

    def _pick(self) -> int:
        index = getattr(self._local, "index", None)
        if index is None:
            with self._lock:
                index = self._next
                self._next = (self._next + 1) % len(self._slots)
            self._local.index = index
        return index

    def request(self, message: dict[str, Any], timeout_s: float | None = None) -> Any:
        """Round trip via this thread's connection; one retry on a dropped one."""
        timeout = self.timeout_s if timeout_s is None else timeout_s
        index = self._pick()
        for attempt in range(2):
            connection = self._connection_at(index)
            try:
                return connection.request(message, timeout_s=timeout)
            except ConnectionLostError:
                self._retire(index, connection)
                if attempt == 1:
                    raise
                self._retries += 1
        raise AssertionError("unreachable")  # pragma: no cover

    def _retire(self, index: int, connection: TransportConnection) -> None:
        with self._lock:
            if self._slots[index] is connection:
                self._slots[index] = None
            self._retired_refs += connection.dedup_refs_sent
            self._retired_saved += connection.dedup_bytes_saved
        connection.close()

    def wire_stats(self) -> dict[str, int]:
        """Client-side dedup counters, live and retired connections both."""
        with self._lock:
            connections = [c for c in self._slots if c is not None]
            refs, saved = self._retired_refs, self._retired_saved
        return {
            "dedup_refs_sent": refs + sum(c.dedup_refs_sent for c in connections),
            "dedup_bytes_saved": saved + sum(c.dedup_bytes_saved for c in connections),
            "retries": self._retries,
            "reconnect_backoffs": self._reconnect_backoffs,
        }

    def close(self) -> None:
        for index, connection in enumerate(list(self._slots)):
            if connection is not None:
                self._retire(index, connection)

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class _SnapshotStubEG(ExperimentGraph):
    """Client-side stand-in for the server's EG snapshot.

    Holds exactly the planned-load artifacts shipped in a plan response,
    and reports the storage tier the server priced them at.
    """

    def __init__(self) -> None:
        super().__init__(SimpleArtifactStore())
        self._tiers: dict[str, StorageTier] = {}

    def add_load(self, record: dict[str, Any]) -> None:
        vertex, payload, tier = decode_load(record)
        self.graph.add_node(vertex.vertex_id, vertex=vertex)
        self.materialize(vertex.vertex_id, payload)
        self._tiers[vertex.vertex_id] = tier

    def add_summary(self, record: dict[str, Any]) -> None:
        """Bookkeeping of one vertex from a ``shard.snapshot`` reply: enough
        to plan against; the payload arrives later through :meth:`add_load`."""
        vertex_id = record["i"]
        self.graph.add_node(
            vertex_id,
            vertex=EGVertex(
                vertex_id=vertex_id,
                artifact_type=ArtifactType.DATASET,
                compute_time=float(record["ct"]),
                size=int(record["s"]),
                materialized=bool(record["m"]),
            ),
        )
        self._tiers[vertex_id] = StorageTier[record["t"]]

    def tier_of(self, vertex_id: str) -> StorageTier:
        return self._tiers.get(vertex_id, StorageTier.HOT)


class RemoteSnapshot(SnapshotLease):
    """Lease-like view of a remote service's published snapshot.

    ``eg`` holds what the server shipped: the artifacts a ``plan`` reply
    carried (enough to execute against) and, for a shard worker, vertex
    summaries from ``shard.snapshot`` (enough to plan against) plus
    whatever a :meth:`fetch` batch added.  Nothing is pinned on the
    server — the copies are local — so :meth:`release` has nothing to
    drop.
    """

    __slots__ = ("_request",)
    eg: _SnapshotStubEG

    def __init__(self, request: Callable[[dict[str, Any]], Any], version: int):
        self.eg = _SnapshotStubEG()
        self.version = version
        self._request = request

    def fetch(self, vertex_ids: Iterable[str]) -> set[str]:
        """Ship the named artifacts in one ``shard.fetch`` batch (a shard
        worker's op); returns the ids that crossed the wire —
        unmaterialized or non-transportable ones do not, and the caller
        recomputes them."""
        reply = self._request({"op": "shard.fetch", "ids": list(vertex_ids)})
        for record in reply["loads"]:
            self.eg.add_load(record)
        return {record["vertex_id"] for record in reply["loads"]}

    def release(self) -> None:
        pass


class RemoteService:
    """The slice of :class:`~repro.service.core.EGService` a client loop
    calls, answered by a service on the far side of a connection.

    ``request`` is anything that does one round trip —
    :meth:`ConnectionPool.request`, or a wrapper around it that adds
    trace context or translates a lost connection.  Sessions, ``plan``
    (→ :class:`~repro.service.core.ServicePlan` over a
    :class:`RemoteSnapshot`) and ``commit``
    (→ :class:`~repro.service.core.CommitResult`) cross the wire;
    what only the serving process can know does not.
    """

    #: planned loads arrive as local copies; the executor prices them
    #: with its default in-memory model
    load_cost_model = None

    def __init__(self, request: Callable[[dict[str, Any]], Any]):
        self.request = request
        #: per session: the last plan's token and the vertices whose
        #: results the server already holds (sent with the plan and not
        #: asked back, or loads its reply shipped)
        self._planned: dict[str, tuple[int, set[str]]] = {}

    def open_session(self, name: str | None = None) -> ServiceSession:
        reply = self.request({"op": "open_session", "name": name})
        return ServiceSession(session_id=reply["session_id"], name=reply["name"])

    def close_session(self, session_id: str) -> None:
        self._planned.pop(session_id, None)
        try:
            self.request({"op": "close_session", "session_id": session_id})
        except (ServiceError, OSError):
            pass  # a dead or stopped server's sessions died with it

    def plan(self, session_id: str, workload: WorkloadDAG) -> ServicePlan:
        """The ``plan`` op (the server's snapshot lease, version-keyed
        plan cache and all), rebuilt over the loads it shipped.  The
        server keeps the workload until the commit; the reply's ``need``
        names what the workload already held whose payload the commit
        must still carry (sources the server does not store)."""
        reply = self.request(
            {
                "op": "plan",
                "session_id": session_id,
                "workload": encode_workload(workload, include_payloads=False),
            }
        )
        lease = RemoteSnapshot(self.request, int(reply["version"]))
        result, token, need = decode_plan_reply(reply, lease.eg)
        held = {v.vertex_id for v in workload.vertices() if v.computed}
        self._planned[session_id] = (token, held.difference(need) | result.plan.loads)
        return ServicePlan(session_id=session_id, result=result, lease=lease)

    def commit(
        self, session_id: str, executed: WorkloadDAG, label: str = ""
    ) -> CommitResult:
        """The ``commit`` op for the workload the session last planned:
        the plan's token plus a result record per vertex computed since,
        and per vertex the plan reply asked back."""
        try:
            token, planned = self._planned[session_id]
        except KeyError:
            raise UnknownPlanError(f"session {session_id!r} has no plan") from None
        reply = self.request(
            {
                "op": "commit",
                "session_id": session_id,
                "label": label,
                "plan": token,
                "r": encode_results(executed, planned),
            }
        )
        del self._planned[session_id]
        return decode_commit_reply(reply)

    # the store, the latency window and the retry counter live with the
    # server; clients count their own retries (``ServiceClient.retries``)
    def store_statistics(self) -> dict:
        return {}

    def record_request_latency(self, seconds: float) -> None:
        pass

    def record_retry(self, session_id: str) -> None:
        pass


class TransportServiceClient(ServiceClient):
    """:class:`~repro.service.client.ServiceClient` whose service is a
    :class:`RemoteService` over the async multiplexed binary transport.

    The plan → execute → commit loop is the inherited one; this class
    dials the pool and adds the server's introspection ops.  Many
    instances may share one :class:`ConnectionPool` (pass ``pool=``), in
    which case closing the client leaves the pool open.
    """

    service: RemoteService

    def __init__(
        self,
        host: str = "",
        port: int = 0,
        name: str | None = None,
        cost_model: WallClockCostModel | VirtualCostModel | None = None,
        pool: ConnectionPool | None = None,
    ):
        self._owns_pool = pool is None
        self._pool = ConnectionPool(host, port) if pool is None else pool
        super().__init__(RemoteService(self.request), name=name, cost_model=cost_model)

    @property
    def session_name(self) -> str:
        return self.session.name

    @property
    def urgent_commits(self) -> bool:
        # read by benchmarks/e2e/; the service treats every commit alike
        return False

    # ------------------------------------------------------------------
    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One round trip via the pool; raises the mapped typed error.

        When a span is active on the calling thread, its context rides
        along as ``tc`` and the server parents its request span to it —
        so server-side work lands in the same trace as the client
        workload, exactly like the in-process path.
        """
        span = get_tracer().current_span()
        if span is not None:
            message = {**message, "tc": [span.trace_id, span.span_id]}
        return self._pool.request(message)

    def ping(self) -> int:
        return self.request({"op": "ping"})["version"]

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats", "session_id": self.session_id})["stats"]

    def metrics(self, format: str = "text") -> str | dict[str, Any]:
        """The service's metrics registry: Prometheus text or JSON snapshot."""
        response = self.request(
            {"op": "metrics", "format": format, "session_id": self.session_id}
        )
        return response["metrics"] if format == "json" else response["text"]

    def health(self) -> dict[str, Any]:
        """The server's live health snapshot."""
        return self.request({"op": "health", "session_id": self.session_id})["health"]

    def debug(
        self,
        traces: int = 16,
        spans: int = 20,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """The server's flight-recorder view: kept traces, slow spans, alerts.

        ``trace_id`` additionally fetches that trace's full span list
        (renderable with :func:`repro.obs.sinks.perfetto_document`).
        """
        message: dict[str, Any] = {
            "op": "debug",
            "session_id": self.session_id,
            "traces": traces,
            "spans": spans,
        }
        if trace_id is not None:
            message["trace_id"] = trace_id
        return self.request(message)["debug"]

    # ------------------------------------------------------------------
    def close(self) -> None:
        super().close()
        if self._owns_pool:
            self._pool.close()
