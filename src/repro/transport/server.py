"""Asyncio transport server: one hop per request.

:class:`AsyncTransportServer` serves an :class:`~repro.service.core.EGService`
(or :class:`~repro.shard.ProcessShardCoordinator` — the request surface is
identical) over the tagged binary frame protocol of
:mod:`repro.transport.frames`.  What runs where (``docs/TRANSPORT.md``,
"Server and client", has the invariants):

* **The loop thread** receives, decodes and writes.  Each connection is
  an :class:`asyncio.BufferedProtocol` receiving straight into a
  :class:`~repro.transport.frames.FrameAssembler` (a body is never
  copied).  A completed frame is **decoded right there, in arrival
  order** — the dedup ledger needs that order — and handed to the work
  pool **once**.  A request naming no known op is answered from the loop
  and never takes a worker.
* **One work-pool thread** runs the handler (plan/commit take locks,
  commits wait on the merge worker: no handler ever runs on the loop),
  then encodes the reply and queues its write under the connection's
  reply lock, so frames leave in the order they were encoded.

Requests are **pipelined** and replies carry the request's tag, so they
return **out of order**.  A peer that stops draining its replies stops
being *read* until it does.  The event loop runs in a background thread:
blocking clients (and tests) connect to it from ordinary threads.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from ..obs.trace import SpanContext, get_tracer
from ..obs.metrics import MetricsRegistry
from ..service.errors import ServiceOverloadedError
from .codec import BinaryWireCodec, ColumnLedger, WireCodec, codec_for_id, encoded_size
from .errors import ProtocolError, TransportError, UnknownPlanError
from .frames import (
    HEADER,
    KIND_ERROR,
    KIND_RESPONSE,
    FrameAssembler,
    FrameHeader,
    pack_header,
)
from .wire import (
    decode_results,
    decode_workload,
    encode_commit_reply,
    encode_plan_reply,
    encode_stats,
    sanitize_tree,
)

logger = logging.getLogger(__name__)

__all__ = ["AsyncTransportServer"]

#: bodies below this skip the codec span: control and structure-only
#: frames (ping, session ops, plan requests) decode in microseconds,
#: while an open span on a contended loop thread measures mostly GIL
#: scheduling noise — profiling them would charge the codec for time it
#: never spent.  Payload-bearing frames stay profiled, so a real codec
#: regression still shows up where the bytes are.
_CODEC_SPAN_BYTES_FLOOR = 16384

Handler = Callable[[dict[str, Any]], Any]
Parts = list[bytes | memoryview]


def _remote_parent(tc: Any) -> SpanContext | None:
    """The caller's span context from a frame's ``tc`` field, if sound."""
    if isinstance(tc, (list, tuple)) and len(tc) == 2:
        return SpanContext(trace_id=str(tc[0]), span_id=str(tc[1]))
    return None


def _codec_span(
    name: str, parent: SpanContext | None, started: float, codec: WireCodec, size: int
) -> None:
    """Record a codec call that began at ``started`` and has just ended,
    inside ``parent``'s trace.  With no parent (the sender, or this
    process, is not tracing) nothing is recorded: a codec span that roots
    a trace of its own says nothing about any request."""
    tracer = get_tracer()
    if parent is None or not tracer.enabled:
        return
    # finished, never entered: the recording thread's span stack is untouched
    span = tracer.span(name, parent=parent, codec=codec.name, bytes=size)
    span.start_s = started
    span.finish()


def _error_record(error: BaseException) -> dict[str, Any]:
    return {"error": type(error).__name__, "message": str(error)}


class _KeptPlan:
    """One session's state between its plan and its commit.

    ``token`` names the last plan, with the DAG the server decoded for it
    and the loads its reply shipped that the tenant applies
    (``{vertex_id: (payload, size, meta)}``), until a commit naming it is
    accepted.  ``committed`` / ``outcome`` are that accepted commit and
    its result (or error), so a replay of it gets the same answer instead
    of a second merge.  ``lock`` orders a session's plan, commit and
    replay: a replay that arrives mid-merge waits for that merge."""

    __slots__ = ("lock", "token", "workload", "loads", "committed", "outcome")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.token: int | None = None
        self.workload: Any = None
        self.loads: dict[str, tuple] = {}
        self.committed: int | None = None
        self.outcome: Any = None


class _Connection(asyncio.BufferedProtocol):
    """One accepted connection: frames in, in place; replies out, in
    encode order.  Everything but :meth:`_serve` runs on the loop thread."""

    def __init__(self, server: "AsyncTransportServer"):
        self._server = server
        #: None once a protocol error made the rest of the input moot
        self._assembler: FrameAssembler | None = FrameAssembler()
        self.binary = BinaryWireCodec(ColumnLedger())
        #: held across "encode a reply, queue its write": a later frame
        #: must not reference a column the peer has not received yet
        self._reply_lock = threading.Lock()
        #: requests counted in flight here and not yet answered; None
        #: once no reply can be written any more
        self._pending: int | None = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        server = self._server
        with server._connections_lock:
            server._connections.add(self)
        server._connections_gauge.inc()

    def get_buffer(self, sizehint: int) -> bytearray | memoryview:
        if self._assembler is None:
            return bytearray(65536)  # read and dropped
        return self._assembler.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        if self._assembler is None:
            return
        try:
            frame = self._assembler.buffer_updated(nbytes)
            if frame is not None:
                self._on_frame(*frame)
        except TransportError:
            self._server._note_protocol_error()
            # the peer is owed a FIN, but closing over the input that
            # exact-size receives left unread would reset the connection:
            # half-close, and drop what arrives until the peer closes too
            self._abandon()
            self._assembler = None
            self._transport.write_eof()

    def eof_received(self) -> bool:
        if self._assembler is not None:
            try:
                self._assembler.eof()
            except TransportError:
                self._server._note_protocol_error()
        self._abandon()
        return False  # the transport closes itself

    def pause_writing(self) -> None:
        # a peer that does not drain its replies stops being read
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        self._abandon()
        server = self._server
        # remove-then-sample: a concurrent wire_stats() may briefly
        # miss this connection's tail but never double counts
        with server._connections_lock:
            server._connections.discard(self)
        server._dedup_refs.inc(self.binary.refs_sent)
        server._dedup_saved.inc(self.binary.ref_bytes_saved)
        server._connections_gauge.dec()

    def _on_frame(self, header: FrameHeader, body: memoryview) -> None:
        server = self._server
        server._bytes_total.inc(len(body) + HEADER.size, direction="in")
        server._frames_total.inc(direction="in")
        codec = codec_for_id(header.codec, self.binary)
        message = server._decode(codec, body)
        if not isinstance(message, dict):
            raise ProtocolError("request body is not a message")
        op = str(message.get("op"))
        self._pending += 1
        try:
            handler = server._dispatch(op)
        except ProtocolError as error:
            # a refusal takes no worker; with no array leaf it touches no
            # ledger state, so it needs neither the reply lock nor the queue
            self._write(
                server._encode(
                    codec, KIND_ERROR, header.request_id, _error_record(error)
                )
            )
        else:
            server._work_pool.submit(
                self._serve, header.request_id, codec, op, handler, message
            )

    def _serve(
        self,
        request_id: int,
        codec: WireCodec,
        op: str,
        handler: Handler,
        message: dict[str, Any],
    ) -> None:
        """Handle one request and encode its reply (work pool)."""
        server = self._server
        try:
            kind, reply, context = server._run_handler(op, handler, message)
            with self._reply_lock:
                try:
                    frame = server._encode(codec, kind, request_id, reply, context)
                except Exception as error:  # noqa: BLE001 - the codec refused it
                    frame = server._encode(
                        codec, KIND_ERROR, request_id, _error_record(error)
                    )
                try:
                    # queued inside the lock: the loop runs callbacks FIFO,
                    # so write order is encode order
                    server._loop.call_soon_threadsafe(self._write, frame)
                except RuntimeError:
                    pass  # stop() closed the loop, after settling the count
        except Exception:  # noqa: BLE001 - or it would vanish into the pool's future
            logger.exception("transport worker failed on request %d", request_id)

    def _write(self, frame: Parts) -> None:
        if self._pending is None:
            return  # the reply is dropped; _abandon settled the count
        # settle first: whoever reads this reply finds it already counted
        server = self._server
        server._bytes_total.inc(encoded_size(frame), direction="out")
        server._frames_total.inc(direction="out")
        self._pending -= 1
        server._requests_finished(1)
        # part by part: writelines() would join, copying every column
        for part in frame:
            self._transport.write(part)

    def _abandon(self) -> None:
        """No reply can be written any more: settle what is in flight."""
        if self._pending is not None:
            self._server._requests_finished(self._pending)
            self._pending = None


class AsyncTransportServer:
    """Serves one EG service over the async multiplexed binary protocol."""

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        shard_bridge: Any = None,
    ):
        self.service = service
        #: optional shard-worker bridge: its ``handlers`` dict serves the
        #: dotted ``shard.*`` ops ahead of the built-in ``_op_*`` lookup
        self.shard_bridge = shard_bridge
        self._host = host
        self._port = port
        #: one hop per request: its handler (which may block in the
        #: service) and the encode of its reply
        self._work_pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="eg-transport-work"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._inflight = 0
        #: open connections — wire_stats() folds their codecs' dedup
        #: counters in live, so reads never race connection teardown
        self._connections: set[_Connection] = set()
        self._connections_lock = threading.Lock()
        #: per open session: its last plan, or its last accepted commit
        self._kept: dict[str, _KeptPlan] = {}
        self._kept_lock = threading.Lock()
        self._plan_tokens = itertools.count(1)

        registry = getattr(service, "metrics_registry", None)
        if registry is None:
            registry = MetricsRegistry()
        self.metrics_registry = registry
        self._bytes_total = registry.counter(
            "repro_transport_wire_bytes_total",
            "bytes on the wire, frame headers included",
            ("direction",),
        )
        self._frames_total = registry.counter(
            "repro_transport_frames_total", "frames on the wire", ("direction",)
        )
        self._requests_total = registry.counter(
            "repro_transport_requests_total", "requests dispatched", ("op",)
        )
        self._inflight_gauge = registry.gauge(
            "repro_transport_inflight", "requests currently in flight"
        )
        self._inflight_peak = registry.gauge(
            "repro_transport_inflight_peak", "high-water in-flight requests"
        )
        self._connections_gauge = registry.gauge(
            "repro_transport_open_connections", "connections currently open"
        )
        self._dedup_refs = registry.counter(
            "repro_transport_dedup_refs_total",
            "columns shipped as dedup references instead of bytes",
        )
        self._dedup_saved = registry.counter(
            "repro_transport_dedup_bytes_saved_total",
            "raw column bytes elided by dedup references",
        )
        self._protocol_errors = registry.counter(
            "repro_transport_protocol_errors_total",
            "connections dropped on malformed frames",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind (a failure raises here), then serve from the event loop
        thread; returns the address."""
        loop = self._loop = asyncio.new_event_loop()
        try:
            self._server = loop.run_until_complete(
                loop.create_server(lambda: _Connection(self), self._host, self._port)
            )
        except BaseException:
            loop.close()
            raise
        self._port = self._server.sockets[0].getsockname()[1]
        self._thread = threading.Thread(
            target=self._run_loop, args=(loop,), name="eg-transport-loop", daemon=True
        )
        self._thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    def stop(self) -> None:
        """Close the listener and every connection, then stop the loop."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._shutdown, loop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._work_pool.shutdown(wait=False)

    def __enter__(self) -> "AsyncTransportServer":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    def _run_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            # an accept caught half-way by stop() is the only task there
            # can be: cancel it so debug mode sees everything awaited
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.close()

    def _shutdown(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            connection._transport.abort()
        # abort() queued every connection_lost; stop once they have run,
        # so a handler that finishes later finds its request settled
        loop.call_soon(loop.stop)

    # ------------------------------------------------------------------
    # Request path (the loop thread owns the counters: plain ints are safe)
    # ------------------------------------------------------------------
    def _dispatch(self, op: str) -> Handler:
        """Count the request in flight and find its handler."""
        self._requests_total.inc(op=op)
        self._inflight += 1
        self._inflight_gauge.set(self._inflight)
        self._inflight_peak.set_max(self._inflight)
        bridged = self.shard_bridge.handlers if self.shard_bridge is not None else {}
        handler = bridged.get(op) or getattr(self, f"_op_{op.replace('.', '_')}", None)
        if handler is None:
            raise ProtocolError(f"unknown op {op!r}")
        return handler

    def _requests_finished(self, count: int) -> None:
        self._inflight -= count
        self._inflight_gauge.set(self._inflight)

    def _note_protocol_error(self) -> None:
        self._protocol_errors.inc()
        logger.warning("transport connection dropped on protocol error", exc_info=True)

    def _run_handler(
        self, op: str, handler: Handler, message: dict[str, Any]
    ) -> tuple[int, Any, SpanContext | None]:
        """The reply frame's kind and message, and the request span's
        context (None when tracing is off) for the reply's encode span."""
        # one span per dispatched request, on the work-pool thread, so
        # service spans (plan/commit/merge) nest under it and the glue —
        # workload DAG rebuild, payload decode — shows up attributed
        # instead of vanishing into unaccounted time.  A client-sent
        # trace context ("tc") parents the span, so service work joins
        # the client workload's trace across the wire — including the
        # merge worker's service.commit, whose ticket captures this
        # thread's context at submit time.
        parent = _remote_parent(message.pop("tc", None))
        span = get_tracer().span("transport.request", op=op, parent=parent)
        try:
            with span:
                return KIND_RESPONSE, handler(message), span.context
        except BaseException as error:  # noqa: BLE001 - it all maps onto the wire
            return KIND_ERROR, _error_record(error), span.context

    def _decode(self, codec: WireCodec, body: memoryview) -> Any:
        started = time.perf_counter()
        message = codec.decode(body)
        if len(body) >= _CODEC_SPAN_BYTES_FLOOR and isinstance(message, dict):
            # a sibling of the request span the work pool will open, under
            # the sender's span: the frame's own "tc" is the only context
            # that exists yet on the loop thread
            parent = _remote_parent(message.get("tc"))
            _codec_span("transport.decode", parent, started, codec, len(body))
        return message

    def _encode(
        self,
        codec: WireCodec,
        kind: int,
        request_id: int,
        message: Any,
        context: SpanContext | None = None,
    ) -> Parts:
        """One reply frame: its header, then the body parts.  ``context``
        is the span the encode is accounted under (the request's)."""
        started = time.perf_counter()
        parts = codec.encode(message)
        size = encoded_size(parts)
        if size >= _CODEC_SPAN_BYTES_FLOOR:
            _codec_span("transport.encode", context, started, codec, size)
        return [pack_header(kind, codec.codec_id, request_id, size), *parts]

    # ------------------------------------------------------------------
    # Request handlers (run on the work pool, never on the loop)
    # ------------------------------------------------------------------
    def _op_ping(self, _message: dict[str, Any]) -> dict[str, Any]:
        return {"version": self.service.version}

    def _op_open_session(self, message: dict[str, Any]) -> dict[str, Any]:
        session = self.service.open_session(message.get("name"))
        return {"session_id": session.session_id, "name": session.name}

    def _op_close_session(self, message: dict[str, Any]) -> dict[str, Any]:
        with self._kept_lock:
            self._kept.pop(message["session_id"], None)
        self.service.close_session(message["session_id"])
        return {}

    def _op_plan(self, message: dict[str, Any]) -> dict[str, Any]:
        session_id = message["session_id"]
        workload = decode_workload(message["workload"])
        token, shipped = next(self._plan_tokens), {}
        with self.service.plan(session_id, workload) as plan:
            # a stored source stays stored (the updater evicts only derived
            # artifacts): the commit carries the rest of what the tenant holds
            need = [
                vertex.vertex_id
                for vertex in workload.vertices()
                if vertex.computed
                and not (vertex.is_source and plan.eg.is_materialized(vertex.vertex_id))
            ]
            reply = encode_plan_reply(plan, token, need, shipped)
        with self._kept_lock:
            kept = self._kept.setdefault(session_id, _KeptPlan())
        with kept.lock:
            kept.token, kept.workload = token, workload
            # the executor applies no load to a vertex it already holds
            kept.loads = {
                vertex_id: load
                for vertex_id, load in shipped.items()
                if not workload.vertex(vertex_id).computed
            }
            kept.committed = kept.outcome = None
        return reply

    def _op_commit(self, message: dict[str, Any]) -> dict[str, Any]:
        if "workload" in message:
            # the whole executed DAG: still accepted, no longer sent by
            # RemoteService
            executed = decode_workload(message["workload"])
            result = self.service.commit(
                message["session_id"], executed, label=message.get("label", "")
            )
        else:
            result = self._commit_planned(message)
        return encode_commit_reply(result)

    def _commit_planned(self, message: dict[str, Any]) -> Any:
        """Commit a session's planned DAG, rebuilt with the tenant's
        results.  The plan is consumed by any outcome but an overload
        bounce, which the client retries with the same token; a replay of
        a consumed commit answers with that commit's outcome."""
        session_id, token = message["session_id"], message["plan"]
        with self._kept_lock:
            kept = self._kept.get(session_id)
        if kept is None:
            raise UnknownPlanError(f"session {session_id!r} holds no plan")
        with kept.lock:
            if kept.committed is None or token != kept.committed:
                if kept.token is None or token != kept.token:
                    raise UnknownPlanError(
                        f"session {session_id!r} holds plan {kept.token}, not {token}"
                    )
                executed = decode_results(kept.workload, kept.loads, message["r"])
                try:
                    kept.outcome = self.service.commit(
                        session_id, executed, label=message.get("label", "")
                    )
                except Exception as error:  # noqa: BLE001 - a replay re-raises it
                    if isinstance(error, ServiceOverloadedError):
                        raise  # bounced before merging: the plan stays held
                    kept.outcome = error
                kept.token, kept.workload, kept.loads = None, None, {}
                kept.committed = token
            if isinstance(kept.outcome, Exception):
                raise kept.outcome
            return kept.outcome

    def _op_stats(self, _message: dict[str, Any]) -> dict[str, Any]:
        return {"stats": encode_stats(self.service.stats())}

    def _op_metrics(self, message: dict[str, Any]) -> dict[str, Any]:
        if message.get("format", "text") == "json":
            return {"metrics": self.service.metrics_snapshot()}
        return {"text": self.service.metrics_text()}

    def _op_health(self, _message: dict[str, Any]) -> dict[str, Any]:
        """Service health (queue/recorder state) plus a transport section."""
        health_fn = getattr(self.service, "health", None)
        if callable(health_fn):
            payload = dict(health_fn())
        else:
            payload = {
                "status": "ok" if getattr(self.service, "running", True) else "stopped"
            }
        payload["transport"] = {
            **self.wire_stats(),
            "inflight": float(self._inflight),
            "open_connections": self._connections_gauge.value(),
        }
        return {"health": sanitize_tree(payload)}

    def _op_debug(self, message: dict[str, Any]) -> dict[str, Any]:
        """Flight-recorder introspection: kept traces and slowest spans;
        ``trace_id`` fetches one trace's full span list."""
        debug_fn = getattr(self.service, "debug_info", None)
        if not callable(debug_fn):
            raise ProtocolError("service exposes no debug surface")
        info = debug_fn(
            traces=int(message.get("traces", 16)),
            spans=int(message.get("spans", 20)),
            trace_id=message.get("trace_id"),
        )
        return {"debug": sanitize_tree(info)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def wire_stats(self) -> dict[str, float]:
        """Point-in-time transport counters (bytes, frames, dedup)."""
        with self._connections_lock:
            codecs = [connection.binary for connection in self._connections]
        live_refs = sum(codec.refs_sent for codec in codecs)
        live_saved = sum(codec.ref_bytes_saved for codec in codecs)
        return {
            "bytes_in": self._bytes_total.value(direction="in"),
            "bytes_out": self._bytes_total.value(direction="out"),
            "frames_in": self._frames_total.value(direction="in"),
            "frames_out": self._frames_total.value(direction="out"),
            "requests": self._requests_total.total(),
            # read by benchmarks/e2e/; the server itself refuses no request
            "shed": 0.0,
            "dedup_refs": self._dedup_refs.total() + live_refs,
            "dedup_bytes_saved": self._dedup_saved.total() + live_saved,
            "inflight_peak": self._inflight_peak.value(),
        }
