"""Asyncio transport server: multiplexed frames over one event loop.

:class:`AsyncTransportServer` serves an :class:`~repro.service.core.EGService`
(or :class:`~repro.shard.ShardedEGService` — the request surface is
identical) over the tagged binary frame protocol of
:mod:`repro.transport.frames`:

* **Pipelining** — the per-connection read loop decodes frames in
  arrival order (the dedup ledger requires it) but dispatches each
  request as its own task; a slow ``commit`` never blocks the ``plan``
  queued behind it on the same connection.
* **Multiplexing** — responses carry the request's tag and are written
  whenever their handler finishes, so they return **out of order**; the
  per-connection write lock only serializes the physical write (and the
  encode inside it, which keeps ledger order consistent with frame
  order).
* **Admission control** — every request passes the
  :class:`~repro.transport.admission.AdmissionController` before it
  touches the service: per-tenant token buckets, then tiered shedding
  (plan-only traffic first, non-urgent commits second) surfaced as typed
  errors clients back off on.

Blocking service calls (plan/commit take locks, commits wait on the
merge worker) run in a thread pool via ``run_in_executor``; codec work
runs in a separate small pool so responses can still be serialized while
every worker is parked inside a commit.  The event loop itself only
shuffles frames.

The server runs its own event loop in a background thread: ``start()``
returns the bound address and the blocking clients (and tests) connect
to it from ordinary threads.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..obs.trace import SpanContext, get_tracer
from ..obs.metrics import MetricsRegistry
from .admission import AdmissionController, AdmissionPolicy
from .codec import BinaryWireCodec, ColumnLedger, WireCodec, codec_for_id, encoded_size
from .errors import AdmissionError, ProtocolError, TransportError
from .frames import (
    HEADER,
    KIND_ERROR,
    KIND_RESPONSE,
    pack_header,
    read_frame_async,
)
from .wire import (
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


def _remote_parent(tc: Any) -> SpanContext | None:
    """The caller's span context from a frame's ``tc`` field, if sound."""
    if isinstance(tc, (list, tuple)) and len(tc) == 2:
        return SpanContext(trace_id=str(tc[0]), span_id=str(tc[1]))
    return None


class AsyncTransportServer:
    """Serves one EG service over the async multiplexed binary protocol."""

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | AdmissionPolicy | None = None,
        max_workers: int = 8,
        metrics_registry: MetricsRegistry | None = None,
        shard_bridge: Any = None,
    ):
        self.service = service
        #: optional shard-worker bridge: its ``handlers`` dict serves the
        #: dotted ``shard.*`` ops ahead of the built-in ``_op_*`` lookup
        self.shard_bridge = shard_bridge
        self._host = host
        self._port = port
        if isinstance(admission, AdmissionController):
            self.admission = admission
        else:
            self.admission = AdmissionController(
                admission, headroom=getattr(service, "queue_headroom", None)
            )
        #: handlers that hit the (blocking) service
        self._work_pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="eg-transport-work"
        )
        #: encode/decode only — kept separate so responses still flow when
        #: every work thread is parked inside a merge
        self._codec_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="eg-transport-codec"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._inflight = 0
        self._connection_tasks: set[asyncio.Task] = set()
        #: per-connection codecs still open — wire_stats() folds their
        #: dedup counters in live, so reads never race connection teardown
        self._live_codecs: set[BinaryWireCodec] = set()
        self._live_codecs_lock = threading.Lock()

        registry = (
            metrics_registry
            if metrics_registry is not None
            else getattr(service, "metrics_registry", None)
        )
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
        self._shed_total = registry.counter(
            "repro_transport_shed_total", "requests refused by admission", ("tier",)
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
        """Start the event loop thread and begin serving; returns the address."""
        self._thread = threading.Thread(
            target=self._run_loop, name="eg-transport-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    def stop(self) -> None:
        """Close the listener and every connection, then stop the loop."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(lambda: asyncio.ensure_future(self._shutdown()))
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._work_pool.shutdown(wait=False)
        self._codec_pool.shutdown(wait=False)

    def __enter__(self) -> "AsyncTransportServer":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._serve_connection, self._host, self._port)
            )
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._server = server
        self._port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # drain cancelled tasks so debug mode sees everything awaited
            tasks = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        loop.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        binary = BinaryWireCodec(ColumnLedger())
        with self._live_codecs_lock:
            self._live_codecs.add(binary)
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        self._connections_gauge.inc()
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None:
                    break
                header, body = frame
                self._bytes_total.inc(len(body) + HEADER.size, direction="in")
                self._frames_total.inc(direction="in")
                codec = codec_for_id(header.codec, binary)
                # decode stays in arrival order (awaited before the next
                # read) — the dedup ledger requires it; the codec pool
                # keeps the byte-crunching off the event loop
                message = await loop.run_in_executor(
                    self._codec_pool, self._decode, codec, body
                )
                request_task = asyncio.create_task(
                    self._handle_request(header, message, codec, writer, write_lock)
                )
                pending.add(request_task)
                request_task.add_done_callback(pending.discard)
        except (TransportError, ProtocolError):
            self._protocol_errors.inc()
            logger.warning(
                "transport connection dropped on protocol error", exc_info=True
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown: exit quietly, cleanup runs below
        finally:
            for request_task in pending:
                request_task.cancel()
            try:
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
            except asyncio.CancelledError:
                pass  # double-cancel during loop teardown
            # remove-then-sample: a concurrent wire_stats() may briefly
            # miss this connection's tail but never double counts
            with self._live_codecs_lock:
                self._live_codecs.discard(binary)
            self._dedup_refs.inc(binary.refs_sent)
            self._dedup_saved.inc(binary.ref_bytes_saved)
            self._connections_gauge.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    async def _handle_request(
        self,
        header,
        message: dict[str, Any],
        codec: WireCodec,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        op = str(message.get("op"))
        self._requests_total.inc(op=op)
        # the loop is single-threaded: plain int arithmetic is safe here
        self._inflight += 1
        self._inflight_gauge.set(self._inflight)
        self._inflight_peak.set_max(self._inflight)
        loop = asyncio.get_running_loop()
        try:
            try:
                self._admit(op, message)
                handler = None
                if self.shard_bridge is not None:
                    handler = self.shard_bridge.handlers.get(op)
                if handler is None:
                    handler = getattr(self, f"_op_{op.replace('.', '_')}", None)
                if handler is None:
                    raise ProtocolError(f"unknown op {op!r}")
                result = await loop.run_in_executor(
                    self._work_pool, self._run_handler, op, handler, message
                )
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # noqa: BLE001 - every error maps onto the wire
                if isinstance(error, AdmissionError):
                    # a shed request never reaches _run_handler, so no
                    # span exists for it; emit a synthetic finished one
                    # ("tc" is still in the message — only the handler
                    # path pops it) so the flight recorder tail-keeps
                    # the client's whole trace
                    self._record_shed_span(op, message, error)
                await self._send(
                    writer,
                    write_lock,
                    codec,
                    KIND_ERROR,
                    header.request_id,
                    {
                        "error": type(error).__name__,
                        "message": str(error),
                        "tier": getattr(error, "tier", None),
                    },
                )
                return
            await self._send(
                writer, write_lock, codec, KIND_RESPONSE, header.request_id, result
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # peer went away; nothing to answer to
        finally:
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)

    def _admit(self, op: str, message: dict[str, Any]) -> None:
        tenant = str(message.get("tenant") or message.get("session_id") or "anonymous")
        try:
            self.admission.admit(
                op,
                tenant,
                inflight=self._inflight,
                urgent=bool(message.get("urgent", False)),
            )
        except AdmissionError as error:
            self._shed_total.inc(tier=str(error.tier))
            raise

    def _record_shed_span(
        self, op: str, message: dict[str, Any], error: AdmissionError
    ) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            return
        # created and finished without ever being entered: it runs on the
        # event loop thread and must not touch its span stack
        tracer.span(
            "transport.shed",
            parent=_remote_parent(message.get("tc")),
            op=op,
            tier=str(error.tier),
            error=type(error).__name__,
        ).finish()

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        codec: WireCodec,
        kind: int,
        request_id: int,
        message: dict[str, Any],
    ) -> None:
        loop = asyncio.get_running_loop()
        # encode under the write lock: ledger updates must land in frame
        # order, or a later frame could reference a column the peer has
        # not received yet
        async with write_lock:
            parts = await loop.run_in_executor(
                self._codec_pool, self._encode, codec, message
            )
            body_len = encoded_size(parts)
            writer.write(pack_header(kind, codec.codec_id, request_id, body_len))
            for part in parts:
                writer.write(part)
            self._bytes_total.inc(body_len + HEADER.size, direction="out")
            self._frames_total.inc(direction="out")
            await writer.drain()

    def _run_handler(self, op: str, handler, message: dict[str, Any]) -> Any:
        # one span per dispatched request, on the work-pool thread, so
        # service spans (plan/commit/merge) nest under it and the glue —
        # workload DAG rebuild, payload decode — shows up attributed
        # instead of vanishing into unaccounted time.  A client-sent
        # trace context ("tc") parents the span, so service work joins
        # the client workload's trace across the wire — including the
        # merge worker's service.commit, whose ticket captures this
        # thread's context at submit time.
        parent = _remote_parent(message.pop("tc", None))
        with get_tracer().span("transport.request", op=op, parent=parent):
            return handler(message)

    def _decode(self, codec: WireCodec, body: memoryview) -> Any:
        if len(body) < _CODEC_SPAN_BYTES_FLOOR:
            return codec.decode(body)
        span = get_tracer().span("transport.decode", codec=codec.name, bytes=len(body))
        try:
            return codec.decode(body)
        finally:
            span.finish()

    def _encode(self, codec: WireCodec, message: Any) -> list[bytes | memoryview]:
        span = get_tracer().span("transport.encode", codec=codec.name)
        parts = codec.encode(message)
        size = encoded_size(parts)
        if size >= _CODEC_SPAN_BYTES_FLOOR:
            span.set_attribute("bytes", size)
            span.finish()
        return parts

    # ------------------------------------------------------------------
    # Request handlers (run on the work pool, never on the loop)
    # ------------------------------------------------------------------
    def _op_ping(self, _message: dict[str, Any]) -> dict[str, Any]:
        return {"version": self.service.version}

    def _op_open_session(self, message: dict[str, Any]) -> dict[str, Any]:
        session = self.service.open_session(message.get("name"))
        return {"session_id": session.session_id, "name": session.name}

    def _op_close_session(self, message: dict[str, Any]) -> dict[str, Any]:
        self.service.close_session(message["session_id"])
        return {}

    def _op_plan(self, message: dict[str, Any]) -> dict[str, Any]:
        workload = decode_workload(message["workload"])
        with self.service.plan(message["session_id"], workload) as plan:
            return encode_plan_reply(plan)

    def _op_commit(self, message: dict[str, Any]) -> dict[str, Any]:
        executed = decode_workload(message["workload"])
        result = self.service.commit(
            message["session_id"], executed, label=message.get("label", "")
        )
        return encode_commit_reply(result)

    def _op_stats(self, _message: dict[str, Any]) -> dict[str, Any]:
        return {"stats": encode_stats(self.service.stats())}

    def _op_metrics(self, message: dict[str, Any]) -> dict[str, Any]:
        if message.get("format", "text") == "json":
            return {"metrics": self.service.metrics_snapshot()}
        return {"text": self.service.metrics_text()}

    def _op_health(self, _message: dict[str, Any]) -> dict[str, Any]:
        """Service health (queue/SLO/recorder state) plus a transport
        section; never shed, so it answers during overload."""
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
        """Flight-recorder introspection: kept traces, slowest spans,
        alert journal; ``trace_id`` fetches one trace's full span list."""
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
        """Point-in-time transport counters (bytes, frames, sheds, dedup)."""
        with self._live_codecs_lock:
            live_refs = sum(codec.refs_sent for codec in self._live_codecs)
            live_saved = sum(codec.ref_bytes_saved for codec in self._live_codecs)
        return {
            "bytes_in": self._bytes_total.value(direction="in"),
            "bytes_out": self._bytes_total.value(direction="out"),
            "frames_in": self._frames_total.value(direction="in"),
            "frames_out": self._frames_total.value(direction="out"),
            "requests": self._requests_total.total(),
            "shed": self._shed_total.total(),
            "dedup_refs": self._dedup_refs.total() + live_refs,
            "dedup_bytes_saved": self._dedup_saved.total() + live_saved,
            "inflight_peak": self._inflight_peak.value(),
        }
