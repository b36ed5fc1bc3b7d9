"""Invariants of the server's request path: what runs where, in what
order, and what a request is owed however its connection ends.

The loop thread receives, decodes and writes; one work-pool thread
handles and encodes.  These tests pin what that split must keep: a
request naming no op takes no worker, decode order is arrival order,
write order is encode order, every request is answered exactly once (or
its connection is gone), and ``_inflight`` always returns to zero.
"""

import logging
import socket
import struct
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.client.executor import VirtualCostModel
from repro.dataframe import DataFrame
from repro.experiments.swarm import eg_fingerprint, replay_sequentially, swarm_family
from repro.materialization.simple import MaterializeAll
from repro.obs import FlightRecorder, Tracer, use_tracer
from repro.service import EGService
from repro.transport import (
    AsyncTransportServer,
    ConnectionPool,
    TransportConnection,
    TransportServiceClient,
)
from repro.transport.codec import BinaryWireCodec
from repro.transport.frames import (
    CODEC_BINARY,
    HEADER,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    recv_frame,
    send_frame,
)
from repro.transport.shardops import ShardRequestBridge

from ..conftest import Shift

EMPTY_WORKLOAD = {"v": [], "e": [], "tm": []}


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class _GatedService:
    """Duck-typed service whose commits park until the test opens a gate."""

    version = 3
    metrics_registry = None

    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def open_session(self, name):
        return SimpleNamespace(session_id="s1", name=name or "anon")

    def close_session(self, session_id):
        pass

    def commit(self, session_id, executed, label=""):
        self.entered.release()
        self.gate.wait(30.0)
        return SimpleNamespace(commit_index=1, version=4, batch_size=1, new_sources=0)


def _commit_message(label=""):
    return {
        "op": "commit",
        "session_id": "s1",
        "label": label,
        "workload": EMPTY_WORKLOAD,
    }


def _raw_request(sock, request_id, message):
    send_frame(
        sock, KIND_REQUEST, CODEC_BINARY, request_id, BinaryWireCodec().encode(message)
    )


def _pool_submissions(server):
    """The futures of what the server hands its work pool from here on."""
    submitted = []
    real_submit = server._work_pool.submit

    def recording_submit(fn, *args, **kwargs):
        future = real_submit(fn, *args, **kwargs)
        submitted.append(future)
        return future

    server._work_pool.submit = recording_submit
    return submitted


class TestOneHop:
    def test_a_served_request_takes_exactly_one_pool_submission(self):
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                submitted = _pool_submissions(server)
                with TransportConnection(*server.address) as connection:
                    for _ in range(5):
                        connection.request({"op": "ping"})
                    session = connection.request({"op": "open_session", "name": "t"})
                    connection.request(
                        {
                            "op": "plan",
                            "session_id": session["session_id"],
                            "workload": EMPTY_WORKLOAD,
                        }
                    )
                assert len(submitted) == 7 == server.wire_stats()["requests"]

    def test_no_handler_runs_on_the_loop_thread(self):
        threads = []

        class Service:
            metrics_registry = None

            @property
            def version(self):  # read inside the ping handler
                threads.append(threading.current_thread().name)
                return 1

        with AsyncTransportServer(Service()) as server:
            with TransportConnection(*server.address) as connection:
                connection.request({"op": "ping"})
        assert len(threads) == 1 and threads[0].startswith("eg-transport-work")

    def test_unknown_ops_never_take_a_worker(self):
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                submitted = _pool_submissions(server)
                with TransportConnection(*server.address) as connection:
                    with pytest.raises(Exception, match="unknown op 'nope'"):
                        connection.request({"op": "nope"})
                    assert submitted == []
                    # answered and settled; the connection lives on
                    connection.request({"op": "ping"})
                    assert len(submitted) == 1
                assert server._inflight == 0
                wire = server.wire_stats()
                assert wire["frames_in"] == wire["frames_out"] == 2


class TestCodecSpansJoinTheRequestTrace:
    def test_payload_frames_decode_and_encode_inside_the_workload_trace(self):
        """A ≥ 16 KiB commit is decoded on the loop thread before any
        request span exists, and a ≥ 16 KiB plan reply is encoded after
        the request span closed: both codec spans must still land in the
        caller's ``client.workload`` trace, never root a trace of their
        own (the recorder would count, sample and ring-buffer each)."""
        rng = np.random.default_rng(3)
        sources = {
            "wide": DataFrame({"x": rng.normal(size=4096), "y": rng.normal(size=4096)})
        }

        def shifted(steps):
            def script(ws, frames):
                node = ws.source("wide", frames["wide"])
                for k in range(1, steps + 1):
                    node = node.add(Shift(k))
                node.terminal()

            return script

        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        with use_tracer(Tracer()) as tracer:
            with EGService(
                MaterializeAll(), background=True, flight_recorder=recorder
            ) as service:
                with AsyncTransportServer(service) as server:
                    # the second tenant's plan reply carries the load's
                    # content to a connection that has never seen it; a
                    # commit carries only what its tenant computed, so the
                    # second tenant computes a step of its own
                    for tenant, steps in (("first", 1), ("second", 2)):
                        with TransportServiceClient(
                            *server.address, name=tenant, cost_model=VirtualCostModel()
                        ) as client:
                            client.run_script(shifted(steps), sources)
        spans = tracer.finished_spans()
        workload_traces = {s.trace_id for s in spans if s.name == "client.workload"}
        assert len(workload_traces) == 2
        codec = [s for s in spans if s.name in ("transport.decode", "transport.encode")]
        assert sorted(s.name for s in codec) == [
            "transport.decode",  # each tenant's commit
            "transport.decode",
            "transport.encode",  # the second tenant's plan reply
        ]
        by_id = {s.span_id: s for s in spans}
        for span in codec:
            assert span.attributes["bytes"] >= 16384
            assert span.trace_id in workload_traces
            parent = by_id[span.parent_id]
            if span.name == "transport.encode":
                assert parent.name == "transport.request"
                assert parent.attributes["op"] == "plan"
                assert span.thread_name == parent.thread_name
            else:
                assert parent.name == "client.workload"
                assert span.thread_name == "eg-transport-loop"
            # back-dated to the clock read before the codec call
            assert span.start_s > parent.start_s and span.duration_s > 0.0
        # every trace the recorder saw holds a request or a merge, never a
        # lone codec span
        for trace_id in {s.trace_id for s in spans}:
            names = {s.name for s in spans if s.trace_id == trace_id}
            assert names - {"transport.decode", "transport.encode"}, names
        assert recorder.stats()["traces_total"] == len({s.trace_id for s in spans})


class TestReplyTheCodecRefuses:
    """A handler result the codec cannot encode is a typed error frame,
    not silence until the client's timeout."""

    @pytest.mark.parametrize("codec", ["binary", "json"])
    def test_unencodable_result_answers_with_an_error_frame(self, codec, caplog):
        service = EGService(MaterializeAll())
        bridge = ShardRequestBridge(service, 0)
        bridge.handlers["shard.stats"] = lambda _message: {"x": object()}
        with service, AsyncTransportServer(service, shard_bridge=bridge) as server:
            with TransportConnection(*server.address, codec=codec) as connection:
                started = time.monotonic()
                with caplog.at_level(logging.ERROR, logger="asyncio"):
                    with pytest.raises(Exception, match="not JSON.serializable"):
                        connection.request({"op": "shard.stats"}, timeout_s=5.0)
                assert time.monotonic() - started < 1.0
                # answered, settled, and the connection still serves
                assert connection.request({"op": "ping"}) == {"version": 0}
            assert wait_until(lambda: server._inflight == 0)
        assert not caplog.records


class TestRequestTheCodecRefuses:
    """Client side of the same rule: a message that fails to encode
    leaves no waiter and no ledger entry behind, and its retry works."""

    def test_failed_submit_keeps_the_connection_usable(self):
        def record(column_id):
            return {
                "name": "x",
                "dtype": "float64",
                "column_id": column_id,
                "values": np.arange(8.0),
            }

        class Echo:
            version = 1
            metrics_registry = None

        bridge = SimpleNamespace(handlers={"echo": lambda message: message["c"]})
        with AsyncTransportServer(Echo(), shard_bridge=bridge) as server:
            with TransportConnection(*server.address) as connection:
                bad = {"op": "echo", "c": record("col"), "params": object()}
                with pytest.raises(TypeError):
                    connection.submit(bad)
                assert connection._waiters == {}
                assert "col" not in connection._binary.ledger
                # had the ledger kept "col", this would ship a reference
                # the server cannot resolve and kill the connection
                reply = connection.request({"op": "echo", "c": record("col")})
                np.testing.assert_array_equal(reply["values"], np.arange(8.0))
                assert connection.dedup_refs_sent == 0
                assert not connection.closed


class TestPipeliningSharedColumns:
    def test_eight_threads_on_one_connection_converge_to_the_replay(self):
        op_seconds = 0.001
        script_for, sources = swarm_family(1, op_seconds)
        threads_n, rounds = 8, 3
        replies = []
        errors = []
        with EGService(MaterializeAll(), background=True) as service:
            with AsyncTransportServer(service) as server:
                # one socket: every tenant's plan and commit frames — all
                # carrying the same source columns — interleave on it
                pool = ConnectionPool(*server.address, size=1)
                connection = pool._connection_at(0)
                connection._response_hook = lambda rid, kind: replies.append((rid, kind))

                def tenant(index):
                    try:
                        with TransportServiceClient(
                            name=f"t{index}",
                            cost_model=VirtualCostModel(),
                            pool=pool,
                        ) as client:
                            for round_index in range(rounds):
                                client.run_script(
                                    script_for(index, round_index),
                                    sources,
                                    label=f"{index}:{round_index}",
                                )
                    except BaseException as error:  # noqa: BLE001 - surfaced below
                        errors.append(error)

                workers = [
                    threading.Thread(target=tenant, args=(i,)) for i in range(threads_n)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60.0)
                assert not errors, errors  # no StaleColumnReferenceError
                assert pool._connection_at(0) is connection  # never re-dialled
                assert pool.retries == 0
                client_wire = pool.wire_stats()
                pool.close()
                wire = server.wire_stats()
            log = sorted(service.commit_log(), key=lambda r: r.commit_index)
            fingerprint = eg_fingerprint(service.eg)
        assert len(log) == threads_n * rounds
        replayed = replay_sequentially([r.label for r in log], op_seconds)
        assert fingerprint == eg_fingerprint(replayed)
        # exactly one reply per request: every tag answered once, no
        # error frame, and the dedup ledger was exercised both ways
        assert len(replies) == len({rid for rid, _ in replies}) == wire["requests"]
        assert {kind for _, kind in replies} == {KIND_RESPONSE}
        assert wire["frames_in"] == wire["frames_out"] == wire["requests"]
        assert wire["dedup_refs"] > 0 and client_wire["dedup_refs_sent"] > 0
        assert server._inflight == 0


class TestBackpressure:
    def test_a_peer_that_never_reads_stops_being_read(self):
        # a ping reply carries ``version``: make each one 8 KiB so 2 000
        # of them (16 MiB) overflow any socket buffer
        reply_bytes = 8192
        service = SimpleNamespace(version="v" * reply_bytes, metrics_registry=None)
        requests, batch = 2000, 32
        with AsyncTransportServer(service) as server:
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.connect(server.address)
            try:
                assert wait_until(lambda: len(server._connections) == 1)
                transport = next(iter(server._connections))._transport
                frames_out = lambda: server.wire_stats()["frames_out"]  # noqa: E731
                # a batch at a time, each fully answered before the next
                # goes out: when reading stops, at most one batch of
                # replies lies beyond the high-water mark
                sent = 0
                while transport.is_reading() and sent < requests:
                    for _ in range(batch):
                        sent += 1
                        _raw_request(raw, sent, {"op": "ping"})
                    assert wait_until(
                        lambda: frames_out() == sent or not transport.is_reading()
                    )
                assert not transport.is_reading() and sent < requests
                assert wait_until(lambda: server._inflight == 0)
                read_before_the_stall = server.wire_stats()["frames_in"]
                for request_id in range(sent + 1, requests + 1):
                    _raw_request(raw, request_id, {"op": "ping"})
                time.sleep(0.2)
                # nothing sent since was read, and what is owed is not piling up
                assert server.wire_stats()["frames_in"] == read_before_the_stall
                high_water = transport.get_write_buffer_limits()[1]
                assert transport.get_write_buffer_size() <= high_water + batch * (
                    reply_bytes + 256
                )
                # the stall is this connection's alone
                with TransportConnection(*server.address) as second:
                    assert second.request({"op": "ping"}, timeout_s=5.0)
                assert not transport.is_reading()
                # the peer drains: reading resumes, every ping is answered
                raw.settimeout(10.0)
                answered = set()
                for _ in range(requests):
                    header, _body = recv_frame(raw)
                    assert header.kind == KIND_RESPONSE
                    answered.add(header.request_id)
                assert answered == set(range(1, requests + 1))
            finally:
                raw.close()
            assert wait_until(lambda: server._inflight == 0)
            assert server.wire_stats()["frames_out"] == requests + 1


class TestEndsOfAConnection:
    def test_stop_with_commits_parked_in_the_merge(self, caplog):
        service = _GatedService()
        server = AsyncTransportServer(service)
        server.start()
        submitted = _pool_submissions(server)
        connection = TransportConnection(*server.address)
        try:
            pending = [connection.submit(_commit_message(str(i))) for i in range(3)]
            for _ in pending:
                assert service.entered.acquire(timeout=5.0)
            assert server._inflight == 3
            with caplog.at_level(logging.DEBUG):
                server.stop()
                assert server._inflight == 0
                # the handlers finish after the loop is gone
                service.gate.set()
                server._work_pool.shutdown(wait=True)
            assert [future.exception() for future in submitted] == [None] * 3
            assert server._inflight == 0
            assert server.wire_stats()["frames_out"] == 0
            for reply in pending:
                with pytest.raises(ConnectionError):
                    reply.wait(5.0)
        finally:
            service.gate.set()
            connection.close()
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_peer_reset_mid_handler_drops_the_reply(self, caplog):
        service = _GatedService()
        with AsyncTransportServer(service) as server:
            raw = socket.create_connection(server.address)
            _raw_request(raw, 1, _commit_message())
            assert service.entered.acquire(timeout=5.0)
            assert server._inflight == 1
            # SO_LINGER 0: close() sends RST, not FIN
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            raw.close()
            gauge = server.metrics_registry.gauge("repro_transport_open_connections")
            with caplog.at_level(logging.DEBUG):
                assert wait_until(lambda: gauge.value() == 0)
                # settled when the connection went, not when the handler ends
                assert server._inflight == 0
                service.gate.set()
                server._work_pool.submit(lambda: None).result(5.0)
                time.sleep(0.05)  # the dropped reply's callback has run
            wire = server.wire_stats()
            assert (wire["frames_in"], wire["frames_out"]) == (1, 0)
            assert server._inflight == 0
            assert server.metrics_registry.gauge("repro_transport_inflight").value() == 0
            # the server is unharmed
            with TransportConnection(*server.address) as connection:
                assert connection.request({"op": "ping"}) == {"version": 3}
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_truncated_frame_is_a_counted_protocol_error(self):
        service = SimpleNamespace(version=1, metrics_registry=None)
        with AsyncTransportServer(service) as server:
            raw = socket.create_connection(server.address)
            raw.sendall(HEADER.pack(0xE61B, KIND_REQUEST, CODEC_BINARY, 1, 100) + b"xx")
            raw.shutdown(socket.SHUT_WR)
            raw.settimeout(5.0)
            assert raw.recv(1) == b""
            raw.close()
            errors = server.metrics_registry.counter(
                "repro_transport_protocol_errors_total"
            )
            assert wait_until(lambda: errors.total() == 1)

    def test_undecodable_body_closes_orderly_after_pending_replies(self):
        # a protocol error half-closes: the peer reads EOF (not a reset)
        # even though bytes it sent after the bad frame were never read
        service = SimpleNamespace(version=1, metrics_registry=None)
        with AsyncTransportServer(service) as server:
            raw = socket.create_connection(server.address)
            raw.settimeout(5.0)
            _raw_request(raw, 1, {"op": "ping"})
            header, _body = recv_frame(raw)
            assert (header.kind, header.request_id) == (KIND_RESPONSE, 1)
            garbage = b"\xff" * 64
            raw.sendall(
                HEADER.pack(0xE61B, KIND_REQUEST, CODEC_BINARY, 2, len(garbage))
                + garbage
                + b"\x00" * 100_000
            )
            assert recv_frame(raw) is None  # orderly close between frames
            raw.close()
            gauge = server.metrics_registry.gauge("repro_transport_open_connections")
            assert wait_until(lambda: gauge.value() == 0)
            assert server._inflight == 0

    def test_error_kind_reply_is_typed(self):
        service = SimpleNamespace(version=1, metrics_registry=None)
        with AsyncTransportServer(service) as server:
            raw = socket.create_connection(server.address)
            raw.settimeout(5.0)
            _raw_request(raw, 7, {"op": "close_session", "session_id": "s"})
            header, body = recv_frame(raw)
            raw.close()
        assert (header.kind, header.request_id) == (KIND_ERROR, 7)
        assert BinaryWireCodec().decode(body)["error"] == "AttributeError"
