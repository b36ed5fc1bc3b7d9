"""Shard worker processes: one :class:`~repro.service.core.EGService` each.

Each shard's service runs in its own :class:`ShardWorkerProcess` behind its
own :class:`~repro.transport.server.AsyncTransportServer`; its
:class:`RemoteShard` answers the slice of the ``EGService`` surface the
coordinator, :class:`~repro.shard.service.ProcessShardCoordinator`, calls
by talking to that server.  Routing, the submit lock, gap-free global
commit indices, backpressure-before-index, stitched planning and the
telemetry rollup are the coordinator's; a swarm over N worker processes
therefore converges bit-identically to sequential replay.

How a ``RemoteShard`` keeps the coordinator's contract over the wire:

* **FIFO dispatch** — one *dedicated* commit connection.
  ``shard.commit`` frames are submitted on it under the coordinator's
  submit lock, stamped with a dense per-shard sequence number; the
  worker's :class:`~repro.transport.shardops.ShardCommitSequencer`
  releases submissions in exactly that order, so the worker's merge
  queue sees pieces in global commit order.
* **Backpressure** — ``queue_headroom`` is the queue capacity minus the
  commits in flight: counted *before* the frame goes on the wire,
  released by the commit connection's ``response_hook`` as reply frames
  drain.
* **Snapshot views** — ``snapshot(ids)`` ships the worker's bookkeeping
  (compute time, size, materialization, tier) for those vertices over
  ``shard.snapshot``; the view's ``fetch`` ships the planned artifacts in
  one ``shard.fetch`` batch.
* **Crash containment** — a lost connection or dead process turns into
  :class:`~repro.service.errors.ShardUnavailableError` on workloads
  touching the shard while other shards keep serving;
  :meth:`ProcessShardCoordinator.restart_worker` respawns the worker,
  lets it reopen its partition persistence, and rejoins it to the swarm.

Known limitation, by design: payloads that are not wire-transportable
(e.g. fitted estimators) do not cross process boundaries — the client
recomputes them, exactly like the existing ``commit`` op.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable

from ..graph.dag import WorkloadDAG
from ..obs.metrics import MetricsRegistry
from ..service.core import CommitResult
from ..service.errors import ServiceError, ShardUnavailableError
from ..service.stats import ServiceStats
from ..transport.client import (
    ConnectionPool,
    PendingReply,
    RemoteService,
    RemoteSnapshot,
    TransportConnection,
)
from ..transport.errors import ConnectionLostError
from ..transport.wire import decode_commit_reply, encode_workload

__all__ = [
    "WorkerSpec",
    "ShardWorkerProcess",
    "RemoteShard",
]

#: each worker's merge-queue bound, and the coordinator's window of
#: commits in flight to one worker: one merge worker per shard, so every
#: shard gets the full capacity
_QUEUE_CAPACITY = 64
#: threads of a worker's transport work pool
_WORKER_TRANSPORT_THREADS = 4
#: coordinator connections per worker for plan/snapshot/fetch/stats traffic
_POOL_SIZE = 2


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs to build its shard service.

    Must stay picklable under the ``spawn`` start method — plain values
    only.  Workers always materialize everything
    (:class:`~repro.materialization.simple.MaterializeAll`): the policy
    object itself cannot cross the spawn boundary, and the sharded swarm
    and benchmark families all run materialize-all.
    """

    shard_index: int
    host: str = "127.0.0.1"
    batch_linger_s: float = 0.0
    request_timeout_s: float = 30.0
    #: root persistence directory; the worker owns ``partition{i}/`` in it
    persist_dir: str | None = None
    #: checkpoint the partition every N merged commits (0 = stop-only)
    checkpoint_every: int = 0

    @property
    def partition_path(self) -> Path | None:
        if self.persist_dir is None:
            return None
        return Path(self.persist_dir) / f"partition{self.shard_index}"


def _shard_worker_main(spec: WorkerSpec, conn: Any) -> None:
    """Child-process entrypoint: serve one shard until told to stop.

    Reopens ``partition{i}/`` if a checkpoint exists (the rejoin path
    after a crash or restart), starts the shard's transport server on an
    ephemeral port, reports ``("ready", host, port)`` over the pipe, then
    blocks until the coordinator sends ``("stop", drain, timeout)`` —
    at which point it drains, checkpoints, and acks.
    """
    from ..materialization.simple import MaterializeAll
    from ..service.core import EGService
    from ..transport.shardops import load_checkpoint, serve_one_shard

    partition_path = spec.partition_path
    eg = load_checkpoint(partition_path) if partition_path is not None else None
    service = EGService(
        MaterializeAll(),
        eg=eg,
        queue_capacity=_QUEUE_CAPACITY,
        batch_linger_s=spec.batch_linger_s,
        request_timeout_s=spec.request_timeout_s,
        background=True,
        flight_recorder=False,
    )
    server, bridge = serve_one_shard(
        service,
        spec.shard_index,
        host=spec.host,
        port=0,
        max_workers=_WORKER_TRANSPORT_THREADS,
        persist_path=partition_path,
        checkpoint_every=spec.checkpoint_every,
    )
    host, port = server.address
    conn.send(("ready", host, port))
    try:
        while True:
            request = conn.recv()
            if not (isinstance(request, tuple) and request):
                continue
            if request[0] == "stop":
                _, drain, timeout = request
                service.stop(drain=drain, timeout=timeout)
                try:
                    bridge.checkpoint()
                except OSError:
                    pass  # persistence failure must not wedge the stop ack
                server.stop()
                conn.send(("stopped", spec.shard_index))
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class ShardWorkerProcess:
    """One shard's EG service in a child process, with a readiness pipe.

    ``spawn`` start method always — fork would duplicate the
    coordinator's sockets, locks, and reader threads into the child.
    """

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self._ctx = multiprocessing.get_context("spawn")
        self.process: Any = None
        self._conn: Any = None
        self.host = spec.host
        self.port = 0

    def launch(self) -> None:
        """Spawn the child; does not wait for readiness."""
        parent_conn, child_conn = self._ctx.Pipe()
        self._conn = parent_conn
        self.process = self._ctx.Process(
            target=_shard_worker_main,
            args=(self.spec, child_conn),
            name=f"eg-shard-worker-{self.spec.shard_index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def wait_ready(self, timeout: float = 60.0) -> tuple[str, int]:
        """Block until the child reports its bound address."""
        if self._conn is None or not self._conn.poll(timeout):
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.spec.shard_index} worker did not become "
                f"ready within {timeout}s"
            )
        message = self._conn.recv()
        if not (isinstance(message, tuple) and message and message[0] == "ready"):
            self.kill()
            raise ShardUnavailableError(
                f"shard {self.spec.shard_index} worker sent an unexpected "
                f"handshake: {message!r}"
            )
        _, self.host, self.port = message
        return self.host, self.port

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful drain-then-stop: pipe command, ack, then join."""
        if self.process is None:
            return
        deadline = time.monotonic() + timeout
        if self.alive and self._conn is not None:
            try:
                self._conn.send(
                    ("stop", drain, max(0.0, deadline - time.monotonic()))
                )
                if self._conn.poll(max(0.1, deadline - time.monotonic())):
                    self._conn.recv()  # ("stopped", shard) ack
            except (OSError, EOFError, BrokenPipeError):
                pass
        self.process.join(timeout=max(0.1, deadline - time.monotonic()))
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._close_pipe()

    def kill(self) -> None:
        """Immediate SIGKILL — the crash-injection path; no persistence."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


class _PendingPiece:
    """One ``shard.commit`` frame on the wire; the remote counterpart of
    :class:`~repro.service.core.UpdateTicket`."""

    def __init__(self, shard: "RemoteShard", reply: PendingReply):
        self._shard = shard
        self._reply = reply

    @property
    def done(self) -> bool:
        return self._reply.ready

    def wait(self, timeout: float | None = None) -> CommitResult:
        shard = self._shard
        try:
            reply = self._reply.wait(timeout)
        except ConnectionLostError as error:
            shard._mark_dead()
            raise ShardUnavailableError(
                f"shard {shard.index} worker connection lost during commit"
            ) from error
        result = decode_commit_reply(reply)
        shard._note_version(result.version)
        return result


#: ServiceStats field names reconstructable from a ``shard.stats`` record
_STATS_FIELDS = frozenset(
    field.name for field in fields(ServiceStats) if field.name != "sessions"
)


class RemoteShard(RemoteService):
    """One shard's EG service in a worker process, answering the slice of
    the :class:`~repro.service.core.EGService` surface the coordinator
    calls (see the module docstring for how each part crosses the wire).
    Sessions and single-shard plans are the ordinary wire ops, inherited
    from :class:`~repro.transport.client.RemoteService`.
    """

    def __init__(self, spec: WorkerSpec, registry: MetricsRegistry):
        super().__init__(self._request)
        self.index = spec.shard_index
        self.worker = ShardWorkerProcess(spec)
        self.queue_capacity = _QUEUE_CAPACITY
        self.request_timeout_s = spec.request_timeout_s
        #: one dedicated commit connection (FIFO dispatch) plus a small
        #: pool for plan/snapshot/fetch/stats/session traffic
        self._commit_conn: TransportConnection | None = None
        self._pool: ConnectionPool | None = None
        #: guards the inflight count, the dead flag and the version
        self._lock = threading.Lock()
        #: dense commit sequence number (restarts with the worker)
        self._seq = 0
        #: commits dispatched but not yet drained off the wire
        self._inflight = 0
        self._dead = False
        self._stopped = False
        #: last version the worker reported (its chain restarts on restart)
        self.version = 0
        #: latest ``shard.stats`` payload, kept through crashes and
        #: refreshed one last time during stop for post-stop rollups
        self._payload: dict[str, Any] | None = None
        self._up = registry.gauge(
            "repro_proc_worker_up",
            "1 while the shard's worker process is alive and connected",
            ("shard",),
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, timeout: float = 60.0) -> None:
        """Wait for the launched worker's address and open its channels."""
        host, port = self.worker.wait_ready(timeout)
        self._commit_conn = TransportConnection(
            host, port, response_hook=self._reply_drained
        )
        self._pool = ConnectionPool(
            host,
            port,
            size=_POOL_SIZE,
            timeout_s=self.request_timeout_s,
        )
        with self._lock:
            self._dead = False
            self._inflight = 0
            self.version = 0
        self._seq = 0
        self._up.set(1.0, shard=str(self.index))

    def restart(self, timeout: float = 60.0) -> None:
        """Respawn the worker; it reopens its checkpointed partition.  The
        fresh worker's sequencer expects 1 and its version chain restarts,
        so :meth:`connect` resets both along with the inflight count."""
        self.kill()
        self.worker.launch()
        self.connect(timeout)

    def kill(self) -> None:
        self.worker.kill()
        self._disconnect()

    def _disconnect(self) -> None:
        connection, pool = self._commit_conn, self._pool
        self._commit_conn = self._pool = None
        if connection is not None:
            connection.close()
        if pool is not None:
            pool.close()
        self._up.set(0.0, shard=str(self.index))

    def _reply_drained(self, _request_id: int, _kind: int) -> None:
        # every frame on the dedicated connection is a commit reply; the
        # hook fires even for timed-out waiters, so inflight never leaks
        # (the guard keeps late frames of a dead-marked shard from
        # driving the zeroed count negative)
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    def _ok(self) -> bool:
        return not self._stopped and not self._dead and self.worker.alive

    def _mark_dead(self) -> None:
        with self._lock:
            self._dead = True
            self._inflight = 0
        self._up.set(0.0, shard=str(self.index))

    def _note_version(self, version: int) -> None:
        with self._lock:
            if version > self.version:
                self.version = version

    def _request(self, message: dict[str, Any]) -> Any:
        """One pooled round trip to the worker, with crash translation."""
        pool = self._pool
        if self._dead or pool is None:
            raise ShardUnavailableError(f"shard {self.index} worker is unavailable")
        try:
            return pool.request(message)
        except ConnectionLostError as error:
            if not self.worker.alive:
                self._mark_dead()
            raise ShardUnavailableError(
                f"shard {self.index} worker is unreachable: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Stitched planning
    # ------------------------------------------------------------------
    def snapshot(self, vertex_ids: Iterable[str] = ()) -> RemoteSnapshot:
        """Summaries of ``vertex_ids`` off one worker-side snapshot."""
        reply = self._request({"op": "shard.snapshot", "ids": list(vertex_ids)})
        lease = RemoteSnapshot(self._request, int(reply["version"]))
        for record in reply["vertices"]:
            lease.eg.add_summary(record)
        return lease

    # ------------------------------------------------------------------
    # Commit dispatch
    # ------------------------------------------------------------------
    def queue_headroom(self) -> int:
        """Free slots in the inflight window; raises
        :class:`ShardUnavailableError` when the worker is gone, so the
        coordinator refuses the workload before burning an index."""
        if not self._ok():
            raise ShardUnavailableError(f"shard {self.index} worker is unavailable")
        with self._lock:
            return self.queue_capacity - self._inflight

    def submit_update(
        self, session_id: str, piece: WorkloadDAG, label: str = ""
    ) -> _PendingPiece:
        """Put one piece on the dedicated commit connection; non-blocking.

        Called under the coordinator's submit lock, which is what fixes
        the wire order and makes the sequence number dense.
        """
        connection = self._commit_conn
        if connection is None or not self._ok():
            raise ShardUnavailableError(f"shard {self.index} worker is unavailable")
        message = {
            "op": "shard.commit",
            "session_id": session_id,
            "seq": self._seq + 1,
            "label": label,
            "workload": encode_workload(piece, include_payloads=True),
        }
        # count the commit in flight *before* the frame leaves: the reply
        # hook can run before submit() returns, and a decrement that
        # found nothing to release would leak the slot for good
        with self._lock:
            self._inflight += 1
        try:
            reply = connection.submit(message)
        except ConnectionLostError as error:
            # the frame never left; dead-marking forgets every slot of the
            # lost connection, this one included
            self._mark_dead()
            raise ShardUnavailableError(
                f"shard {self.index} worker dropped its commit connection"
            ) from error
        self._seq += 1
        return _PendingPiece(self, reply)

    # ------------------------------------------------------------------
    # Telemetry, served from the worker's ``shard.stats`` payload
    # ------------------------------------------------------------------
    def _refresh(self) -> dict[str, Any]:
        """The worker's stats + health + metrics in one round trip; a dead
        or stopped worker reports its last known payload."""
        if self._ok():
            try:
                self._payload = self._request({"op": "shard.stats"})
            except (ServiceError, OSError):
                pass
        self._up.set(1.0 if self._ok() else 0.0, shard=str(self.index))
        return self._payload or {}

    def stats(self) -> ServiceStats:
        record = self._refresh().get("stats") or {}
        return ServiceStats(
            **{key: value for key, value in record.items() if key in _STATS_FIELDS}
        )

    def health(self) -> dict[str, Any]:
        health = self._refresh().get("health")
        if self._ok() and health is not None:
            return health
        return {
            "status": "stopped" if self._stopped else "unavailable",
            "version": self.version,
            "queue": {"depth": 0, "capacity": 0, "peak": 0, "headroom": 0},
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        return self._refresh().get("metrics") or {}

    def metrics_text(self) -> str:
        """The live worker's own Prometheus exposition ("" once it is gone)."""
        if not self._ok():
            return ""
        try:
            return self._request({"op": "metrics", "format": "text"})["text"]
        except (ServiceError, OSError):
            return ""

    # ------------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain the inflight window, keep one last stats payload, then
        stop the worker — which drains its queue and checkpoints.

        The worker gets a small floor on top of whatever ``timeout`` left
        over so its final checkpoint (which ``flatten`` reads) completes.
        """
        if self._stopped:
            return
        deadline = time.monotonic() + timeout
        while drain and self._ok() and time.monotonic() < deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            time.sleep(0.005)
        self._refresh()
        self._stopped = True
        self.worker.stop(drain=drain, timeout=max(1.0, deadline - time.monotonic()))
        self._disconnect()
