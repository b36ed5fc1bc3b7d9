"""Worker-side shard operations for the multi-process sharded service.

A shard worker process hosts one ordinary
:class:`~repro.service.core.EGService` (one partition of the global
Experiment Graph) behind its own :class:`AsyncTransportServer`.  The
coordinator drives it over four dotted wire ops served through
:class:`ShardRequestBridge`:

* ``shard.commit`` — merge one workload piece.  The coordinator stamps
  every piece with a per-shard dense sequence number; the
  :class:`ShardCommitSequencer` releases submissions in exactly that
  order, so the worker's merge queue receives pieces in global commit
  order even when the server's work pool races handlers.
* ``shard.snapshot`` — bookkeeping summary (compute time, size,
  materialization flag, storage tier) for a requested id set, read off
  one snapshot lease.  This is what the coordinator stitches cross-shard
  plans from.
* ``shard.fetch`` — materialized artifact payloads for planned loads,
  shaped exactly like the ``plan`` op's load records.
* ``shard.stats`` — frozen service stats + health + metrics snapshot in
  one round trip, for the coordinator's telemetry rollup.

:func:`serve_one_shard` wires a service and a bridge into a started
transport server; it is the in-process half of the worker entrypoint
(the process spawn/handshake half lives in :mod:`repro.shard.proc`).
"""

from __future__ import annotations

import logging
import shutil
import threading
from pathlib import Path
from typing import Any, Callable

from ..eg.graph import ExperimentGraph
from ..eg.persistence import load_eg, save_eg
from ..service.errors import RequestTimeoutError
from .server import AsyncTransportServer
from .wire import (
    decode_workload,
    encode_commit_reply,
    encode_load,
    encode_stats,
    sanitize_tree,
)

__all__ = ["ShardCommitSequencer", "ShardRequestBridge", "serve_one_shard"]

logger = logging.getLogger(__name__)

#: how long a commit handler waits for a missing predecessor sequence
#: number before declaring the stream stalled (a lost frame here means
#: the coordinator's connection died — it will reconnect and resync)
_SEQUENCE_STALL_S = 60.0


class ShardCommitSequencer:
    """Releases commit submissions in dense per-shard sequence order.

    The coordinator sends ``shard.commit`` frames on one dedicated
    connection in global-index order, so frames *arrive* ordered; but the
    server dispatches each request to a work-pool thread, and two threads
    can race to the service's queue.  ``run(seq, fn)`` closes that window:
    it blocks until ``seq`` is next, invokes ``fn`` (the non-blocking
    ``submit_update``) while still holding the sequencer lock, then
    advances — guaranteeing the merge queue sees pieces in sequence order.
    The caller waits on the returned ticket *outside* the lock.
    """

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._next = 1

    def run(self, seq: int, fn: Callable[[], Any]) -> Any:
        with self._cv:
            while seq > self._next:
                if not self._cv.wait(timeout=_SEQUENCE_STALL_S):
                    raise RequestTimeoutError(
                        f"commit sequencer stalled: holding seq {seq}, "
                        f"still waiting for seq {self._next}"
                    )
            if seq < self._next:
                # a replayed frame after reconnect: run it immediately,
                # without advancing, and let the service decide
                return fn()
            try:
                return fn()
            finally:
                self._next += 1
                self._cv.notify_all()


class ShardRequestBridge:
    """Serves the ``shard.*`` ops for one worker-hosted EG service.

    Plugged into :class:`AsyncTransportServer` via its ``shard_bridge``
    parameter: the server consults :attr:`handlers` before its built-in
    ``_op_*`` lookup, so ordinary ops (``plan``, ``commit``, ``stats``,
    ``metrics``, ``health``, sessions) keep working unchanged alongside
    the shard protocol.

    ``persist_path``/``checkpoint_every`` enable crash durability: every
    ``checkpoint_every``-th merged commit persists the latest published
    EG snapshot (atomic directory swap), and :meth:`checkpoint` is called
    once more on graceful stop — a restarted worker reopens the directory
    and rejoins with everything checkpointed.
    """

    def __init__(
        self,
        service: Any,
        shard_index: int,
        persist_path: str | Path | None = None,
        checkpoint_every: int = 0,
    ):
        self.service = service
        self.shard_index = shard_index
        self.persist_path = Path(persist_path) if persist_path is not None else None
        self.checkpoint_every = checkpoint_every
        self.sequencer = ShardCommitSequencer()
        self._checkpoint_lock = threading.Lock()
        self._commits_since_checkpoint = 0
        self.handlers: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
            "shard.commit": self._shard_commit,
            "shard.snapshot": self._shard_snapshot,
            "shard.fetch": self._shard_fetch,
            "shard.stats": self._shard_stats,
        }

    # ------------------------------------------------------------------
    def _shard_commit(self, message: dict[str, Any]) -> dict[str, Any]:
        piece = decode_workload(message["workload"])
        seq = int(message["seq"])
        session_id = message["session_id"]
        label = message.get("label", "")
        ticket = self.sequencer.run(
            seq,
            lambda: self.service.submit_update(session_id, piece, label=label),
        )
        result = ticket.wait(self.service.request_timeout_s)
        try:
            self._maybe_checkpoint()
        except OSError:
            # the piece is merged and its index is the coordinator's: a
            # failed checkpoint must not turn it into a rejected commit;
            # the next due checkpoint retries
            logger.exception("shard %d checkpoint failed", self.shard_index)
        return encode_commit_reply(result)

    def _shard_snapshot(self, message: dict[str, Any]) -> dict[str, Any]:
        ids = message.get("ids") or []
        lease = self.service.versioned.acquire()
        try:
            eg = lease.eg
            vertices = []
            for vertex_id in ids:
                if vertex_id not in eg:
                    continue
                record = eg.vertex(vertex_id)
                vertices.append(
                    {
                        "i": vertex_id,
                        "ct": record.compute_time,
                        "s": record.size,
                        "m": bool(record.materialized),
                        "t": eg.tier_of(vertex_id).name,
                    }
                )
            return {"version": lease.version, "vertices": vertices}
        finally:
            lease.release()

    def _shard_fetch(self, message: dict[str, Any]) -> dict[str, Any]:
        ids = message.get("ids") or []
        lease = self.service.versioned.acquire()
        try:
            eg = lease.eg
            loads = []
            for vertex_id in ids:
                if vertex_id not in eg or not eg.is_materialized(vertex_id):
                    continue
                record = encode_load(eg, vertex_id)
                if record is not None:
                    loads.append(record)
            return {"version": lease.version, "loads": loads}
        finally:
            lease.release()

    def _shard_stats(self, _message: dict[str, Any]) -> dict[str, Any]:
        return {
            "stats": sanitize_tree(encode_stats(self.service.stats())),
            "health": sanitize_tree(self.service.health()),
            "metrics": sanitize_tree(self.service.metrics_snapshot()),
        }

    # ------------------------------------------------------------------
    # Partition persistence (per-worker reopen)
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Persist the latest published EG snapshot (atomic dir swap)."""
        if self.persist_path is None:
            return
        lease = self.service.versioned.acquire()
        try:
            _save_eg_atomic(lease.eg, self.persist_path)
        finally:
            lease.release()

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_every <= 0 or self.persist_path is None:
            return
        with self._checkpoint_lock:
            self._commits_since_checkpoint += 1
            if self._commits_since_checkpoint < self.checkpoint_every:
                return
            self._commits_since_checkpoint = 0
        self.checkpoint()


def _save_eg_atomic(eg: Any, target: Path) -> None:
    """Write ``eg`` next to ``target`` and swap it in, crash-safely.

    A reader (the reopening worker) either sees the previous checkpoint
    or the new one, never a half-written directory.
    """
    tmp = target.with_name(target.name + ".tmp")
    old = target.with_name(target.name + ".old")
    shutil.rmtree(tmp, ignore_errors=True)
    save_eg(eg, tmp)
    shutil.rmtree(old, ignore_errors=True)
    if target.exists():
        target.rename(old)
    tmp.rename(target)
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(target: Path) -> ExperimentGraph | None:
    """The EG last checkpointed at ``target``; ``None`` if there is none.

    A worker killed between the two renames of :func:`_save_eg_atomic`
    leaves the previous checkpoint at ``.old`` and nothing at ``target``;
    it is moved back before the read.
    """
    old = target.with_name(target.name + ".old")
    if not target.exists() and old.exists():
        old.rename(target)
    if not (target / "graph.json").exists():
        return None
    return load_eg(target)


def serve_one_shard(
    service: Any,
    shard_index: int,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 8,
    persist_path: str | Path | None = None,
    checkpoint_every: int = 0,
) -> tuple[AsyncTransportServer, ShardRequestBridge]:
    """Start one shard worker's transport server; returns it bound.

    The returned server answers both the ordinary service ops and the
    ``shard.*`` protocol; its address is on ``server.address``.
    """
    bridge = ShardRequestBridge(
        service,
        shard_index,
        persist_path=persist_path,
        checkpoint_every=checkpoint_every,
    )
    server = AsyncTransportServer(
        service, host=host, port=port, max_workers=max_workers, shard_bridge=bridge
    )
    server.start()
    return server, bridge
