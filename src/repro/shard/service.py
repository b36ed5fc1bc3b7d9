"""Sharded Experiment Graph service: N worker processes behind one coordinator.

:class:`ProcessShardCoordinator` coordinates N shards, each one full
:class:`~repro.service.core.EGService` — its own merge worker, its own
:class:`~repro.service.versioned.VersionedExperimentGraph` snapshot chain,
in its own worker process, over the partitions of one
:class:`~repro.shard.partition.PartitionedExperimentGraph`.  The
coordinator talks to each worker through a
:class:`~repro.shard.proc.RemoteShard`, which answers the slice of the
``EGService`` surface the coordinator calls (``open_session`` /
``close_session`` / ``plan`` / ``queue_headroom`` / ``submit_update`` /
``snapshot`` / ``version`` / ``stats`` / ``health`` / ``metrics_*`` /
``stop``) over the binary transport.  The coordinator owns routing and
global ordering:

* **commit** — the coordinator routes the executed workload by root-lineage
  fingerprint, checks backpressure on *every* involved shard before
  allocating the next gap-free global commit index, splits the workload
  into per-partition pieces stamped with that index
  (``WorkloadDAG.global_index``), and enqueues each piece on its shard.
  Pieces of different workloads merge concurrently on different shards;
  pieces touching one shard merge in submission order, so every vertex —
  which lives on exactly one shard — sees its updates in global commit
  order.  That is the invariant behind the bit-identical-convergence
  guarantee (each shard's sub-graph replays exactly the flat sequence).
* **plan** — a workload whose lineage lives on one shard is delegated to
  that shard's service (snapshot lease and all).  A workload
  spanning shards gets a :class:`StitchedSnapshot`: one snapshot view per
  involved shard, vertex resolution through the owner map, with every
  non-home shard's artifacts priced as remote — reported at
  :attr:`~repro.eg.storage.StorageTier.COLD` so the
  :class:`~repro.storage.TieredLoadCostModel` charges them at transfer
  (disk) bandwidth rather than local-RAM speed.

Known limitations, by design: a cross-shard commit is not atomic across
shards.  If one piece is rejected by artifact-divergence checking while a
sibling piece merges, the EG keeps the merged piece (the same end state a
re-submission of the valid sub-workload would reach); the commit as a
whole reports the failure.  After a worker restart the summed ``version``
can dip (the restarted shard's version chain restarts at 0); commit
indices remain gap-free and monotone throughout.
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, cast

from ..eg.graph import ExperimentGraph
from ..eg.storage import ArtifactStore, StorageTier
from ..graph.dag import WorkloadDAG
from ..obs.metrics import MetricsRegistry, rollup_snapshots
from ..obs.plane import FlightRecorder
from ..reuse.linear import LinearReuse
from ..server.optimizer import Optimizer
from ..service.core import (
    CommitRecord,
    CommitResult,
    ServicePlan,
    ServiceSession,
)
from ..service.errors import (
    RequestTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
    UnknownSessionError,
)
from ..service.stats import ServiceStats, roll_up
from ..service.telemetry import ServiceMetrics, TelemetryPlane
from ..service.versioned import SnapshotLease
from ..storage import TieredLoadCostModel
from ..transport.client import RemoteSnapshot
from .partition import PartitionedExperimentGraph
from .persistence import load_partitioned_eg, write_partition_manifest
from .proc import RemoteShard, ShardWorkerProcess, WorkerSpec
from .routing import RoutedWorkload

__all__ = [
    "StitchedSnapshot",
    "ShardedCommitResult",
    "ShardedUpdateTicket",
    "ProcessShardCoordinator",
]

#: shards-involved-per-workload histogram bounds (powers of two)
_SPAN_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: seconds every worker gets, together, to spawn and report its address
_START_TIMEOUT_S = 60.0


class StitchedSnapshot:
    """Read-only EG view stitched from one snapshot lease per shard.

    Duck-types the slice of :class:`~repro.eg.graph.ExperimentGraph` that
    planning and execution read — ``__contains__`` / ``vertex`` / ``load``
    / ``tier_of`` / ``is_materialized`` / ``warmstart_candidates`` /
    ``materialized_ids`` — resolving each vertex to the one shard that
    owns it.  Artifacts owned by a shard other than ``home`` report
    :attr:`StorageTier.COLD`, which is how "remote materialized artifact"
    turns into a load-vertex priced through the tiered load-cost model's
    cold (transfer-bandwidth) arm.

    A lease is what the shard's ``snapshot()`` returned: a
    :class:`~repro.transport.client.RemoteSnapshot` holding the summaries
    the worker shipped.  The stitched view is itself lease-shaped (``eg`` /
    ``version`` / ``fetch`` / ``release``), so a cross-shard plan is an
    ordinary :class:`~repro.service.core.ServicePlan` whose lease it is.
    """

    def __init__(
        self,
        leases: dict[int, RemoteSnapshot],
        owner: dict[str, int],
        home: int,
        resolver: Callable[[str], int | None],
    ):
        self.leases = leases
        self.home = home
        #: vertex id -> shard, seeded with the routed workload's owners and
        #: extended lazily as off-workload vertices (e.g. warmstart
        #: candidates) resolve
        self._owner = dict(owner)
        self._resolver = resolver

    def owner_of(self, vertex_id: str) -> int | None:
        shard = self._owner.get(vertex_id)
        if shard is not None and shard in self.leases:
            return shard
        shard = self._resolver(vertex_id)
        if shard is not None and shard in self.leases:
            self._owner[vertex_id] = shard
            return shard
        for shard, lease in self.leases.items():
            if vertex_id in lease.eg:
                self._owner[vertex_id] = shard
                return shard
        return None

    # -- ExperimentGraph read surface ----------------------------------
    def __contains__(self, vertex_id: str) -> bool:
        shard = self.owner_of(vertex_id)
        return shard is not None and vertex_id in self.leases[shard].eg

    def vertex(self, vertex_id: str):
        shard = self.owner_of(vertex_id)
        if shard is None or vertex_id not in self.leases[shard].eg:
            raise KeyError(f"unknown vertex {vertex_id[:12]}")
        return self.leases[shard].eg.vertex(vertex_id)

    def load(self, vertex_id: str):
        shard = self.owner_of(vertex_id)
        if shard is None:
            raise KeyError(f"unknown vertex {vertex_id[:12]}")
        return self.leases[shard].eg.load(vertex_id)

    def tier_of(self, vertex_id: str) -> StorageTier:
        shard = self.owner_of(vertex_id)
        if shard is None or vertex_id not in self.leases[shard].eg:
            return StorageTier.HOT
        if shard != self.home:
            return StorageTier.COLD
        return self.leases[shard].eg.tier_of(vertex_id)

    def is_materialized(self, vertex_id: str) -> bool:
        shard = self.owner_of(vertex_id)
        return shard is not None and self.leases[shard].eg.is_materialized(vertex_id)

    def warmstart_candidates(self, training_input_id: str, model_type: str) -> list:
        shard = self.owner_of(training_input_id)
        if shard is None:
            return []
        return self.leases[shard].eg.warmstart_candidates(
            training_input_id, model_type
        )

    def materialized_ids(self) -> set[str]:
        materialized: set[str] = set()
        for lease in self.leases.values():
            materialized |= lease.eg.materialized_ids()
        return materialized

    def fetch(self, vertex_ids: Iterable[str]) -> set[str]:
        """Make planned loads loadable, one batch per owning shard;
        returns the ids :meth:`load` can now serve."""
        by_shard: dict[int, list[str]] = {}
        for vertex_id in sorted(vertex_ids):
            shard = self.owner_of(vertex_id)
            if shard is not None:
                by_shard.setdefault(shard, []).append(vertex_id)
        fetched: set[str] = set()
        for shard in sorted(by_shard):
            fetched |= self.leases[shard].fetch(by_shard[shard])
        return fetched

    def release(self) -> None:
        for lease in self.leases.values():
            lease.release()

    # -- SnapshotLease surface: a stitched plan's ``ServicePlan.lease`` --
    @property
    def eg(self) -> "StitchedSnapshot":
        return self

    @property
    def version(self) -> int:
        return sum(lease.version for lease in self.leases.values())


@dataclass(frozen=True)
class ShardedCommitResult:
    """Outcome of one workload committed through the coordinator."""

    #: global, gap-free position in the coordinator's commit order (1-based)
    commit_index: int
    #: sum of all shards' published versions after this commit (monotone)
    version: int
    #: largest per-shard merge batch this commit rode in
    batch_size: int
    new_sources: int
    #: per-shard results for the pieces of this workload
    shard_results: dict[int, CommitResult] = field(default_factory=dict)


class ShardedUpdateTicket:
    """Pending cross-shard commit: one underlying ticket per involved shard
    (whatever that shard's ``submit_update`` returned — ``done`` plus
    ``wait(timeout) -> CommitResult``)."""

    def __init__(
        self,
        coordinator: "ProcessShardCoordinator",
        session_id: str,
        label: str,
        commit_index: int,
        tickets: dict[int, Any],
    ):
        self._coordinator = coordinator
        self.session_id = session_id
        self.label = label
        self.commit_index = commit_index
        self.tickets = tickets
        self._lock = threading.Lock()
        self._result: ShardedCommitResult | None = None
        self._error: BaseException | None = None
        self._finalized = False

    @property
    def done(self) -> bool:
        return all(ticket.done for ticket in self.tickets.values())

    def wait(self, timeout: float | None = None) -> ShardedCommitResult:
        """Block until every shard merged its piece (shared deadline).

        A timeout propagates without finalizing — the merge outcome is
        still unknown and a later ``wait`` can observe it.  A shard-side
        failure (e.g. artifact divergence) waits out the sibling pieces,
        then finalizes the commit as rejected and re-raises.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        results: dict[int, CommitResult] = {}
        failure: BaseException | None = None
        for shard in sorted(self.tickets):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                results[shard] = self.tickets[shard].wait(remaining)
            except RequestTimeoutError:
                raise
            except BaseException as error:  # noqa: BLE001 - collected, re-raised below
                if failure is None:
                    failure = error
        with self._lock:
            if not self._finalized:
                self._finalized = True
                if failure is not None:
                    self._error = failure
                    self._coordinator._finish_commit(self, None)
                else:
                    self._result = self._coordinator._finish_commit(self, results)
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class ProcessShardCoordinator:
    """Coordinator over N shards, one :class:`ShardWorkerProcess` each.

    Spawns the workers, then talks to each through a
    :class:`~repro.shard.proc.RemoteShard`.  The request path — sessions,
    plan, commit, stats, health, debug — is written once against the
    ``EGService`` slice those handles answer; ``workers``, ``persist_dir``,
    :meth:`restart_worker` and a :meth:`flatten` that reads the partitions
    back from the workers' checkpoints are what the worker processes add.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        host: str = "127.0.0.1",
        reuse_algorithm: Any = None,
        batch_linger_s: float = 0.0,
        request_timeout_s: float = 30.0,
        persist_dir: str | Path | None = None,
        checkpoint_every: int = 0,
        flight_recorder: FlightRecorder | bool | None = None,
    ):
        # routing + stub registry + global commit counter only — the
        # partition *contents* live in the worker processes
        self.partitioned = PartitionedExperimentGraph(n_shards)
        #: prices local artifacts at RAM speed (the hot arm equals
        #: in-memory pricing) and remote ones — which the stitched snapshot
        #: reports COLD — at transfer bandwidth
        self.load_cost_model = TieredLoadCostModel.default()
        self.reuse_algorithm = (
            reuse_algorithm
            if reuse_algorithm is not None
            else LinearReuse(self.load_cost_model)
        )
        self.request_timeout_s = request_timeout_s
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if persist_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-proc-shards-")
            persist_dir = self._tmpdir.name
        #: root of the partitioned persistence layout the workers write
        self.persist_dir = Path(persist_dir)
        self.persist_dir.mkdir(parents=True, exist_ok=True)

        reg = MetricsRegistry()
        self.shards: list[RemoteShard] = [
            RemoteShard(
                WorkerSpec(
                    shard_index=index,
                    host=host,
                    batch_linger_s=batch_linger_s,
                    request_timeout_s=request_timeout_s,
                    persist_dir=str(self.persist_dir),
                    checkpoint_every=checkpoint_every,
                ),
                reg,
            )
            for index in range(n_shards)
        ]
        self._worker_restarts = reg.counter(
            "repro_proc_worker_restarts_total",
            "shard worker processes respawned after a crash",
        )
        try:
            deadline = time.monotonic() + _START_TIMEOUT_S
            for shard in self.shards:
                shard.worker.launch()
            for shard in self.shards:
                shard.connect(max(1.0, deadline - time.monotonic()))
        except BaseException:
            for shard in self.shards:
                shard.kill()
            raise

        self._sessions: dict[str, ServiceSession] = {}
        #: coordinator session id -> per-shard session ids (index by shard)
        self._shard_sessions: dict[str, list[str]] = {}
        self._session_counter = itertools.count(1)
        self._registry_lock = threading.Lock()
        #: serializes route -> backpressure check -> index allocation ->
        #: split -> enqueue, so global commit indices are gap-free and
        #: per-shard queues receive pieces in global order
        self._submit_lock = threading.Lock()
        self._commit_log: list[CommitRecord] = []
        self._log_lock = threading.Lock()
        self._stopped = False

        self._metrics = ServiceMetrics(reg)
        self.metrics_registry = reg
        self._routed_counter = reg.counter(
            "repro_shard_routed_workloads_total",
            "workload pieces routed to each shard",
            ("shard",),
        )
        self._cross_commits = reg.counter(
            "repro_shard_cross_shard_commits_total",
            "commits whose lineage spans more than one shard",
        )
        self._remote_loads = reg.counter(
            "repro_shard_remote_planned_loads_total",
            "planned loads resolved from a non-home shard",
        )
        self._span_hist = reg.histogram(
            "repro_shard_workload_span",
            "shards involved per routed workload",
            buckets=_SPAN_BUCKETS,
        )
        self._stub_gauge = reg.gauge(
            "repro_shard_stub_edges_total",
            "cross-partition edge stubs registered",
        )
        self._shard_queue_gauge = reg.gauge(
            "repro_shard_queue_depth",
            "per-shard update-queue depth at last observation",
            ("shard",),
        )
        self._shard_peak_gauge = reg.gauge(
            "repro_shard_merge_queue_peak",
            "per-shard high-water update-queue depth",
            ("shard",),
        )

        #: one telemetry plane at the coordinator, whose recorder sees every
        #: span.  The coordinator is inherently background (workers are
        #: async), so None installs a recorder.  Worker services run dark;
        #: their merge/queue series come back through the shard.stats rollup.
        self.telemetry = TelemetryPlane(reg, flight_recorder, True)
        self.flight_recorder = self.telemetry.recorder

    @property
    def workers(self) -> list[ShardWorkerProcess]:
        return [shard.worker for shard in self.shards]

    def restart_worker(self, shard: int, start_timeout_s: float = 60.0) -> None:
        """Respawn one worker; it reopens its partition and rejoins.

        Holds the submit lock, so no piece is dispatched mid-restart, and
        re-opens worker-side sessions for every coordinator session so
        existing clients keep committing without reconnect.
        """
        with self._submit_lock:
            self._require_running()
            remote = self.shards[shard]
            remote.restart(start_timeout_s)
            self._worker_restarts.inc()
            with self._registry_lock:
                sessions = list(self._sessions.values())
            for session in sessions:
                opened = remote.open_session(f"{session.name}@shard{shard}")
                with self._registry_lock:
                    shard_ids = self._shard_sessions.get(session.session_id)
                    if shard_ids is not None:
                        shard_ids[shard] = opened.session_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop every worker under one shared ``timeout`` budget, then
        complete the persistence layout with the manifest (stubs + global
        counter).

        The deadline spans the whole stop: each shard gets whatever
        budget the shards before it left over, so total stop time honors
        ``timeout`` instead of multiplying it by the shard count.
        """
        self._stopped = True
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            shard.stop(drain=drain, timeout=max(0.0, deadline - time.monotonic()))
        self.telemetry.close()
        try:
            write_partition_manifest(self.partitioned, self.persist_dir)
        except OSError:
            pass

    @property
    def running(self) -> bool:
        return not self._stopped

    def __enter__(self) -> "ProcessShardCoordinator":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop(drain=True)

    def _require_running(self) -> None:
        if self._stopped:
            raise ServiceStoppedError("service is stopped")

    # ------------------------------------------------------------------
    # Sessions (coordinator-level, mirrored onto every shard)
    # ------------------------------------------------------------------
    def open_session(self, name: str | None = None) -> ServiceSession:
        """Mirror a session onto every shard, then register it.

        Registered last, so a session the coordinator knows always has
        all its shard sessions; a shard that cannot open one (a dead
        worker) fails the whole call and the shards already opened are
        closed again.
        """
        self._require_running()
        with self._registry_lock:
            number = next(self._session_counter)
        session = ServiceSession(
            session_id=f"c{number:04d}", name=name or f"session-{number}"
        )
        shard_ids: list[str] = []
        try:
            for index, shard in enumerate(self.shards):
                shard_ids.append(
                    shard.open_session(f"{session.name}@shard{index}").session_id
                )
        except BaseException:
            for shard, shard_id in zip(self.shards, shard_ids):
                shard.close_session(shard_id)
            raise
        with self._registry_lock:
            self._sessions[session.session_id] = session
            self._shard_sessions[session.session_id] = shard_ids
        self._metrics.register_session(session.session_id, session.name)
        return session

    def close_session(self, session_id: str) -> None:
        with self._registry_lock:
            self._sessions.pop(session_id, None)
            shard_ids = self._shard_sessions.pop(session_id, None)
        if shard_ids is not None:
            for shard, shard_id in zip(self.shards, shard_ids):
                shard.close_session(shard_id)

    def _require_session(self, session_id: str) -> list[str]:
        with self._registry_lock:
            shard_ids = self._shard_sessions.get(session_id)
        if shard_ids is None:
            raise UnknownSessionError(f"no open session {session_id!r}")
        return shard_ids

    # ------------------------------------------------------------------
    # Read side: routed, possibly stitched, planning
    # ------------------------------------------------------------------
    def plan(self, session_id: str, workload: WorkloadDAG) -> ServicePlan:
        """Optimize a workload against the shard(s) owning its lineage.

        Single-shard lineages delegate to that shard's service, snapshot
        lease and all.  Multi-shard lineages plan once at the coordinator
        over a :class:`StitchedSnapshot`.
        """
        shard_ids = self._require_session(session_id)
        self._require_running()
        routed = self.partitioned.route(workload)
        involved = routed.involved_shards
        if len(involved) == 1:
            shard = involved[0]
            plan = self.shards[shard].plan(shard_ids[shard], workload)
            self._metrics.count_plan(session_id, len(plan.result.plan.loads))
            return plan
        return self._plan_stitched(session_id, workload, routed)

    def _plan_stitched(
        self, session_id: str, workload: WorkloadDAG, routed: RoutedWorkload
    ) -> ServicePlan:
        home = routed.home_shard()
        leases: dict[int, RemoteSnapshot] = {}
        try:
            for shard in routed.involved_shards:
                leases[shard] = self.shards[shard].snapshot(
                    sorted(v for v, owner in routed.owner.items() if owner == shard)
                )
            snapshot = StitchedSnapshot(
                leases=leases,
                owner=routed.owner,
                home=home,
                resolver=self.partitioned.partition_of,
            )
            # warmstart candidates are model payloads, which do not cross
            # the wire: stitched plans never warmstart
            optimizer = Optimizer(cast(ExperimentGraph, snapshot), self.reuse_algorithm)
            result = optimizer.optimize(workload)
            # only fetched artifacts are loadable; the client recomputes
            # the rest (payloads that cannot cross a process boundary)
            result.plan.loads &= snapshot.fetch(result.plan.loads)
            result.load_tiers = {
                vertex_id: tier
                for vertex_id, tier in result.load_tiers.items()
                if vertex_id in result.plan.loads
            }
        except BaseException:
            for lease in leases.values():
                lease.release()
            raise
        self._metrics.count_plan(session_id, len(result.plan.loads))
        remote = sum(
            1
            for vertex_id in result.plan.loads
            if snapshot.owner_of(vertex_id) != home
        )
        if remote:
            self._remote_loads.inc(remote)
        return ServicePlan(
            session_id=session_id,
            result=result,
            lease=cast(SnapshotLease, snapshot),
        )

    # ------------------------------------------------------------------
    # Write side: routed commit fan-out
    # ------------------------------------------------------------------
    def submit_update(
        self, session_id: str, executed: WorkloadDAG, label: str = ""
    ) -> ShardedUpdateTicket:
        """Route, split, and enqueue one executed workload; non-blocking.

        Backpressure is checked on **every** involved shard before the
        global commit index is allocated, so a rejected submission leaves
        no gap in the commit order and no partially enqueued pieces.  A
        shard whose worker is gone raises
        :class:`~repro.service.errors.ShardUnavailableError` from the
        same check, equally before an index is burned.
        """
        shard_ids = self._require_session(session_id)
        with self._submit_lock:
            self._require_running()
            routed = self.partitioned.route(executed)
            involved = routed.involved_shards
            for shard in involved:
                if self.shards[shard].queue_headroom() < 1:
                    self._metrics.overload_rejections.inc()
                    raise ServiceOverloadedError(
                        f"shard {shard} update queue is full"
                    )
            commit_index = self.partitioned.next_global_index()
            split = self.partitioned.split(executed, routed)
            tickets: dict[int, Any] = {}
            for shard in sorted(split.pieces):
                piece = split.pieces[shard]
                piece.global_index = commit_index
                tickets[shard] = self.shards[shard].submit_update(
                    shard_ids[shard], piece, label=label
                )
                self._routed_counter.inc(shard=str(shard))
            self._span_hist.observe(float(len(involved)))
            if len(involved) > 1:
                self._cross_commits.inc()
        return ShardedUpdateTicket(self, session_id, label, commit_index, tickets)

    def commit(
        self,
        session_id: str,
        executed: WorkloadDAG,
        label: str = "",
        timeout: float | None = None,
    ) -> ShardedCommitResult:
        ticket = self.submit_update(session_id, executed, label)
        return ticket.wait(
            timeout if timeout is not None else self.request_timeout_s
        )

    def _finish_commit(
        self, ticket: ShardedUpdateTicket, results: dict[int, CommitResult] | None
    ) -> ShardedCommitResult | None:
        """Record one commit's outcome (called once per ticket)."""
        if results is None:
            self._metrics.rejected_commits_total.inc(session=ticket.session_id)
            return None
        version = self.version
        with self._log_lock:
            self._commit_log.append(
                CommitRecord(
                    commit_index=ticket.commit_index,
                    version=version,
                    session_id=ticket.session_id,
                    label=ticket.label,
                )
            )
        self._metrics.commits_total.inc(session=ticket.session_id)
        return ShardedCommitResult(
            commit_index=ticket.commit_index,
            version=version,
            batch_size=max(result.batch_size for result in results.values()),
            new_sources=sum(result.new_sources for result in results.values()),
            shard_results=dict(results),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Sum of all shards' published versions (monotone while every
        shard lives; a restarted worker shard's chain restarts at 0)."""
        return sum(shard.version for shard in self.shards)

    def flatten(self, store: ArtifactStore | None = None) -> ExperimentGraph:
        """Single-graph view reassembled from worker checkpoints.

        Requires a stopped coordinator: each worker persists its
        partition on graceful stop, and :meth:`stop` completes the
        layout with the manifest.
        """
        if not self._stopped:
            raise ServiceError(
                "flatten() requires a stopped coordinator: workers persist "
                "their partitions on graceful stop"
            )
        return load_partitioned_eg(self.persist_dir).flatten(store)

    def commit_log(self) -> list[CommitRecord]:
        """Coordinator commit log in global commit-index order."""
        with self._log_lock:
            return sorted(self._commit_log, key=lambda record: record.commit_index)

    def store_statistics(self) -> dict:
        return {
            f"shard{index}": shard.store_statistics()
            for index, shard in enumerate(self.shards)
        }

    def record_request_latency(self, seconds: float) -> None:
        self._metrics.observe_request(seconds)

    def record_retry(self, session_id: str) -> None:
        self._metrics.retries_total.inc(session=session_id)

    def shard_stats(self) -> list[ServiceStats]:
        """Each shard's own frozen stats (queues, merges)."""
        return [shard.stats() for shard in self.shards]

    def stats(self) -> ServiceStats:
        """One aggregated :class:`ServiceStats` across coordinator + shards.

        Request-shaped counters (plans, commits, rejections, retries,
        latencies, sessions) come from the coordinator recorder — it sees
        every request exactly once.  Merge-shaped counters (batches,
        merge seconds, publishes, dirty totals, queues) sum
        over the shards, with maxima taken for the ``max_*`` gauges and
        the queue peak.
        """
        per_shard = self.shard_stats()
        for index, stats in enumerate(per_shard):
            self._shard_queue_gauge.set(stats.queue_depth, shard=str(index))
            self._shard_peak_gauge.set(stats.queue_peak, shard=str(index))
        self._stub_gauge.set(self.partitioned.stub_count)
        with self._registry_lock:
            open_sessions = len(self._sessions)
        own = self._metrics.cut(version=self.version, open_sessions=open_sessions)
        return roll_up(own, per_shard)

    def metrics_text(self) -> str:
        """Prometheus exposition: the coordinator registry, then each
        shard's own exposition under a source-comment banner."""
        self.stats()  # refresh the repro_shard_* gauges first
        parts = [self.metrics_registry.render_prometheus()]
        for index, shard in enumerate(self.shards):
            text = shard.metrics_text()
            if text:
                parts.append(f"# source: shard{index} worker\n{text}")
        return "\n".join(parts)

    def metrics_snapshot(self) -> dict[str, Any]:
        """Coordinator registry plus every shard's snapshot, merged
        losslessly with shard series labelled ``shard=shard<index>``."""
        self.stats()
        children = {
            f"shard{index}": shard.metrics_snapshot()
            for index, shard in enumerate(self.shards)
        }
        return rollup_snapshots(
            self.metrics_registry.snapshot(), children, label="shard"
        )

    # ------------------------------------------------------------------
    # Live introspection (the transport's ``health``/``debug`` ops)
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """Coordinator health plus a per-shard queue/status breakdown; a
        crashed worker shard reports ``unavailable`` while its siblings
        stay ``ok`` and the coordinator turns ``degraded``."""
        shard_health = [shard.health() for shard in self.shards]
        queues = [h["queue"] for h in shard_health]
        with self._registry_lock:
            open_sessions = len(self._sessions)
        return self.telemetry.health(
            self._stopped,
            degraded=any(h["status"] != "ok" for h in shard_health),
            version=self.version,
            open_sessions=open_sessions,
            queue={
                "depth": sum(queue["depth"] for queue in queues),
                "capacity": sum(queue["capacity"] for queue in queues),
                "peak": max(queue["peak"] for queue in queues),
                "headroom": sum(queue["headroom"] for queue in queues),
            },
            shards=[
                {
                    "shard": index,
                    "status": h["status"],
                    "version": h["version"],
                    "queue": h["queue"],
                }
                for index, h in enumerate(shard_health)
            ],
        )

    def debug_info(
        self, traces: int = 16, spans: int = 20, trace_id: str | None = None
    ) -> dict[str, Any]:
        """The coordinator recorder's debug view (it sees every span of
        the sharded service) plus per-shard merge/queue statistics."""
        return self.telemetry.debug_info(
            traces,
            spans,
            trace_id,
            shards=[
                {
                    "shard": index,
                    "queue_depth": stats.queue_depth,
                    "queue_peak": stats.queue_peak,
                    "batches": stats.batches,
                    "merged_workloads": stats.merged_workloads,
                }
                for index, stats in enumerate(self.shard_stats())
            ],
        )
