"""The concurrent, multi-tenant Experiment Graph service.

:class:`EGService` owns one :class:`~repro.service.versioned.VersionedExperimentGraph`
and serves two request kinds to any number of client sessions:

* **plan** — snapshot-isolated optimization: the request pins the latest
  published EG snapshot, runs the configured reuse algorithm (plus
  warmstart matching) against it, and returns the plan together with the
  lease.  Readers never block on merges and never see a half-merged graph.
* **commit** — the executed workload DAG enters a *bounded* update queue.
  A single merge worker (a background thread, or the committing thread
  itself in inline mode) drains whatever is queued, applies the whole
  batch through :meth:`~repro.eg.updater.Updater.update_batch` (unions in
  commit order, one materialization pass per batch), atomically publishes
  the next EG version, and resolves every ticket in the batch.

Backpressure is explicit: a full queue raises
:class:`~repro.service.errors.ServiceOverloadedError` at submit time (the
client retries with backoff), ticket waits are bounded by a per-request
timeout, and :meth:`EGService.stop` drains the queue before the worker
exits so accepted commits are never dropped.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..eg.graph import ExperimentGraph
from ..eg.storage import ArtifactDivergenceError, ArtifactStore, LoadCostModel
from ..eg.updater import BatchUpdateReport, Updater
from ..eg.utility_index import UtilityIndex
from ..graph.dag import WorkloadDAG
from ..materialization.base import Materializer
from ..obs.plane import FlightRecorder
from ..obs.trace import SpanContext, get_tracer
from ..reuse.linear import LinearReuse
from ..server.optimizer import OptimizationResult, Optimizer
from ..storage import TieredArtifactStore, TieredLoadCostModel
from .errors import (
    RequestTimeoutError,
    ServiceOverloadedError,
    ServiceStoppedError,
    UnknownSessionError,
)
from .stats import ServiceStats
from .telemetry import ServiceMetrics, TelemetryPlane
from .versioned import SnapshotLease, VersionedExperimentGraph

logger = logging.getLogger(__name__)

__all__ = [
    "ServiceSession",
    "ServicePlan",
    "CommitResult",
    "CommitRecord",
    "UpdateTicket",
    "EGService",
    "default_load_cost_model",
]


def default_load_cost_model(store: ArtifactStore | None) -> LoadCostModel:
    """The load-cost model a store implies when none is configured.

    A tiered store's cold hits must be priced at disk bandwidth, or its
    reuse plans would assume RAM speed for demoted artifacts.
    """
    if isinstance(store, TieredArtifactStore):
        return TieredLoadCostModel.default()
    return LoadCostModel.in_memory()


@dataclass(frozen=True)
class ServiceSession:
    """Handle identifying one client session at the service."""

    session_id: str
    name: str


@dataclass
class ServicePlan:
    """A plan response: the optimization result plus the pinned snapshot.

    The caller executes against ``lease.eg`` (loads are guaranteed to
    resolve for the lease's lifetime) and must :meth:`release` the lease
    afterwards — ``ServicePlan`` is itself a context manager.
    """

    session_id: str
    result: OptimizationResult
    lease: SnapshotLease

    @property
    def eg(self) -> ExperimentGraph:
        return self.lease.eg

    @property
    def version(self) -> int:
        return self.lease.version

    def release(self) -> None:
        self.lease.release()

    def __enter__(self) -> "ServicePlan":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()


@dataclass(frozen=True)
class CommitResult:
    """Outcome of one merged workload commit."""

    #: global, gap-free position in the service's commit order (1-based)
    commit_index: int
    #: EG version that first contains this workload
    version: int
    #: how many workloads were merged in the same batch
    batch_size: int
    new_sources: int
    #: the full report of the batch this commit rode in (shared object);
    #: ``None`` when the merge ran in a shard worker process — batch
    #: reports stay worker-side
    batch_report: BatchUpdateReport | None = None


@dataclass(frozen=True)
class CommitRecord:
    """One entry of the service's commit log (the replay order)."""

    commit_index: int
    version: int
    session_id: str
    label: str


class UpdateTicket:
    """Pending commit: resolved or failed by the merge worker."""

    def __init__(self, session_id: str, workload: WorkloadDAG, label: str):
        self.session_id = session_id
        self.workload = workload
        self.label = label
        #: submitting thread's span context — the merge worker parents its
        #: per-commit span to it, so service work correlates by trace id
        #: with the client workload that caused it
        self.trace_parent: SpanContext | None = get_tracer().current_context()
        #: set at enqueue time; the merge path turns it into queue-wait
        self.enqueued_at: float = 0.0
        self._event = threading.Event()
        self._result: CommitResult | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, result: CommitResult) -> None:
        self._result = result
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout: float | None = None) -> CommitResult:
        """Block until merged; raises the merge error or a timeout."""
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                f"commit {self.label or self.session_id} not merged within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class EGService:
    """Concurrent multi-tenant optimize/merge service over one EG."""

    def __init__(
        self,
        materializer: Materializer,
        reuse_algorithm=None,
        store: ArtifactStore | None = None,
        eg: ExperimentGraph | None = None,
        load_cost_model: LoadCostModel | None = None,
        warmstarting: bool = False,
        queue_capacity: int = 64,
        batch_linger_s: float = 0.0,
        request_timeout_s: float = 30.0,
        background: bool = False,
        debug_cross_check: bool = False,
        flight_recorder: FlightRecorder | bool | None = None,
    ):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if eg is None and store is not None:
            eg = ExperimentGraph(store)
        self.versioned = VersionedExperimentGraph(eg=eg)
        #: with the debug flag, every materialization pass cross-checks the
        #: incremental utility index against a full recompute (O(graph))
        UtilityIndex.install(self.versioned.working, cross_check=debug_cross_check)
        self.load_cost_model = (
            load_cost_model
            if load_cost_model is not None
            else default_load_cost_model(self.versioned.working.store)
        )
        self.reuse_algorithm = (
            reuse_algorithm
            if reuse_algorithm is not None
            else LinearReuse(self.load_cost_model)
        )
        self.warmstarting = warmstarting
        self.updater = Updater(
            self.versioned.working, materializer, self.load_cost_model
        )
        self.queue_capacity = queue_capacity
        self.batch_linger_s = batch_linger_s
        self.request_timeout_s = request_timeout_s

        self._queue: deque[UpdateTicket] = deque()
        self._queue_cv = threading.Condition()
        self._queue_peak = 0
        self._merge_lock = threading.Lock()
        self._stopped = False
        self._stop_requested = False
        self._worker: threading.Thread | None = None

        self._sessions: dict[str, ServiceSession] = {}
        self._session_counter = itertools.count(1)
        self._registry_lock = threading.Lock()

        self._commit_log: list[CommitRecord] = []
        self._commit_counter = 0
        self._log_lock = threading.Lock()

        #: utility-index dirty totals already folded into the metrics
        self._utility_dirty_recorded = (0, 0)

        self._metrics = ServiceMetrics()
        self.metrics_registry = self._metrics.registry
        gauge = self.metrics_registry.gauge
        #: point-in-time gauges, refreshed by every :meth:`_observe`
        self._gauges = {
            "version": gauge("repro_service_version", "latest published EG version"),
            "queue_depth": gauge(
                "repro_service_queue_depth", "update-queue depth at last observation"
            ),
            "open_sessions": gauge(
                "repro_service_open_sessions", "sessions currently open"
            ),
            "deferred_evictions": gauge(
                "repro_service_deferred_evictions", "content removals awaiting leases"
            ),
        }

        #: the always-on telemetry plane (by default, of *background* services)
        self.telemetry = TelemetryPlane(
            self.metrics_registry, flight_recorder, background
        )
        self.flight_recorder = self.telemetry.recorder

        if background:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background merge worker (idempotent).

        Without a worker the service runs in *inline* mode: commits merge
        on the committing thread under the same merge lock, with identical
        batching semantics (concurrent committers still coalesce).
        """
        if self._stopped:
            raise ServiceStoppedError("service is stopped")
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop, name="eg-merge-worker", daemon=True
            )
            self._worker.start()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests; by default drain queued commits first.

        With ``drain=False`` queued tickets fail with
        :class:`ServiceStoppedError` instead of merging.
        """
        with self._queue_cv:
            if self._stopped:
                return
            self._stopped = True
            self._stop_requested = True
            abandoned: list[UpdateTicket] = []
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            self._queue_cv.notify_all()
        for ticket in abandoned:
            ticket.fail(ServiceStoppedError("service stopped before the merge"))
        if self._worker is not None:
            self._worker.join(timeout)
            if self._worker.is_alive():
                # a merge is still in flight past the deadline; leave the
                # deferred removals to its flush rather than racing the
                # working EG/store mid-merge
                logger.warning("merge worker did not exit within %.1fs", timeout)
                self.telemetry.close()
                return
            # worker exited: no merge can run, reclaim deferred removals
            self.versioned.flush_deferred()
        else:
            # inline mode: serialize against any committer still draining
            with self._merge_lock:
                if drain:
                    self._drain_once()
                self.versioned.flush_deferred()
        self.telemetry.close()

    @property
    def running(self) -> bool:
        return not self._stopped

    def __enter__(self) -> "EGService":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop(drain=True)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(self, name: str | None = None) -> ServiceSession:
        self._require_running()
        with self._registry_lock:
            number = next(self._session_counter)
            session = ServiceSession(
                session_id=f"s{number:04d}", name=name or f"session-{number}"
            )
            self._sessions[session.session_id] = session
        self._metrics.register_session(session.session_id, session.name)
        return session

    def close_session(self, session_id: str) -> None:
        with self._registry_lock:
            self._sessions.pop(session_id, None)

    def _require_session(self, session_id: str) -> ServiceSession:
        with self._registry_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"no open session {session_id!r}")
        return session

    def _require_running(self) -> None:
        if self._stopped:
            raise ServiceStoppedError("service is stopped")

    # ------------------------------------------------------------------
    # Read side: snapshot-isolated planning
    # ------------------------------------------------------------------
    def plan(self, session_id: str, workload: WorkloadDAG) -> ServicePlan:
        """Optimize a (pruned) workload against the latest EG snapshot."""
        self._require_session(session_id)
        self._require_running()
        plan_started = time.perf_counter()
        with get_tracer().span("service.plan", session=session_id) as span:
            lease = self.versioned.acquire()
            try:
                optimizer = Optimizer(lease.eg, self.reuse_algorithm, self.warmstarting)
                result = optimizer.optimize(workload)
            except BaseException:
                lease.release()
                raise
            span.set_attribute("version", lease.version)
            span.set_attribute("loads", len(result.plan.loads))
        self._metrics.count_plan(session_id, len(result.plan.loads))
        self._metrics.plan_seconds.observe(time.perf_counter() - plan_started)
        return ServicePlan(session_id=session_id, result=result, lease=lease)

    # ------------------------------------------------------------------
    # Write side: bounded queue + batched merging
    # ------------------------------------------------------------------
    def submit_update(
        self, session_id: str, executed: WorkloadDAG, label: str = ""
    ) -> UpdateTicket:
        """Enqueue an executed workload for merging; non-blocking.

        Raises :class:`ServiceOverloadedError` when the bounded queue is
        full and :class:`ServiceStoppedError` after :meth:`stop`.  In
        inline mode (no background worker) the merge happens before this
        returns, on the calling thread.
        """
        self._require_session(session_id)
        ticket = UpdateTicket(session_id, executed, label)
        with self._queue_cv:
            if self._stopped:
                raise ServiceStoppedError("service is stopped")
            if len(self._queue) >= self.queue_capacity:
                self._metrics.overload_rejections.inc()
                raise ServiceOverloadedError(
                    f"update queue is full ({self.queue_capacity} pending)"
                )
            ticket.enqueued_at = time.perf_counter()
            self._queue.append(ticket)
            if len(self._queue) > self._queue_peak:
                self._queue_peak = len(self._queue)
            self._queue_cv.notify()
        if self._worker is None:
            self._merge_inline(ticket)
        return ticket

    def commit(
        self,
        session_id: str,
        executed: WorkloadDAG,
        label: str = "",
        timeout: float | None = None,
    ) -> CommitResult:
        """Submit and wait for the merge (the synchronous commit path)."""
        ticket = self.submit_update(session_id, executed, label)
        return ticket.wait(timeout if timeout is not None else self.request_timeout_s)

    # ------------------------------------------------------------------
    # Merge machinery
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._queue_cv:
                while not self._queue and not self._stop_requested:
                    self._queue_cv.wait()
                if not self._queue and self._stop_requested:
                    return
                draining = self._stop_requested
            if self.batch_linger_s > 0.0 and not draining:
                # let near-simultaneous commits coalesce into one batch
                time.sleep(self.batch_linger_s)
            try:
                with self._merge_lock:
                    self._drain_once()
            except Exception:  # noqa: BLE001 - the worker must outlive one bad batch
                # every ticket in the failed batch already carries the
                # error; dying here would leave later commits to time out
                # against a silently dead service
                logger.exception("EG merge batch failed; merge worker continuing")

    def _merge_inline(self, ticket: UpdateTicket) -> None:
        # another committing thread may have batched our ticket into its
        # own drain while we waited for the merge lock
        while not ticket.done:
            with self._merge_lock:
                if ticket.done:
                    return
                self._drain_once()

    def _drain_once(self) -> int:
        """Merge everything currently queued as one batch (merge lock held)."""
        with self._queue_cv:
            batch = list(self._queue)
            self._queue.clear()
        if not batch:
            return 0
        tracer = get_tracer()
        started = time.perf_counter()
        # one commit span per ticket, parented to the *submitting* thread's
        # span context so the service-side merge correlates by trace id with
        # the client workload; never entered (this thread keeps no stack)
        commit_spans = []
        for ticket in batch:
            wait_s = (
                max(0.0, started - ticket.enqueued_at) if ticket.enqueued_at else 0.0
            )
            self._metrics.queue_wait_seconds.observe(wait_s)
            span = tracer.span(
                "service.commit",
                parent=ticket.trace_parent,
                session=ticket.session_id,
                label=ticket.label,
                queue_wait_s=wait_s,
            )
            commit_spans.append(span)
        with tracer.span("service.merge_batch", batch_size=len(batch)) as batch_span:
            try:
                report = self.updater.update_batch(
                    [ticket.workload for ticket in batch],
                    evict=self.versioned.defer_unmaterialize,
                )
                # copy-on-write publish: only the vertices this (and any
                # previously unpublished) batch dirtied are cloned; the
                # dirty set is cleared only after the publish succeeded,
                # so a failed publish keeps its dirt for the next attempt
                dirty = self.updater.pending_dirty
                version = self.versioned.publish(dirty_vertices=dirty)
                self.updater.clear_dirty()
                self._metrics.publishes.inc()
                self._metrics.publish_dirty_vertices.inc(len(dirty))
                self._record_utility_dirty()
                self.versioned.flush_deferred()
            except BaseException as error:  # noqa: BLE001 - must not strand tickets
                for ticket, span in zip(batch, commit_spans):
                    span.set_attribute("error", type(error).__name__)
                    span.finish()
                    ticket.fail(error)
                raise
            batch_span.set_attribute("version", version)
        merge_seconds = time.perf_counter() - started

        for ticket, outcome, span in zip(batch, report.outcomes, commit_spans):
            if isinstance(outcome, ArtifactDivergenceError):
                self._metrics.rejected_commits_total.inc(session=ticket.session_id)
                span.set_attribute("error", type(outcome).__name__)
                span.finish()
                ticket.fail(outcome)
                continue
            with self._log_lock:
                self._commit_counter += 1
                record = CommitRecord(
                    commit_index=self._commit_counter,
                    version=version,
                    session_id=ticket.session_id,
                    label=ticket.label,
                )
                self._commit_log.append(record)
            self._metrics.commits_total.inc(session=ticket.session_id)
            span.set_attribute("commit_index", record.commit_index)
            span.set_attribute("version", version)
            span.finish()
            ticket.resolve(
                CommitResult(
                    commit_index=record.commit_index,
                    version=version,
                    batch_size=report.merged_workloads,
                    new_sources=outcome,
                    batch_report=report,
                )
            )
        if report.merged_workloads:
            metrics = self._metrics
            metrics.batches.inc()
            metrics.merged_workloads.inc(report.merged_workloads)
            metrics.merge_seconds_total.inc(merge_seconds)
            metrics.max_batch_size.set_max(report.merged_workloads)
            metrics.max_merge_seconds.set_max(merge_seconds)
            metrics.merge_batch_seconds.observe(merge_seconds)
        return len(batch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def eg(self) -> ExperimentGraph:
        """The live working EG (consistent after a commit returns)."""
        return self.versioned.working

    @property
    def version(self) -> int:
        """Latest published EG version."""
        return self.versioned.version

    def _record_utility_dirty(self) -> None:
        """Fold the utility index's dirty totals into the metrics (delta)."""
        index = self.versioned.working.utility_index
        if index is None:
            return
        cost_seen, pot_seen = self._utility_dirty_recorded
        if index.total_cost_dirty > cost_seen:
            self._metrics.utility_cost_dirty.inc(index.total_cost_dirty - cost_seen)
        if index.total_potential_dirty > pot_seen:
            self._metrics.utility_potential_dirty.inc(
                index.total_potential_dirty - pot_seen
            )
        self._utility_dirty_recorded = (
            index.total_cost_dirty,
            index.total_potential_dirty,
        )

    def commit_log(self) -> list[CommitRecord]:
        with self._log_lock:
            return list(self._commit_log)

    def store_statistics(self) -> dict:
        return self.versioned.working.store_statistics()

    def record_request_latency(self, seconds: float) -> None:
        """Clients report end-to-end request latency for the p50/p99 window."""
        self._metrics.observe_request(seconds)

    def record_retry(self, session_id: str) -> None:
        self._metrics.retries_total.inc(session=session_id)

    def _observe(self) -> dict[str, int]:
        """The service's point-in-time numbers, read under their two
        short locks and mirrored into the exposition's gauges."""
        with self._queue_cv:
            queue_depth = len(self._queue)
            queue_peak = self._queue_peak
        with self._registry_lock:
            open_sessions = len(self._sessions)
        now = {
            "version": self.versioned.version,
            "open_sessions": open_sessions,
            "queue_depth": queue_depth,
            "queue_capacity": self.queue_capacity,
            "queue_peak": queue_peak,
            "deferred_evictions": self.versioned.deferred_evictions,
        }
        for name, gauge in self._gauges.items():
            gauge.set(now[name])
        return now

    def stats(self) -> ServiceStats:
        return self._metrics.cut(**self._observe())

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service's metrics registry."""
        self._observe()
        return self.metrics_registry.render_prometheus()

    def metrics_snapshot(self) -> dict[str, Any]:
        """JSON-shaped snapshot of the service's metrics registry."""
        self._observe()
        return self.metrics_registry.snapshot()

    # ------------------------------------------------------------------
    # Live introspection (the transport's ``health``/``debug`` ops)
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """Cheap liveness/readiness snapshot: queue headroom and recorder
        totals."""
        now = self._observe()
        return self.telemetry.health(
            self._stopped,
            version=now["version"],
            open_sessions=now["open_sessions"],
            queue={
                "depth": now["queue_depth"],
                "capacity": now["queue_capacity"],
                "peak": now["queue_peak"],
                "headroom": now["queue_capacity"] - now["queue_depth"],
            },
        )

    def debug_info(
        self, traces: int = 16, spans: int = 20, trace_id: str | None = None
    ) -> dict[str, Any]:
        """The flight recorder's view (see :meth:`TelemetryPlane.debug_info`)."""
        return self.telemetry.debug_info(traces, spans, trace_id)
