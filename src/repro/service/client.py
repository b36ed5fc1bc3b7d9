"""The client loop of the multi-tenant EG service — written once.

:class:`ServiceClient` is the paper's five steps for one tenant session:
parse, prune, *plan via the service* (snapshot-isolated), execute
locally against the pinned snapshot, then *commit* the executed DAG back
for batched merging.  ``service`` is anything shaped like
:class:`~repro.service.core.EGService` — the service itself, a
:class:`~repro.shard.ProcessShardCoordinator`, or a
:class:`~repro.transport.client.RemoteService` speaking to one over the
wire — so the in-process client, the transport client and
``CollaborativeOptimizer`` all run this loop.  Requests bounced by
backpressure (:class:`ServiceOverloadedError`: a full merge queue) are
retried with exponential backoff per :class:`RetryPolicy`; timeouts are
**not** retried because the merge outcome is unknown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, TypeVar

from ..client.api import Workspace
from ..client.executor import (
    ExecutionReport,
    Executor,
    VirtualCostModel,
    WallClockCostModel,
)
from ..client.parser import parse_workload
from ..graph.pruning import prune_workload
from ..obs.trace import get_tracer
from .core import CommitResult
from .errors import ServiceOverloadedError

__all__ = ["RetryPolicy", "ServiceClient"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for overloaded-service retries."""

    max_attempts: int = 5
    initial_backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 0.5

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return min(
            self.max_backoff_s,
            self.initial_backoff_s * self.multiplier ** (attempt - 1),
        )


class ServiceClient:
    """One tenant session: plans through the service, executes locally."""

    def __init__(
        self,
        service: Any,
        name: str | None = None,
        cost_model: WallClockCostModel | VirtualCostModel | None = None,
    ):
        self.service = service
        self.session = service.open_session(name)
        self.cost_model = cost_model if cost_model is not None else WallClockCostModel()
        self.executor = Executor(
            cost_model=self.cost_model, load_cost_model=service.load_cost_model
        )
        self.retry_policy = RetryPolicy()
        self.last_commit: CommitResult | None = None
        #: plan and commit requests re-sent after an overload bounce
        self.retries = 0

    @property
    def session_id(self) -> str:
        return self.session.session_id

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
        """Prune, plan (service), execute (local), commit (service)."""
        workload = workspace.dag
        prune_workload(workload)
        started = time.perf_counter()

        # the root span of one logical request: the service plan, every
        # executor operation, and the merge-side commit span all share its
        # trace id (the commit because the ticket captures this context)
        with get_tracer().span(
            "client.workload", session=self.session_id, label=label
        ) as workload_span:
            plan = self._with_backoff(
                lambda: self.service.plan(self.session_id, workload)
            )
            try:
                report = self.executor.execute(
                    workload,
                    plan=plan.result.plan,
                    eg=plan.eg,
                    warmstarts=plan.result.warmstarts,
                )
            finally:
                plan.release()
            report.optimizer_overhead = plan.result.planning_seconds
            report.total_time += plan.result.planning_seconds

            self.last_commit = self._with_backoff(
                lambda: self.service.commit(self.session_id, workload, label=label)
            )
            workload_span.set_attribute("version", self.last_commit.version)
        report.store_stats = self.service.store_statistics()
        self.service.record_request_latency(time.perf_counter() - started)
        return report

    # ------------------------------------------------------------------
    def _with_backoff(self, call: Callable[[], _T]) -> _T:
        attempt = 0
        while True:
            try:
                return call()
            except ServiceOverloadedError:
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.retries += 1
                self.service.record_retry(self.session_id)
                time.sleep(self.retry_policy.backoff(attempt))

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.service.close_session(self.session_id)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
