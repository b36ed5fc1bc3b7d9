"""The collaborative workload optimizer — end-to-end loop (paper Figure 2).

:class:`CollaborativeOptimizer` wires the five steps together:

1. the client parses a workload script into a DAG,
2. the local pruner deactivates non-essential edges,
3. the server's optimizer produces a reuse plan (+ warmstarts),
4. the client executes the optimized DAG, and
5. the updater merges the executed DAG into the Experiment Graph and runs
   the materialization algorithm.

Steps 3 and 5 are served by an in-process
:class:`~repro.service.core.EGService` running in inline merge mode —
planning pins a published EG snapshot and the commit merges on the
calling thread.  Steps 1-5 are the one client loop: this class *is* a
:class:`~repro.service.client.ServiceClient` (``run_script`` /
``run_workspace`` are inherited) whose session is opened on a service it
builds and owns.  What it adds is the single-tenant surface: ``eg``,
``updater``, ``last_update_report``, ``compute_node`` and
``run_baseline`` (the same script run eagerly with no optimizer, the
paper's "KG"/"OML" baseline).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..client.api import Workspace
from ..client.executor import ExecutionReport, VirtualCostModel, WallClockCostModel
from ..client.parser import parse_workload
from ..eg.graph import ExperimentGraph
from ..eg.storage import ArtifactStore, LoadCostModel
from ..eg.updater import Updater, UpdateReport
from ..materialization.base import Materializer
from ..service.client import ServiceClient
from ..service.core import EGService

__all__ = ["CollaborativeOptimizer"]


class CollaborativeOptimizer(ServiceClient):
    """Client/server loop around one shared Experiment Graph."""

    def __init__(
        self,
        materializer: Materializer,
        reuse_algorithm=None,
        store: ArtifactStore | None = None,
        load_cost_model: LoadCostModel | None = None,
        warmstarting: bool = False,
        cost_model: WallClockCostModel | VirtualCostModel | None = None,
    ):
        service = EGService(
            materializer,
            reuse_algorithm=reuse_algorithm,
            store=store,
            load_cost_model=load_cost_model,
            warmstarting=warmstarting,
        )
        super().__init__(service, name="local", cost_model=cost_model)
        self.load_cost_model = self.service.load_cost_model
        self.materializer = materializer
        self.reuse_algorithm = self.service.reuse_algorithm

    # ------------------------------------------------------------------
    @property
    def eg(self) -> ExperimentGraph:
        """The live working Experiment Graph (shared with the service)."""
        return self.service.eg

    @property
    def updater(self) -> Updater:
        """The service's updater (merge path) — shared object."""
        return self.service.updater

    @property
    def last_update_report(self) -> UpdateReport | None:
        """What the latest workload's merge did to the Experiment Graph."""
        commit = self.last_commit
        if commit is None:
            return None
        batch = commit.batch_report
        assert batch is not None  # an in-process merge always reports its batch
        return UpdateReport(
            new_sources=commit.new_sources,
            newly_materialized=batch.newly_materialized,
            evicted=batch.evicted,
            store_bytes_after=batch.store_bytes_after,
        )

    # ------------------------------------------------------------------
    def compute_node(self, workspace: Workspace, node) -> Any:
        """Materialize one node's value mid-script (steps 2-5 for a prefix).

        This is the paper's hook for conditional control flow (Section
        4.1): the condition of an ``if``/loop must be computed before the
        control flow begins.  The node is treated as a temporary terminal;
        the optimized prefix executes (reusing the EG as usual), the EG is
        updated, and the value is returned so the script can branch on it.
        The workspace can keep growing afterwards — computed vertices are
        served from client memory.
        """
        if workspace.eager:
            return node.payload
        workload = workspace.dag
        previous_terminals = list(workload.terminals)
        workload.mark_terminal(node.vertex_id)
        try:
            self.run_workspace(workspace)
        finally:
            workload.terminals.clear()
            workload.terminals.extend(previous_terminals)
        return workload.vertex(node.vertex_id).data

    # ------------------------------------------------------------------
    @staticmethod
    def run_baseline(
        script: Callable[[Workspace, Mapping[str, Any]], None],
        sources: Mapping[str, Any],
        cost_model: WallClockCostModel | VirtualCostModel | None = None,
    ) -> ExecutionReport:
        """Execute a script eagerly with no optimizer (the "KG" baseline)."""
        workspace = parse_workload(script, sources, eager=True, cost_model=cost_model)
        report = ExecutionReport(plan_algorithm="baseline")
        report.compute_time = workspace.eager_time
        report.executed_vertices = workspace.eager_ops
        report.total_time = workspace.eager_time
        return report

    # ------------------------------------------------------------------
    @property
    def store_bytes(self) -> int:
        """Physical bytes currently used by the artifact store."""
        return self.eg.store.total_bytes
