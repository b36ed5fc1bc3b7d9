"""Synthetic workload DAGs for the reuse-overhead experiment (Figure 9d).

The paper generates 10,000 workloads whose five structural attributes match
the real Kaggle workloads: (1) indegree distribution (joins/concats),
(2) outdegree distribution, (3) ratio of materialized nodes,
(4) compute-cost distribution, and (5) load-cost distribution.  Node counts
are drawn from [500, 2000].

These DAGs are *planned* (by the linear-time and Helix reuse algorithms)
but never executed — the experiment measures planner overhead only — so
vertices carry costs and sizes without payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from ..dataframe import DataFrame
from ..eg.graph import ExperimentGraph
from ..graph.dag import WorkloadDAG
from ..graph.operations import DataOperation

__all__ = [
    "SyntheticDAGConfig",
    "generate_synthetic_workload",
    "build_matching_eg",
    "SleepOperation",
    "SleepJoinOperation",
    "wide_workload_script",
]


@dataclass(frozen=True)
class SyntheticDAGConfig:
    """Attribute distributions fitted from the real workloads (Table 1)."""

    min_nodes: int = 500
    max_nodes: int = 2000
    #: P(indegree = 1, 2, 3): most ops are unary; joins/concats are rarer
    indegree_probs: tuple[float, float, float] = (0.82, 0.14, 0.04)
    #: fraction of vertices materialized in the EG
    materialized_ratio: float = 0.3
    #: lognormal(mean, sigma) of per-vertex compute seconds
    compute_cost_lognormal: tuple[float, float] = (-2.5, 1.2)
    #: lognormal(mean, sigma) of per-vertex artifact bytes
    size_lognormal: tuple[float, float] = (11.0, 1.5)
    #: number of source vertices
    n_sources: int = 3


class _SyntheticOp(DataOperation):
    """Placeholder operation — never executed, identity only."""

    def __init__(self, index: int):
        super().__init__("synthetic", params={"index": index})


def generate_synthetic_workload(
    seed: int, config: SyntheticDAGConfig | None = None
) -> WorkloadDAG:
    """Generate one random workload DAG with realistic shape."""
    config = config or SyntheticDAGConfig()
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(config.min_nodes, config.max_nodes + 1))

    dag = WorkloadDAG()
    vertex_ids: list[str] = []
    for s in range(config.n_sources):
        vertex_ids.append(dag.add_source(f"synthetic_source_{seed}_{s}"))

    op_index = 0
    while len(vertex_ids) < n_nodes:
        indegree = int(
            rng.choice([1, 2, 3], p=list(config.indegree_probs))
        )
        indegree = min(indegree, len(vertex_ids))
        # bias towards recent vertices so the DAG is deep like real scripts,
        # while occasional long-range edges create outdegree > 1 hubs
        weights = np.arange(1, len(vertex_ids) + 1, dtype=float) ** 2
        weights /= weights.sum()
        parents = rng.choice(
            len(vertex_ids), size=indegree, replace=False, p=weights
        )
        inputs = [vertex_ids[p] for p in sorted(parents)]
        output = dag.add_operation(inputs, _SyntheticOp(op_index))
        op_index += 1
        vertex_ids.append(output)

    # terminals: every sink artifact vertex
    for vertex in dag.artifact_vertices():
        if not dag.children(vertex.vertex_id):
            dag.mark_terminal(vertex.vertex_id)
    return dag


class SleepOperation(DataOperation):
    """Identity operation with an explicit wall-clock cost.

    Sleeps ``seconds`` and passes its input through: the swarm's model of
    a tenant's think/compute time.  Declares the same value as
    ``virtual_cost`` so planner decisions and
    :class:`~repro.client.executor.VirtualCostModel` accounting are
    machine-independent.
    """

    def __init__(self, branch: int, step: int, seconds: float):
        super().__init__(
            "sleep", params={"branch": branch, "step": step, "seconds": seconds}
        )
        self.seconds = float(seconds)
        self.virtual_cost = float(seconds)

    def run(self, underlying_data: Any) -> Any:
        time.sleep(self.seconds)
        return underlying_data


class SleepJoinOperation(DataOperation):
    """Row-concat join with an explicit wall-clock cost.

    The multi-input counterpart of :class:`SleepOperation`: stacks its
    input frames vertically after sleeping ``seconds``, and declares the
    same value as ``virtual_cost`` so the recorded compute time of join
    vertices is machine-independent.  Raw ``concat_rows`` would record
    real measured wall time, which breaks bit-identical replay checks.
    """

    def __init__(self, branch: int, step: int, seconds: float):
        super().__init__(
            "sleep_join", params={"branch": branch, "step": step, "seconds": seconds}
        )
        self.seconds = float(seconds)
        self.virtual_cost = float(seconds)

    def run(self, underlying_data: Any) -> DataFrame:
        time.sleep(self.seconds)
        frames = list(underlying_data)
        return DataFrame.concat_rows(frames, operation_hash=self.op_hash)


def wide_workload_script(
    n_branches: int = 4, ops_per_branch: int = 2, op_seconds: float = 0.05
) -> Callable[[Any, Mapping[str, Any]], None]:
    """``n_branches`` independent :class:`SleepOperation` chains off one source."""

    def script(ws: Any, sources: Mapping[str, Any]) -> None:
        data = ws.source("wide", sources["wide"])
        for branch in range(n_branches):
            node = data
            for step in range(ops_per_branch):
                node = node.add(SleepOperation(branch, step, op_seconds))
            node.terminal()

    return script


def build_matching_eg(
    workload: WorkloadDAG, seed: int, config: SyntheticDAGConfig | None = None
) -> ExperimentGraph:
    """Build an EG that contains the workload with sampled attributes.

    Compute costs, sizes, and materialization flags are drawn from the
    configured distributions; materialized vertices are flagged without
    storing payloads (the planners only read flags and sizes).
    """
    config = config or SyntheticDAGConfig()
    rng = np.random.default_rng(seed + 1)
    eg = ExperimentGraph()
    eg.union_workload(workload)
    mu_c, sigma_c = config.compute_cost_lognormal
    mu_s, sigma_s = config.size_lognormal
    for record in eg.artifact_vertices():
        if record.is_source:
            continue
        record.compute_time = float(rng.lognormal(mu_c, sigma_c))
        record.size = int(rng.lognormal(mu_s, sigma_s))
        if rng.random() < config.materialized_ratio:
            record.materialized = True
    return eg
