"""Shared machinery for the paper's experiments.

The paper's Kaggle budgets (8/16/32/64 GB against 130 GB of artifacts) are
expressed here as *fractions of the total artifact volume* so the
experiments scale with the synthetic data: ``scaled_budget(16, total)``
returns ``total * 16/130`` bytes.

:func:`make_optimizer` builds a :class:`CollaborativeOptimizer` from a
strategy name, pairing each materializer with the store type it assumes
(column-dedup for SA, whole-artifact otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..client.executor import ExecutionReport, VirtualCostModel, WallClockCostModel
from ..eg.storage import DedupArtifactStore, LoadCostModel, SimpleArtifactStore
from ..materialization import (
    HelixMaterializer,
    HeuristicMaterializer,
    MaterializeAll,
    MaterializeNone,
)
from ..materialization.storage_aware import StorageAwareMaterializer
from ..reuse import AllMaterializedReuse, HelixReuse, LinearReuse, NoReuse
from ..server.service import CollaborativeOptimizer
from ..storage import TieredArtifactStore, TieredLoadCostModel

__all__ = [
    "PAPER_TOTAL_ARTIFACT_GB",
    "scaled_budget",
    "make_optimizer",
    "run_sequence",
    "baseline_times",
    "SequenceResult",
]

#: total artifact volume of the paper's 8 Kaggle workloads (Table 1, ~130 GB)
PAPER_TOTAL_ARTIFACT_GB = 130.0

_MATERIALIZERS = ("SA", "HM", "HL", "ALL", "NONE")
_REUSERS = ("LN", "HL", "ALL_M", "ALL_C")
_STORES = ("simple", "dedup", "tiered")


def scaled_budget(paper_gb: float, total_artifact_bytes: int) -> float:
    """Map a paper budget in GB to bytes at this run's artifact volume."""
    if paper_gb <= 0:
        raise ValueError("budget must be positive")
    return total_artifact_bytes * (paper_gb / PAPER_TOTAL_ARTIFACT_GB)


def make_optimizer(
    materializer: str = "SA",
    budget_bytes: float | None = None,
    reuse: str = "LN",
    alpha: float = 0.5,
    warmstarting: bool = False,
    load_cost_model: LoadCostModel | None = None,
    cost_model: WallClockCostModel | VirtualCostModel | None = None,
    max_artifacts: int | None = None,
    store: str | None = None,
    hot_budget_bytes: float | None = None,
    store_directory: str | None = None,
) -> CollaborativeOptimizer:
    """Build an optimizer for a (materializer, reuse) strategy pair.

    ``store`` overrides the store type the materializer implies:
    ``"simple"``, ``"dedup"``, or ``"tiered"`` — the latter bounds RAM at
    ``hot_budget_bytes`` with a disk cold tier under ``store_directory``
    (a temp directory when omitted) and defaults the load-cost model to
    the tier-aware one so cold hits are priced at disk bandwidth.
    """
    if materializer not in _MATERIALIZERS:
        raise ValueError(f"unknown materializer {materializer!r}; have {_MATERIALIZERS}")
    if reuse not in _REUSERS:
        raise ValueError(f"unknown reuse algorithm {reuse!r}; have {_REUSERS}")
    if store is not None and store not in _STORES:
        raise ValueError(f"unknown store {store!r}; have {_STORES}")
    if load_cost_model is not None:
        lcm = load_cost_model
    elif store == "tiered":
        lcm = TieredLoadCostModel.default()
    else:
        lcm = LoadCostModel.in_memory()

    if materializer == "SA":
        strategy = StorageAwareMaterializer(budget_bytes, alpha=alpha, load_cost_model=lcm)
        content_store = DedupArtifactStore()
    elif materializer == "HM":
        strategy = HeuristicMaterializer(
            budget_bytes, alpha=alpha, load_cost_model=lcm, max_artifacts=max_artifacts
        )
        content_store = SimpleArtifactStore()
    elif materializer == "HL":
        strategy = HelixMaterializer(budget_bytes, load_cost_model=lcm)
        content_store = SimpleArtifactStore()
    elif materializer == "ALL":
        strategy = MaterializeAll()
        content_store = SimpleArtifactStore()
    else:  # NONE
        strategy = MaterializeNone()
        content_store = SimpleArtifactStore()

    if store == "simple":
        content_store = SimpleArtifactStore()
    elif store == "dedup":
        content_store = DedupArtifactStore()
    elif store == "tiered":
        content_store = TieredArtifactStore(
            hot_budget_bytes=hot_budget_bytes, directory=store_directory
        )

    if reuse == "LN":
        reuser = LinearReuse(lcm)
    elif reuse == "HL":
        reuser = HelixReuse(lcm)
    elif reuse == "ALL_M":
        reuser = AllMaterializedReuse(lcm)
    else:
        reuser = NoReuse(lcm)

    return CollaborativeOptimizer(
        materializer=strategy,
        reuse_algorithm=reuser,
        store=content_store,
        load_cost_model=lcm,
        warmstarting=warmstarting,
        cost_model=cost_model,
    )


@dataclass
class SequenceResult:
    """Per-workload reports plus the store trajectory for a sequence run."""

    reports: list[ExecutionReport] = field(default_factory=list)
    #: physical store bytes after each workload
    physical_bytes: list[int] = field(default_factory=list)
    #: logical ("real", pre-dedup) stored bytes after each workload
    logical_bytes: list[int] = field(default_factory=list)
    #: store instrumentation snapshot after each workload (bytes per tier,
    #: hit ratio, promotion/demotion counters for tiered stores) — bench
    #: JSON records these to track storage behaviour across PRs
    store_stats: list[dict] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        return [r.total_time for r in self.reports]

    @property
    def final_store_stats(self) -> dict:
        return self.store_stats[-1] if self.store_stats else {}

    @property
    def cumulative_times(self) -> list[float]:
        out, acc = [], 0.0
        for t in self.times:
            acc += t
            out.append(acc)
        return out

    @property
    def total_time(self) -> float:
        return sum(self.times)


def run_sequence(
    optimizer: CollaborativeOptimizer,
    scripts: Sequence[Callable],
    sources: Mapping[str, Any],
) -> SequenceResult:
    """Execute workload scripts in order through one shared EG."""
    result = SequenceResult()
    for script in scripts:
        report = optimizer.run_script(script, sources)
        result.reports.append(report)
        result.physical_bytes.append(optimizer.eg.store.total_bytes)
        result.logical_bytes.append(optimizer.eg.materialized_artifact_bytes())
        result.store_stats.append(optimizer.eg.store_statistics())
    return result


def baseline_times(
    scripts: Sequence[Callable],
    sources: Mapping[str, Any],
    cost_model: WallClockCostModel | VirtualCostModel | None = None,
) -> list[float]:
    """Eager (no-optimizer) per-workload times — the KG/OML baseline."""
    return [
        CollaborativeOptimizer.run_baseline(script, sources, cost_model=cost_model).total_time
        for script in scripts
    ]
