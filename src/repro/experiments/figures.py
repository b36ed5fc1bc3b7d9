"""One harness function per table/figure of the paper's evaluation.

Every function returns a structured result object and leaves printing to
the caller (the benchmark suite prints paper-style rows).  Budgets are
scaled: the paper's 8/16/32/64 GB against 130 GB of artifacts become the
same *fractions* of this run's total artifact volume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..client.executor import Executor, VirtualCostModel
from ..client.parser import parse_workload
from ..eg.graph import ExperimentGraph
from ..graph.pruning import prune_workload
from ..reuse import HelixReuse, LinearReuse
from ..server.service import CollaborativeOptimizer
from ..workloads.kaggle import KAGGLE_WORKLOADS, workload_description
from ..workloads.openml import PipelineSpec, make_pipeline_script
from ..workloads.synthetic_dag import (
    SyntheticDAGConfig,
    build_matching_eg,
    generate_synthetic_workload,
)
from .runner import baseline_times, make_optimizer, run_sequence, scaled_budget

__all__ = [
    "Table1Row",
    "table1",
    "total_artifact_bytes",
    "Fig4Result",
    "fig4_repeated_runs",
    "Fig5Result",
    "fig5_sequence",
    "MaterializationResult",
    "fig6_fig7_materialization",
    "Fig8aResult",
    "fig8a_model_benchmarking",
    "Fig8bResult",
    "fig8b_alpha_sweep",
    "Fig9Result",
    "fig9_reuse_comparison",
    "Fig9dResult",
    "fig9d_reuse_overhead",
    "Fig10Result",
    "fig10_warmstarting",
]


# ----------------------------------------------------------------------
# Table 1 — workload inventory
# ----------------------------------------------------------------------
@dataclass
class Table1Row:
    workload_id: int
    description: str
    n_artifacts: int
    size_bytes: int


def table1(sources: Mapping[str, Any]) -> list[Table1Row]:
    """Execute each Kaggle workload standalone and inventory its artifacts."""
    rows = []
    for workload_id, script in KAGGLE_WORKLOADS.items():
        workspace = parse_workload(script, sources)
        prune_workload(workspace.dag)
        Executor().execute(workspace.dag)
        rows.append(
            Table1Row(
                workload_id=workload_id,
                description=workload_description(workload_id),
                n_artifacts=workspace.dag.num_artifacts(),
                size_bytes=workspace.dag.total_artifact_size(),
            )
        )
    return rows


def total_artifact_bytes(sources: Mapping[str, Any]) -> int:
    """Distinct-artifact volume of all 8 workloads (union, not sum)."""
    eg = ExperimentGraph()
    for script in KAGGLE_WORKLOADS.values():
        workspace = parse_workload(script, sources)
        prune_workload(workspace.dag)
        Executor().execute(workspace.dag)
        eg.union_workload(workspace.dag)
    return sum(v.size for v in eg.artifact_vertices())


# ----------------------------------------------------------------------
# Figure 4 — repeated executions of workloads 1-3
# ----------------------------------------------------------------------
@dataclass
class Fig4Result:
    #: times[workload_id][system] = [run1_seconds, run2_seconds]
    times: dict[int, dict[str, list[float]]] = field(default_factory=dict)


def fig4_repeated_runs(
    sources: Mapping[str, Any],
    budget_bytes: float,
    workload_ids: Sequence[int] = (1, 2, 3),
) -> Fig4Result:
    """Run each workload twice under CO, HL, and the KG baseline."""
    result = Fig4Result()
    for workload_id in workload_ids:
        script = KAGGLE_WORKLOADS[workload_id]
        per_system: dict[str, list[float]] = {}

        co = make_optimizer("SA", budget_bytes, reuse="LN")
        per_system["CO"] = [
            co.run_script(script, sources).total_time for _ in range(2)
        ]
        hl = make_optimizer("HL", budget_bytes, reuse="HL")
        per_system["HL"] = [
            hl.run_script(script, sources).total_time for _ in range(2)
        ]
        per_system["KG"] = [
            CollaborativeOptimizer.run_baseline(script, sources).total_time
            for _ in range(2)
        ]
        result.times[workload_id] = per_system
    return result


# ----------------------------------------------------------------------
# Figure 5 — the 8-workload sequence
# ----------------------------------------------------------------------
@dataclass
class Fig5Result:
    #: cumulative[system] = cumulative seconds after each of the 8 workloads
    cumulative: dict[str, list[float]] = field(default_factory=dict)
    #: full per-system sequence results (CO/HL) — the benchmark regression
    #: gate reads machine-independent counters (loads, modeled load time,
    #: store bytes) out of these
    sequences: dict[str, Any] = field(default_factory=dict)


def fig5_sequence(sources: Mapping[str, Any], budget_bytes: float) -> Fig5Result:
    scripts = [KAGGLE_WORKLOADS[i] for i in range(1, 9)]
    result = Fig5Result()

    co = make_optimizer("SA", budget_bytes, reuse="LN")
    result.sequences["CO"] = run_sequence(co, scripts, sources)
    result.cumulative["CO"] = result.sequences["CO"].cumulative_times

    hl = make_optimizer("HL", budget_bytes, reuse="HL")
    result.sequences["HL"] = run_sequence(hl, scripts, sources)
    result.cumulative["HL"] = result.sequences["HL"].cumulative_times

    kg_times = baseline_times(scripts, sources)
    cumulative, acc = [], 0.0
    for t in kg_times:
        acc += t
        cumulative.append(acc)
    result.cumulative["KG"] = cumulative
    return result


# ----------------------------------------------------------------------
# Figures 6 + 7 — materialization: stored size, run-time, speedup
# ----------------------------------------------------------------------
@dataclass
class MaterializationResult:
    """Everything Figures 6 and 7 plot, from one set of sequence runs."""

    budgets_gb: list[float]
    #: real (logical) stored bytes after each workload:
    #: stored_sizes[strategy][budget_gb] = [after W1, ..., after W8]
    stored_sizes: dict[str, dict[float, list[int]]] = field(default_factory=dict)
    #: total sequence run-time: total_times[strategy][budget_gb]
    total_times: dict[str, dict[float, float]] = field(default_factory=dict)
    #: per-workload times for speedup curves
    workload_times: dict[str, dict[float, list[float]]] = field(default_factory=dict)
    #: KG baseline per-workload times
    baseline: list[float] = field(default_factory=list)

    def speedup_curve(self, strategy: str, budget_gb: float) -> list[float]:
        """Cumulative speedup vs the KG baseline after each workload."""
        ours = self.workload_times[strategy][budget_gb]
        curve = []
        acc_base, acc_ours = 0.0, 0.0
        for base_t, our_t in zip(self.baseline, ours, strict=True):
            acc_base += base_t
            acc_ours += our_t
            curve.append(acc_base / acc_ours if acc_ours > 0 else float("inf"))
        return curve


def fig6_fig7_materialization(
    sources: Mapping[str, Any],
    total_bytes: int,
    budgets_gb: Sequence[float] = (8.0, 16.0, 32.0, 64.0),
    strategies: Sequence[str] = ("SA", "HM", "HL", "ALL"),
) -> MaterializationResult:
    scripts = [KAGGLE_WORKLOADS[i] for i in range(1, 9)]
    result = MaterializationResult(budgets_gb=list(budgets_gb))
    result.baseline = baseline_times(scripts, sources)

    for strategy in strategies:
        result.stored_sizes[strategy] = {}
        result.total_times[strategy] = {}
        result.workload_times[strategy] = {}
        # ALL ignores the budget: run it once and reuse for every budget
        budgets = [budgets_gb[0]] if strategy == "ALL" else list(budgets_gb)
        for budget_gb in budgets:
            budget = None if strategy == "ALL" else scaled_budget(budget_gb, total_bytes)
            optimizer = make_optimizer(strategy, budget, reuse="LN")
            sequence = run_sequence(optimizer, scripts, sources)
            result.stored_sizes[strategy][budget_gb] = sequence.logical_bytes
            result.total_times[strategy][budget_gb] = sequence.total_time
            result.workload_times[strategy][budget_gb] = sequence.times
        if strategy == "ALL":
            for budget_gb in budgets_gb[1:]:
                result.stored_sizes[strategy][budget_gb] = result.stored_sizes[
                    strategy
                ][budgets_gb[0]]
                result.total_times[strategy][budget_gb] = result.total_times[
                    strategy
                ][budgets_gb[0]]
                result.workload_times[strategy][budget_gb] = result.workload_times[
                    strategy
                ][budgets_gb[0]]
    return result


# ----------------------------------------------------------------------
# Figure 8a — model-benchmarking: CO vs OML
# ----------------------------------------------------------------------
@dataclass
class Fig8aResult:
    cumulative_co: list[float] = field(default_factory=list)
    cumulative_oml: list[float] = field(default_factory=list)
    gold_indices: list[int] = field(default_factory=list)


def _best_quality(report) -> float:
    return max(report.model_qualities.values(), default=0.0)


def fig8a_model_benchmarking(
    specs: Sequence[PipelineSpec],
    sources: Mapping[str, Any],
    budget_bytes: float,
    alpha: float = 0.5,
) -> Fig8aResult:
    """The paper's model-benchmarking scenario (Section 7.3).

    After each new workload, the current *gold standard* workload (the one
    whose model scored best so far) is re-executed for comparison.  CO
    reuses the gold artifacts from the EG; OML re-runs them from scratch.
    """
    result = Fig8aResult()
    scripts = [make_pipeline_script(spec) for spec in specs]

    co = make_optimizer("SA", budget_bytes, reuse="LN", alpha=alpha)
    gold_index, gold_quality = 0, -1.0
    acc = 0.0
    for index, script in enumerate(scripts):
        report = co.run_script(script, sources)
        acc += report.total_time
        quality = _best_quality(report)
        if quality <= 0.0:  # model was loaded, not retrained: read from EG
            quality = max(
                (q for q in _eg_model_qualities(co, report)), default=0.0
            )
        if quality > gold_quality:
            gold_quality, gold_index = quality, index
        # benchmark against the gold standard
        acc += co.run_script(scripts[gold_index], sources).total_time
        result.cumulative_co.append(acc)
        result.gold_indices.append(gold_index)

    gold_index, gold_quality = 0, -1.0
    acc = 0.0
    qualities: list[float] = []
    for index, script in enumerate(scripts):
        report = CollaborativeOptimizer.run_baseline(script, sources)
        acc += report.total_time
        qualities.append(_pipeline_quality_eager(script, sources))
        if qualities[index] > gold_quality:
            gold_quality, gold_index = qualities[index], index
        acc += CollaborativeOptimizer.run_baseline(scripts[gold_index], sources).total_time
        result.cumulative_oml.append(acc)
    return result


def _eg_model_qualities(co: CollaborativeOptimizer, report) -> list[float]:
    out = []
    for vertex_id in report.terminal_values:
        if vertex_id in co.eg:
            out.append(co.eg.vertex(vertex_id).quality)
    return out


_EAGER_QUALITY_CACHE: dict[tuple[int, str], float] = {}


def _pipeline_quality_eager(script, sources) -> float:
    """Accuracy of an eagerly executed pipeline (cached: deterministic)."""
    key = (id(sources), script.__name__)
    if key not in _EAGER_QUALITY_CACHE:
        workspace = parse_workload(script, sources)
        prune_workload(workspace.dag)
        report = Executor().execute(workspace.dag)
        _EAGER_QUALITY_CACHE[key] = _best_quality(report)
    return _EAGER_QUALITY_CACHE[key]


# ----------------------------------------------------------------------
# Figure 8b — effect of alpha with a one-artifact budget
# ----------------------------------------------------------------------
@dataclass
class Fig8bResult:
    alphas: list[float] = field(default_factory=list)
    #: cumulative[alpha] = cumulative modeled seconds after each workload
    cumulative: dict[float, list[float]] = field(default_factory=dict)
    #: measured[alpha] = the same runs' cumulative measured seconds
    #: (execution wall time plus planning)
    measured: dict[float, list[float]] = field(default_factory=dict)
    #: chosen_at[alpha] = the workload after which HM last changed its one
    #: artifact: when it stored the artifact it ends with
    chosen_at: dict[float, int] = field(default_factory=dict)

    def delta_vs_alpha1(self, alpha: float, measured: bool = False) -> list[float]:
        series = self.measured if measured else self.cumulative
        return [c - r for c, r in zip(series[alpha], series[1.0], strict=True)]


class _PipelineCostModel(VirtualCostModel):
    """Modeled compute seconds for the OpenML pipelines' operations.

    A fit costs 1 ms per tree level it grows (``n_estimators × max_depth``
    when boosting) plus 0.1 ms per solver iteration; any other operation
    costs 0.2 ms.  That is about what each measured on a 2-core x86-64 box,
    but it reads no clock, so HM's choices do not follow the machine.
    """

    def record(self, operation, measured_seconds: float) -> float:
        hyper = operation.params.get("hyperparams", {})
        levels = hyper.get("n_estimators", 1) * hyper.get("max_depth", 0)
        return 1e-3 * levels + 1e-4 * hyper.get("max_iter", 0) or 2e-4


def fig8b_alpha_sweep(
    specs: Sequence[PipelineSpec],
    sources: Mapping[str, Any],
    alphas: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
) -> Fig8bResult:
    """Model-benchmarking with a budget of exactly one artifact (HM), on
    modeled compute seconds (:class:`_PipelineCostModel`)."""
    result = Fig8bResult(alphas=list(alphas))
    scripts = [make_pipeline_script(spec) for spec in specs]
    for alpha in alphas:
        co = make_optimizer(
            "HM", None, alpha=alpha, max_artifacts=1, cost_model=_PipelineCostModel()
        )
        gold_index, gold_quality = 0, -1.0
        modeled = measured = 0.0
        stored: set[str] = set()
        result.cumulative[alpha], result.measured[alpha] = [], []
        for index, script in enumerate(scripts):
            report = co.run_script(script, sources)
            quality = _best_quality(report)
            if quality <= 0.0:
                quality = max(
                    (q for q in _eg_model_qualities(co, report)), default=0.0
                )
            if quality > gold_quality:
                gold_quality, gold_index = quality, index
            for run in (report, co.run_script(scripts[gold_index], sources)):
                modeled += run.compute_time + run.load_time
                measured += run.wall_time + run.optimizer_overhead
            result.cumulative[alpha].append(modeled)
            result.measured[alpha].append(measured)
            if co.eg.stored_ids() != stored:
                stored, result.chosen_at[alpha] = set(co.eg.stored_ids()), index
    return result


# ----------------------------------------------------------------------
# Figure 9a-c — reuse algorithms under HM and SA materialization
# ----------------------------------------------------------------------
@dataclass
class Fig9Result:
    #: cumulative[materializer][reuser] = cumulative seconds per workload
    cumulative: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def speedup_vs_all_c(self, materializer: str, reuser: str) -> list[float]:
        reference = self.cumulative[materializer]["ALL_C"]
        ours = self.cumulative[materializer][reuser]
        return [r / o if o > 0 else float("inf") for r, o in zip(reference, ours, strict=True)]


def fig9_reuse_comparison(
    sources: Mapping[str, Any],
    budget_bytes: float,
    materializers: Sequence[str] = ("HM", "SA"),
    reusers: Sequence[str] = ("LN", "HL", "ALL_M", "ALL_C"),
) -> Fig9Result:
    scripts = [KAGGLE_WORKLOADS[i] for i in range(1, 9)]
    result = Fig9Result()
    for materializer in materializers:
        result.cumulative[materializer] = {}
        for reuser in reusers:
            optimizer = make_optimizer(materializer, budget_bytes, reuse=reuser)
            sequence = run_sequence(optimizer, scripts, sources)
            result.cumulative[materializer][reuser] = sequence.cumulative_times
    return result


# ----------------------------------------------------------------------
# Figure 9d — planner overhead: LN vs HL on synthetic workloads
# ----------------------------------------------------------------------
@dataclass
class Fig9dResult:
    cumulative_ln: list[float] = field(default_factory=list)
    cumulative_hl: list[float] = field(default_factory=list)
    plans_equal_cost: bool = True

    @property
    def final_ratio(self) -> float:
        if not self.cumulative_ln or self.cumulative_ln[-1] == 0:
            return float("nan")
        return self.cumulative_hl[-1] / self.cumulative_ln[-1]


def fig9d_reuse_overhead(
    n_workloads: int = 100,
    config: SyntheticDAGConfig | None = None,
    seed: int = 0,
) -> Fig9dResult:
    """Time LN and Helix planning over synthetic workloads (never executed).

    The paper uses 10,000 workloads of 500-2000 nodes; the node range and
    count scale down via ``config``/``n_workloads`` so the benchmark stays
    laptop-sized — the *ratio* is the reproduced quantity.
    """
    result = Fig9dResult()
    linear, helix = LinearReuse(), HelixReuse()
    acc_ln = acc_hl = 0.0
    for index in range(n_workloads):
        workload = generate_synthetic_workload(seed + index, config)
        eg = build_matching_eg(workload, seed + index, config)

        started = time.perf_counter()
        plan_ln = linear.plan(workload, eg)
        acc_ln += time.perf_counter() - started

        started = time.perf_counter()
        plan_hl = helix.plan(workload, eg)
        acc_hl += time.perf_counter() - started

        if abs(plan_ln.estimated_cost - plan_hl.estimated_cost) > 1e-6 * max(
            1.0, plan_ln.estimated_cost
        ):
            result.plans_equal_cost = False
        result.cumulative_ln.append(acc_ln)
        result.cumulative_hl.append(acc_hl)
    return result


# ----------------------------------------------------------------------
# Figure 10 — warmstarting
# ----------------------------------------------------------------------
@dataclass
class Fig10Result:
    cumulative_oml: list[float] = field(default_factory=list)
    cumulative_co_without: list[float] = field(default_factory=list)
    cumulative_co_with: list[float] = field(default_factory=list)
    #: cumulative sum of acc(CO+W) - acc(OML) per workload
    cumulative_delta_accuracy: list[float] = field(default_factory=list)
    warmstarted_runs: int = 0


def fig10_warmstarting(
    specs: Sequence[PipelineSpec],
    sources: Mapping[str, Any],
    budget_bytes: float,
) -> Fig10Result:
    result = Fig10Result()
    scripts = [make_pipeline_script(spec) for spec in specs]

    acc = 0.0
    oml_accuracy: list[float] = []
    for script in scripts:
        report = CollaborativeOptimizer.run_baseline(script, sources)
        acc += report.total_time
        result.cumulative_oml.append(acc)
        oml_accuracy.append(_pipeline_quality_eager(script, sources))

    co_without = make_optimizer("SA", budget_bytes, reuse="LN", warmstarting=False)
    acc = 0.0
    for script in scripts:
        acc += co_without.run_script(script, sources).total_time
        result.cumulative_co_without.append(acc)

    co_with = make_optimizer("SA", budget_bytes, reuse="LN", warmstarting=True)
    acc = 0.0
    delta_acc = 0.0
    for index, script in enumerate(scripts):
        report = co_with.run_script(script, sources)
        acc += report.total_time
        result.cumulative_co_with.append(acc)
        result.warmstarted_runs += report.warmstarted_vertices
        quality = _best_quality(report)
        if quality <= 0.0:
            quality = max((q for q in _eg_model_qualities(co_with, report)), default=0.0)
        delta_acc += quality - oml_accuracy[index]
        result.cumulative_delta_accuracy.append(delta_acc)
    return result

