"""End-to-end tests for the CollaborativeOptimizer loop (paper Figure 2)."""

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg.storage import DedupArtifactStore
from repro.materialization import (
    HeuristicMaterializer,
    MaterializeAll,
    MaterializeNone,
    StorageAwareMaterializer,
)
from repro.client.parser import parse_workload
from repro.graph.pruning import prune_workload
from repro.ml import (
    GradientBoostingClassifier,
    GridSearchCV,
    LogisticRegression,
    roc_auc_score,
)
from repro.reuse import AllMaterializedReuse, HelixReuse, LinearReuse, NoReuse
from repro.server.optimizer import Optimizer
from repro.server.service import CollaborativeOptimizer
from repro.storage import TieredArtifactStore, TieredLoadCostModel


@pytest.fixture
def sources():
    rng = np.random.default_rng(1)
    frame = DataFrame(
        {
            "a": rng.normal(size=60),
            "b": rng.normal(size=60),
            "c": rng.normal(size=60),
            "y": (rng.random(60) > 0.5).astype(np.int64),
        }
    )
    return {"train": frame}


def basic_script(ws, sources):
    train = ws.source("train", sources["train"])
    X = train[["a", "b", "c"]]
    y = train["y"]
    model = X.fit(LogisticRegression(max_iter=10), y=y, scorer="train_auc")
    model.terminal()


def modified_script(ws, sources):
    """Shares the feature prefix with basic_script, different model."""
    train = ws.source("train", sources["train"])
    X = train[["a", "b", "c"]]
    y = train["y"]
    model = X.fit(
        GradientBoostingClassifier(n_estimators=2, max_depth=1), y=y, scorer="train_auc"
    )
    model.terminal()


class TestEndToEnd:
    def test_first_run_executes_everything(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        report = co.run_script(basic_script, sources)
        assert report.executed_vertices == 3
        assert report.loaded_vertices == 0

    def test_repeat_run_loads_terminal_only(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        co.run_script(basic_script, sources)
        report = co.run_script(basic_script, sources)
        assert report.executed_vertices == 0
        assert report.loaded_vertices == 1

    def test_modified_run_reuses_prefix(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        co.run_script(basic_script, sources)
        report = co.run_script(modified_script, sources)
        # only the new GBT must be *trained*; the feature prefix is either
        # loaded or (when recomputing a tiny select is cheaper than the
        # modeled load) recomputed — never both
        assert len(report.model_qualities) == 1
        assert report.loaded_vertices + report.executed_vertices <= 3

    def test_no_materialization_recomputes(self, sources):
        co = CollaborativeOptimizer(MaterializeNone())
        co.run_script(basic_script, sources)
        report = co.run_script(basic_script, sources)
        assert report.loaded_vertices == 0
        assert report.executed_vertices == 3

    def test_eg_grows_across_workloads(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        co.run_script(basic_script, sources)
        before = co.eg.num_vertices
        co.run_script(modified_script, sources)
        assert co.eg.num_vertices > before

    def test_optimizer_overhead_recorded(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        report = co.run_script(basic_script, sources)
        assert report.optimizer_overhead > 0.0

    def test_baseline_runs_eagerly(self, sources):
        report = CollaborativeOptimizer.run_baseline(basic_script, sources)
        assert report.executed_vertices == 3
        assert report.plan_algorithm == "baseline"

    def test_model_quality_recorded_in_eg(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        report = co.run_script(basic_script, sources)
        model_vid = next(iter(report.model_qualities))
        assert co.eg.vertex(model_vid).quality == report.model_qualities[model_vid]

    def test_search_estimator_scores_evaluates_and_predicts_proba(self, sources):
        """A fitted search is a model like any other: the AUC scorer,
        ``evaluate`` and ``predict(proba=True)`` all reach its refit best
        estimator (W5 only survived by scoring accuracy and never evaluating)."""
        nodes = {}

        def script(ws, sources):
            train = ws.source("train", sources["train"])
            X, y = train[["a", "b", "c"]], train["y"]
            search = GridSearchCV(
                GradientBoostingClassifier(n_estimators=3, max_depth=1, random_state=0),
                param_grid={"learning_rate": [0.1, 0.3]},
                cv=2,
            )
            model = X.fit(search, y=y, scorer="train_auc")
            nodes["model"] = model.terminal()
            nodes["auc"] = model.evaluate(X, y).terminal()
            nodes["proba"] = model.predict(X, proba=True).terminal()

        report = CollaborativeOptimizer(MaterializeAll()).run_script(script, sources)

        train = sources["train"]
        best = nodes["model"].value.best_estimator_
        proba = best.predict_proba(train[["a", "b", "c"]].to_numpy())[:, 1]
        auc = roc_auc_score(train.values("y"), proba)
        assert report.model_qualities[nodes["model"].vertex_id] == auc
        assert nodes["auc"].value == auc
        assert np.array_equal(nodes["proba"].value.values("prediction"), proba)

    def test_store_bytes_property(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        co.run_script(basic_script, sources)
        assert co.store_bytes > 0


class TestStrategyCombinations:
    @pytest.mark.parametrize(
        "materializer,store",
        [
            (StorageAwareMaterializer(budget_bytes=10_000_000), DedupArtifactStore()),
            (HeuristicMaterializer(budget_bytes=10_000_000), None),
        ],
    )
    @pytest.mark.parametrize(
        "reuse", [LinearReuse(), HelixReuse(), AllMaterializedReuse(), NoReuse()]
    )
    def test_all_pairs_produce_results(self, sources, materializer, store, reuse):
        co = CollaborativeOptimizer(materializer, reuse_algorithm=reuse, store=store)
        first = co.run_script(basic_script, sources)
        second = co.run_script(basic_script, sources)
        assert first.terminal_values
        assert second.terminal_values

    def test_ln_and_helix_same_plan_on_same_eg(self, sources):
        """Against identical EG state the two planners agree (paper 7.4).

        End-to-end runs would measure slightly different wall-clock costs,
        so the comparison is made on one shared EG and workload DAG.
        """
        from repro.client.parser import parse_workload
        from repro.graph.pruning import prune_workload

        co = CollaborativeOptimizer(MaterializeAll())
        co.run_script(basic_script, sources)
        workspace = parse_workload(modified_script, sources)
        prune_workload(workspace.dag)
        plan_ln = LinearReuse().plan(workspace.dag, co.eg)
        plan_hl = HelixReuse().plan(workspace.dag, co.eg)
        assert plan_ln.loads == plan_hl.loads
        assert plan_ln.estimated_cost == pytest.approx(plan_hl.estimated_cost)


class TestWarmstartingIntegration:
    def test_warmstart_applied_when_enabled(self, sources):
        co = CollaborativeOptimizer(MaterializeAll(), warmstarting=True)
        co.run_script(modified_script, sources)

        def bigger_gbt(ws, srcs):
            train = ws.source("train", srcs["train"])
            X = train[["a", "b", "c"]]
            y = train["y"]
            X.fit(
                GradientBoostingClassifier(n_estimators=4, max_depth=1),
                y=y,
                scorer="train_auc",
            ).terminal()

        report = co.run_script(bigger_gbt, sources)
        assert report.warmstarted_vertices == 1

    def test_warmstart_off_by_default(self, sources):
        co = CollaborativeOptimizer(MaterializeAll())
        co.run_script(modified_script, sources)

        def bigger_gbt(ws, srcs):
            train = ws.source("train", srcs["train"])
            X = train[["a", "b", "c"]]
            y = train["y"]
            X.fit(
                GradientBoostingClassifier(n_estimators=4, max_depth=1),
                y=y,
                scorer="train_auc",
            ).terminal()

        report = co.run_script(bigger_gbt, sources)
        assert report.warmstarted_vertices == 0


class TestTieredStoreIntegration:
    """A tiered store is a drop-in for the dedup store: identical results,
    but demotions happen and cold loads are priced at disk bandwidth."""

    def _run_sequence(self, sources, store, reuse):
        co = CollaborativeOptimizer(
            MaterializeAll(), reuse_algorithm=reuse, store=store
        )
        reports = [
            co.run_script(script, sources)
            for script in (basic_script, modified_script, basic_script)
        ]
        return co, reports

    def test_same_results_as_dedup_store(self, sources):
        dedup_co, dedup_reports = self._run_sequence(
            sources, DedupArtifactStore(), LinearReuse()
        )
        tiered = TieredArtifactStore(hot_budget_bytes=0)
        co, tiered_reports = self._run_sequence(
            sources, tiered, LinearReuse(TieredLoadCostModel.default())
        )
        # the *plans* may differ (cold loads can make recomputation the
        # cheaper choice) but the produced artifacts must not: both runs
        # reach the same terminals and record the same model qualities
        for dedup_report, tiered_report in zip(dedup_reports, tiered_reports):
            assert set(tiered_report.terminal_values) == set(
                dedup_report.terminal_values
            )
        assert co.eg.num_vertices == dedup_co.eg.num_vertices
        for vertex in dedup_co.eg.vertices():
            if vertex.quality is not None:
                assert co.eg.vertex(vertex.vertex_id).quality == vertex.quality
        assert co.eg.store.stats.demotions > 0
        assert tiered_reports[-1].store_stats["demotions"] > 0

    def test_cold_loads_priced_at_disk_bandwidth(self, sources):
        # ALL_M loads every materialized vertex unconditionally, so both
        # stores load the same set and only the tier pricing differs
        _, dedup_reports = self._run_sequence(
            sources, DedupArtifactStore(), AllMaterializedReuse()
        )
        tiered = TieredArtifactStore(hot_budget_bytes=0)
        _, tiered_reports = self._run_sequence(
            sources,
            tiered,
            AllMaterializedReuse(TieredLoadCostModel.default()),
        )
        dedup_repeat, tiered_repeat = dedup_reports[-1], tiered_reports[-1]
        assert tiered_repeat.loaded_vertices == dedup_repeat.loaded_vertices > 0
        assert tiered_repeat.cold_loaded_vertices == tiered_repeat.loaded_vertices
        assert dedup_repeat.cold_loaded_vertices == 0
        assert tiered_repeat.load_time > dedup_repeat.load_time

    def test_default_load_cost_model_is_tier_aware(self, sources):
        co = CollaborativeOptimizer(
            MaterializeAll(), store=TieredArtifactStore(hot_budget_bytes=0)
        )
        assert isinstance(co.load_cost_model, TieredLoadCostModel)
        report = co.run_script(basic_script, sources)
        assert report.store_stats["store_type"] == "TieredArtifactStore"
        assert report.store_stats["demotions"] > 0

    def test_optimizer_reports_planned_cold_loads(self, sources):
        co = CollaborativeOptimizer(
            MaterializeAll(),
            reuse_algorithm=AllMaterializedReuse(TieredLoadCostModel.default()),
            store=TieredArtifactStore(hot_budget_bytes=0),
        )
        co.run_script(basic_script, sources)
        workspace = parse_workload(basic_script, sources)
        prune_workload(workspace.dag)
        result = Optimizer(co.eg, co.reuse_algorithm).optimize(workspace.dag)
        assert result.plan.loads
        assert result.planned_cold_loads == len(result.plan.loads)
