"""Executor accounting on wide DAGs, and thread-safety of the tiered store.

The invariants under test (docs/EXECUTION.md):

* ``compute_time``/``load_time`` and every counter of the
  :class:`ExecutionReport` are sums of per-vertex recorded / modeled
  costs, identical from run to run under the virtual cost model;
* loads are priced at the tier their vertex occupied before any load of
  the execution ran;
* :class:`TieredArtifactStore` survives concurrent hammering (concurrent
  tenants and the transport's work pool load from one store) — no lost
  columns, no double demotion, and hit counters that add up.
"""

import threading

import numpy as np
import pytest

from repro.client.executor import Executor, VirtualCostModel
from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.experiments.runner import make_optimizer
from repro.graph.dag import WorkloadDAG
from repro.reuse.plan import ReusePlan
from repro.storage import TieredArtifactStore, TieredLoadCostModel
from repro.workloads.synthetic_dag import wide_workload_script

from ..conftest import Shift, wide_dag, wide_sources


def report_fingerprint(report):
    """Every accounting field that must not depend on the machine.

    ``total_time`` is excluded only because the full optimizer loop folds
    wall-measured planning seconds into it; it is exactly
    ``compute_time + load_time (+ optimizer_overhead)`` in every path.
    """
    return (
        report.compute_time,
        report.load_time,
        report.executed_vertices,
        report.loaded_vertices,
        report.cold_loaded_vertices,
        report.warmstarted_vertices,
        report.plan_algorithm,
        dict(report.model_qualities),
    )


class TestIdenticalAccounting:
    @pytest.mark.parametrize(
        "n_branches,ops_per_branch", [(4, 2), (3, 3), (6, 1)]
    )
    def test_direct_execution(self, n_branches, ops_per_branch):
        """Every vertex of every branch is computed once and contributes
        exactly its declared cost."""
        workload = wide_dag(n_branches, ops_per_branch, op_seconds=0.002)
        report = Executor(cost_model=VirtualCostModel()).execute(workload)
        assert report.executed_vertices == n_branches * ops_per_branch
        assert report.compute_time == n_branches * ops_per_branch * 0.002
        assert report.loaded_vertices == 0 and report.load_time == 0.0
        assert report.wall_time >= report.compute_time

    @pytest.mark.parametrize("ops_per_branch", [1, 2])
    def test_full_optimizer_sequence(self, ops_per_branch):
        """Two runs of the same script through the whole loop: the second
        run reuses the first, and both runs' accounting is the same on two
        fresh optimizers."""
        script = wide_workload_script(
            n_branches=4, ops_per_branch=ops_per_branch, op_seconds=0.002
        )
        sources = wide_sources()

        def run_pair():
            optimizer = make_optimizer(
                "SA",
                budget_bytes=10**9,
                reuse="LN",
                cost_model=VirtualCostModel(),
            )
            return [optimizer.run_script(script, sources) for _ in range(2)]

        first, second = run_pair()
        assert first.executed_vertices == 4 * ops_per_branch
        assert second.executed_vertices == 0 and second.loaded_vertices > 0
        assert [report_fingerprint(r) for r in run_pair()] == [
            report_fingerprint(first),
            report_fingerprint(second),
        ]

    def test_loads_identical_across_worker_counts(self):
        """Explicit reuse plan over a tiered store whose hot tier holds one
        artifact: every load is priced at the tier its vertex occupied
        *before* the execution's first load, although each cold read
        promotes its artifact and demotes the hot one while the loads run."""

        def shifted_branches():
            dag = WorkloadDAG()
            source = dag.add_source("s", payload=DataFrame({"x": np.arange(512.0)}))
            outputs = [dag.add_operation([source], Shift(k)) for k in range(1, 5)]
            for output in outputs:
                dag.mark_terminal(output)
            return dag, sorted(outputs)

        first, loads = shifted_branches()
        Executor(cost_model=VirtualCostModel()).execute(first)
        store = TieredArtifactStore(hot_budget_bytes=1.5 * 512 * 8)
        eg = ExperimentGraph(store=store)
        eg.union_workload(first)
        for vertex_id in loads:
            eg.materialize(vertex_id, first.vertex(vertex_id).data)
        # the one hot artifact is the last the executor will load, so every
        # earlier (cold) load has demoted it by the time its turn comes
        store.get(loads[-1])
        tiers_before = {vertex_id: eg.tier_of(vertex_id) for vertex_id in loads}
        assert [tier.value for tier in tiers_before.values()] == ["cold"] * 3 + ["hot"]
        cold_reads_before = store.statistics()["cold_hits"]

        load_cost_model = TieredLoadCostModel.default()
        fresh, _ = shifted_branches()
        executor = Executor(cost_model=VirtualCostModel(), load_cost_model=load_cost_model)
        report = executor.execute(fresh, plan=ReusePlan(loads=set(loads)), eg=eg)
        assert report.loaded_vertices == 4
        assert report.executed_vertices == 0
        # all four were read from disk, three are priced (and counted) cold
        assert store.statistics()["cold_hits"] - cold_reads_before == 4
        assert report.cold_loaded_vertices == 3
        expected = 0.0
        for vertex_id in loads:
            expected += load_cost_model.cost_for_tier(
                eg.vertex(vertex_id).size, tiers_before[vertex_id]
            )
        assert report.load_time == expected


class TestTieredStoreStress:
    N_VERTICES = 10
    N_THREADS = 8
    GETS_PER_THREAD = 30

    def _populated_store(self):
        frames = {}
        store = None
        column_bytes = 512 * 8
        # budget fits ~3 of the 10 vertices: every pass over the working
        # set forces demotions and promotions
        store = TieredArtifactStore(hot_budget_bytes=3 * column_bytes)
        for i in range(self.N_VERTICES):
            frame = DataFrame({f"c{i}": np.full(512, float(i))})
            frames[f"v{i}"] = frame
            store.put(f"v{i}", frame)
        return store, frames

    def test_concurrent_gets_lose_nothing(self):
        store, frames = self._populated_store()
        errors = []
        barrier = threading.Barrier(self.N_THREADS)

        def hammer(thread_index):
            try:
                barrier.wait()
                for k in range(self.GETS_PER_THREAD):
                    index = (thread_index * 7 + k * 3) % self.N_VERTICES
                    got = store.get(f"v{index}")
                    expected = frames[f"v{index}"]
                    assert got.columns == expected.columns
                    column = got.column(f"c{index}")
                    assert np.array_equal(column.values, np.full(512, float(index)))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        stats = store.statistics()
        total_gets = self.N_THREADS * self.GETS_PER_THREAD
        # every access is exactly one hot hit or one cold hit
        assert stats["hot_hits"] + stats["cold_hits"] == total_gets
        # no lost vertices or columns, and the accounting balances
        assert stats["vertices"] == self.N_VERTICES
        assert stats["hot_vertices"] + stats["cold_vertices"] == self.N_VERTICES
        assert store.total_bytes == sum(
            frame.column(name).nbytes
            for vid, frame in frames.items()
            for name in frame.columns
        )
        # promotions move vertices COLD->HOT and demotions HOT->COLD; a
        # double demotion would have raised inside a worker (KeyError on
        # the LRU pop) and landed in ``errors`` above
        assert stats["promotions"] == stats["cold_hits"]
        assert store.hot_bytes <= store.hot_budget_bytes
        # after the dust settles every payload is still fully readable
        for i in range(self.N_VERTICES):
            got = store.get(f"v{i}")
            assert np.array_equal(got.column(f"c{i}").values, np.full(512, float(i)))

    def test_inflight_deduplication_single_disk_read(self):
        """Two concurrent gets of one cold vertex trigger one disk read:
        the second consumer waits for the in-flight promotion and is served
        from RAM."""
        frame = DataFrame({"c": np.arange(1024.0)})
        store = TieredArtifactStore(hot_budget_bytes=10 * frame.column("c").nbytes)
        store.put("v", frame)
        store.demote("v")

        results = []
        errors = []
        barrier = threading.Barrier(6)

        def reader():
            try:
                barrier.wait()
                results.append(store.get("v"))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 6
        for got in results:
            assert np.array_equal(got.column("c").values, np.arange(1024.0))
        stats = store.statistics()
        assert stats["cold_hits"] == 1
        assert stats["hot_hits"] == 5
        assert stats["promotions"] == 1
