"""Failure-injection tests: the system must fail loudly and stay consistent.

Covers: operations raising mid-execution, store corruption (payload lost
behind the materialization flag), planner inputs with stale EG state, and
invalid user input at API boundaries.
"""

import numpy as np
import pytest

from repro.client.api import Workspace
from repro.client.executor import Executor
from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.graph.pruning import prune_workload
from repro.materialization.simple import MaterializeAll
from repro.reuse.linear import LinearReuse
from repro.reuse.plan import ReusePlan


class Boom(DataOperation):
    """An operation that fails after a configurable number of calls."""

    calls = 0

    def __init__(self, fail_on_call: int = 1):
        super().__init__("boom", params={"fail_on_call": fail_on_call})
        self.fail_on_call = fail_on_call

    def run(self, underlying_data):
        type(self).calls += 1
        if type(self).calls >= self.fail_on_call:
            raise RuntimeError("injected operation failure")
        return underlying_data


class Identity(DataOperation):
    def __init__(self, tag):
        super().__init__("identity", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


@pytest.fixture(autouse=True)
def reset_boom_counter():
    Boom.calls = 0


def frame():
    return DataFrame({"x": np.arange(4.0)})


class TestOperationFailures:
    def test_failure_propagates_with_context(self):
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=frame())
        out = dag.add_operation([src], Boom())
        dag.mark_terminal(out)
        with pytest.raises(RuntimeError, match="injected"):
            Executor().execute(dag)

    def test_prefix_results_survive_failure(self):
        """Vertices computed before the failure keep their payloads."""
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=frame())
        good = dag.add_operation([src], Identity("ok"))
        bad = dag.add_operation([good], Boom())
        dag.mark_terminal(bad)
        with pytest.raises(RuntimeError):
            Executor().execute(dag)
        assert dag.vertex(good).computed
        assert not dag.vertex(bad).computed

    def test_partial_dag_can_still_update_eg(self):
        """The updater accepts a partially executed DAG (meta-data only)."""
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=frame())
        good = dag.add_operation([src], Identity("ok"))
        bad = dag.add_operation([good], Boom())
        dag.mark_terminal(bad)
        with pytest.raises(RuntimeError):
            Executor().execute(dag)
        eg = ExperimentGraph()
        Updater(eg, MaterializeAll()).update(dag)
        assert eg.vertex(good).materialized
        assert not eg.vertex(bad).materialized

    def test_retry_after_failure_succeeds(self):
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=frame())
        flaky = dag.add_operation([src], Boom(fail_on_call=1))
        dag.mark_terminal(flaky)
        with pytest.raises(RuntimeError):
            Executor().execute(dag)
        # second attempt: the operation now succeeds (fail_on_call passed)
        Boom.calls = 10  # past the failure point, run() raises forever...
        operation = dag.incoming_operation(flaky)
        operation.fail_on_call = 10**9  # repaired operation
        type(operation).calls = 0

        def run_ok(underlying_data):
            return underlying_data

        operation.run = run_ok
        report = Executor().execute(dag)
        assert report.executed_vertices == 1


class RaisingLoadCostModel:
    """Prices every load by raising — models a cost model fed bad sizes."""

    def cost(self, size_bytes):
        raise RuntimeError("injected cost-model failure")

    def cost_for_tier(self, size_bytes, tier):
        raise RuntimeError("injected cost-model failure")


class TestAtomicReportAccounting:
    """A vertex contributes all of its report counters or none.

    Regression tests: the executor used to mutate the report field by
    field while processing a vertex, so a failure mid-vertex (operation
    raising, or the load-cost model raising after the payload was fetched)
    left ``executed_vertices``/``loaded_vertices`` inconsistent with
    ``compute_time``/``load_time``.  Outcomes are now staged per vertex
    and committed atomically.
    """

    def _failing_chain(self, good_vertices):
        dag = WorkloadDAG()
        current = dag.add_source("s", payload=frame())
        for step in range(good_vertices):
            good_op = Identity(f"ok{step}")
            good_op.virtual_cost = 1.0
            current = dag.add_operation([current], good_op)
        bad = dag.add_operation([current], Boom())
        dag.mark_terminal(bad)
        return dag

    @pytest.mark.parametrize("good_vertices", [1, 3])
    def test_failed_compute_contributes_nothing(self, good_vertices):
        from repro.client.executor import ExecutionReport, VirtualCostModel

        dag = self._failing_chain(good_vertices)
        report = ExecutionReport()
        executor = Executor(cost_model=VirtualCostModel())
        with pytest.raises(RuntimeError, match="injected"):
            executor.execute(dag, report=report)
        # the good prefix committed fully; the failing vertex not at all
        assert report.executed_vertices == good_vertices
        assert report.compute_time == float(good_vertices)
        assert report.loaded_vertices == 0
        assert report.load_time == 0.0

    @pytest.mark.parametrize("planned_loads", [1, 2])
    def test_failed_load_contributes_nothing(self, planned_loads):
        from repro.client.executor import ExecutionReport

        def chain():
            dag = WorkloadDAG()
            current = dag.add_source("s", payload=frame())
            outputs = []
            for step in range(planned_loads):
                current = dag.add_operation([current], Identity(f"a{step}"))
                outputs.append(current)
            dag.mark_terminal(current)
            return dag, outputs

        dag, _ = chain()
        Executor().execute(dag)
        eg = ExperimentGraph()
        Updater(eg, MaterializeAll()).update(dag)

        fresh, loads = chain()
        report = ExecutionReport()
        executor = Executor(load_cost_model=RaisingLoadCostModel())
        with pytest.raises(RuntimeError, match="cost-model"):
            executor.execute(fresh, plan=ReusePlan(loads=set(loads)), eg=eg, report=report)
        # nothing half-counted: the first load failed before its commit, so
        # the report shows no loads and no load time — and no workload vertex
        # was marked computed either (cost is priced before mutation)
        assert report.loaded_vertices == 0
        assert report.load_time == 0.0
        assert not any(fresh.vertex(vertex_id).computed for vertex_id in loads)


class TestStoreCorruption:
    def test_materialized_flag_without_payload_raises(self):
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=frame())
        out = dag.add_operation([src], Identity("a"))
        dag.mark_terminal(out)
        Executor().execute(dag)
        eg = ExperimentGraph()
        Updater(eg, MaterializeAll()).update(dag)
        # corruption: flag says materialized, store lost the bytes
        eg.store.remove(out)

        fresh = WorkloadDAG()
        fresh_src = fresh.add_source("s", payload=frame())
        fresh_out = fresh.add_operation([fresh_src], Identity("a"))
        fresh.mark_terminal(fresh_out)
        plan = ReusePlan(loads={fresh_out})
        with pytest.raises(KeyError, match="not materialized"):
            Executor().execute(fresh, plan=plan, eg=eg)

    def test_unmaterialize_heals_the_flag(self):
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=frame())
        out = dag.add_operation([src], Identity("a"))
        dag.mark_terminal(out)
        Executor().execute(dag)
        eg = ExperimentGraph()
        Updater(eg, MaterializeAll()).update(dag)
        eg.unmaterialize(out)
        # the planner no longer tries to load the vertex
        fresh = WorkloadDAG()
        fresh_src = fresh.add_source("s", payload=frame())
        fresh_out = fresh.add_operation([fresh_src], Identity("a"))
        fresh.mark_terminal(fresh_out)
        plan = LinearReuse().plan(fresh, eg)
        assert fresh_out not in plan.loads


class TestApiBoundaryErrors:
    def test_workspace_source_then_bad_column(self):
        ws = Workspace()
        train = ws.source("t", frame())
        bad = train[["nope"]]
        bad.terminal()
        prune_workload(ws.dag)
        with pytest.raises(KeyError, match="nope"):
            Executor().execute(ws.dag)

    def test_merge_on_missing_key_fails_at_execution(self):
        ws = Workspace()
        left = ws.source("l", frame())
        right = ws.source("r", DataFrame({"y": np.arange(4.0)}))
        joined = left.merge(right, on="k")
        joined.terminal()
        prune_workload(ws.dag)
        with pytest.raises(KeyError):
            Executor().execute(ws.dag)

    def test_eager_mode_fails_immediately(self):
        ws = Workspace(eager=True)
        train = ws.source("t", frame())
        with pytest.raises(KeyError, match="nope"):
            train[["nope"]]
