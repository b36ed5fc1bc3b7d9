"""Trace context of one execution.

Every ``executor.load`` / ``executor.compute`` span nests under the
``executor.execute`` root of its own execution, two executions never
share a trace, and a real tracer leaves a :class:`ProfileReport` on the
report.
"""

from repro.client.executor import Executor, VirtualCostModel
from repro.obs.trace import Tracer, use_tracer

from ..conftest import wide_dag


def _run_traced():
    workload = wide_dag(n_branches=4, ops_per_branch=2, op_seconds=0.002)
    executor = Executor(cost_model=VirtualCostModel())
    with use_tracer(Tracer()) as tracer:
        report = executor.execute(workload)
    return tracer, report


class TestParallelPropagation:
    def test_sequential_spans_nest_under_the_same_root(self):
        tracer, _report = _run_traced()
        spans = tracer.finished_spans()
        [root] = [s for s in spans if s.name == "executor.execute"]
        computes = [s for s in spans if s.name == "executor.compute"]
        assert len(computes) == 8  # 4 branches x 2 ops
        for span in computes:
            assert span.parent_id == root.span_id
            assert span.trace_id == root.trace_id

    def test_two_executions_never_share_a_trace(self):
        workload_a = wide_dag(n_branches=2, ops_per_branch=1, op_seconds=0.001)
        workload_b = wide_dag(n_branches=3, ops_per_branch=1, op_seconds=0.001)
        executor = Executor(cost_model=VirtualCostModel())
        with use_tracer(Tracer()) as tracer:
            executor.execute(workload_a)
            executor.execute(workload_b)
        roots = [s for s in tracer.finished_spans() if s.name == "executor.execute"]
        assert len(roots) == 2
        assert roots[0].trace_id != roots[1].trace_id
        for span in tracer.finished_spans():
            assert span.trace_id in {roots[0].trace_id, roots[1].trace_id}


class TestProfileAttachment:
    def test_report_carries_a_profile_when_tracing(self):
        _tracer, report = _run_traced()
        assert report.profile is not None
        names = {entry.name for entry in report.profile.entries}
        assert "executor.compute" in names
        assert report.profile.span_count >= 9  # root + 8 computes

    def test_no_profile_under_the_noop_default(self):
        workload = wide_dag(n_branches=2, ops_per_branch=1, op_seconds=0.001)
        report = Executor(cost_model=VirtualCostModel()).execute(workload)
        assert report.profile is None
