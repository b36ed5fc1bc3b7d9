"""ProcessShardCoordinator over up to four worker processes: routed
commits, single-shard planning, convergence, the shared stop deadline.
The per-request contract (gap-free indices, backpressure, mirroring,
stats split, cold pricing, ticket semantics) is in
``test_coordinator_contract.py``."""

import random
import threading
import time

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization.simple import MaterializeAll
from repro.service.errors import ServiceStoppedError, UnknownSessionError
from repro.shard import (
    ProcessShardCoordinator,
    StitchedSnapshot,
    balanced_source_names,
)


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class Join(DataOperation):
    def __init__(self, tag=0):
        super().__init__("join", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data[0]


NAMES = balanced_source_names(4, 4)


def frame(offset: float = 0.0) -> DataFrame:
    return DataFrame({"x": np.arange(4.0) + offset})


def make_workload(index: int, executed: bool = True) -> WorkloadDAG:
    """Deterministic workload ``index``: a chain, every third one a join.

    ``executed=True`` records results (the shape ``submit_update`` sees);
    ``executed=False`` leaves the same DAG uncomputed for planning tests.
    """
    rng = random.Random(1000 + index)
    group = rng.randrange(4)
    dag = WorkloadDAG()
    current = dag.add_source(NAMES[group], payload=frame(group))
    for step in range(rng.randrange(1, 4)):
        current = dag.add_operation([current], Step((group, step)))
        if executed:
            dag.vertex(current).record_result(
                frame(group + step), compute_time=0.25 * (step + 1)
            )
    if index % 3 == 2:
        other_group = (group + 1 + rng.randrange(3)) % 4
        other = dag.add_source(NAMES[other_group], payload=frame(other_group))
        current = dag.add_operation(
            [current, other], Join((group, other_group))
        )
        if executed:
            dag.vertex(current).record_result(frame(8.0), compute_time=1.0)
    dag.mark_terminal(current)
    return dag


def sequential_replay(labels: list[str]) -> ExperimentGraph:
    """Single-shard replay of the committed workloads in commit order."""
    eg = ExperimentGraph()
    updater = Updater(eg, MaterializeAll())
    for label in labels:
        updater.update(make_workload(int(label)))
    return eg


class TestRoutedCommit:
    def test_cross_shard_commit_fans_out_to_every_involved_shard(self):
        with ProcessShardCoordinator(4) as service:
            session = service.open_session("writer")
            result = service.commit(session.session_id, make_workload(2), label="2")
            assert len(result.shard_results) >= 2
            assert service.partitioned.stub_count > 0

    def test_requires_open_session(self):
        with ProcessShardCoordinator(2) as service:
            with pytest.raises(UnknownSessionError):
                service.commit("c9999", make_workload(0))

    def test_stopped_service_rejects_commits(self):
        service = ProcessShardCoordinator(2)
        session = service.open_session("writer")
        service.stop()
        with pytest.raises(ServiceStoppedError):
            service.commit(session.session_id, make_workload(0))


class TestStitchedPlanning:
    def test_single_shard_plan_delegates_to_the_shard(self):
        with ProcessShardCoordinator(4) as service:
            session = service.open_session("planner")
            workload = make_workload(0)  # pure chain: one lineage group
            service.commit(session.session_id, workload, label="seed")
            fresh = make_workload(0, executed=False)
            with service.plan(session.session_id, fresh) as plan:
                assert plan.result.plan.loads  # materialized chain is reused
                assert not isinstance(plan.eg, StitchedSnapshot)
            assert service.stats().plans_total == 1

    def test_span_histogram_and_routed_counters(self):
        with ProcessShardCoordinator(4) as service:
            session = service.open_session("writer")
            for index in range(4):
                service.commit(session.session_id, make_workload(index))
            text = service.metrics_text()
            assert "repro_shard_routed_workloads_total" in text
            assert "repro_shard_workload_span_count 4" in text
            assert "repro_shard_stub_edges_total" in text


class TestConvergence:
    def test_sequential_commits_converge_bit_identical(self):
        with ProcessShardCoordinator(4) as service:
            session = service.open_session("writer")
            for index in range(12):
                service.commit(
                    session.session_id, make_workload(index), label=str(index)
                )
            labels = [record.label for record in service.commit_log()]
        flat = service.flatten()
        replay = sequential_replay(labels)
        assert eg_fingerprint(flat) == eg_fingerprint(replay)
        assert flat.materialized_ids() == replay.materialized_ids()
        assert flat.recreation_costs() == replay.recreation_costs()

    def test_randomized_concurrent_commits_converge_bit_identical(self):
        """The equivalence gate: K workloads committed from concurrent
        tenants through the per-shard worker processes must leave the
        partitioned EG bit-identical — vertices, utilities, materialized
        set — to a sequential single-shard replay in commit order."""
        n_workloads = 24
        service = ProcessShardCoordinator(4, batch_linger_s=0.005)
        errors: list[BaseException] = []

        def tenant(worker: int) -> None:
            try:
                session = service.open_session(f"tenant-{worker}")
                for index in range(worker, n_workloads, 4):
                    service.commit(
                        session.session_id, make_workload(index), label=str(index)
                    )
                service.close_session(session.session_id)
            except BaseException as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=tenant, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.stop()
        assert not errors
        labels = [record.label for record in service.commit_log()]
        assert len(labels) == n_workloads
        flat = service.flatten()
        replay = sequential_replay(labels)
        assert eg_fingerprint(flat) == eg_fingerprint(replay)
        assert flat.materialized_ids() == replay.materialized_ids()
        assert flat.recreation_costs() == replay.recreation_costs()
        assert flat.potentials() == replay.potentials()


class TestStopDeadline:
    def test_stop_shares_one_timeout_budget_across_shards(self):
        """Regression: ``stop(timeout=T)`` must bound the WHOLE stop.

        Each shard receives whatever budget the shards before it left
        over, so the recorded per-shard timeouts decrease instead of
        every shard getting the full ``T`` (which would multiply the
        deadline by the shard count).
        """
        service = ProcessShardCoordinator(3)
        budgets: list[float] = []
        for shard in service.shards:
            original = shard.stop

            def recording_stop(drain=True, timeout=30.0, _original=original):
                budgets.append(timeout)
                time.sleep(0.05)
                _original(drain=drain, timeout=timeout)

            shard.stop = recording_stop
        service.stop(timeout=2.0)
        assert len(budgets) == 3
        assert all(budget <= 2.0 for budget in budgets)
        # strictly decreasing: each shard consumed part of the shared budget
        assert budgets[0] > budgets[1] > budgets[2]
        assert budgets[0] - budgets[2] >= 0.05
