"""ProcessShardCoordinator: worker processes, crash containment, convergence.

What holds for every shard kind is in ``test_coordinator_contract.py``;
this file keeps what only worker processes have.
"""

import errno
import shutil
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.persistence import load_eg
from repro.eg.updater import Updater
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization.simple import MaterializeAll
from repro.obs.metrics import MetricsRegistry
from repro.service import EGService
from repro.service.errors import ShardUnavailableError
from repro.shard import (
    ProcessShardCoordinator,
    RemoteShard,
    WorkerSpec,
    balanced_source_names,
)
from repro.transport import shardops
from repro.transport.wire import encode_workload

NAMES = balanced_source_names(2, 2)


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("proc-step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class Join(DataOperation):
    def __init__(self, tag=0):
        super().__init__("proc-join", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data[0]


def frame(offset: float = 0.0) -> DataFrame:
    return DataFrame({"x": np.arange(4.0) + offset})


def make_workload(group: int, k: int, cross: bool = False) -> WorkloadDAG:
    dag = WorkloadDAG()
    current = dag.add_source(NAMES[group], payload=frame(float(group)))
    for level in range(3):
        current = dag.add_operation([current], Step((group, k, level)))
        dag.vertex(current).record_result(frame(float(level)), compute_time=0.001)
    if cross:
        other = dag.add_source(NAMES[(group + 1) % 2], payload=frame(1.0))
        current = dag.add_operation([current, other], Join((group, k)))
        dag.vertex(current).record_result(frame(9.0), compute_time=0.01)
    dag.mark_terminal(current)
    return dag


def sequential_replay(workloads) -> ExperimentGraph:
    eg = ExperimentGraph()
    updater = Updater(eg, MaterializeAll())
    for dag in workloads:
        updater.update(dag)
    return eg


class TestProcessShardCoordinator:
    def test_roundtrip_and_stitched_planning(self) -> None:
        coordinator = ProcessShardCoordinator(2, flight_recorder=False)
        try:
            session = coordinator.open_session("roundtrip")
            first = coordinator.commit(
                session.session_id, make_workload(0, 1), label="w1"
            )
            assert first.commit_index == 1
            second = coordinator.commit(
                session.session_id, make_workload(1, 1), label="w2"
            )
            assert second.commit_index == 2
            cross = coordinator.commit(
                session.session_id, make_workload(0, 1, cross=True), label="w3"
            )
            assert sorted(cross.shard_results) == [0, 1]
            assert coordinator.version >= 2

            # Planning: single-shard forwards to the home worker, cross-shard
            # stitches remote snapshot summaries.  Both must return a usable
            # plan object (loads may be empty when every vertex has a
            # recorded result — parity with the in-process service).
            single = coordinator.plan(session.session_id, make_workload(0, 1))
            assert single.version >= 1
            assert single.result.plan is not None
            stitched = coordinator.plan(
                session.session_id, make_workload(0, 1, cross=True)
            )
            assert stitched.result.plan is not None
            stitched.release()
            single.release()

            stats = coordinator.stats()
            assert stats.merged_workloads >= 3
            health = coordinator.health()
            assert health["status"] == "ok"
            assert [shard["status"] for shard in health["shards"]] == ["ok", "ok"]
            assert len(coordinator.workers) == 2
            assert all(worker.alive for worker in coordinator.workers)
            rendered = coordinator.metrics_text()
            assert "repro_proc_worker_up" in rendered
            assert "# source: shard0 worker" in rendered
            coordinator.close_session(session.session_id)
        finally:
            coordinator.stop()
        flat = coordinator.flatten()
        replay = sequential_replay(
            [make_workload(0, 1), make_workload(1, 1), make_workload(0, 1, cross=True)]
        )
        assert eg_fingerprint(flat) == eg_fingerprint(replay)
        assert flat.materialized_ids() == replay.materialized_ids()

    def test_concurrent_commits_converge_gap_free(self) -> None:
        coordinator = ProcessShardCoordinator(2, flight_recorder=False)
        n_workloads = 12
        errors: list[BaseException] = []
        try:

            def tenant(worker: int) -> None:
                try:
                    session = coordinator.open_session(f"tenant-{worker}")
                    for index in range(worker, n_workloads, 3):
                        coordinator.commit(
                            session.session_id,
                            make_workload(index % 2, index, cross=index % 4 == 3),
                            label=str(index),
                        )
                    coordinator.close_session(session.session_id)
                except BaseException as error:  # noqa: BLE001 - surfaced after join
                    errors.append(error)

            threads = [threading.Thread(target=tenant, args=(w,)) for w in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            coordinator.stop()
        assert not errors
        log = coordinator.commit_log()
        assert len(log) == n_workloads
        assert [record.commit_index for record in log] == list(
            range(1, n_workloads + 1)
        )
        flat = coordinator.flatten()
        replay = sequential_replay(
            [
                make_workload(int(record.label) % 2, int(record.label),
                              cross=int(record.label) % 4 == 3)
                for record in log
            ]
        )
        assert eg_fingerprint(flat) == eg_fingerprint(replay)

    def test_worker_crash_typed_error_and_restart_rejoins(self) -> None:
        coordinator = ProcessShardCoordinator(
            2, flight_recorder=False, checkpoint_every=1
        )
        try:
            session = coordinator.open_session("crash")
            coordinator.commit(session.session_id, make_workload(0, 1), label="a")
            coordinator.commit(session.session_id, make_workload(1, 1), label="b")

            coordinator.workers[1].kill()

            # The healthy shard keeps committing.
            result = coordinator.commit(
                session.session_id, make_workload(0, 2), label="c"
            )
            assert result.commit_index == 3
            # The dead shard raises the typed error before an index is burned.
            with pytest.raises(ShardUnavailableError):
                coordinator.commit(session.session_id, make_workload(1, 2))
            health = coordinator.health()
            assert health["status"] == "degraded"
            assert [shard["status"] for shard in health["shards"]] == [
                "ok",
                "unavailable",
            ]

            # Restart: the worker reopens its checkpointed partition and
            # rejoins; commits to that shard succeed again.
            coordinator.restart_worker(1)
            rejoined = coordinator.commit(
                session.session_id, make_workload(1, 2), label="d"
            )
            assert rejoined.commit_index == 4
            assert coordinator.health()["status"] == "ok"
        finally:
            coordinator.stop()
        flat = coordinator.flatten()
        replay = sequential_replay(
            [
                make_workload(0, 1),
                make_workload(1, 1),
                make_workload(0, 2),
                make_workload(1, 2),
            ]
        )
        assert eg_fingerprint(flat) == eg_fingerprint(replay)

    def test_dead_worker_leaves_no_half_opened_session(self) -> None:
        """Regression: mirroring used to open worker sessions shard by
        shard and leak the ones opened before the dead shard raised."""
        coordinator = ProcessShardCoordinator(2, flight_recorder=False)
        try:
            kept = coordinator.open_session("kept")
            coordinator.workers[1].kill()
            with pytest.raises(ShardUnavailableError):
                coordinator.open_session("half-opened")
            # shard 0 opened its mirror first; it must have been closed again
            assert coordinator.shard_stats()[0].open_sessions == 1
            assert coordinator.stats().open_sessions == 1
            coordinator.close_session(kept.session_id)
            assert coordinator.shard_stats()[0].open_sessions == 0
        finally:
            coordinator.stop()


class TestCheckpoints:
    def test_failed_checkpoint_keeps_the_merged_commit(self, tmp_path, monkeypatch):
        """A checkpoint that fails after the merge (a full disk) must not
        turn the merged piece into an error reply: the coordinator would
        finalise it as rejected while the worker's EG holds it."""

        def disk_full(_eg, _target):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shardops, "_save_eg_atomic", disk_full)
        with EGService(MaterializeAll()) as service:
            bridge = shardops.ShardRequestBridge(
                service, 0, persist_path=tmp_path / "partition0", checkpoint_every=1
            )
            session = service.open_session("writer").session_id
            piece = make_workload(0, 1)
            reply = bridge.handlers["shard.commit"](
                {
                    "workload": encode_workload(piece, include_payloads=True),
                    "seq": 1,
                    "session_id": session,
                    "label": "a",
                }
            )
            assert reply["commit_index"] == 1
            assert [record.label for record in service.commit_log()] == ["a"]
            assert all(vertex.vertex_id in service.eg for vertex in piece.vertices())

    def test_checkpoint_torn_between_its_renames_reopens(self, tmp_path) -> None:
        """A worker killed between the swap's two renames leaves its last
        checkpoint at ``partition0.old`` and nothing at ``partition0``; the
        next worker reopens that checkpoint, not an empty EG."""
        coordinator = ProcessShardCoordinator(
            2, flight_recorder=False, persist_dir=tmp_path
        )
        try:
            session = coordinator.open_session("torn")
            for k in range(3):
                coordinator.commit(session.session_id, make_workload(0, k))
        finally:
            coordinator.stop()
        partition = tmp_path / "partition0"
        checkpointed = load_eg(partition)
        assert checkpointed.num_vertices > 0
        # the swap's first rename only: the new checkpoint waits at .tmp
        shutil.copytree(partition, tmp_path / "partition0.tmp")
        partition.rename(tmp_path / "partition0.old")

        # the reopened worker checkpoints what it reopened when it stops
        ProcessShardCoordinator(2, flight_recorder=False, persist_dir=tmp_path).stop()
        assert eg_fingerprint(load_eg(partition)) == eg_fingerprint(checkpointed)


class _AckBeforeSubmitReturns:
    """Commit-connection stub: the reply hook fires inside ``submit``,
    i.e. the reader thread wins the race against the dispatching thread."""

    def __init__(self, hook):
        self._hook = hook
        self.submitted: list[dict] = []

    def submit(self, message):
        self.submitted.append(message)
        self._hook(len(self.submitted), 0)
        return SimpleNamespace(ready=True)

    def close(self) -> None:
        pass


class TestInflightAccounting:
    def test_a_reply_that_beats_submit_does_not_leak_its_slot(self) -> None:
        """Regression: the slot used to be counted *after* the frame went
        out, so a reply hook that ran first found nothing to release and
        the late increment leaked the slot for good — ``stop(drain=True)``
        then spun out its whole timeout on acked commits."""
        shard = RemoteShard(WorkerSpec(shard_index=0), MetricsRegistry())
        stopped: list[float] = []
        shard.worker = SimpleNamespace(
            alive=True, stop=lambda drain, timeout: stopped.append(timeout)
        )
        shard._commit_conn = _AckBeforeSubmitReturns(shard._reply_drained)
        for k in range(3):
            shard.submit_update("s0001", make_workload(0, k), label=str(k))
        assert [message["seq"] for message in shard._commit_conn.submitted] == [1, 2, 3]
        assert shard._inflight == 0
        assert shard.queue_headroom() == shard.queue_capacity
        started = time.monotonic()
        shard.stop(drain=True, timeout=5.0)
        assert time.monotonic() - started < 1.0
        assert stopped and stopped[0] > 4.0  # the budget went to the worker
