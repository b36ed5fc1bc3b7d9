"""Sharded swarm: concurrent tenants over N shard worker processes converge
bit-identically to sequential replay."""

import pytest

from repro.experiments.swarm import (
    run_swarm,
    sharded_swarm_script,
    sharded_swarm_sources,
)
from repro.shard import shard_of_source
from repro.storage.tiered import TieredArtifactStore


class TestShardedSwarm:
    def test_sharded_run_converges_to_sequential_replay(self):
        result = run_swarm(
            clients=4,
            rounds=3,
            op_seconds=0.005,
            batch_linger_s=0.01,
            shards=2,
        )
        assert result.shards == 2
        assert result.workloads == 12
        assert result.fingerprint_match is True
        assert len(result.shard_stats) == 2
        # round 2 is the cross-group join round, so stubs must exist
        assert result.stub_edges > 0
        # every committed workload merged on some shard exactly once per piece
        assert (
            sum(stats.merged_workloads for stats in result.shard_stats)
            >= result.workloads
        )

    def test_single_shard_keeps_the_classic_service_path(self):
        result = run_swarm(
            clients=2, rounds=2, op_seconds=0.005, batch_linger_s=0.01
        )
        assert result.shards == 1
        assert result.shard_stats == []
        assert result.stub_edges == 0
        assert result.fingerprint_match is True

    def test_custom_store_is_rejected_for_sharded_runs(self):
        with pytest.raises(ValueError, match="store"):
            run_swarm(clients=2, rounds=1, shards=2, store=TieredArtifactStore())


class TestShardedWorkloadFamily:
    def test_sources_are_balanced_across_shards(self):
        shards = 4
        sources = sharded_swarm_sources(shards)
        owners = sorted(shard_of_source(name, shards) for name in sources)
        assert owners == list(range(shards))

    def test_join_rounds_reference_two_groups(self):
        calls: list[str] = []

        class FakeNode:
            def add(self, _op, *others):
                return self

            def terminal(self):
                return self

        class FakeWorkspace:
            def source(self, name, _payload):
                calls.append(name)
                return FakeNode()

        sources = sharded_swarm_sources(2)
        sharded_swarm_script(0, 2, 2)(FakeWorkspace(), sources)
        assert len(calls) == 2  # own group + the joined neighbour
        sharded_swarm_script(0, 0, 2)(FakeWorkspace(), sources)
        assert len(calls) == 3  # non-join rounds touch one source
