"""Multi-process swarm: per-shard worker processes converge bit-identically."""

import pytest

from repro.experiments.swarm import run_swarm
from repro.storage.tiered import TieredArtifactStore


class TestMultiprocSwarm:
    def test_multiproc_run_converges_to_sequential_replay(self):
        result = run_swarm(
            clients=4,
            rounds=3,
            op_seconds=0.005,
            batch_linger_s=0.01,
            shards=2,
            processes=2,
        )
        assert result.shards == 2
        assert result.processes == 2
        assert result.workloads == 12
        assert result.fingerprint_match is True
        assert len(result.shard_stats) == 2
        # round 2 is the cross-group join round, so stubs must exist
        assert result.stub_edges > 0
        assert (
            sum(stats.merged_workloads for stats in result.shard_stats)
            >= result.workloads
        )

    def test_multiproc_run_over_tcp_transport(self):
        result = run_swarm(
            clients=2,
            rounds=2,
            op_seconds=0.005,
            batch_linger_s=0.01,
            shards=2,
            processes=2,
            transport="tcp",
        )
        assert result.processes == 2
        assert result.fingerprint_match is True

    def test_processes_must_equal_shards(self):
        with pytest.raises(ValueError, match="processes"):
            run_swarm(clients=2, rounds=1, shards=4, processes=2)

    def test_custom_store_is_rejected_across_process_boundaries(self):
        with pytest.raises(ValueError, match="store"):
            run_swarm(
                clients=2,
                rounds=1,
                shards=2,
                processes=2,
                store=TieredArtifactStore(),
            )
