"""Multi-process swarm: four worker processes converge bit-identically, and
so do two with the binary transport in front of the coordinator."""

from repro.experiments.swarm import run_swarm


class TestMultiprocSwarm:
    def test_multiproc_run_converges_to_sequential_replay(self):
        result = run_swarm(
            clients=8,
            rounds=3,
            op_seconds=0.005,
            batch_linger_s=0.01,
            shards=4,
        )
        assert result.shards == 4
        assert result.workloads == 24
        assert result.fingerprint_match is True
        assert len(result.shard_stats) == 4
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
            transport="tcp",
        )
        assert result.shards == 2
        assert result.fingerprint_match is True
