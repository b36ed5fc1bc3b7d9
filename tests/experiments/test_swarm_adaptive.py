"""Adaptive swarm runs: bit-identical convergence, opt-in reporting."""

from repro.experiments.swarm import run_swarm
from repro.learn import AdaptiveConfig
from repro.storage.tiered import TieredArtifactStore


def _swarm(adaptive: bool, **kwargs):
    kwargs.setdefault("clients", 3)
    kwargs.setdefault("rounds", 2)
    kwargs.setdefault("op_seconds", 0.005)
    kwargs.setdefault("batch_linger_s", 0.01)
    return run_swarm(adaptive=adaptive, **kwargs)


class TestAdaptiveConvergence:
    def test_adaptive_run_still_matches_sequential_replay(self):
        result = _swarm(adaptive=True)
        assert result.adaptive is True
        assert result.fingerprint_match is True

    def test_static_and_adaptive_produce_identical_egs(self):
        # the learned policies change costs and tier placement only —
        # the merged EG content must be byte-identical either way
        static = _swarm(adaptive=False)
        adaptive = _swarm(adaptive=True)
        assert static.concurrent_fingerprint == adaptive.concurrent_fingerprint

    def test_adaptive_with_tiered_store_under_pressure(self):
        result = _swarm(
            adaptive=True,
            store=TieredArtifactStore(hot_budget_bytes=64 * 1024),
        )
        assert result.fingerprint_match is True
        assert result.hot_hit_ratio is not None

    def test_sharded_adaptive_run_converges(self):
        result = _swarm(adaptive=True, clients=4, shards=2)
        assert result.shards == 2
        assert result.fingerprint_match is True
        assert result.adaptive is True


class TestAdaptiveReporting:
    def test_static_run_carries_no_adaptive_state(self):
        result = _swarm(adaptive=False)
        assert result.adaptive is False
        assert result.adaptive_report == {}

    def test_adaptive_report_covers_predictors_and_sizer(self):
        result = _swarm(adaptive=True)
        report = result.adaptive_report
        assert set(report["predictors"]) == {
            "load_hot",
            "load_cold",
            "merge",
        }
        assert report["batch_sizer"]["batches_observed"] > 0

    def test_custom_config_is_honoured(self):
        config = AdaptiveConfig(min_samples=3, min_linger_s=0.001, max_linger_s=0.05)
        result = _swarm(adaptive=True, adaptive_config=config)
        assert result.fingerprint_match is True
        sizer = result.adaptive_report["batch_sizer"]
        assert 0.001 <= sizer["linger_s"] <= 0.05
