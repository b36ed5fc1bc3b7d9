"""Smoke tests for the experiment CLI (tiny sizes)."""

import multiprocessing
import queue
import threading

import pytest

from repro.experiments import swarm
from repro.experiments.cli import main
from repro.storage import TieredArtifactStore
from repro.transport import AsyncTransportServer, TransportConnection


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1", "--apps", "60"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert out.count("\n") >= 9

    def test_fig5(self, capsys):
        assert main(["fig5", "--apps", "60"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "CO" in out and "KG" in out

    def test_fig9d(self, capsys):
        assert main(["fig9d", "--workloads", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9d" in out

    def test_swarm(self, capsys):
        assert main(["swarm", "--clients", "4", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Swarm: 4 concurrent clients" in out
        assert "merge linger 150ms" in out
        assert "sequential commit-order replay identical: True" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestSwarmFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--adaptive"],
            ["--adaptive-report"],
            ["--transport-codec", "json"],
            ["--processes", "2"],
            ["--shard-workers"],
        ],
        ids=["adaptive", "adaptive-report", "transport-codec", "processes", "shard-workers"],
    )
    def test_removed_flags_are_usage_errors(self, flags, capsys):
        """A stale recipe fails loudly instead of running the static path."""
        with pytest.raises(SystemExit) as raised:
            main(["swarm", "--clients", "2", "--rounds", "1", *flags])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_hot_budget_applies_over_tcp(self, monkeypatch, capsys):
        """The CLI used to drop --hot-budget-bytes with --transport tcp."""
        calls = []
        real_run_swarm = swarm.run_swarm

        def spy(**kwargs):
            calls.append(kwargs)
            return real_run_swarm(**kwargs)

        monkeypatch.setattr(swarm, "run_swarm", spy)
        flags = ["--transport", "tcp", "--hot-budget-bytes", "512"]
        assert main(["swarm", "--clients", "4", "--rounds", "2", *flags]) == 0
        (call,) = calls
        assert isinstance(call["store"], TieredArtifactStore)
        assert call["store"].hot_budget_bytes == 512
        assert call["transport"] == "tcp"
        assert call["store"].stats.demotions > 0
        out = capsys.readouterr().out
        assert "over tcp/binary" in out
        assert "sequential commit-order replay identical: True" in out


class TestServe:
    @pytest.mark.parametrize(
        "flags",
        [["--shards", "1"], ["--shards", "2"]],
        ids=["one-service", "worker-processes"],
    )
    def test_serve_answers_health_and_stops_clean(self, flags, monkeypatch, capsys):
        built = []
        real_build_service = swarm.build_service

        def build(*args, **kwargs):
            built.append(real_build_service(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(swarm, "build_service", build)
        addresses: queue.Queue = queue.Queue()
        real_start = AsyncTransportServer.start

        def start(server):
            addresses.put(real_start(server))
            return server.address

        monkeypatch.setattr(AsyncTransportServer, "start", start)
        outcome = []
        argv = ["serve", "--duration", "0.5", "--seed-workloads", "2", *flags]
        thread = threading.Thread(target=lambda: outcome.append(main(argv)))
        thread.start()
        try:
            host, port = addresses.get(timeout=60)
            with TransportConnection(host, port) as connection:
                health = connection.request({"op": "health"})["health"]
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert outcome == [0]
        assert health["status"] == "ok"
        assert ("shards" in health) == (flags != ["--shards", "1"])
        (service,) = built
        assert not service.running
        assert not any(worker.alive for worker in getattr(service, "workers", []))
        assert multiprocessing.active_children() == []
        out = capsys.readouterr().out
        assert "seeded 2 workloads" in out and "server stopped" in out
