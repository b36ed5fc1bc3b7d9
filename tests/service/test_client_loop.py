"""The plan → execute → commit loop exists once and behaves the same
whatever the client is pointed at."""

import ast
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.client.executor import VirtualCostModel
from repro.experiments.swarm import eg_fingerprint, swarm_sources
from repro.materialization.simple import MaterializeAll
from repro.server import CollaborativeOptimizer
from repro.service import EGService, ServiceClient, ServiceOverloadedError
from repro.shard import ProcessShardCoordinator
from repro.transport import AsyncTransportServer, TransportServiceClient
from repro.workloads.synthetic_dag import wide_workload_script

# dataframe-only sleep chains (wire-transportable); the second script
# repeats the first one's two branches and adds a third
SCRIPTS = [wide_workload_script(2, 2, 0.05), wide_workload_script(3, 2, 0.05)]


@contextmanager
def optimizer():
    client = CollaborativeOptimizer(MaterializeAll(), cost_model=VirtualCostModel())
    yield client, lambda: client.eg


@contextmanager
def in_process():
    with EGService(MaterializeAll()) as service:
        with ServiceClient(service, cost_model=VirtualCostModel()) as client:
            yield client, lambda: service.eg


@contextmanager
def sharded():
    with ProcessShardCoordinator(2) as service:
        with ServiceClient(service, cost_model=VirtualCostModel()) as client:
            yield client, service.flatten


@contextmanager
def over_the_wire():
    with EGService(MaterializeAll()) as service:
        with AsyncTransportServer(service) as server:
            host, port = server.address
            with TransportServiceClient(
                host, port, cost_model=VirtualCostModel()
            ) as client:
                yield client, lambda: service.eg


def run_both(setup):
    with setup() as (client, final_eg):
        reports = [client.run_script(script, swarm_sources()) for script in SCRIPTS]
    accounting = [
        (r.executed_vertices, r.loaded_vertices, r.plan_algorithm) for r in reports
    ]
    # read the final EG once the service stopped: shard workers persist
    # their partitions on stop, and flatten() reads them back
    return accounting, eg_fingerprint(final_eg())


@pytest.mark.parametrize("setup", [in_process, sharded, over_the_wire])
def test_every_client_kind_runs_the_same_loop(setup):
    accounting, fingerprint = run_both(setup)
    reference_accounting, reference_fingerprint = run_both(optimizer)
    assert reference_accounting[1][1] > 0  # the second script did reuse the first
    assert accounting == reference_accounting
    assert fingerprint == reference_fingerprint


# ----------------------------------------------------------------------
class _ShedsFirstCommit(EGService):
    """Bounces the first commit the way a full merge queue would."""

    shed = False

    def commit(self, session_id, executed, label="", timeout=None):
        if not self.shed:
            self.shed = True
            raise ServiceOverloadedError("merge queue full")
        return super().commit(session_id, executed, label=label, timeout=timeout)


@pytest.mark.parametrize("remote", [False, True], ids=["in-process", "transport"])
def test_a_shed_commit_is_one_counted_retry(remote):
    with _ShedsFirstCommit(MaterializeAll()) as service:
        with AsyncTransportServer(service) as server:
            host, port = server.address
            client = (
                TransportServiceClient(host, port, cost_model=VirtualCostModel())
                if remote
                else ServiceClient(service, cost_model=VirtualCostModel())
            )
            with client:
                client.run_script(SCRIPTS[0], swarm_sources())
                assert client.retries == 1
                assert client.last_commit.commit_index == 1
        # only a local service hears about the retry; no wire op carries it
        assert service.stats().retries_total == (0 if remote else 1)


# ----------------------------------------------------------------------
def _source_trees():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root), ast.parse(path.read_text())


def test_the_loop_and_its_backoff_are_written_once():
    loops, backoffs = [], []
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "run_workspace":
                loops.append(str(path))
            if isinstance(node, ast.ExceptHandler) and (
                isinstance(node.type, ast.Name)
                and node.type.id == "ServiceOverloadedError"
            ):
                backoffs.append(str(path))
    assert loops == ["service/client.py"]
    assert backoffs == ["service/client.py"]
