"""A commit names its plan and carries only what the tenant computed.

The server keeps the DAG it decoded at plan and the loads its reply
shipped; ``decode_results`` rebuilds the executed DAG from them and the
tenant's result records (which include the sources the server does not
store yet).  These tests pin that the rebuild equals decoding the whole
executed DAG (the form every commit used to carry), field by field and
in its merge, over both codecs; that a token the server does not hold is
refused; and that a commit replayed after a dropped connection merges
once.
"""

import random
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import Vertex
from repro.graph.operations import DataOperation
from repro.materialization.simple import MaterializeAll
from repro.ml import LogisticRegression
from repro.service import EGService
from repro.service.errors import ServiceOverloadedError
from repro.transport import (
    AsyncTransportServer,
    ConnectionPool,
    ProtocolError,
    TransportConnection,
    TransportServiceClient,
    UnknownPlanError,
    make_codec,
)
from repro.transport.wire import decode_commit_reply, decode_workload, encode_workload

from ..conftest import Shift


class Mixed(DataOperation):
    """An object column holding non-strings: stored by the server, never
    shipped, so the next tenant recomputes it."""

    def __init__(self):
        super().__init__("mixed", params={})
        self.virtual_cost = 1.0

    def run(self, frame):
        values = np.array([i if i % 2 else None for i in range(len(frame))], object)
        return DataFrame({"m": values})


class FixedCost:
    """Every operation costs its ``virtual_cost`` (0.5 when it has none), so
    plans and EG bookkeeping are the same on every run."""

    def record(self, operation, measured_seconds):
        return float(getattr(operation, "virtual_cost", 0.5))


def _sources():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(64, 3))
    return {
        "base": DataFrame({"x": rng.normal(size=64), "y": rng.normal(size=64)}),
        "train": DataFrame(
            {"a": x[:, 0], "b": x[:, 1], "c": x[:, 2], "y": (x[:, 0] > 0).astype(int)}
        ),
    }


def _scripts(seed, count=8):
    """Chains of shifts over one source, sometimes closed by an
    unshippable frame; trainings with a quality score.  Few tags, so
    later scripts share prefixes with earlier ones and load them; the
    first script, which has both, is repeated last."""
    rng = random.Random(seed)
    specs = [
        (
            [rng.randrange(3) for _ in range(rng.randint(1, 3))],
            index == 0 or rng.random() < 0.4,
            index == 0 or rng.random() < 0.4,
        )
        for index in range(count)
    ]
    scripts = []
    for steps, mixed, train in [*specs, specs[0]]:

        def script(ws, frames, steps=steps, mixed=mixed, train=train):
            node = ws.source("base", frames["base"])
            for tag in steps:
                node = node.add(Shift(tag))
            node.terminal()
            if mixed:
                node.add(Mixed()).terminal()
            if train:
                frame = ws.source("train", frames["train"])
                model = frame[["a", "b", "c"]].fit(
                    LogisticRegression(max_iter=5), y=frame["y"], scorer="train_auc"
                )
                model.terminal()

        scripts.append(script)
    return scripts


class _Recording(EGService):
    """Keeps every executed DAG it is handed; bounces the first two
    commits the way a full merge queue would, so the tenant commits its
    plan three times."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = {}
        self._bounces = 2

    def commit(self, session_id, executed, label="", timeout=None):
        if self._bounces:
            self._bounces -= 1
            raise ServiceOverloadedError("merge queue full")
        self.received[label] = executed
        return super().commit(session_id, executed, label=label, timeout=timeout)


def _legacy_commit(client):
    """Send the commit in its whole-DAG form, as it used to cross (with
    the ``tenant`` and ``urgent`` keys the server ignores)."""
    service = client.service

    def commit(session_id, executed, label=""):
        message = {
            "op": "commit",
            "session_id": session_id,
            "tenant": client.session_name,
            "label": label,
            "urgent": False,
            "workload": encode_workload(executed, include_payloads=True),
        }
        return decode_commit_reply(service.request(message))

    service.commit = commit


def _capture_legacy_decodes(client, codec, captured):
    """Beside each commit, what decoding the whole executed DAG yields
    (a retried commit's last attempt, by label)."""
    service, real_commit = client.service, client.service.commit
    wire = make_codec(codec)

    def commit(session_id, executed, label=""):
        tree = encode_workload(executed, include_payloads=True)
        body = b"".join(bytes(part) for part in wire.encode(tree))
        captured[label] = decode_workload(wire.decode(memoryview(body)))
        return real_commit(session_id, executed, label=label)

    service.commit = commit


def _drive(codec, seed, legacy):
    """Run the seeded scripts, tenants taking turns; the first commit is
    bounced twice by the service."""
    decoded = {}
    with _Recording(MaterializeAll(), background=True) as service:
        with AsyncTransportServer(service) as server:
            pools = [ConnectionPool(*server.address, codec=codec) for _ in range(2)]
            clients = [
                TransportServiceClient(name=name, cost_model=FixedCost(), pool=pool)
                for name, pool in zip(("left", "right"), pools)
            ]
            try:
                for client in clients:
                    if legacy:
                        _legacy_commit(client)
                    else:
                        _capture_legacy_decodes(client, codec, decoded)
                frames = _sources()
                for index, script in enumerate(_scripts(seed)):
                    clients[index % 2].run_script(script, frames, label=str(index))
                assert clients[0].retries == 2
            finally:
                for client, pool in zip(clients, pools):
                    client.close()
                    pool.close()
        sources = {
            service.eg.vertex(vertex_id).source_name: service.eg.load(vertex_id)
            for vertex_id in service.eg.source_ids
        }
        return service.received, decoded, eg_fingerprint(service.eg), sources


def _assert_same_payload(actual, expected):
    if isinstance(expected, DataFrame):
        assert actual.columns == expected.columns
        assert actual.column_ids == expected.column_ids
        for name in expected.columns:
            left, right = actual.column(name).values, expected.column(name).values
            assert left.dtype == right.dtype
            np.testing.assert_array_equal(left, right)
    elif isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)
    else:
        assert actual == expected


def _assert_same_dag(rebuilt, legacy, stored_sources):
    """Field by field, but for the payload of a source an earlier commit
    stored: the plan reply did not ask for it back, and the merge reads a
    source's payload only when the EG does not store it."""
    assert set(rebuilt.graph.nodes) == set(legacy.graph.nodes)
    for vertex_id in legacy.graph.nodes:
        actual, expected = rebuilt.vertex(vertex_id), legacy.vertex(vertex_id)
        for field in fields(Vertex):
            if field.name == "data" and vertex_id in stored_sources:
                assert actual.data is None and expected.data is not None
            elif field.name == "data":
                _assert_same_payload(actual.data, expected.data)
            else:
                assert getattr(actual, field.name) == getattr(expected, field.name), (
                    field.name
                )
    assert set(rebuilt.graph.edges) == set(legacy.graph.edges)
    for src, dst, attrs in legacy.graph.edges(data=True):
        other = rebuilt.graph.edges[src, dst]
        assert (other["order"], other["active"]) == (attrs["order"], attrs["active"])
        left, right = other["operation"], attrs["operation"]
        assert (left is None) == (right is None)
        if right is not None:
            assert (left.name, left.return_type, left.params, left.op_hash) == (
                right.name,
                right.return_type,
                right.params,
                right.op_hash,
            )
    assert rebuilt.terminals == legacy.terminals
    assert rebuilt.global_index == legacy.global_index


class TestTheRebuildIsTheLegacyDecode:
    @pytest.mark.parametrize("codec", ["binary", "json"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_field_by_field_and_in_the_merge(self, codec, seed):
        received, decoded, fingerprint, sources = _drive(codec, seed, legacy=False)
        # every source arrived with its content, which the EG stores
        assert sources.keys() == {"base", "train"}
        for name, payload in sources.items():
            expected = _sources()[name]
            assert payload.columns == expected.columns
            for column in expected.columns:
                np.testing.assert_array_equal(
                    payload.column(column).values, expected.column(column).values
                )
        assert received.keys() == decoded.keys() == {str(i) for i in range(9)}
        stored_sources = set()
        for label, rebuilt in received.items():  # in commit order
            _assert_same_dag(rebuilt, decoded[label], stored_sources)
            stored_sources.update(rebuilt.sources())
        # the cases every seed reaches: sources, shipped loads (the
        # executor leaves a load's compute time alone; computing costs
        # >= 0.5), an unshippable frame the EG stores and a later tenant
        # recomputes, and models with a quality score whose payloads
        # never cross
        vertices = [v for dag in received.values() for v in dag.vertices()]
        assert any(v.is_source and v.data is not None for v in vertices)
        assert any(
            v.computed and not v.is_source and v.compute_time == 0.0
            for v in vertices
        )
        mixed = [v.vertex_id for v in vertices if v.meta and "m" in v.meta.schema]
        assert any(mixed.count(vertex_id) > 1 for vertex_id in mixed)
        assert all(v.data is None and v.compute_time > 0.0 for v in vertices
                   if v.vertex_id in mixed)
        models = [v for v in vertices if v.computed and v.meta and v.meta.model_type]
        assert models and all(v.data is None for v in models)
        assert all(v.meta.quality is not None for v in models)
        _, _, legacy_fingerprint, _ = _drive(codec, seed, legacy=True)
        assert fingerprint == legacy_fingerprint


def _planned_dag():
    from repro.client.parser import parse_workload
    from repro.graph.pruning import prune_workload

    def script(ws, frames):
        ws.source("base", frames["base"]).add(Shift(1)).terminal()

    dag = parse_workload(script, _sources()).dag
    prune_workload(dag)
    return dag


def _commit(session_id, token, label="x"):
    return {
        "op": "commit",
        "session_id": session_id,
        "label": label,
        "plan": token,
        "r": [],
    }


class TestPlanTokens:
    def test_unknown_tokens_and_vertices_are_refused_and_close_drops_the_plan(self):
        encoded = encode_workload(_planned_dag(), include_payloads=True)
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                with TransportConnection(*server.address) as connection:
                    session = connection.request({"op": "open_session", "name": "t"})
                    session_id = session["session_id"]
                    plan = {"op": "plan", "session_id": session_id, "workload": encoded}
                    with pytest.raises(UnknownPlanError):
                        connection.request(_commit(session_id, 1))
                    first = connection.request(plan)["plan"]
                    second = connection.request(plan)["plan"]
                    assert first != second
                    with pytest.raises(UnknownPlanError):
                        connection.request(_commit(session_id, first))
                    unplanned = {**_commit(session_id, second), "r": [{"i": "nope"}]}
                    with pytest.raises(ProtocolError, match="unplanned"):
                        connection.request(unplanned)
                    assert service.commit_log() == []
                    connection.request(_commit(session_id, second))
                    assert len(service.commit_log()) == 1

                    third = connection.request(plan)["plan"]
                    assert session_id in server._kept
                    connection.request(
                        {"op": "close_session", "session_id": session_id}
                    )
                    assert session_id not in server._kept
                    with pytest.raises(UnknownPlanError):
                        connection.request(_commit(session_id, third))
                assert len(service.commit_log()) == 1


class TestReplayedCommit:
    def test_a_commit_replayed_after_a_dropped_connection_merges_once(self):
        script_dag_sources = _sources()

        def script(ws, frames):
            ws.source("base", frames["base"]).add(Shift(1)).terminal()

        with EGService(MaterializeAll(), background=True) as service:
            with AsyncTransportServer(service) as server:
                real_submit, dropped = service.submit_update, threading.Event()

                def submit_then_drop(*args, **kwargs):
                    ticket = real_submit(*args, **kwargs)
                    if not dropped.is_set():
                        dropped.set()
                        # the merge is accepted; its reply will never leave
                        for connection in list(server._connections):
                            server._loop.call_soon_threadsafe(
                                connection._transport.abort
                            )
                    return ticket

                service.submit_update = submit_then_drop
                with TransportServiceClient(
                    *server.address, name="t", cost_model=FixedCost()
                ) as client:
                    client.run_script(script, script_dag_sources, label="once")
                    assert dropped.is_set()
                    assert client._pool.retries == 1
                    assert client.last_commit.commit_index == 1
        labels = [record.label for record in service.commit_log()]
        assert labels == ["once"]

    def test_concurrent_copies_of_one_commit_merge_once(self):
        """Eight connections race the same commit of one plan: one merge,
        one outcome for all of them."""
        encoded = encode_workload(_planned_dag(), include_payloads=False)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EGService(MaterializeAll(), background=True) as service:
                with AsyncTransportServer(service) as server:
                    connections = [
                        TransportConnection(*server.address) for _ in range(8)
                    ]
                    try:
                        first = connections[0]
                        session = first.request({"op": "open_session", "name": "t"})
                        session_id = session["session_id"]
                        plan = {
                            "op": "plan",
                            "session_id": session_id,
                            "workload": encoded,
                        }
                        token = first.request(plan)["plan"]
                        replies, threads = [], []
                        for connection in connections:
                            message = _commit(session_id, token)
                            thread = threading.Thread(
                                target=lambda c=connection, m=message: replies.append(
                                    c.request(m, timeout_s=30.0)
                                )
                            )
                            threads.append(thread)
                            thread.start()
                        for thread in threads:
                            thread.join(timeout=30.0)
                            assert not thread.is_alive()
                    finally:
                        for connection in connections:
                            connection.close()
        finally:
            sys.setswitchinterval(switch)
        assert len(replies) == 8
        assert {reply["commit_index"] for reply in replies} == {1}
        assert len(service.commit_log()) == 1

