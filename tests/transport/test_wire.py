"""transport.wire: what does and does not cross, and each record's round trip."""

import numpy as np

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.storage import SimpleArtifactStore, StorageTier
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.ml.linear import LogisticRegression
from repro.transport.client import _SnapshotStubEG
from repro.transport.wire import (
    decode_load,
    decode_payload,
    decode_workload,
    encode_load,
    encode_payload,
    encode_workload,
)


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class TestPayloadCodec:
    def test_ndarray_and_scalar_roundtrip(self):
        arr = np.arange(12.0).reshape(3, 4)
        decoded = decode_payload(encode_payload(arr))
        np.testing.assert_array_equal(decoded, arr)
        assert decoded.dtype == arr.dtype
        assert decode_payload(encode_payload(3.5)) == 3.5
        assert decode_payload(encode_payload(np.float64(2.5))) == 2.5
        assert decode_payload(encode_payload((1, "a"))) == (1, "a")

    def test_string_object_column_roundtrips(self):
        frame = DataFrame({"label": np.array(["a", "b", "c"], dtype=object)})
        decoded = decode_payload(encode_payload(frame))
        assert decoded.column_ids == frame.column_ids
        np.testing.assert_array_equal(
            decoded.column("label").values, frame.column("label").values
        )

    def test_models_are_not_transportable(self):
        assert encode_payload(LogisticRegression()) is None

    def test_non_string_object_column_is_not_transportable(self):
        # stringifying ints/None would ship mutated content under the
        # same content-addressed id; the frame must fall back to recompute
        frame = DataFrame({"mixed": np.array([1, None, "c"], dtype=object)})
        assert encode_payload(frame) is None


class TestWorkloadCodec:
    def test_structure_roundtrip(self):
        dag = WorkloadDAG()
        src = dag.add_source("src", payload=DataFrame({"x": np.arange(4.0)}))
        a = dag.add_operation([src], Step(0))
        b = dag.add_operation([src], Step(1))
        joined = dag.add_operation([a, b], Step("join"))
        dag.vertex(a).record_result(DataFrame({"x": np.arange(4.0)}), 1.0)
        dag.vertex(b).record_result(DataFrame({"x": np.arange(4.0) + 1}), 1.0)
        dag.vertex(joined).record_result(DataFrame({"x": np.arange(4.0) + 2}), 1.0)
        dag.mark_terminal(joined)

        decoded = decode_workload(encode_workload(dag, include_payloads=True))
        decoded.validate()
        assert {v.vertex_id for v in decoded.vertices()} == {
            v.vertex_id for v in dag.vertices()
        }
        assert {(s, d) for s, d, _e in decoded.edges()} == {
            (s, d) for s, d, _e in dag.edges()
        }
        assert decoded.terminals == dag.terminals
        # operation identity survives (hashes are carried, not recomputed)
        assert (
            decoded.incoming_operation(joined).op_hash
            == dag.incoming_operation(joined).op_hash
        )
        assert decoded.vertex(joined).computed
        assert decoded.vertex(joined).meta.schema == dag.vertex(joined).meta.schema

    def test_payload_free_encoding_keeps_flags(self):
        dag = WorkloadDAG()
        src = dag.add_source("src", payload=DataFrame({"x": np.arange(4.0)}))
        step = dag.add_operation([src], Step(0))
        dag.mark_terminal(step)
        decoded = decode_workload(encode_workload(dag, include_payloads=False))
        assert decoded.vertex(src).computed
        assert decoded.vertex(src).data is None


    def test_meta_record_is_asdict_without_the_copies(self):
        from dataclasses import asdict

        from repro.graph.artifacts import ArtifactMeta, ArtifactType, artifact_meta
        from repro.transport.wire import _decode_meta, _encode_meta

        metas = [
            artifact_meta(DataFrame({"x": np.arange(3.0), "s": np.array(["a"] * 3, object)})),
            artifact_meta(LogisticRegression()).with_quality(0.75),
            ArtifactMeta(artifact_type=ArtifactType.AGGREGATE),
        ]
        for meta in metas:
            record = _encode_meta(meta)
            expected = {**asdict(meta), "artifact_type": meta.artifact_type.value}
            # same keys in the same order: the JSON bytes are unchanged
            assert list(record.items()) == list(expected.items())
            assert record["column_ids"] is meta.column_ids  # not copied
            assert _decode_meta(record) == meta
        assert _encode_meta(None) is None

    def test_decoded_operations_carry_the_hash_and_compute_none(self, monkeypatch):
        import repro.graph.operations as operations

        dag = WorkloadDAG()
        src = dag.add_source("src", payload=DataFrame({"x": np.arange(4.0)}))
        step = dag.add_operation([src], Step(0))
        encoded = encode_workload(dag, include_payloads=False)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a decoded operation's hash is carried, not computed")

        monkeypatch.setattr(operations, "operation_hash", refuse)
        operation = decode_workload(encoded).incoming_operation(step)
        original = dag.incoming_operation(step)
        assert (operation.name, operation.return_type, operation.params) == (
            original.name,
            original.return_type,
            original.params,
        )
        assert operation.op_hash == original.op_hash
        assert operation.params is not encoded["e"][0]["op"]["p"]


class TestLoadRecord:
    def _eg_with(self, payload):
        dag = WorkloadDAG()
        src = dag.add_source("src", payload=DataFrame({"x": np.arange(4.0)}))
        step = dag.add_operation([src], Step(0))
        dag.vertex(step).record_result(payload, 2.5)
        dag.mark_terminal(step)
        eg = ExperimentGraph(SimpleArtifactStore())
        eg.union_workload(dag)
        eg.materialize(step, payload)
        return eg, step

    def test_roundtrip_carries_bookkeeping_payload_and_tier(self):
        frame = DataFrame({"x": np.arange(4.0) * 2})
        eg, step = self._eg_with(frame)
        vertex, payload, tier = decode_load(encode_load(eg, step))
        assert vertex.vertex_id == step
        assert vertex.compute_time == 2.5
        assert vertex.size == eg.vertex(step).size
        assert vertex.meta == eg.vertex(step).meta
        assert payload.column_ids == frame.column_ids
        assert tier is StorageTier.HOT

        stub = _SnapshotStubEG()
        stub.add_load(encode_load(eg, step))
        assert stub.is_materialized(step)
        assert stub.load(step).column_ids == frame.column_ids

    def test_untransportable_artifact_has_no_record(self):
        eg, step = self._eg_with(LogisticRegression())
        assert encode_load(eg, step) is None
