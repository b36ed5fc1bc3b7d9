"""Wire codec properties: round trips over dtypes, endianness, dedup."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe import DataFrame
from repro.transport.codec import (
    BinaryWireCodec,
    ColumnLedger,
    JsonWireCodec,
    encoded_size,
    make_codec,
)
from repro.transport.errors import ProtocolError, StaleColumnReferenceError
from repro.transport.wire import decode_payload, encode_payload

#: both byte orders on purpose — the wire must not care where it was written
NUMERIC_DTYPES = (
    "<i1",
    "<i2",
    "<i4",
    "<i8",
    "<u2",
    "<u8",
    "<f4",
    "<f8",
    ">i4",
    ">i8",
    ">f4",
    ">f8",
    "?",
)


def roundtrip(message, ledger_in=None, ledger_out=None):
    encoder = BinaryWireCodec(ledger_in)
    decoder = BinaryWireCodec(ledger_out)
    parts = encoder.encode(message)
    return decoder.decode(memoryview(b"".join(bytes(part) for part in parts)))


@st.composite
def numeric_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(NUMERIC_DTYPES)))
    n = draw(st.integers(min_value=0, max_value=40))
    if dtype.kind == "b":
        values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    elif dtype.kind in "iu":
        info = np.iinfo(dtype)
        values = draw(
            st.lists(
                st.integers(min_value=int(info.min), max_value=int(info.max)),
                min_size=n,
                max_size=n,
            )
        )
    else:
        width = 32 if dtype.itemsize == 4 else 64
        values = draw(
            st.lists(
                st.floats(allow_nan=True, allow_infinity=True, width=width),
                min_size=n,
                max_size=n,
            )
        )
    return np.array(values, dtype=dtype)


@st.composite
def string_arrays(draw):
    values = draw(st.lists(st.text(max_size=24), max_size=24))
    return np.array(values, dtype=object)


class TestBinaryRoundtrip:
    @settings(max_examples=60, deadline=None)
    @given(numeric_arrays())
    def test_numeric_arrays_roundtrip_bit_exact(self, values):
        decoded = roundtrip({"leaf": values})["leaf"]
        assert decoded.dtype == values.dtype  # endianness preserved
        assert decoded.shape == values.shape
        np.testing.assert_array_equal(decoded, values)

    @settings(max_examples=40, deadline=None)
    @given(string_arrays())
    def test_object_string_columns_roundtrip(self, values):
        record = {"name": "s", "dtype": "object", "column_id": "cid-1", "values": values}
        decoded = roundtrip({"columns": [record]})["columns"][0]
        assert decoded["values"].dtype == object
        assert list(decoded["values"]) == list(values)

    @settings(max_examples=30, deadline=None)
    @given(numeric_arrays(), st.text(min_size=1, max_size=8))
    def test_column_records_keep_their_lineage_id(self, values, column_id):
        record = {
            "name": "c",
            "dtype": str(values.dtype),
            "column_id": column_id,
            "values": values,
        }
        decoded = roundtrip({"columns": [record]})["columns"][0]
        assert decoded["column_id"] == column_id
        np.testing.assert_array_equal(decoded["values"], values)

    def test_multidimensional_arrays_keep_shape(self):
        values = np.arange(24.0).reshape(2, 3, 4)
        decoded = roundtrip({"x": values})["x"]
        assert decoded.shape == (2, 3, 4)
        np.testing.assert_array_equal(decoded, values)

    def test_empty_message_and_empty_arrays(self):
        assert roundtrip({}) == {}
        decoded = roundtrip({"empty": np.array([], dtype="<f8")})["empty"]
        assert decoded.size == 0 and decoded.dtype == np.dtype("<f8")
        decoded = roundtrip(
            {"columns": [{"name": "e", "dtype": "object", "column_id": "c0",
                          "values": np.array([], dtype=object)}]}
        )
        assert list(decoded["columns"][0]["values"]) == []

    def test_scalars_and_nested_structure_pass_through(self):
        message = {
            "op": "plan",
            "nested": {"list": [1, 2.5, None, True, "s"], "np": np.float64(3.5)},
        }
        decoded = roundtrip(message)
        assert decoded["op"] == "plan"
        assert decoded["nested"]["list"] == [1, 2.5, None, True, "s"]
        assert decoded["nested"]["np"] == 3.5

    def test_numpy_scalars_collapse_wherever_they_sit(self):
        # the encoder passes exact-type leaves through inline; everything
        # else — numpy scalars subclass float/int — still collapses
        message = {
            "a": [1, 2.5, "s", None, True, np.float64(0.5), np.int32(3), np.bool_(True)],
            "b": {"c": (np.float32(1.0), [np.arange(3)])},
        }
        decoded = roundtrip(message)
        assert decoded["a"] == [1, 2.5, "s", None, True, 0.5, 3, True]
        assert all(type(x) in (int, float, str, type(None), bool) for x in decoded["a"])
        assert decoded["b"]["c"][0] == 1.0
        np.testing.assert_array_equal(decoded["b"]["c"][1][0], np.arange(3))

    def test_noncontiguous_arrays_are_made_contiguous(self):
        values = np.arange(20.0)[::2]
        decoded = roundtrip({"x": values})["x"]
        np.testing.assert_array_equal(decoded, values)


class TestDedup:
    def record(self, column_id="col-a", n=64):
        return {
            "name": "x",
            "dtype": "float64",
            "column_id": column_id,
            "values": np.arange(float(n)),
        }

    def test_second_ship_of_a_column_is_a_reference(self):
        sender_ledger, receiver_ledger = ColumnLedger(), ColumnLedger()
        sender = BinaryWireCodec(sender_ledger)
        receiver = BinaryWireCodec(receiver_ledger)

        first = sender.encode({"c": self.record()})
        second = sender.encode({"c": self.record()})
        assert sender.refs_sent == 1
        assert sender.ref_bytes_saved == 64 * 8
        assert encoded_size(second) < encoded_size(first)

        out1 = receiver.decode(memoryview(b"".join(bytes(p) for p in first)))
        out2 = receiver.decode(memoryview(b"".join(bytes(p) for p in second)))
        np.testing.assert_array_equal(out1["c"]["values"], out2["c"]["values"])

    def test_reference_to_unknown_column_raises(self):
        sender = BinaryWireCodec(ColumnLedger())
        sender.encode({"c": self.record()})  # primes the sender's ledger only
        ref_frame = sender.encode({"c": self.record()})
        fresh_receiver = BinaryWireCodec(ColumnLedger())
        with pytest.raises(StaleColumnReferenceError):
            fresh_receiver.decode(memoryview(b"".join(bytes(p) for p in ref_frame)))

    def test_no_ledger_means_no_dedup(self):
        sender = BinaryWireCodec(None)
        sender.encode({"c": self.record()})
        sender.encode({"c": self.record()})
        assert sender.refs_sent == 0

    def test_decoded_columns_enter_the_receiver_ledger(self):
        # receiver can itself reference a column it only ever received
        a_ledger, b_ledger = ColumnLedger(), ColumnLedger()
        a, b = BinaryWireCodec(a_ledger), BinaryWireCodec(b_ledger)
        frame = a.encode({"c": self.record()})
        b.decode(memoryview(b"".join(bytes(p) for p in frame)))
        reply = b.encode({"c": self.record()})
        assert b.refs_sent == 1
        decoded = a.decode(memoryview(b"".join(bytes(p) for p in reply)))
        np.testing.assert_array_equal(decoded["c"]["values"], np.arange(64.0))


    def test_a_column_repeated_inside_one_message_ships_once(self):
        sender = BinaryWireCodec(ColumnLedger())
        receiver = BinaryWireCodec(ColumnLedger())
        frame = sender.encode({"a": self.record(), "b": [self.record()]})
        assert sender.refs_sent == 1
        out = receiver.decode(memoryview(b"".join(bytes(p) for p in frame)))
        assert out["a"]["values"] is out["b"][0]["values"]

    def test_a_failed_encode_leaves_ledger_and_counters_untouched(self):
        # the walk reaches both columns before json.dumps meets the
        # estimator-like leaf; nothing of this message left, so the
        # ledger must not name its columns
        ledger = ColumnLedger()
        sender = BinaryWireCodec(ledger)
        sender.encode({"c": self.record("known")})
        bad = {
            "c": self.record("known"),
            "d": self.record("fresh"),
            "params": {"estimator": object()},
        }
        with pytest.raises(TypeError):
            sender.encode(bad)
        assert len(ledger) == 1 and "fresh" not in ledger
        assert (sender.refs_sent, sender.ref_bytes_saved) == (0, 0)

        # the retry ships the bytes, and a fresh-ledger peer that saw
        # only successful frames resolves everything
        receiver = BinaryWireCodec(ColumnLedger())
        receiver.ledger.remember("known", np.arange(64.0))
        del bad["params"]
        retry = sender.encode(bad)
        assert sender.refs_sent == 1  # "known" only
        out = receiver.decode(memoryview(b"".join(bytes(p) for p in retry)))
        np.testing.assert_array_equal(out["d"]["values"], np.arange(64.0))
        assert "fresh" in ledger


class TestMalformedBodies:
    def test_truncated_envelope_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            BinaryWireCodec().decode(memoryview(b"\x00"))

    def test_meta_longer_than_body_raises(self):
        import struct as struct_mod

        body = struct_mod.pack(">BII", 0, 0, 100) + b"{}"
        with pytest.raises(ProtocolError):
            BinaryWireCodec().decode(memoryview(body))

    def test_buffer_lengths_beyond_body_raise(self):
        import json as json_mod
        import struct as struct_mod

        meta = json_mod.dumps({"x": {"__nd__": [0, "<f8", [4]]}}).encode()
        body = (
            struct_mod.pack(">BIII", 1, 1, 32, len(meta)) + meta + b"\x00" * 8
        )
        with pytest.raises(ProtocolError):
            BinaryWireCodec().decode(memoryview(body))

    def test_marker_flag_skips_resolution_for_plain_messages(self):
        parts = BinaryWireCodec().encode({"op": "plan", "session_id": "s1"})
        assert bytes(parts[0])[0] == 0  # no markers: flags byte clear
        parts = BinaryWireCodec().encode({"x": np.arange(3.0)})
        assert bytes(parts[0])[0] == 1

    def test_bad_json_fallback_raises(self):
        with pytest.raises(ProtocolError):
            JsonWireCodec().decode(memoryview(b"not json"))

    def test_unknown_codec_name_raises(self):
        with pytest.raises(ValueError):
            make_codec("msgpack")


class TestPayloadBridge:
    """wire.encode_payload trees survive both codecs identically."""

    @settings(max_examples=25, deadline=None)
    @given(numeric_arrays())
    def test_dataframe_payloads_roundtrip_through_both_codecs(self, values):
        frame = DataFrame({"x": np.asarray(values, dtype="<f8")})
        tree = encode_payload(frame)
        for codec_name in ("binary", "json"):
            codec = make_codec(codec_name)
            parts = codec.encode({"payload": tree})
            decoder = make_codec(codec_name)
            decoded_tree = decoder.decode(
                memoryview(b"".join(bytes(p) for p in parts))
            )["payload"]
            decoded = decode_payload(decoded_tree)
            assert decoded.column_ids == frame.column_ids
            np.testing.assert_array_equal(
                decoded.column("x").values, frame.column("x").values
            )

    def test_binary_beats_json_on_numeric_bulk(self):
        rng = np.random.default_rng(11)
        frame = DataFrame(
            {"x": rng.standard_normal(4096), "y": rng.standard_normal(4096)}
        )
        tree = {"payload": encode_payload(frame)}
        binary_size = encoded_size(BinaryWireCodec().encode(tree))
        json_size = encoded_size(JsonWireCodec().encode(tree))
        assert json_size / binary_size >= 2.0

    def test_dedup_repeat_ship_beats_json_by_5x(self):
        # the steady-state EG exchange: the same source columns cross the
        # wire on every commit — binary ships bytes once, then references
        rng = np.random.default_rng(13)
        frame = DataFrame(
            {"x": rng.standard_normal(4096), "y": rng.standard_normal(4096)}
        )
        tree = {"payload": encode_payload(frame)}
        binary = BinaryWireCodec(ColumnLedger())
        json_codec = JsonWireCodec()
        binary_total = sum(encoded_size(binary.encode(tree)) for _ in range(4))
        json_total = sum(encoded_size(json_codec.encode(tree)) for _ in range(4))
        assert json_total / binary_total >= 5.0
