"""Frame layer: header codec, blocking I/O, the sans-I/O assembler, EOF semantics."""

import socket
import struct

import pytest

from repro.service.errors import TruncatedFrameError
from repro.transport.errors import FrameTooLargeError, ProtocolError
from repro.transport.frames import (
    HEADER,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    CODEC_BINARY,
    CODEC_JSON,
    MAGIC,
    MAX_FRAME_BYTES,
    pack_header,
    FrameAssembler,
    recv_frame,
    send_frame,
    unpack_header,
)


class TestHeader:
    def test_roundtrip(self):
        raw = pack_header(KIND_RESPONSE, CODEC_BINARY, 0xDEADBEEF, 12345)
        header = unpack_header(raw)
        assert header.kind == KIND_RESPONSE
        assert header.codec == CODEC_BINARY
        assert header.request_id == 0xDEADBEEF
        assert header.body_len == 12345

    def test_bad_magic_rejected(self):
        raw = HEADER.pack(0x1234, KIND_REQUEST, CODEC_JSON, 1, 0)
        with pytest.raises(ProtocolError, match="magic"):
            unpack_header(raw)

    def test_unknown_kind_and_codec_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            unpack_header(HEADER.pack(MAGIC, 9, CODEC_JSON, 1, 0))
        with pytest.raises(ProtocolError, match="codec"):
            unpack_header(HEADER.pack(MAGIC, KIND_REQUEST, 9, 1, 0))

    def test_oversized_frames_refused_both_directions(self):
        with pytest.raises(FrameTooLargeError):
            pack_header(KIND_REQUEST, CODEC_JSON, 1, MAX_FRAME_BYTES + 1)
        raw = HEADER.pack(MAGIC, KIND_REQUEST, CODEC_JSON, 1, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLargeError):
            unpack_header(raw)


class TestBlockingFrames:
    def test_send_recv_roundtrip_with_scattered_parts(self):
        ours, theirs = socket.socketpair()
        try:
            total = send_frame(
                theirs, KIND_REQUEST, CODEC_BINARY, 7, [b"abc", memoryview(b"defg")]
            )
            assert total == HEADER.size + 7
            frame = recv_frame(ours)
            assert frame is not None
            header, body = frame
            assert header.request_id == 7
            assert bytes(body) == b"abcdefg"
        finally:
            ours.close()
            theirs.close()

    def test_empty_body_roundtrips(self):
        ours, theirs = socket.socketpair()
        try:
            send_frame(theirs, KIND_ERROR, CODEC_JSON, 1, [])
            frame = recv_frame(ours)
            assert frame is not None
            assert frame[0].body_len == 0
            assert bytes(frame[1]) == b""
        finally:
            ours.close()
            theirs.close()

    def test_clean_eof_between_frames_is_none(self):
        ours, theirs = socket.socketpair()
        try:
            theirs.close()
            assert recv_frame(ours) is None
        finally:
            ours.close()

    def test_eof_inside_header_raises(self):
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(struct.pack(">H", MAGIC))  # only the magic
            theirs.close()
            # callers matching on ConnectionError (and on ServiceError) both
            # catch it; neither mistakes it for an orderly shutdown
            with pytest.raises(ConnectionError) as caught:
                recv_frame(ours)
            assert isinstance(caught.value, TruncatedFrameError)
        finally:
            ours.close()

    def test_eof_inside_body_raises(self):
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(pack_header(KIND_REQUEST, CODEC_JSON, 1, 100) + b"short")
            theirs.close()
            with pytest.raises(TruncatedFrameError):
                recv_frame(ours)
        finally:
            ours.close()


def _feed(assembler: FrameAssembler, data: bytes, chunk: int | None = None) -> list:
    """Deliver ``data`` the way a transport would: into ``get_buffer()``'s
    view, at most ``chunk`` bytes a time; the frames it completed."""
    frames = []
    view = memoryview(data)
    while view:
        buffer = assembler.get_buffer()
        assert len(buffer) > 0  # asyncio refuses an empty receive buffer
        n = min(len(buffer), len(view), chunk or len(view))
        buffer[:n] = view[:n]
        view = view[n:]
        frame = assembler.buffer_updated(n)
        if frame is not None:
            frames.append(frame)
    return frames


class TestAsyncFrames:
    """The server's receive side: :class:`FrameAssembler`."""

    def test_roundtrip(self):
        assembler = FrameAssembler()
        raw = pack_header(KIND_RESPONSE, CODEC_JSON, 3, 4) + b"body"
        [(header, body)] = _feed(assembler, raw)
        assert header.request_id == 3
        assert bytes(body) == b"body"
        assert body.readonly
        assembler.eof()  # between frames: a clean close

    def test_clean_eof_is_none(self):
        assert FrameAssembler().eof() is None

    def test_truncated_header_raises(self):
        assembler = FrameAssembler()
        assert _feed(assembler, b"\xe6") == []
        with pytest.raises(TruncatedFrameError, match="1 of 12 header"):
            assembler.eof()

    def test_truncated_body_raises(self):
        assembler = FrameAssembler()
        raw = pack_header(KIND_REQUEST, CODEC_JSON, 1, 50) + b"partial"
        assert _feed(assembler, raw) == []
        with pytest.raises(TruncatedFrameError, match="7 of 50 body"):
            assembler.eof()


class TestAssemblerDeliveries:
    """However the bytes are cut up, the same frames come out."""

    def test_header_across_two_reads_body_in_three(self):
        assembler = FrameAssembler()
        raw = pack_header(KIND_REQUEST, CODEC_BINARY, 9, 9) + b"abcdefghi"
        assert _feed(assembler, raw[:5]) == []
        assert _feed(assembler, raw[5:15]) == []  # rest of header + 3 of body
        assert _feed(assembler, raw[15:18]) == []
        [(header, body)] = _feed(assembler, raw[18:])
        assert (header.request_id, header.body_len) == (9, 9)
        assert bytes(body) == b"abcdefghi"

    @pytest.mark.parametrize("chunk", [1, 5, 13, None])
    def test_two_frames_in_one_burst(self, chunk):
        assembler = FrameAssembler()
        raw = (
            pack_header(KIND_REQUEST, CODEC_JSON, 1, 3)
            + b"one"
            + pack_header(KIND_ERROR, CODEC_BINARY, 2, 5)
            + b"two!!"
        )
        frames = _feed(assembler, raw, chunk)
        assert [(h.request_id, h.kind, bytes(b)) for h, b in frames] == [
            (1, KIND_REQUEST, b"one"),
            (2, KIND_ERROR, b"two!!"),
        ]
        assembler.eof()

    def test_a_receive_never_reads_past_its_frame(self):
        assembler = FrameAssembler()
        assert len(assembler.get_buffer()) == HEADER.size
        _feed(assembler, pack_header(KIND_REQUEST, CODEC_JSON, 1, 7))
        assert len(assembler.get_buffer()) == 7
        _feed(assembler, b"1234")
        assert len(assembler.get_buffer()) == 3

    def test_zero_length_body_completes_on_the_header(self):
        assembler = FrameAssembler()
        raw = pack_header(KIND_RESPONSE, CODEC_JSON, 4, 0)
        first, second = _feed(assembler, raw * 2)
        for header, body in (first, second):
            assert header.request_id == 4 and bytes(body) == b""
        assert len(assembler.get_buffer()) == HEADER.size

    def test_oversize_length_refused_before_allocation(self, monkeypatch):
        import repro.transport.frames as frames

        allocated = []
        real = bytearray

        class Recording(real):
            def __init__(self, *args):
                allocated.append(args)
                super().__init__(*args)

        assembler = FrameAssembler()
        monkeypatch.setattr(frames, "bytearray", Recording, raising=False)
        raw = HEADER.pack(MAGIC, KIND_REQUEST, CODEC_JSON, 1, MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLargeError):
            _feed(assembler, raw)
        assert allocated == []

    @pytest.mark.parametrize(
        "raw, error",
        [
            (HEADER.pack(0x1234, KIND_REQUEST, CODEC_JSON, 1, 0), "magic"),
            (HEADER.pack(MAGIC, 9, CODEC_JSON, 1, 0), "kind"),
            (HEADER.pack(MAGIC, KIND_REQUEST, 9, 1, 0), "codec"),
        ],
    )
    def test_header_checks_apply(self, raw, error):
        with pytest.raises(ProtocolError, match=error):
            _feed(FrameAssembler(), raw)

    def test_eof_mid_header_and_mid_body(self):
        raw = pack_header(KIND_REQUEST, CODEC_JSON, 1, 4) + b"body"
        for cut in range(1, len(raw)):
            assembler = FrameAssembler()
            assert _feed(assembler, raw[:cut]) == []
            with pytest.raises(TruncatedFrameError):
                assembler.eof()
