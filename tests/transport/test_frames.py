"""Frame layer: header codec, blocking I/O, async I/O, EOF semantics."""

import asyncio
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
    read_frame_async,
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


def _drain_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestAsyncFrames:
    def test_roundtrip(self):
        async def scenario():
            raw = pack_header(KIND_RESPONSE, CODEC_JSON, 3, 4) + b"body"
            frame = await read_frame_async(_drain_reader(raw))
            assert frame is not None
            header, body = frame
            assert header.request_id == 3
            assert bytes(body) == b"body"

        asyncio.run(scenario())

    def test_clean_eof_is_none(self):
        async def scenario():
            assert await read_frame_async(_drain_reader(b"")) is None

        asyncio.run(scenario())

    def test_truncated_header_raises(self):
        async def scenario():
            with pytest.raises(TruncatedFrameError):
                await read_frame_async(_drain_reader(b"\xe6"))

        asyncio.run(scenario())

    def test_truncated_body_raises(self):
        async def scenario():
            raw = pack_header(KIND_REQUEST, CODEC_JSON, 1, 50) + b"partial"
            with pytest.raises(TruncatedFrameError):
                await read_frame_async(_drain_reader(raw))

        asyncio.run(scenario())
