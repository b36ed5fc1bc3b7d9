"""Tagged binary frame layer: the multiplexing unit of the transport.

Every message travels as one frame::

    +--------+------+-------+------------+----------+----------------+
    | magic  | kind | codec | request_id | body_len | body ...       |
    | u16    | u8   | u8    | u32        | u32      | body_len bytes |
    +--------+------+-------+------------+----------+----------------+

All integers are big-endian.  ``request_id`` is the multiplexing tag: a
client stamps each request with a fresh id and the server echoes it on
the response, so responses may return **out of order** and many requests
can be in flight on one connection.  ``kind`` distinguishes requests
from responses from typed error responses; ``codec`` names the body
encoding (JSON fallback or the zero-copy binary codec) per frame, so one
connection can mix codecs.

EOF semantics are strict: a connection may close *between* frames (a
clean shutdown), but a close in the middle of a frame — header or body —
raises :class:`~repro.service.errors.TruncatedFrameError`, because bytes
were lost and any in-flight response is unknown.

There is one receive side, the sans-I/O :class:`FrameAssembler`: the
server's connections feed it from the event loop, the thread-based
client's blocking :func:`recv_frame` from ``recv_into``.
"""

from __future__ import annotations

import os
import socket
import struct
from dataclasses import dataclass
from typing import Sequence

from .errors import FrameTooLargeError, ProtocolError, TruncatedFrameError

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "HEADER",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_ERROR",
    "CODEC_JSON",
    "CODEC_BINARY",
    "FrameHeader",
    "pack_header",
    "unpack_header",
    "recv_frame",
    "send_frame",
    "FrameAssembler",
]

#: protocol magic ("EG" in a trenchcoat); rejects JSON peers immediately
MAGIC = 0xE61B

#: refuse frames beyond this size (a corrupt length prefix must not OOM us)
MAX_FRAME_BYTES = 256 * 1024 * 1024

HEADER = struct.Struct(">HBBII")

KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3

CODEC_JSON = 1
CODEC_BINARY = 2

_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR)
_CODECS = (CODEC_JSON, CODEC_BINARY)


@dataclass(frozen=True)
class FrameHeader:
    """Decoded fixed-size frame header."""

    kind: int
    codec: int
    request_id: int
    body_len: int


def pack_header(kind: int, codec: int, request_id: int, body_len: int) -> bytes:
    if body_len > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame body of {body_len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return HEADER.pack(MAGIC, kind, codec, request_id, body_len)


def unpack_header(raw: bytes | memoryview) -> FrameHeader:
    magic, kind, codec, request_id, body_len = HEADER.unpack(raw)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:04x} (expected 0x{MAGIC:04x})")
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    if codec not in _CODECS:
        raise ProtocolError(f"unknown frame codec {codec}")
    if body_len > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"peer announced a {body_len}-byte frame body; refusing"
        )
    return FrameHeader(kind=kind, codec=codec, request_id=request_id, body_len=body_len)


# ----------------------------------------------------------------------
# Sans-I/O receive side (the server's connections, and recv_frame)
# ----------------------------------------------------------------------
class FrameAssembler:
    """Assembles frames out of buffers the caller fills; does no I/O.

    The shape of :class:`asyncio.BufferedProtocol`: :meth:`get_buffer`
    says where the next received bytes belong, :meth:`buffer_updated`
    says how many arrived and returns the frame they completed, if any.
    The header lands in one fixed 12-byte buffer and is validated by
    :func:`unpack_header` *before* a body buffer exists; the body buffer
    is exactly ``body_len`` long, so a ``recv_into`` on it never reads
    into the next frame and a received body is never copied.
    """

    def __init__(self) -> None:
        self._header_view = memoryview(bytearray(HEADER.size))
        #: parsed header of the frame whose body is arriving, if any
        self._header: FrameHeader | None = None
        #: the buffer being filled: the header's, or one body's
        self._target = self._header_view
        self._filled = 0

    def get_buffer(self) -> memoryview:
        """The unfilled rest of the header or body being received."""
        return self._target[self._filled :]

    def buffer_updated(self, nbytes: int) -> tuple[FrameHeader, memoryview] | None:
        """``nbytes`` arrived in :meth:`get_buffer`'s view; the frame, if
        they completed one."""
        self._filled += nbytes
        if self._filled < len(self._target):
            return None
        self._filled = 0
        header = self._header
        if header is None:
            header = unpack_header(self._header_view)
            if header.body_len == 0:
                return header, memoryview(b"")
            self._header = header
            self._target = memoryview(bytearray(header.body_len))
            return None
        body = self._target
        self._header, self._target = None, self._header_view
        return header, body.toreadonly()

    def eof(self) -> None:
        """The peer closed: fine between frames, bytes were lost inside one."""
        if self._header is None and not self._filled:
            return
        part = "header" if self._header is None else "body"
        raise TruncatedFrameError(
            f"connection closed after {self._filled} "
            f"of {len(self._target)} {part} bytes"
        )


# ----------------------------------------------------------------------
# Blocking socket side (the thread-based client)
# ----------------------------------------------------------------------
#: the most buffers one ``sendmsg`` call takes (1 024 on Linux)
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def recv_frame(sock: socket.socket) -> tuple[FrameHeader, memoryview] | None:
    """One frame off a blocking socket; ``None`` on orderly close."""
    assembler = FrameAssembler()
    while True:
        received = sock.recv_into(assembler.get_buffer())
        if not received:
            assembler.eof()  # raises when the close cut a frame short
            return None
        frame = assembler.buffer_updated(received)
        if frame is not None:
            return frame


def send_frame(
    sock: socket.socket,
    kind: int,
    codec: int,
    request_id: int,
    body_parts: Sequence[bytes | memoryview],
) -> int:
    """Write header + body parts (byte buffers); returns total bytes on
    the wire.

    ``sendmsg`` takes the part list directly (scatter-gather I/O), so
    column buffers go from the numpy arrays to the socket without an
    intermediate join.  One call takes at most ``IOV_MAX`` parts; a
    partial send resumes inside the part where it stopped, through a
    slice of it, never a copy of the frame.
    """
    body_len = sum(len(part) for part in body_parts)
    parts: list[bytes | memoryview] = [
        pack_header(kind, codec, request_id, body_len),
        *body_parts,
    ]
    total = unsent = body_len + HEADER.size
    first = 0  # the first part not yet wholly sent
    while True:
        sent = sock.sendmsg(parts[first : first + _IOV_MAX])
        unsent -= sent
        if not unsent:
            return total
        while sent >= len(parts[first]):
            sent -= len(parts[first])
            first += 1
        if sent:
            parts[first] = memoryview(parts[first])[sent:]
