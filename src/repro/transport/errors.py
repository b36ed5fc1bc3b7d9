"""Typed failure modes of the async binary transport.

* **Protocol errors** (:class:`ProtocolError` and friends) — the wire
  itself misbehaved: bad magic, oversized frames, unknown codecs, refs
  to columns the receiver no longer knows.  These are bugs or corrupt
  peers; clients surface them.
* :class:`ConnectionLostError` — the connection dropped with requests in
  flight.

The base :class:`~repro.service.errors.TransportError` and
:class:`~repro.service.errors.TruncatedFrameError` live in
:mod:`repro.service.errors` so service-side code can match on them
without importing this package.
"""

from __future__ import annotations

from ..service.errors import TransportError, TruncatedFrameError

__all__ = [
    "TransportError",
    "TruncatedFrameError",
    "ProtocolError",
    "FrameTooLargeError",
    "StaleColumnReferenceError",
    "UnknownPlanError",
    "ConnectionLostError",
]


class ProtocolError(TransportError):
    """The peer sent bytes that do not parse as the binary protocol."""


class FrameTooLargeError(ProtocolError):
    """A frame header announced a body beyond the transport limit."""


class StaleColumnReferenceError(ProtocolError):
    """A dedup reference named a column id this endpoint never received."""


class UnknownPlanError(ProtocolError):
    """A commit named a plan token its session does not hold: the plan was
    never made, a later plan replaced it, or the session was closed."""


class ConnectionLostError(TransportError, ConnectionError):
    """The connection dropped with requests in flight (outcome unknown).

    The pool retries a request that fails this way on a fresh connection
    exactly once; a commit retried this way names a plan the server may
    already have consumed, and then gets the first merge's result back.
    """

