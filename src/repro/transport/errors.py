"""Typed failure modes of the async binary transport.

Two families:

* **Protocol errors** (:class:`ProtocolError` and friends) — the wire
  itself misbehaved: bad magic, oversized frames, unknown codecs, refs
  to columns the receiver no longer knows.  These are bugs or corrupt
  peers; clients surface them.
* **Admission errors** (:class:`AdmissionError` and friends) — the
  server deliberately refused work to protect the merge queue.  They
  subclass :class:`~repro.service.errors.ServiceOverloadedError`, so
  the client's back-off loop treats a shed request exactly like a full
  update queue: wait, then try again.

The base :class:`~repro.service.errors.TransportError` and
:class:`~repro.service.errors.TruncatedFrameError` live in
:mod:`repro.service.errors` so service-side code can match on them
without importing this package.
"""

from __future__ import annotations

from ..service.errors import (
    ServiceOverloadedError,
    TransportError,
    TruncatedFrameError,
)

__all__ = [
    "TransportError",
    "TruncatedFrameError",
    "ProtocolError",
    "FrameTooLargeError",
    "StaleColumnReferenceError",
    "UnknownPlanError",
    "ConnectionLostError",
    "AdmissionError",
    "QuotaExceededError",
    "PlanShedError",
    "CommitShedError",
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


class AdmissionError(ServiceOverloadedError):
    """The server shed this request to protect the merge queue.

    Carries the shedding ``tier`` (1 = plan-only traffic, 2 = non-urgent
    commits) so clients and dashboards can tell graceful degradation
    stages apart.
    """

    tier: int = 0


class QuotaExceededError(AdmissionError):
    """The tenant's token bucket is empty; back off and retry."""

    tier = 0


class PlanShedError(AdmissionError):
    """Tier-1 shedding: plan/stats traffic refused under load."""

    tier = 1


class CommitShedError(AdmissionError):
    """Tier-2 shedding: non-urgent commits refused under heavy load."""

    tier = 2
