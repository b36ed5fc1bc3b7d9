"""Typed failure modes of the multi-tenant EG service.

Every service-raised condition a client can act on has its own exception
type, so retry loops and transports can match on class instead of parsing
messages.  All inherit :class:`ServiceError`.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "RequestTimeoutError",
    "UnknownSessionError",
    "ShardUnavailableError",
    "TransportError",
    "TruncatedFrameError",
]


class ServiceError(RuntimeError):
    """Base class for EG service failures."""


class ServiceOverloadedError(ServiceError):
    """The bounded update queue is full; the caller should back off and retry."""


class ServiceStoppedError(ServiceError):
    """The service is stopped (or draining) and accepts no new requests."""


class RequestTimeoutError(ServiceError, TimeoutError):
    """A request did not complete within its deadline.

    For commits this means the ticket was abandoned by the *waiter* — the
    merge worker may still apply the update later; the client must treat
    the outcome as unknown.
    """


class UnknownSessionError(ServiceError, KeyError):
    """A request referenced a session id that is not (or no longer) open."""


class ShardUnavailableError(ServiceError):
    """A shard worker process is dead or unreachable.

    Raised by the process-shard coordinator when a workload touches a
    shard whose worker has crashed or dropped its connection.  Workloads
    confined to healthy shards keep committing; a restarted worker reopens
    its partition persistence and rejoins the swarm.
    """


class TransportError(ServiceError):
    """A wire-level failure: framing, codec, or connection state.

    Base class for everything :mod:`repro.transport` raises; lives here
    (rather than in the transport package) so service-side code can
    match on it without importing the async subsystem.
    """


class TruncatedFrameError(TransportError, ConnectionError):
    """The peer closed the connection in the middle of a frame.

    Distinct from an orderly close (EOF *between* frames): a truncated
    frame means bytes were lost and any response in flight is unknown —
    callers must not treat it as a clean shutdown.
    """
