"""Async multiplexed binary transport for the EG service — the one wire
between tenants and a service, and between a sharded coordinator and its
worker processes:

* **Frames** (:mod:`~repro.transport.frames`) — tagged binary frames;
  the request id in the header lets many requests share one connection
  and responses return out of order.
* **Codecs** (:mod:`~repro.transport.codec`) — a zero-copy columnar
  binary codec (raw numpy buffers over ``memoryview``, per-connection
  column dedup by lineage id) plus a JSON fallback, selectable per
  frame.
* **Server** (:mod:`~repro.transport.server`) — one asyncio event loop
  serving an :class:`~repro.service.core.EGService` or
  :class:`~repro.shard.ProcessShardCoordinator`, with per-connection
  pipelining; the service's bounded merge queue is the backpressure.
* **Wire records** (:mod:`~repro.transport.wire`) — the message-tree
  form of payloads, workload DAGs, plan and commit replies, one
  encode/decode pair each.
* **Client** (:mod:`~repro.transport.client`) — blocking, thread-safe
  connections multiplexed behind a round-robin pool; a
  :class:`RemoteService` adapter answers the ``EGService`` surface over
  it, and :class:`TransportServiceClient` runs the one client loop
  against that adapter.

See ``docs/TRANSPORT.md`` for the wire format.
"""

from .client import (
    ConnectionPool,
    PendingReply,
    RemoteService,
    TransportConnection,
    TransportServiceClient,
)
from .codec import BinaryWireCodec, ColumnLedger, JsonWireCodec, make_codec
from .errors import (
    ConnectionLostError,
    FrameTooLargeError,
    ProtocolError,
    StaleColumnReferenceError,
    TransportError,
    TruncatedFrameError,
    UnknownPlanError,
)
from .server import AsyncTransportServer
from .shardops import ShardCommitSequencer, ShardRequestBridge, serve_one_shard

__all__ = [
    "AsyncTransportServer",
    "TransportConnection",
    "PendingReply",
    "ConnectionPool",
    "RemoteService",
    "TransportServiceClient",
    "ShardCommitSequencer",
    "ShardRequestBridge",
    "serve_one_shard",
    "BinaryWireCodec",
    "JsonWireCodec",
    "ColumnLedger",
    "make_codec",
    "TransportError",
    "TruncatedFrameError",
    "ProtocolError",
    "FrameTooLargeError",
    "StaleColumnReferenceError",
    "UnknownPlanError",
    "ConnectionLostError",
]
