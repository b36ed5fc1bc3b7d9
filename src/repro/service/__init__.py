"""Concurrent multi-tenant Experiment Graph service.

Snapshot-isolated planning, a bounded update queue with backpressure, and
a single merge worker that coalesces concurrent commits into batches (one
materialization pass per batch) before atomically publishing the next EG
version.  ``ServiceClient`` holds the one plan → execute → commit loop
and runs it against anything ``EGService``-shaped; :mod:`repro.transport`
puts the same service on the wire.
"""

from .client import RetryPolicy, ServiceClient
from .core import (
    CommitRecord,
    CommitResult,
    EGService,
    ServicePlan,
    ServiceSession,
    UpdateTicket,
    default_load_cost_model,
)
from .errors import (
    RequestTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ShardUnavailableError,
    TransportError,
    TruncatedFrameError,
    UnknownSessionError,
)
from .stats import ServiceStats, SessionStats
from .versioned import SnapshotLease, VersionedExperimentGraph, copy_experiment_graph

__all__ = [
    "EGService",
    "ServiceClient",
    "RetryPolicy",
    "ServiceSession",
    "ServicePlan",
    "CommitResult",
    "CommitRecord",
    "UpdateTicket",
    "default_load_cost_model",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "RequestTimeoutError",
    "UnknownSessionError",
    "ShardUnavailableError",
    "TransportError",
    "TruncatedFrameError",
    "ServiceStats",
    "SessionStats",
    "SnapshotLease",
    "VersionedExperimentGraph",
    "copy_experiment_graph",
]
