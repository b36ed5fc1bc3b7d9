"""Admission control in front of the merge queue.

Backpressure alone (a full update queue bouncing commits) degrades
*uniformly*: under overload every request — cheap or critical — waits
out the same timeout.  The admission controller in front of the
transport degrades *gracefully* instead, in tiers:

* **Per-tenant quotas** — every tenant gets a token bucket
  (``tenant_rate`` tokens/second, ``tenant_burst`` deep).  A tenant
  hammering the service drains only its own bucket
  (:class:`QuotaExceededError`); well-behaved tenants keep flowing.
* **Tier 1 — shed plan-only traffic.**  When the server's in-flight
  request count crosses ``shed_plan_inflight``, read-side traffic
  (``plan``, ``stats``, ``metrics``) is refused with
  :class:`PlanShedError`.  Plans are retryable by construction (the
  client recomputes from scratch at worst); merge-queue capacity is
  reserved for the commits that carry completed work.
* **Tier 2 — shed non-urgent commits.**  When in-flight crosses
  ``shed_commit_inflight`` *or* the merge queue's free headroom falls to
  ``min_commit_headroom``, commits not flagged ``urgent`` are refused
  with :class:`CommitShedError` before they ever occupy a queue slot.

All three errors subclass
:class:`~repro.service.errors.ServiceOverloadedError`, so existing
client retry loops back off exponentially without new code paths.
Session housekeeping (``ping``, ``open_session``, ``close_session``) is
never shed — a client must always be able to disconnect cleanly.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .errors import CommitShedError, PlanShedError, QuotaExceededError

__all__ = ["TokenBucket", "AdmissionPolicy", "AdmissionController"]

#: read-side ops shed at tier 1
_PLAN_TIER_OPS = frozenset({"plan", "stats", "metrics"})
#: ops that consume tenant quota tokens (the ones that cost real work)
_QUOTA_OPS = frozenset({"plan", "commit"})
#: never shed: session housekeeping is nearly free, and the
#: introspection surface (``debug``/``health``) exists precisely to ask
#: an overloaded server what is happening — shedding it would blind
#: operators at the only moment they need it
_NEVER_SHED = frozenset({"ping", "open_session", "close_session", "debug", "health"})


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._refilled_at)
            self._refilled_at = now
            if math.isinf(self.rate):
                self._tokens = self.burst
            else:
                self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


@dataclass(frozen=True)
class AdmissionPolicy:
    """Thresholds for quota and tiered shedding.

    The defaults are deliberately permissive — admission control only
    bites when explicitly tightened, so convergence experiments and the
    in-process reference path behave exactly as before.
    """

    #: tokens/second refilled per tenant (inf = unlimited)
    tenant_rate: float = math.inf
    #: bucket depth — the burst a tenant may spend at once
    tenant_burst: float = 256.0
    #: in-flight requests at which tier 1 sheds plan/stats/metrics traffic
    shed_plan_inflight: int = 1 << 30
    #: in-flight requests at which tier 2 sheds non-urgent commits
    shed_commit_inflight: int = 1 << 30
    #: shed non-urgent commits when merge-queue headroom falls to this
    min_commit_headroom: int = 0


class AdmissionController:
    """Applies one :class:`AdmissionPolicy` to a stream of requests.

    ``headroom`` reads the merge queue's free slots
    (:meth:`~repro.service.core.EGService.queue_headroom`; a sharded
    coordinator reports its tightest live shard); ``None`` disables the
    headroom trigger.
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        headroom: Callable[[], int] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._headroom = headroom
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        #: sheds by tier, for the transport's metrics
        self.shed_counts: dict[str, int] = {"quota": 0, "plan": 0, "commit": 0}

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.policy.tenant_rate, self.policy.tenant_burst, self._clock
                )
            return bucket

    def admit(
        self, op: str, tenant: str, inflight: int, urgent: bool = False
    ) -> None:
        """Raise the matching typed error when ``op`` must be refused.

        ``inflight`` is the transport's current in-flight request count
        (this request included); ``urgent`` exempts a commit from tier-2
        shedding (the flag rides the request, set by the client).
        """
        if op in _NEVER_SHED:
            return
        policy = self.policy
        if op in _PLAN_TIER_OPS and inflight > policy.shed_plan_inflight:
            self.shed_counts["plan"] += 1
            raise PlanShedError(
                f"plan-tier traffic shed at {inflight} in-flight requests"
            )
        if op == "commit" and not urgent:
            if inflight > policy.shed_commit_inflight:
                self.shed_counts["commit"] += 1
                raise CommitShedError(
                    f"non-urgent commit shed at {inflight} in-flight requests"
                )
            if (
                self._headroom is not None
                and policy.min_commit_headroom > 0
                and self._headroom() <= policy.min_commit_headroom
            ):
                self.shed_counts["commit"] += 1
                raise CommitShedError(
                    "non-urgent commit shed: merge queue nearly full"
                )
        if op in _QUOTA_OPS and not self._bucket(tenant).try_acquire():
            self.shed_counts["quota"] += 1
            raise QuotaExceededError(
                f"tenant {tenant!r} exceeded its request quota; back off"
            )
