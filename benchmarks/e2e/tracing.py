"""Harness-side spans, the timing proxies and the traced client that
record them.

Nothing here touches ``repro.obs``: spans are recorded from the
benchmark's own files, around the calls into each layer, through the
program's injection points (``EGService(store=, reuse_algorithm=,
materializer)``, ``AsyncTransportServer(service)``,
``TransportServiceClient(pool=)``).  A span is ``(id, parent, name,
script, thread, start, end)``; the parent is the innermost span open on
the same thread, and all spans of one script share its label.  Spans stay
in memory until the run ends.

A span's *layer* is the part of its name before the first dot, so the
names below are also the per-layer metric names (``storage.put`` ->
``storage.put_ms``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from repro.client.executor import ExecutionReport
from repro.client.parser import parse_workload
from repro.eg.storage import ArtifactStore, StorageTier
from repro.graph.pruning import prune_workload
from repro.materialization.base import Materializer
from repro.reuse.plan import ReusePlan
from repro.service import ServiceOverloadedError
from repro.transport.client import _SnapshotStubEG
from repro.transport.wire import encode_workload

__all__ = [
    "CAPTURED_DAGS",
    "Span",
    "SpanLog",
    "ServiceChannel",
    "WireChannel",
    "TracedClient",
    "TimedStore",
    "TimedReuse",
    "TimedMaterializer",
    "TimedService",
    "TimedPool",
]


#: executed DAGs a traced client keeps for the layer probes
CAPTURED_DAGS = 16


class Span(NamedTuple):
    span_id: int
    parent: int | None
    name: str
    script: str | None
    thread: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, script: str | None = None) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent, inherited = stack[-1] if stack else (None, None)
        script = script if script is not None else inherited
        span_id = next(self._ids)
        stack.append((span_id, script))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL; order is by finish time
            self.spans.append(
                Span(span_id, parent, name, script, threading.get_ident(), start, end)
            )

    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0.0 when none)."""
        seconds = [span.seconds for span in self.spans if span.name == name]
        return 1000.0 * sum(seconds) / len(seconds) if seconds else 0.0

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the interval its children cover.

        Children run on their parent's thread, nested and disjoint, so the
        interval they cover is the sum of their durations.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return {span.span_id: span.seconds - covered[span.span_id] for span in self.spans}

    def mean_self_ms(self, name: str) -> float:
        own = self.self_seconds()
        values = [own[span.span_id] for span in self.spans if span.name == name]
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def layer_budget(self, root: str) -> dict[str, float]:
        """Mean self-time per layer (ms per script) under ``root`` spans.

        Only spans on a script's own thread of control count (they share
        its label); the root span's own self-time — what no child span
        covers — is reported as ``unattributed``.
        """
        own = self.self_seconds()
        roots = [span for span in self.spans if span.name == root]
        if not roots:
            return {}
        budget: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.script is None:
                continue
            layer = "unattributed" if span.name == root else span.name.split(".")[0]
            budget[layer] += own[span.span_id]
        return {layer: 1000.0 * total / len(roots) for layer, total in budget.items()}

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {"script": span.script, "id": span.span_id, "parent": span.parent},
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# Timing proxies
# ----------------------------------------------------------------------
class TimedStore(ArtifactStore):
    """``store=`` proxy: spans around put / get (hot or cold) / remove."""

    def __init__(self, inner: ArtifactStore, log: SpanLog):
        self.inner = inner
        self._log = log

    def put(self, vertex_id: str, payload: Any) -> int:
        with self._log.span("storage.put"):
            return self.inner.put(vertex_id, payload)

    def get(self, vertex_id: str) -> Any:
        cold = self.inner.tier_of(vertex_id) is StorageTier.COLD
        with self._log.span("storage.get_cold" if cold else "storage.get_hot"):
            return self.inner.get(vertex_id)

    def remove(self, vertex_id: str) -> int:
        with self._log.span("storage.remove"):
            return self.inner.remove(vertex_id)

    def __contains__(self, vertex_id: str) -> bool:
        return vertex_id in self.inner

    @property
    def total_bytes(self) -> int:
        return self.inner.total_bytes

    @property
    def vertex_ids(self) -> set[str]:
        return self.inner.vertex_ids

    def incremental_size(self, payloads: Any) -> int:
        return self.inner.incremental_size(payloads)

    def tier_of(self, vertex_id: str) -> StorageTier:
        return self.inner.tier_of(vertex_id)

    def tiers(self) -> dict[str, StorageTier]:
        return self.inner.tiers()

    def statistics(self) -> dict[str, Any]:
        return self.inner.statistics()


class TimedReuse:
    """``reuse_algorithm=`` proxy: a span around ``plan``."""

    def __init__(self, inner: Any, log: SpanLog):
        self.inner = inner
        self.name = inner.name
        self._log = log

    def plan(self, workload: Any, eg: Any) -> Any:
        with self._log.span("reuse.plan"):
            return self.inner.plan(workload, eg)


class TimedMaterializer(Materializer):
    """Materializer proxy: a span around ``select``."""

    def __init__(self, inner: Materializer, log: SpanLog):
        super().__init__(inner.budget_bytes)
        self.inner = inner
        self.name = inner.name
        self._log = log

    def select(self, eg: Any, available: Mapping[str, Any]) -> set[str]:
        with self._log.span("materialization.select"):
            return self.inner.select(eg, available)


class TimedService:
    """Service proxy: spans ``<layer>.plan`` / ``<layer>.commit``.

    Wraps an ``EGService`` (layer ``service``) or a
    ``ProcessShardCoordinator`` (layer ``shard``); everything but the two
    request methods passes straight through.
    """

    def __init__(self, inner: Any, log: SpanLog, layer: str):
        self._inner = inner
        self._log = log
        self._layer = layer

    def plan(self, session_id: str, workload: Any) -> Any:
        with self._log.span(f"{self._layer}.plan"):
            return self._inner.plan(session_id, workload)

    def commit(self, session_id: str, executed: Any, label: str = "", **kwargs: Any) -> Any:
        with self._log.span(f"{self._layer}.commit"):
            return self._inner.commit(session_id, executed, label=label, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TimedPool:
    """``pool=`` proxy: a span ``transport.<op>_rtt`` around each request."""

    def __init__(self, inner: Any, log: SpanLog):
        self._inner = inner
        self._log = log

    def request(self, message: dict[str, Any], timeout_s: float | None = None) -> Any:
        with self._log.span(f"transport.{message['op']}_rtt"):
            return self._inner.request(message, timeout_s=timeout_s)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# The traced client: the five steps, a span around each
# ----------------------------------------------------------------------
class _Channel:
    """How a traced client reaches the service; counts its retries."""

    def __init__(self, retry_policy: Any):
        self.retry_policy = retry_policy
        self.retries = 0

    def _with_backoff(self, call: Callable[[], Any]) -> Any:
        """The program clients' retry loop: back off while the service is
        overloaded (admission sheds included), give up after the policy's
        attempts."""
        attempt = 0
        while True:
            try:
                return call()
            except ServiceOverloadedError:
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.retries += 1
                time.sleep(self.retry_policy.backoff(attempt))


class ServiceChannel(_Channel):
    """Plan/commit by direct calls (inline ``EGService`` or coordinator)."""

    def __init__(self, service: Any, session_id: str, retry_policy: Any):
        super().__init__(retry_policy)
        self.service = service
        self.session_id = session_id

    def plan(self, workload: Any) -> tuple[ReusePlan, Any, list, Callable[[], None]]:
        plan = self.service.plan(self.session_id, workload)
        return plan.result.plan, plan.eg, plan.result.warmstarts, plan.release

    def commit(self, workload: Any, label: str) -> None:
        self._with_backoff(
            lambda: self.service.commit(self.session_id, workload, label=label)
        )


class WireChannel(_Channel):
    """Plan/commit over the transport, as ``TransportServiceClient`` does."""

    def __init__(self, client: Any, log: SpanLog):
        super().__init__(client.retry_policy)
        self.client = client
        self.log = log

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        return self._with_backoff(lambda: self.client.request(message))

    def plan(self, workload: Any) -> tuple[ReusePlan, Any, list, Callable[[], None]]:
        with self.log.span("transport.plan_encode"):
            encoded = encode_workload(workload, include_payloads=False)
        planned = self._request(
            {
                "op": "plan",
                "session_id": self.client.session_id,
                "tenant": self.client.session_name,
                "workload": encoded,
            }
        )
        with self.log.span("client.plan_decode"):
            stub = _SnapshotStubEG()
            plan = ReusePlan(algorithm=planned["algorithm"])
            plan.estimated_cost = planned["estimated_cost"]
            for record in planned["loads"]:
                stub.add_load(record)
                plan.loads.add(record["vertex_id"])
        return plan, stub, [], lambda: None

    def commit(self, workload: Any, label: str) -> None:
        with self.log.span("transport.wire_encode"):
            encoded = encode_workload(workload, include_payloads=True)
        self._request(
            {
                "op": "commit",
                "session_id": self.client.session_id,
                "tenant": self.client.session_name,
                "label": label,
                "urgent": self.client.urgent_commits,
                "workload": encoded,
            }
        )


class TracedClient:
    """Same call sequence as the program's ``run_workspace`` methods."""

    def __init__(self, log: SpanLog, executor: Any, cost_model: Any, channel: Any):
        self.log = log
        self.executor = executor
        self.cost_model = cost_model
        self.channel = channel
        #: the last executed DAGs (payloads attached), for the layer probes
        self.captured: deque[Any] = deque(maxlen=CAPTURED_DAGS)

    def run_script(
        self, script: Callable, sources: Mapping[str, Any], label: str = ""
    ) -> ExecutionReport:
        log = self.log
        with log.span("client.workload", script=label):
            with log.span("client.parse"):
                workspace = parse_workload(script, sources, cost_model=self.cost_model)
            workload = workspace.dag
            with log.span("client.prune"):
                prune_workload(workload)
            plan, eg, warmstarts, release = self.channel.plan(workload)
            try:
                with log.span("client.execute"):
                    report = self.executor.execute(
                        workload, plan=plan, eg=eg, warmstarts=warmstarts
                    )
            finally:
                release()
            self.channel.commit(workload, label)
        self.captured.append(workload)
        return report
