"""Profile summaries over finished spans: where did the time go.

:class:`ProfileReport` aggregates a set of finished spans by name and
ranks them by **self time** — a span's duration minus the time covered
by its direct children — so a fat parent that merely waits on
instrumented children does not crowd out the real hot spots.  The
executor attaches one of these to every
:class:`~repro.client.executor.ExecutionReport` when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .trace import Span, Tracer

__all__ = ["ProfileEntry", "ProfileReport"]


@dataclass(frozen=True)
class ProfileEntry:
    """Aggregated cost of one span name."""

    name: str
    count: int
    total_s: float
    self_s: float
    max_s: float


@dataclass
class ProfileReport:
    """Top-k span names by self time over one trace (or any span set)."""

    entries: list[ProfileEntry] = field(default_factory=list)
    span_count: int = 0
    total_self_s: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_spans(cls, spans: Iterable[Span], top_k: int = 10) -> "ProfileReport":
        spans = [span for span in spans if span.finished]
        child_time: dict[str, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration_s
                )

        by_name: dict[str, list[float]] = {}
        self_by_name: dict[str, list[float]] = {}
        for span in spans:
            self_s = max(0.0, span.duration_s - child_time.get(span.span_id, 0.0))
            by_name.setdefault(span.name, []).append(span.duration_s)
            self_by_name.setdefault(span.name, []).append(self_s)

        entries = [
            ProfileEntry(
                name=name,
                count=len(durations),
                total_s=sum(durations),
                self_s=sum(self_by_name[name]),
                max_s=max(durations),
            )
            for name, durations in by_name.items()
        ]
        entries.sort(key=lambda entry: (-entry.self_s, entry.name))
        return cls(
            entries=entries[:top_k],
            span_count=len(spans),
            total_self_s=sum(entry.self_s for entry in entries),
        )

    @classmethod
    def from_trace(
        cls, tracer: Tracer, root: Span, top_k: int = 10
    ) -> "ProfileReport":
        """Profile the subtree under ``root`` out of the tracer's ring."""
        spans = tracer.spans_for_trace(root.trace_id)
        keep: set[str] = {root.span_id}
        # spans finish children-first, so walk repeatedly until stable
        # (bounded: each pass either grows the set or stops)
        remaining = [s for s in spans if s.span_id not in keep]
        grew = True
        selected = [s for s in spans if s.span_id in keep]
        while grew:
            grew = False
            still: list[Span] = []
            for span in remaining:
                if span.parent_id in keep:
                    keep.add(span.span_id)
                    selected.append(span)
                    grew = True
                else:
                    still.append(span)
            remaining = still
        return cls.from_spans(selected, top_k=top_k)

    # ------------------------------------------------------------------
    def top(self, n: int = 1) -> Sequence[ProfileEntry]:
        return self.entries[:n]
