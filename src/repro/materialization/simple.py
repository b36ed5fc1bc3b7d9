"""Trivial materialization strategies used as experiment endpoints.

``ALL`` stores every artifact (the paper's upper bound on reuse benefit,
Figures 6-7); ``NONE`` stores nothing (pure recomputation).
"""

from __future__ import annotations

from typing import Any, Mapping

from ..eg.graph import ExperimentGraph
from .base import AvailableContent, Materializer

__all__ = ["MaterializeAll", "MaterializeNone"]


class MaterializeAll(Materializer):
    """Store the content of every artifact whose payload is available."""

    name = "ALL"

    def __init__(self):
        super().__init__(budget_bytes=None)

    def select(self, eg: ExperimentGraph, available: Mapping[str, Any]) -> set[str]:
        # what is stored stays; only the payloads in hand need a look
        selected = {s for s in eg.source_ids if eg.is_materialized(s)}
        selected |= eg.stored_ids()
        for vertex_id in AvailableContent.of(eg, available).in_hand:
            if vertex_id not in eg:
                continue
            vertex = eg.vertex(vertex_id)
            if not (vertex.is_supernode or vertex.is_source or vertex.size <= 0):
                selected.add(vertex_id)
        return selected


class MaterializeNone(Materializer):
    """Never store artifact content (baseline: recompute everything)."""

    name = "NONE"

    def __init__(self):
        super().__init__(budget_bytes=0)

    def select(self, eg: ExperimentGraph, available: Mapping[str, Any]) -> set[str]:
        del available
        return set()
