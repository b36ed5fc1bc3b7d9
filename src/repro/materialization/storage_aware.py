"""Storage-aware materialization — the meta-algorithm of Section 5.3 ("SA").

Feature-engineering operations often copy most of their input columns
unchanged, so artifacts overlap heavily at column granularity.  SA
repeatedly invokes the greedy Algorithm 1, then *compresses* the chosen
artifacts with column-level deduplication, charges only the deduplicated
(physical) bytes against the budget, and re-invokes the greedy step with
the freed budget — until no new vertex is selected or the budget is spent.

Paired with :class:`~repro.eg.storage.DedupArtifactStore`, the logical
("real") size of what SA stores can exceed the physical budget severalfold
(Figure 6 of the paper).
"""

from __future__ import annotations

import heapq
from typing import Any, Mapping

from ..eg.graph import ExperimentGraph
from ..eg.storage import LoadCostModel
from ..graph.artifacts import Footprint
from .base import AvailableContent, Materializer, compute_utilities, utility_heap

__all__ = ["StorageAwareMaterializer"]


class _DedupFootprint:
    """Simulates the physical bytes of a column-deduplicating store.

    Works on :data:`~repro.graph.artifacts.Footprint` meta-data — column
    lineage ids and byte sizes — so charging a pick reads no content.
    """

    def __init__(self):
        self._column_ids: set[str] = set()

    def incremental_bytes(self, footprint: Footprint) -> int:
        """Physical bytes this artifact would add, without committing."""
        if isinstance(footprint, int):
            return footprint
        return sum(
            nbytes
            for column_id, nbytes in footprint
            if column_id not in self._column_ids
        )

    def add(self, footprint: Footprint) -> None:
        """Commit an artifact's columns."""
        if not isinstance(footprint, int):
            self._column_ids.update(column_id for column_id, _nbytes in footprint)


class StorageAwareMaterializer(Materializer):
    """Iterated greedy selection with column-dedup budget accounting."""

    name = "SA"

    def __init__(
        self,
        budget_bytes: float | None,
        alpha: float = 0.5,
        load_cost_model: LoadCostModel | None = None,
        max_rounds: int = 50,
    ):
        super().__init__(budget_bytes)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.load_cost_model = (
            load_cost_model if load_cost_model is not None else LoadCostModel.in_memory()
        )
        self.max_rounds = max_rounds

    def select(self, eg: ExperimentGraph, available: Mapping[str, Any]) -> set[str]:
        if not isinstance(available, AvailableContent):
            # a caller's plain mapping: every payload in it is in hand
            available = AvailableContent(eg, available)
        utilities = compute_utilities(eg, self.load_cost_model, self.alpha)
        heap = utility_heap(utilities, available)

        selected: set[str] = set()
        footprint = _DedupFootprint()
        remaining = float("inf") if self.budget_bytes is None else float(self.budget_bytes)

        for _round in range(self.max_rounds):
            if remaining <= 0.0 or not heap:
                break
            # one invocation of Algorithm 1 against the remaining budget,
            # using logical sizes (the greedy step is dedup-oblivious)
            round_picks: list[str] = []
            deferred: list[tuple[float, float, str]] = []
            logical_spent = 0.0
            while heap:
                neg_utility, neg_cr, vertex_id = heapq.heappop(heap)
                size = utilities[vertex_id].size
                if logical_spent + size > remaining:
                    deferred.append((neg_utility, neg_cr, vertex_id))
                    continue
                round_picks.append(vertex_id)
                logical_spent += size
            for item in deferred:
                heapq.heappush(heap, item)
            if not round_picks:
                break
            # compression step: charge only the physical (deduplicated)
            # bytes.  Each pick is re-checked against the remaining budget
            # *before* committing — the greedy step accepted it by logical
            # size, but its physical footprint depends on the columns the
            # round's earlier picks already committed, so charging after
            # the fact could drive ``remaining`` negative within a round.
            for vertex_id in round_picks:
                columns = available.footprint(vertex_id)
                physical = footprint.incremental_bytes(columns)
                if physical > remaining:
                    continue
                footprint.add(columns)
                remaining -= physical
                selected.add(vertex_id)
        return selected
