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

from ..graph.artifacts import Footprint
from .base import UtilityMaterializer

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


class StorageAwareMaterializer(UtilityMaterializer):
    """Iterated greedy selection with column-dedup budget accounting.

    Deduplication only lowers a charge: picks whose undeduplicated
    footprints fit (:meth:`_charge`) are all kept, in one round.
    """

    name = "SA"

    def _charge(self, size, holder, vertex_id) -> int:
        full = _DedupFootprint().incremental_bytes(holder.footprint(vertex_id))
        return max(size, full)

    def _fill(self, utilities, heap, available) -> set[str]:
        selected: set[str] = set()
        footprint = _DedupFootprint()
        remaining = float("inf") if self.budget_bytes is None else float(self.budget_bytes)

        # terminates: a round commits or drops every entry it pops for
        # good, or picks nothing and breaks
        while remaining > 0.0 and heap:
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
