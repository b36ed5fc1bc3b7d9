"""Materializer interface and shared utility computation (paper Section 5).

A materializer examines the Experiment Graph after each workload execution
and returns the *target set* of vertex ids whose content should be stored,
subject to a byte budget.  The updater then reconciles the artifact store
against that target set (storing newly selected artifacts whose payload is
at hand, evicting deselected ones).

The utility function (Equation 2 of the paper) combines the vertex's
*potential* p(v) — the quality of the best reachable ML model — with its
weighted cost-size ratio r_cs(v) = f · C_r(v) / s; vertices whose load cost
exceeds their recreation cost get zero utility and are never materialized.

What a materializer is handed as ``available`` is a ``Mapping`` from vertex
id to payload.  The updater passes an :class:`AvailableContent`: membership
and iteration are free, ``[]`` of a payload computed in the merged batch
returns what is in hand, and ``[]`` of an already-stored id *loads it from
the artifact store* — a read nothing under ``src/repro`` performs during a
merge.  Selecting needs ids, the EG's meta-data and, for the storage-aware
algorithm, column footprints (:meth:`AvailableContent.footprint`), never
content.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Collection, Iterator, Mapping

from ..eg.graph import ExperimentGraph
from ..eg.storage import LoadCostModel, StorageTier
from ..graph.artifacts import Footprint, payload_footprint

__all__ = [
    "AvailableContent",
    "Materializer",
    "VertexUtility",
    "compute_utilities",
    "utility_heap",
]


class AvailableContent(Mapping[str, Any]):
    """Artifacts whose content is obtainable now, without obtaining it.

    ``in_hand`` holds the payloads computed in the batch being merged;
    ``stored`` names the vertices whose content is in ``eg``'s store.  A
    vertex in both is answered from ``in_hand``.
    """

    def __init__(
        self,
        eg: ExperimentGraph,
        in_hand: Mapping[str, Any],
        stored: Collection[str] = (),
    ):
        self._eg = eg
        self._in_hand = in_hand
        self._stored = stored

    def __contains__(self, vertex_id: object) -> bool:
        return vertex_id in self._in_hand or vertex_id in self._stored

    def __iter__(self) -> Iterator[str]:
        return iter(self._in_hand.keys() | self._stored)

    def __len__(self) -> int:
        return len(self._in_hand.keys() | self._stored)

    def __getitem__(self, vertex_id: str) -> Any:
        if vertex_id in self._in_hand:
            return self._in_hand[vertex_id]
        if vertex_id in self._stored:
            return self._eg.load(vertex_id)
        raise KeyError(vertex_id)

    def footprint(self, vertex_id: str) -> Footprint:
        """Column footprint of an available vertex: computed from a payload
        in hand, read off the EG record for a stored one."""
        if vertex_id in self._in_hand:
            return payload_footprint(self._in_hand[vertex_id])
        return self._eg.footprint(vertex_id)


@dataclass
class VertexUtility:
    """Inputs and output of the utility function for one vertex."""

    vertex_id: str
    potential: float
    recreation_cost: float
    load_cost: float
    cost_size_ratio: float
    size: int
    utility: float


def compute_utilities(
    eg: ExperimentGraph,
    load_cost_model: LoadCostModel,
    alpha: float,
    candidate_ids: set[str] | None = None,
) -> dict[str, VertexUtility]:
    """Evaluate Equation 2 for every candidate vertex of the EG.

    Candidates default to every non-source artifact vertex with known,
    positive size.  ``alpha`` weights model quality against the cost-size
    ratio; both components are normalized over the candidate set.

    When the EG carries an installed
    :class:`~repro.eg.utility_index.UtilityIndex`, the maintained
    recreation costs and potentials are used instead of a full O(graph)
    recompute; the two are bit-identical by contract (and the index's
    ``cross_check`` debug flag asserts so on every pass).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    index = eg.utility_index
    if index is not None:
        if index.cross_check:
            index.verify()
        recreation = index.recreation_costs()
        potential = index.potentials()
    else:
        recreation = eg.recreation_costs()
        potential = eg.potentials()
    tiers = eg.tier_map()

    rows: list[VertexUtility] = []
    for vertex in eg.artifact_vertices():
        if candidate_ids is not None and vertex.vertex_id not in candidate_ids:
            continue
        if candidate_ids is None and (vertex.is_source or vertex.size <= 0):
            continue
        pot = potential[vertex.vertex_id]
        if candidate_ids is None and vertex.frequency == 0 and pot <= 0.0:
            # both utility components are zero: the row cannot be selected
            # and contributes nothing to either normalization total
            continue
        cr = recreation[vertex.vertex_id]
        size = max(vertex.size, 1)
        rcs = vertex.frequency * cr / (size / 1e6)  # seconds per MB, per paper
        # materialized vertices are priced at the tier they currently occupy
        # (a demoted artifact loads at disk speed); candidates for *new*
        # materialization land in the hot tier, which absent store entries
        # default to (matching tier_of)
        rows.append(
            VertexUtility(
                vertex_id=vertex.vertex_id,
                potential=pot,
                recreation_cost=cr,
                load_cost=load_cost_model.cost_for_tier(
                    vertex.size, tiers.get(vertex.vertex_id, StorageTier.HOT)
                ),
                cost_size_ratio=rcs,
                size=vertex.size,
                utility=0.0,
            )
        )

    total_potential = sum(r.potential for r in rows)
    total_rcs = sum(r.cost_size_ratio for r in rows)
    for row in rows:
        if row.load_cost >= row.recreation_cost:
            row.utility = 0.0
            continue
        p_norm = row.potential / total_potential if total_potential > 0 else 0.0
        r_norm = row.cost_size_ratio / total_rcs if total_rcs > 0 else 0.0
        row.utility = alpha * p_norm + (1.0 - alpha) * r_norm
    return {row.vertex_id: row for row in rows}


def utility_heap(
    utilities: Mapping[str, VertexUtility], available: Mapping[str, Any]
) -> list[tuple[float, float, str]]:
    """Max-heap of available positive-utility candidates.

    Entries are ``(-utility, -recreation_cost, vertex_id)``: equal
    utilities (e.g. a model and its ancestors under alpha=1) prefer the
    costliest to recreate, then the vertex id for determinism.  Shared by
    the greedy (HM) and storage-aware (SA) materializers.
    """
    heap = [
        (-row.utility, -row.recreation_cost, vertex_id)
        for vertex_id, row in utilities.items()
        if vertex_id in available and row.utility > 0.0
    ]
    heapq.heapify(heap)
    return heap


class Materializer:
    """Strategy deciding which artifact contents to keep, given a budget."""

    #: human-readable name used in experiment output ("HM", "SA", "HL", ...)
    name: str = "base"

    def __init__(self, budget_bytes: float | None):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget must be non-negative")
        self.budget_bytes = budget_bytes

    def select(
        self, eg: ExperimentGraph, available: Mapping[str, Any]
    ) -> set[str]:
        """Return the target set of materialized vertex ids.

        ``available`` maps vertex id to payload for every artifact whose
        content is currently obtainable (just computed, or already stored);
        a materializer must only select vertices from this mapping.  Test
        membership, do not dereference: see the module docstring.
        """
        raise NotImplementedError
