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

HM and SA share :class:`UtilityMaterializer`, which ranks nothing while the
available artifacts of positive utility all fit the budget — it decides from
per-vertex facts re-evaluated only where the EG's index reports a change —
and runs the greedy loops over :func:`compute_utilities` when it may bind.
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
    "UtilityMaterializer",
    "VertexUtility",
    "compute_utilities",
    "utility_heap",
]


class AvailableContent(Mapping[str, Any]):
    """Artifacts whose content is obtainable now, without obtaining it.

    ``in_hand`` holds the payloads computed in the batch being merged;
    ``stored`` names the vertices whose content is in ``eg``'s store.  A
    vertex in both is answered from ``in_hand``, but for a footprint the
    EG records as a byte count (:meth:`footprint`).
    """

    def __init__(
        self,
        eg: ExperimentGraph,
        in_hand: Mapping[str, Any],
        stored: Collection[str] = (),
    ):
        self._eg = eg
        self.in_hand = in_hand
        self.stored = stored

    @classmethod
    def of(cls, eg: ExperimentGraph, available: Mapping[str, Any]):
        """A caller's plain mapping wrapped: every payload in it is in hand."""
        return available if isinstance(available, cls) else cls(eg, available)

    def __contains__(self, vertex_id: object) -> bool:
        return vertex_id in self.in_hand or vertex_id in self.stored

    def __iter__(self) -> Iterator[str]:
        return iter(self.in_hand.keys() | self.stored)

    def __len__(self) -> int:
        return len(self.in_hand.keys() | self.stored)

    def __getitem__(self, vertex_id: str) -> Any:
        if vertex_id in self.in_hand:
            return self.in_hand[vertex_id]
        if vertex_id in self.stored:
            return self._eg.load(vertex_id)
        raise KeyError(vertex_id)

    def footprint(self, vertex_id: str) -> Footprint:
        """Column footprint of an available vertex.  A stored vertex whose
        EG record is a byte count (a model or an aggregate: no column ids
        a recomputation could relabel) answers from the record, without
        walking the payload; any other payload in hand is walked, and a
        stored one not in hand is read off the EG record."""
        if vertex_id in self.in_hand:
            if vertex_id in self.stored:
                recorded = self._eg.vertex(vertex_id).footprint
                if isinstance(recorded, int):
                    return recorded
            return payload_footprint(self.in_hand[vertex_id])
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


def utility_inputs(eg: ExperimentGraph) -> tuple[dict[str, float], dict[str, float]]:
    """``(C_r, p)`` for every vertex — do not mutate.  An installed
    :class:`~repro.eg.utility_index.UtilityIndex` answers from its maintained
    dicts, bit-identical by contract to the full O(graph) recompute (its
    ``cross_check`` debug flag asserts so on every pass)."""
    index = eg.utility_index
    if index is None:
        return eg.recreation_costs(), eg.potentials()
    if index.cross_check:
        index.verify()
    return index.recreation_costs(), index.potentials()


def compute_utilities(
    eg: ExperimentGraph,
    load_cost_model: LoadCostModel,
    alpha: float,
    inputs: tuple[dict[str, float], dict[str, float]] | None = None,
) -> dict[str, VertexUtility]:
    """Evaluate Equation 2 for every candidate vertex of the EG.

    Candidates are the non-source artifact vertices with known, positive
    size.  ``alpha`` weights model quality against the cost-size ratio;
    both components are normalized over the candidate set.  ``inputs`` is
    :func:`utility_inputs` of ``eg`` when the caller already has it.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    recreation, potential = inputs if inputs is not None else utility_inputs(eg)
    tiers = eg.tier_map()

    rows: list[VertexUtility] = []
    for vertex in eg.artifact_vertices():
        if vertex.is_source or vertex.size <= 0:
            continue
        pot = potential[vertex.vertex_id]
        if vertex.frequency == 0 and pot <= 0.0:
            # both utility components are zero: the row cannot be selected
            # and contributes nothing to either normalization total
            continue
        cr = recreation[vertex.vertex_id]
        rcs = vertex.frequency * cr / (vertex.size / 1e6)  # seconds per MB, per paper
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


#: terms outside ``{0} ∪ [_TINY, _HUGE]`` could zero, poison or underflow Equation 2
_TINY, _HUGE = 1e-100, 1e100


def _exact(term: float) -> bool:
    return term == 0.0 or _TINY <= term <= _HUGE


class UtilityMaterializer(Materializer):
    """What HM and SA share: Equation 2, and not ranking when nothing competes.

    Equation 2's normalisers are sums of non-negative terms that include
    the vertex's own, so ``utility(v) > 0`` is the per-vertex predicate
    ``load_cost < C_r and (alpha > 0 and p > 0 or alpha < 1 and f * C_r > 0)``.
    ``select`` keeps the set where it holds, re-evaluating the ids the EG's
    index reports changed and the few whose answer depends on the storage
    tier — every vertex when there is no index, or not the one (or not every
    change of the one) it saw last.  If its stored and in-hand members fit
    the budget, Algorithm 1 accepts them all whatever the pop order
    (docs/ALGORITHMS.md, Section 5); otherwise :meth:`greedy` ranks and the
    subclass's ``_fill`` spends the budget, until the candidates fit again.
    """

    def __init__(
        self,
        budget_bytes: float | None,
        alpha: float = 0.5,
        load_cost_model: LoadCostModel | None = None,
    ):
        super().__init__(budget_bytes)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.load_cost_model = (
            load_cost_model if load_cost_model is not None else LoadCostModel.in_memory()
        )
        #: vertices whose predicate the last ``select`` evaluated
        self.last_scored = 0
        #: selects by answer: unranked / greedy (budget may bind, a term inexact)
        self.routes = {"shortcut": 0, "budget": 0, "inexact": 0}
        self._seen: tuple[Any, int] | None = None  # (index, its drain count)
        self._crowded = False  # the last ranking's candidates: too big for the budget
        self._positive: set[str] = set()
        self._inexact: set[str] = set()
        self._tier_sensitive: set[str] = set()
        #: budget charge of each positive *stored* vertex, and their sum
        self._charges: dict[str, int] = {}
        self._stored_charge = 0

    def greedy(self, eg, available: Mapping[str, Any], inputs=None) -> set[str]:
        """The paper's strategy as written: rank every candidate, fill the budget."""
        utilities = compute_utilities(eg, self.load_cost_model, self.alpha, inputs)
        heap = utility_heap(utilities, available)
        self._crowded = self.budget_bytes is not None and self.budget_bytes < sum(
            utilities[vertex_id].size for _utility, _cost, vertex_id in heap
        )
        return self._fill(utilities, heap, AvailableContent.of(eg, available))

    def select(self, eg: ExperimentGraph, available: Mapping[str, Any]) -> set[str]:
        available = AvailableContent.of(eg, available)
        inputs, route, self.last_scored = None, "budget", 0
        # candidates that a merge ago did not fit even by logical size: rank
        # again, and look at the accumulated changes once a ranking's do
        if not self._crowded:
            inputs, stored = utility_inputs(eg), eg.stored_ids()
            self._refresh(eg, stored, *inputs)
            route = self._route(eg, stored, available)
        self.routes[route] += 1
        if route != "shortcut":
            return self.greedy(eg, available, inputs)
        chosen = self._positive.intersection(available.stored)
        chosen.update(self._positive.intersection(available.in_hand))  # both C-level
        if eg.utility_index is not None and eg.utility_index.cross_check:
            if chosen != self.greedy(eg, available, inputs):
                raise AssertionError("unranked selection diverged from the greedy loop")
        return chosen

    def _route(self, eg, stored: set[str], available: AvailableContent) -> str:
        if self._inexact or not _exact(self.alpha):
            return "inexact"
        if self.budget_bytes is None:
            return "shortcut"
        if available.stored is not stored and not stored.issuperset(available.stored):
            return "budget"  # the stored charges would not bound this caller's view
        needed = self._stored_charge + sum(
            self._charge(eg.vertex(vertex_id).size, available, vertex_id)
            for vertex_id in self._positive.intersection(available.in_hand)
        )
        return "shortcut" if needed <= self.budget_bytes else "budget"

    def _charge(self, size: int, holder: Any, vertex_id: str) -> int:
        """Upper bound on the budget a vertex takes; ``holder`` has its footprint."""
        return size

    def _refresh(self, eg, stored: set[str], recreation, potential) -> None:
        """Bring the per-vertex facts up to date with the EG."""
        index = eg.utility_index
        if index is not None and self._seen == (index, index.drains):
            dirty = index.drain_changed() | self._tier_sensitive
        else:  # every vertex is dirty
            if index is not None:
                index.drain_changed()
            self._positive, self._inexact, self._tier_sensitive = set(), set(), set()
            self._charges, self._stored_charge = {}, 0
            dirty = eg.graph.nodes
        self._seen = (index, index.drains) if index is not None else None
        self.last_scored = len(dirty)
        cost_for_tier = self.load_cost_model.cost_for_tier
        for vertex_id in dirty:
            self._stored_charge -= self._charges.pop(vertex_id, 0)
            self._positive.discard(vertex_id)
            self._inexact.discard(vertex_id)
            self._tier_sensitive.discard(vertex_id)
            vertex = eg.vertex(vertex_id)
            if vertex.is_supernode or vertex.is_source or vertex.size <= 0:
                continue
            pot = potential[vertex_id]
            if vertex.frequency == 0 and pot <= 0.0:
                continue  # not a row of compute_utilities
            cr = recreation[vertex_id]
            rcs = vertex.frequency * cr / (vertex.size / 1e6)
            if not (_exact(pot) and _exact(rcs)):
                self._inexact.add(vertex_id)
                continue
            loadable = cost_for_tier(vertex.size, StorageTier.HOT) < cr
            if loadable != (cost_for_tier(vertex.size, StorageTier.COLD) < cr):
                # loads promote and the hot budget demotes between merges
                self._tier_sensitive.add(vertex_id)
                loadable = cost_for_tier(vertex.size, eg.tier_of(vertex_id)) < cr
            if loadable and (
                (self.alpha > 0.0 and pot > 0.0) or (self.alpha < 1.0 and rcs > 0.0)
            ):
                self._positive.add(vertex_id)
                if vertex_id in stored:
                    charge = self._charge(vertex.size, eg, vertex_id)
                    self._charges[vertex_id] = charge
                    self._stored_charge += charge
