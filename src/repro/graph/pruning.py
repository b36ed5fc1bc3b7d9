"""Local pruner (paper Section 3.1, client side).

Before the client ships a workload DAG to the server, it deactivates

1. edges not on any path from a source to a terminal vertex, and
2. edges whose endpoint vertex is already computed in the client's memory
   (common in interactive notebooks, where earlier cell invocations computed
   a prefix of the DAG).

Edges are *marked inactive*, never removed — the server still sees the full
graph structure when updating the Experiment Graph.
"""

from __future__ import annotations

from .dag import WorkloadDAG

__all__ = ["prune_workload"]


def prune_workload(workload: WorkloadDAG) -> int:
    """Deactivate non-essential edges in-place; returns how many were pruned."""
    if not workload.terminals:
        raise ValueError("cannot prune a workload without terminal vertices")

    # vertices that can reach a terminal: one reverse traversal from all
    # terminals at once, so a shared ancestor is visited once
    useful: set[str] = set(workload.terminals)
    frontier = list(useful)
    while frontier:
        for parent in workload.parents(frontier.pop()):
            if parent not in useful:
                useful.add(parent)
                frontier.append(parent)

    pruned = 0
    for src, dst, edge in workload.edges():
        should_be_active = (
            src in useful and dst in useful and not workload.vertex(dst).computed
        )
        if edge.active and not should_be_active:
            pruned += 1
        edge.active = should_be_active
    return pruned
