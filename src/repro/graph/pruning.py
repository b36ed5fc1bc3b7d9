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
    predecessors = workload.graph.pred
    while frontier:
        for parent in predecessors[frontier.pop()]:
            if parent not in useful:
                useful.add(parent)
                frontier.append(parent)

    pruned = 0
    for src, dst in list(workload.graph.edges()):
        on_path = src in useful and dst in useful
        endpoint_done = workload.vertex(dst).computed
        should_be_active = on_path and not endpoint_done
        if workload.edge_active(src, dst) and not should_be_active:
            workload.set_edge_active(src, dst, False)
            pruned += 1
        elif not workload.edge_active(src, dst) and should_be_active:
            workload.set_edge_active(src, dst, True)
    return pruned
