"""Tests for the client-side local pruner."""

import pytest

from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation


class Op(DataOperation):
    def __init__(self, tag):
        super().__init__("op", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


from repro.graph.pruning import prune_workload  # noqa: E402


@pytest.fixture
def diamond():
    """source -> a -> terminal, plus a dead branch source -> b."""
    dag = WorkloadDAG()
    src = dag.add_source("s", payload=0)
    a = dag.add_operation([src], Op("a"))
    b = dag.add_operation([src], Op("b"))
    dag.mark_terminal(a)
    return dag, src, a, b


class TestPruning:
    def test_dead_branch_deactivated(self, diamond):
        dag, src, a, b = diamond
        pruned = prune_workload(dag)
        assert pruned == 1
        assert not dag.edge_active(src, b)
        assert dag.edge_active(src, a)

    def test_edges_not_removed(self, diamond):
        dag, src, _a, b = diamond
        prune_workload(dag)
        # still present, just inactive
        assert (src, b) in [(s, d) for s, d, _edge in dag.edges()]

    def test_computed_endpoint_deactivated(self, diamond):
        dag, src, a, _b = diamond
        dag.vertex(a).record_result(1, compute_time=0.0)
        prune_workload(dag)
        assert not dag.edge_active(src, a)

    def test_requires_terminals(self):
        dag = WorkloadDAG()
        dag.add_source("s")
        with pytest.raises(ValueError, match="terminal"):
            prune_workload(dag)

    def test_reactivation_after_invalidation(self, diamond):
        dag, src, a, _b = diamond
        dag.set_edge_active(src, a, False)
        prune_workload(dag)
        assert dag.edge_active(src, a)

    def test_interactive_growth(self, diamond):
        """Extending the DAG after pruning re-evaluates edge activity."""
        dag, src, a, b = diamond
        prune_workload(dag)
        c = dag.add_operation([b], Op("c"))
        dag.mark_terminal(c)
        prune_workload(dag)
        assert dag.edge_active(src, b)
        assert dag.edge_active(b, c)

    def test_multi_terminal_keeps_both_paths(self, diamond):
        dag, src, a, b = diamond
        dag.mark_terminal(b)
        assert prune_workload(dag) == 0
        assert dag.edge_active(src, a) and dag.edge_active(src, b)

    def test_terminals_sharing_ancestors(self):
        """s -> a -> {b -> t1, c -> t2}, a dead branch off ``a`` and one off
        the source: the shared prefix stays active, only dead edges go."""
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=0)
        a = dag.add_operation([src], Op("a"))
        b = dag.add_operation([a], Op("b"))
        c = dag.add_operation([a], Op("c"))
        t1 = dag.add_operation([b], Op("t1"))
        t2 = dag.add_operation([c], Op("t2"))
        dead_mid = dag.add_operation([a], Op("dead_mid"))
        dead_src = dag.add_operation([src], Op("dead_src"))
        dag.mark_terminal(t1)
        dag.mark_terminal(t2)

        assert prune_workload(dag) == 2
        inactive = {
            (s, d) for s, d, _edge in dag.edges() if not dag.edge_active(s, d)
        }
        assert inactive == {(a, dead_mid), (src, dead_src)}
        # a second pass changes nothing
        assert prune_workload(dag) == 0

    def test_terminal_that_is_an_ancestor_of_another(self, diamond):
        dag, src, a, _b = diamond
        deeper = dag.add_operation([a], Op("deeper"))
        dag.mark_terminal(deeper)
        assert prune_workload(dag) == 1
        assert dag.edge_active(src, a) and dag.edge_active(a, deeper)
