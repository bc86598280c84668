"""Unit tests for Tarjan's strongly-connected-components algorithm."""

from repro.graphalgo import DiGraph, strongly_connected_components
from tests.graphalgo.condensation import condensation


def components_as_sets(graph):
    return {frozenset(c) for c in strongly_connected_components(graph)}


def test_empty_graph_has_no_components():
    assert strongly_connected_components(DiGraph()) == []


def test_single_node():
    graph = DiGraph(["a"])
    assert components_as_sets(graph) == {frozenset(["a"])}


def test_isolated_nodes_are_singletons():
    graph = DiGraph(range(4))
    assert components_as_sets(graph) == {frozenset([i]) for i in range(4)}


def test_two_cycle():
    graph = DiGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 1)
    assert components_as_sets(graph) == {frozenset([1, 2])}


def test_chain_is_all_singletons():
    graph = DiGraph()
    for i in range(5):
        graph.add_edge(i, i + 1)
    assert all(len(c) == 1 for c in strongly_connected_components(graph))


def test_cycle_of_length_n():
    n = 50
    graph = DiGraph()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    components = strongly_connected_components(graph)
    assert len(components) == 1
    assert set(components[0]) == set(range(n))


def test_two_separate_cycles():
    graph = DiGraph()
    graph.add_edge("a", "b")
    graph.add_edge("b", "a")
    graph.add_edge("x", "y")
    graph.add_edge("y", "x")
    graph.add_edge("a", "x")  # bridge, one direction only
    assert components_as_sets(graph) == {
        frozenset(["a", "b"]),
        frozenset(["x", "y"]),
    }


def test_paper_figure4_decomposition(table3):
    """The conflict graph of Table 3 splits into {T0,T1,T3}, {T2,T4}, {T5}."""
    from repro.core.conflict_graph import build_conflict_graph

    graph = build_conflict_graph(table3)
    assert components_as_sets(graph) == {
        frozenset([0, 1, 3]),
        frozenset([2, 4]),
        frozenset([5]),
    }


def test_nested_scc_structure():
    # Two SCCs connected by a one-way edge: {0,1,2} -> {3,4}
    graph = DiGraph()
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(2, 0)
    graph.add_edge(2, 3)
    graph.add_edge(3, 4)
    graph.add_edge(4, 3)
    assert components_as_sets(graph) == {frozenset([0, 1, 2]), frozenset([3, 4])}


def test_components_partition_nodes():
    graph = DiGraph()
    for i in range(20):
        graph.add_edge(i, (i * 7 + 3) % 20)
    components = strongly_connected_components(graph)
    seen = [node for component in components for node in component]
    assert sorted(seen) == sorted(graph.nodes())
    assert len(seen) == len(set(seen))


def test_deep_chain_no_recursion_error():
    """The iterative implementation must survive very deep graphs."""
    graph = DiGraph()
    n = 50_000
    for i in range(n):
        graph.add_edge(i, i + 1)
    components = strongly_connected_components(graph)
    assert len(components) == n + 1


def test_condensation_is_acyclic():
    from repro.graphalgo import is_acyclic

    graph = DiGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 1)
    graph.add_edge(2, 3)
    graph.add_edge(3, 4)
    graph.add_edge(4, 3)
    cond = condensation(graph)
    assert len(cond) == 2
    assert is_acyclic(cond)
    assert cond.has_edge(frozenset([1, 2]), frozenset([3, 4]))


def test_condensation_no_self_edges():
    graph = DiGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 1)
    cond = condensation(graph)
    node = frozenset([1, 2])
    assert not cond.has_edge(node, node)
