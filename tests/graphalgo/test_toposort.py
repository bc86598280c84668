"""Unit tests for topological sorting helpers."""

import pytest

from repro.graphalgo import DiGraph, is_acyclic
from repro.graphalgo.toposort import _topological_sort as topological_sort


def test_empty_graph():
    assert topological_sort(DiGraph()) == []


def test_single_node():
    assert topological_sort(DiGraph(["a"])) == ["a"]


def test_chain_order():
    graph = DiGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 3)
    assert topological_sort(graph) == [1, 2, 3]


def test_diamond_respects_edges():
    graph = DiGraph()
    for a, b in [(1, 2), (1, 3), (2, 4), (3, 4)]:
        graph.add_edge(a, b)
    order = topological_sort(graph)
    position = {node: i for i, node in enumerate(order)}
    for a, b in graph.edges():
        assert position[a] < position[b]


def test_cycle_raises():
    graph = DiGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 1)
    with pytest.raises(ValueError):
        topological_sort(graph)


def test_self_loop_raises():
    graph = DiGraph()
    graph.add_edge("x", "x")
    with pytest.raises(ValueError):
        topological_sort(graph)


def test_is_acyclic_true():
    graph = DiGraph()
    graph.add_edge(1, 2)
    assert is_acyclic(graph)


def test_is_acyclic_false():
    graph = DiGraph()
    graph.add_edge(1, 2)
    graph.add_edge(2, 3)
    graph.add_edge(3, 1)
    assert not is_acyclic(graph)


def test_disconnected_components_all_sorted():
    graph = DiGraph()
    graph.add_edge("a", "b")
    graph.add_edge("x", "y")
    order = topological_sort(graph)
    assert set(order) == {"a", "b", "x", "y"}
    assert order.index("a") < order.index("b")
    assert order.index("x") < order.index("y")
