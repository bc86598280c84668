"""Property-based tests for the graph algorithms (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphalgo import (
    DiGraph,
    is_acyclic,
    simple_cycles,
    strongly_connected_components,
)
from repro.graphalgo.toposort import _topological_sort as topological_sort
from tests.graphalgo.condensation import condensation


@st.composite
def random_digraph(draw, max_nodes=12):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max(0, n - 1)),
                st.integers(min_value=0, max_value=max(0, n - 1)),
            ),
            max_size=40,
        )
    )
    graph = DiGraph(range(n))
    if n:
        for a, b in edges:
            graph.add_edge(a, b)
    return graph


@given(random_digraph())
def test_sccs_partition_the_nodes(graph):
    components = strongly_connected_components(graph)
    flat = [node for component in components for node in component]
    assert sorted(flat) == sorted(graph.nodes())


@given(random_digraph())
def test_scc_members_mutually_reachable(graph):
    def reachable(start):
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for target in graph.successors(node):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    for component in strongly_connected_components(graph):
        for a in component:
            reach = reachable(a)
            assert all(b in reach for b in component)


@given(random_digraph())
def test_condensation_is_acyclic(graph):
    assert is_acyclic(condensation(graph))


@given(random_digraph(max_nodes=8))
@settings(deadline=None)
def test_cycles_are_elementary_and_real(graph):
    for cycle in simple_cycles(graph, max_cycles=500):
        assert len(cycle) == len(set(cycle))
        for i, node in enumerate(cycle):
            assert graph.has_edge(node, cycle[(i + 1) % len(cycle)])


@given(random_digraph(max_nodes=7))
@settings(deadline=None)
def test_cycles_unique(graph):
    def canonical(cycle):
        pivot = cycle.index(min(cycle))
        return tuple(cycle[pivot:] + cycle[:pivot])

    cycles = [canonical(c) for c in simple_cycles(graph, max_cycles=2000)]
    assert len(cycles) == len(set(cycles))


@given(random_digraph(max_nodes=8))
@settings(deadline=None)
def test_no_cycles_iff_acyclic(graph):
    has_cycles = any(True for _ in simple_cycles(graph, max_cycles=1))
    assert has_cycles == (not is_acyclic(graph))


@given(random_digraph())
def test_toposort_respects_edges_when_acyclic(graph):
    if not is_acyclic(graph):
        return
    order = topological_sort(graph)
    position = {node: i for i, node in enumerate(order)}
    for a, b in graph.edges():
        assert position[a] < position[b]


@given(random_digraph(max_nodes=10))
def test_subgraph_edges_subset(graph):
    nodes = graph.nodes()[: len(graph) // 2]
    sub = graph.subgraph(nodes)
    for a, b in sub.edges():
        assert graph.has_edge(a, b)
        assert a in nodes and b in nodes
