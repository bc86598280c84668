"""The condensation of a digraph: a test helper for the SCC decomposition."""

from typing import Dict, Hashable

from repro.graphalgo import DiGraph, strongly_connected_components


def condensation(graph: DiGraph) -> DiGraph:
    """Return the condensation of ``graph``: one node per SCC.

    Nodes of the result are frozensets of the original nodes. The
    condensation is always acyclic; it is useful for testing the SCC
    decomposition itself.
    """
    components = strongly_connected_components(graph)
    member_of: Dict[Hashable, frozenset] = {}
    for component in components:
        key = frozenset(component)
        for node in component:
            member_of[node] = key
    result = DiGraph(frozenset(c) for c in components)
    for source, target in graph.edges():
        if member_of[source] != member_of[target]:
            result.add_edge(member_of[source], member_of[target])
    return result
