"""Topological ordering helpers for the conflict graph.

The schedule built by Algorithm 1 must respect every edge Tj -> Ti of the
cycle-free conflict graph ("Ti must be ordered after Tj"). These helpers
provide a Kahn topological sort and an acyclicity check used both as a
fallback correctness oracle in tests and by property-based invariants.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, List

from repro.graphalgo.digraph import DiGraph


def _topological_sort(graph: DiGraph) -> List[Hashable]:
    """Return a topological ordering of ``graph`` (Kahn's algorithm).

    Raises ``ValueError`` if the graph contains a cycle.
    """
    in_degree = {node: graph.in_degree(node) for node in graph}
    ready = deque(node for node, degree in in_degree.items() if degree == 0)
    order: List[Hashable] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for target in graph.successors(node):
            in_degree[target] -= 1
            if in_degree[target] == 0:
                ready.append(target)
    if len(order) != len(graph):
        raise ValueError("graph contains a cycle; no topological order exists")
    return order


def is_acyclic(graph: DiGraph) -> bool:
    """Return True if ``graph`` contains no directed cycle."""
    try:
        _topological_sort(graph)
    except ValueError:
        return False
    return True
