"""Tarjan's strongly-connected-components algorithm (iterative).

The paper's reordering mechanism (Algorithm 1, step 2) divides the conflict
graph into strongly connected subgraphs with Tarjan's algorithm [Tarjan 1972]
before enumerating cycles, because every cycle is confined to one SCC.

The implementation is iterative (explicit stack) so large blocks cannot hit
Python's recursion limit.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.graphalgo.digraph import DiGraph


def strongly_connected_components(graph: DiGraph) -> List[List[Hashable]]:
    """Return the strongly connected components of ``graph``.

    Each component is returned as a list of nodes. Components are emitted
    in reverse topological order of the condensation (Tarjan's natural
    output order), and the node order inside a component is deterministic
    for a given graph construction order.

    Runs in O(N + E).
    """
    index_of: Dict[Hashable, int] = {}
    lowlink: Dict[Hashable, int] = {}
    on_stack: Dict[Hashable, bool] = {}
    stack: List[Hashable] = []
    components: List[List[Hashable]] = []
    counter = 0

    for root in graph.nodes():
        if root in index_of:
            continue
        # Each work item is (node, iterator over successors).
        work = [(root, iter(graph.successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True

        while work:
            node, successors = work[-1]
            advanced = False
            for target in successors:
                if target not in index_of:
                    index_of[target] = lowlink[target] = counter
                    counter += 1
                    stack.append(target)
                    on_stack[target] = True
                    work.append((target, iter(graph.successors(target))))
                    advanced = True
                    break
                if on_stack.get(target, False):
                    lowlink[node] = min(lowlink[node], index_of[target])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[Hashable] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components
