"""From-scratch directed-graph algorithms used by the Fabric++ orderer.

The reordering mechanism of the paper (Section 5.1, Algorithm 1) needs:

- a directed-graph container (:class:`DiGraph`),
- Tarjan's strongly-connected-components algorithm (:func:`strongly_connected_components`)
  to split the conflict graph into subgraphs that may contain cycles, and
- Johnson's algorithm (:func:`simple_cycles`) to enumerate the elementary
  cycles within each strongly connected subgraph.

These are implemented here without third-party dependencies so the orderer
substrate is self-contained.
"""

from repro.graphalgo.digraph import DiGraph
from repro.graphalgo.johnson import simple_cycles
from repro.graphalgo.tarjan import strongly_connected_components
from repro.graphalgo.toposort import is_acyclic

__all__ = [
    "DiGraph",
    "simple_cycles",
    "strongly_connected_components",
    "is_acyclic",
]
