"""Reference oracles for ``repro.core``: the paper's all-pairs builder.

This is the conflict-graph construction exactly as the paper describes it
(and as ``repro.core.conflict_graph`` implemented it before the
key -> readers index): per-transaction bit vectors over the block's unique
keys, one bitwise AND per ordered pair. Quadratic, so it lives here as the
thing the production builder is compared against, not under ``src/``.
:func:`reorder_rebuilding_survivors` is the matching reference for
``reorder``: the driver as it was when it built the survivors' graph a
second time from their rwsets instead of taking the induced subgraph.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.conflict_graph import KeyUniverse
from repro.core.reorder import (
    ReorderResult,
    _abort_residual_cycles,
    _break_cycles,
    _build_schedule,
)
from repro.fabric.rwset import ReadWriteSet
from repro.graphalgo.digraph import DiGraph
from repro.graphalgo.johnson import simple_cycles
from repro.graphalgo.tarjan import strongly_connected_components


def rwset_bitvectors(
    rwsets: Sequence[ReadWriteSet],
) -> Tuple[List[int], List[int]]:
    """Return (read_vectors, write_vectors) for ``rwsets``.

    These correspond to the paper's ``vec_r(Ti)`` and ``vec_w(Ti)``
    (Table 3 interpreted as rows of bits).
    """
    universe = KeyUniverse()
    read_vectors = [universe.bitvector(rwset.reads) for rwset in rwsets]
    write_vectors = [universe.bitvector(rwset.writes) for rwset in rwsets]
    return read_vectors, write_vectors


def build_conflict_graph_all_pairs(rwsets: Sequence[ReadWriteSet]) -> DiGraph:
    """Edge ``i -> j`` iff ``vec_w(Ti) & vec_r(Tj)`` is non-zero, ``i != j``."""
    read_vectors, write_vectors = rwset_bitvectors(rwsets)
    graph = DiGraph(range(len(rwsets)))
    for i, writes in enumerate(write_vectors):
        if not writes:
            continue
        for j, reads in enumerate(read_vectors):
            if i != j and writes & reads:
                graph.add_edge(i, j)
    return graph


def reorder_rebuilding_survivors(
    rwsets: Sequence[ReadWriteSet],
    max_cycles: Optional[int] = None,
    max_cycle_nodes: Optional[int] = None,
) -> ReorderResult:
    """``reorder`` as it was with two all-pairs graph builds per block:
    one for the block, one from the survivors' rwsets (relabelled
    ``0..k-1``) for the schedule."""
    if max_cycle_nodes is None:
        max_cycle_nodes = max(10_000, 10 * len(rwsets))
    graph = build_conflict_graph_all_pairs(rwsets)

    cycles: List[Set[int]] = []
    cycle_nodes = 0
    truncated = False
    for component in strongly_connected_components(graph):
        if len(component) <= 1:
            continue
        subgraph = graph.subgraph(component)
        budget = None if max_cycles is None else max_cycles - len(cycles)
        if (budget is not None and budget <= 0) or cycle_nodes >= max_cycle_nodes:
            truncated = True
            break
        found = 0
        for cycle in simple_cycles(subgraph, max_cycles=budget):
            cycles.append(set(cycle))
            cycle_nodes += len(cycle)
            found += 1
            if cycle_nodes >= max_cycle_nodes:
                truncated = True
                break
        if budget is not None and found >= budget:
            truncated = True

    aborted = _break_cycles(cycles)
    surviving = [i for i in range(len(rwsets)) if i not in aborted]
    if truncated:
        aborted |= _abort_residual_cycles(graph, surviving)
        surviving = [i for i in range(len(rwsets)) if i not in aborted]

    reduced = build_conflict_graph_all_pairs([rwsets[i] for i in surviving])
    schedule = [surviving[local] for local in _build_schedule(reduced)]
    return ReorderResult(schedule, sorted(aborted), len(cycles))

