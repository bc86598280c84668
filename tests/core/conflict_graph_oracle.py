"""Reference oracles for ``repro.core``: the paper's all-pairs builder.

This is the conflict-graph construction exactly as the paper describes it
(and as ``repro.core.conflict_graph`` implemented it before the
key -> readers index): per-transaction bit vectors over the block's unique
keys, one bitwise AND per ordered pair. Quadratic, so it lives here as the
thing the production builder is compared against, not under ``src/``.
:func:`reorder_rebuilding_survivors` is the matching reference for
``reorder``: the driver as it was when it built the survivors' graph a
second time from their rwsets instead of taking the induced subgraph,
and breaking cycles with :func:`break_cycles_pushing_per_cycle` and
:func:`abort_residual_cycles_scanning`, the greedy and the truncation
fallback before they kept lazy heaps.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.conflict_graph import KeyUniverse
from repro.core.reorder import ReorderResult, _build_schedule
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

    aborted = break_cycles_pushing_per_cycle(cycles)
    surviving = [i for i in range(len(rwsets)) if i not in aborted]
    if truncated:
        aborted |= abort_residual_cycles_scanning(graph, surviving)
        surviving = [i for i in range(len(rwsets)) if i not in aborted]

    reduced = build_conflict_graph_all_pairs([rwsets[i] for i in surviving])
    schedule = [surviving[local] for local in _build_schedule(reduced)]
    return ReorderResult(schedule, sorted(aborted), len(cycles))


def break_cycles_pushing_per_cycle(cycles: List[Set[int]]) -> Set[int]:
    """``_break_cycles`` as it was: one heap push per member per cleared
    cycle, rather than one per member per victim.

    Implements the max-heap strategy of Algorithm 1 (lines 23-42): pop the
    transaction participating in the most cycles, clear those cycles, and
    decrement the counts of their other members. Ties break toward the
    smaller transaction index so the result is deterministic.
    """
    counts: Dict[int, int] = {}
    membership: Dict[int, List[int]] = {}
    for cycle_index, cycle in enumerate(cycles):
        for tx in cycle:
            counts[tx] = counts.get(tx, 0) + 1
            membership.setdefault(tx, []).append(cycle_index)

    # Lazy-deletion max-heap keyed by (-count, tx index).
    heap = [(-count, tx) for tx, count in counts.items()]
    heapq.heapify(heap)
    alive_cycles = len(cycles)
    cleared = [False] * len(cycles)
    aborted: Set[int] = set()

    while alive_cycles > 0:
        negative_count, tx = heapq.heappop(heap)
        if tx in aborted or counts.get(tx, 0) != -negative_count:
            continue  # stale heap entry
        if counts[tx] == 0:
            continue
        aborted.add(tx)
        for cycle_index in membership.get(tx, ()):
            if cleared[cycle_index]:
                continue
            cleared[cycle_index] = True
            alive_cycles -= 1
            for member in cycles[cycle_index]:
                if member != tx and member not in aborted:
                    counts[member] -= 1
                    heapq.heappush(heap, (-counts[member], member))
        counts[tx] = 0
    return aborted


def abort_residual_cycles_scanning(
    graph: DiGraph, surviving: List[int]
) -> Set[int]:
    """``_abort_residual_cycles`` as it was: each victim is a ``max``
    over every remaining node, not a pop from a lazy degree heap.

    A feedback-vertex-set heuristic with O(E) bookkeeping: repeatedly trim
    nodes that cannot be on a cycle (in-degree or out-degree zero), then
    remove the highest-degree remaining node, until nothing is left. The
    removed high-degree nodes are the extra aborts. Runs only when the
    ``max_cycles`` cap fired on a dense block.
    """
    keep = set(surviving)
    successors: Dict[int, Set[int]] = {}
    predecessors: Dict[int, Set[int]] = {}
    extra: Set[int] = set()
    for node in surviving:
        succ = {t for t in graph.successors(node) if t in keep and t != node}
        pred = {s for s in graph.predecessors(node) if s in keep and s != node}
        if graph.has_edge(node, node):
            # A self-conflict cannot occur (i != j in the builder), but
            # guard anyway: a self-loop is an unbreakable cycle.
            extra.add(node)
            continue
        successors[node] = succ
        predecessors[node] = pred
    for node in extra:
        for other in successors:
            successors[other].discard(node)
            predecessors[other].discard(node)

    def detach(node: int) -> None:
        for target in successors.pop(node):
            if target in predecessors:
                predecessors[target].discard(node)
        for source in predecessors.pop(node):
            if source in successors:
                successors[source].discard(node)

    trim = [
        n
        for n in successors
        if not successors[n] or not predecessors[n]
    ]
    while successors:
        while trim:
            node = trim.pop()
            if node not in successors:
                continue
            neighbours = successors[node] | predecessors[node]
            detach(node)
            for neighbour in neighbours:
                if neighbour in successors and (
                    not successors[neighbour] or not predecessors[neighbour]
                ):
                    trim.append(neighbour)
        if not successors:
            break
        victim = max(
            successors,
            key=lambda n: (len(successors[n]) + len(predecessors[n]), -n),
        )
        extra.add(victim)
        neighbours = successors[victim] | predecessors[victim]
        detach(victim)
        for neighbour in neighbours:
            if neighbour in successors and (
                not successors[neighbour] or not predecessors[neighbour]
            ):
                trim.append(neighbour)
    return extra
