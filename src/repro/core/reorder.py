"""Transaction reordering — Algorithm 1 of the paper.

Given the read/write sets of one block's transactions, produce a
serializable schedule that minimises unnecessary within-block aborts:

1. build the conflict graph (``repro.core.conflict_graph``);
2. split it into strongly connected subgraphs (Tarjan) and enumerate the
   elementary cycles within each (Johnson);
3. count, per transaction, the number of cycles it participates in;
4. greedily remove the transaction occurring in the most cycles (ties
   break toward the smaller index, keeping the algorithm deterministic)
   until no cycle survives — the removed transactions are aborted early;
5. take the now cycle-free conflict graph of the survivors and emit a
   serializable schedule by repeatedly locating a "source" (a node whose
   parents are all scheduled) walking upwards, scheduling it, then walking
   downwards — finally inverting the collected order, exactly as the
   paper's pseudo-code does.

The reordering is deliberately not abort-minimal (that would be NP-hard, as
the paper notes); it is a lightweight heuristic.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Sequence, Set

from repro.core.conflict_graph import build_conflict_graph
from repro.graphalgo.digraph import DiGraph
from repro.graphalgo.johnson import simple_cycles
from repro.graphalgo.tarjan import strongly_connected_components

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.rwset import ReadWriteSet


def wall_clock_seconds() -> float:
    """The wall-clock channel's clock source.

    Every wall-clock reading feeding :attr:`ReorderResult.elapsed_seconds`
    goes through this single function, and the field is ``compare=False``:
    wall time is reporting-only (the paper's Figures 15/16; trace span
    args) and never participates in determinism comparisons.
    """
    return time.perf_counter()


@dataclass
class ReorderResult:
    """Outcome of reordering one block.

    ``schedule`` holds the indices of the surviving transactions in final
    commit order; ``aborted`` the indices removed to break conflict
    cycles. ``elapsed_seconds`` is the wall-clock cost of the reordering
    computation itself (the quantity plotted in the paper's Figures 15
    and 16); it is *not* simulated time, and it is excluded from equality
    so two runs over the same block compare equal field-for-field.
    """

    schedule: List[int]
    aborted: List[int]
    cycles_found: int
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def num_kept(self) -> int:
        """Number of transactions that survived reordering."""
        return len(self.schedule)


def reorder(
    rwsets: Sequence["ReadWriteSet"],
    max_cycles: Optional[int] = None,
    max_cycle_nodes: Optional[int] = None,
) -> ReorderResult:
    """Run Algorithm 1 on a block's read/write sets.

    ``max_cycles`` caps how many cycles Johnson's algorithm enumerates and
    ``max_cycle_nodes`` caps the total node mass across the enumerated
    cycles (dense blocks contain exponentially many, very long cycles
    whose full enumeration adds nothing to the greedy choice). When either
    cap is hit the result is still guaranteed acyclic: after the counted
    cycles are cleared, residual cycles are broken by a linear-time
    feedback-vertex-set sweep.
    """
    started = wall_clock_seconds()
    if max_cycle_nodes is None:
        max_cycle_nodes = max(10_000, 10 * len(rwsets))

    # Step 1: conflict graph over all transactions of the block.
    graph = build_conflict_graph(rwsets)

    # Step 2: strongly connected subgraphs, then the cycles within each.
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

    # Steps 3 + 4: count cycle membership and greedily abort.
    aborted = _break_cycles(cycles)

    if truncated:
        # The cycle list was incomplete; make sure nothing cyclic survives.
        surviving = [i for i in range(len(rwsets)) if i not in aborted]
        aborted |= _abort_residual_cycles(graph, surviving)

    # Step 5: the cycle-free conflict graph is the block's graph without the
    # aborted transactions; derive the schedule from it.
    schedule = _build_schedule(graph, aborted)

    elapsed = wall_clock_seconds() - started
    return ReorderResult(
        schedule=schedule,
        aborted=sorted(aborted),
        cycles_found=len(cycles),
        elapsed_seconds=elapsed,
    )


def _break_cycles(cycles: List[Set[int]]) -> Set[int]:
    """Greedily pick transactions to abort until every cycle is broken.

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
        touched: Set[int] = set()
        for cycle_index in membership.get(tx, ()):
            if cleared[cycle_index]:
                continue
            cleared[cycle_index] = True
            alive_cycles -= 1
            for member in cycles[cycle_index]:
                if member != tx and member not in aborted:
                    counts[member] -= 1
                    touched.add(member)
        # One fresh entry per touched member, at its final count; the
        # older ones are stale and skipped above.
        for member in touched:
            heapq.heappush(heap, (-counts[member], member))
        counts[tx] = 0
    return aborted


def _abort_residual_cycles(graph: DiGraph, surviving: List[int]) -> Set[int]:
    """Fallback for truncated cycle enumeration: force acyclicity.

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

    def degree(node: int) -> int:
        return len(successors[node]) + len(predecessors[node])

    # Lazy max-heap keyed (-degree, node): degrees only fall, so an
    # entry's degree bounds its node's from above. A popped entry whose
    # degree is out of date goes back in at the current one; the first
    # that is up to date is the highest-degree node, ties to the
    # smallest index.
    by_degree = [(-degree(n), n) for n in successors]
    heapq.heapify(by_degree)
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
        while True:
            negative_degree, victim = heapq.heappop(by_degree)
            if victim not in successors:
                continue
            current = degree(victim)
            if current == -negative_degree:
                break
            heapq.heappush(by_degree, (-current, victim))
        extra.add(victim)
        neighbours = successors[victim] | predecessors[victim]
        detach(victim)
        for neighbour in neighbours:
            if neighbour in successors and (
                not successors[neighbour] or not predecessors[neighbour]
            ):
                trim.append(neighbour)
    return extra


def _build_schedule(
    graph: DiGraph, removed: AbstractSet[int] = frozenset()
) -> List[int]:
    """Derive the serializable schedule from a cycle-free conflict graph.

    The graph meant is ``graph`` without the nodes in ``removed`` (the
    aborted transactions): the subgraph the survivors induce, equal to
    the conflict graph of the survivors' rwsets. The traversal only
    compares node labels, so it walks the original indices and treats
    ``removed`` as already scheduled instead of building that subgraph.

    Follows the paper's traversal (Algorithm 1, lines 47-71): starting
    from the unscheduled node with the smallest index, walk *upwards*
    (to parents) until a node whose parents are all scheduled is found,
    schedule it, then walk *downwards* to an unscheduled child and repeat.
    The collected order is inverted at the end, so "sources" — writers —
    commit last and the readers they would invalidate commit first.
    """
    nodes = sorted(node for node in graph.nodes() if node not in removed)
    scheduled: Set[int] = set(removed)
    order: List[int] = []
    cursor = 0  # getNextNode() position

    current: Optional[int] = None
    safety = 0
    limit = max(1, len(nodes) * len(nodes) + len(nodes))
    while len(order) < len(nodes):
        safety += 1
        if safety > 4 * limit:  # pragma: no cover - guarded by acyclicity
            raise RuntimeError("schedule traversal failed to terminate")
        if current is None or current in scheduled:
            while cursor < len(nodes) and nodes[cursor] in scheduled:
                cursor += 1
            if cursor >= len(nodes):  # pragma: no cover - loop guard
                break
            current = nodes[cursor]
        # Traverse upwards to find a source.
        parent_found = False
        for parent in sorted(graph.predecessors(current)):
            if parent not in scheduled:
                current = parent
                parent_found = True
                break
        if parent_found:
            continue
        # A source: schedule it and traverse downwards.
        scheduled.add(current)
        order.append(current)
        next_node: Optional[int] = None
        for child in sorted(graph.successors(current)):
            if child not in scheduled:
                next_node = child
                break
        current = next_node
    order.reverse()
    return order
