"""Baseline schedulers to compare Algorithm 1 against.

Three comparators frame the greedy reordering heuristic:

- :func:`arrival_order` — vanilla Fabric's behaviour: no reordering at
  all; the within-block validation rule decides who survives.
- :func:`optimal_reorder` — exhaustive search for the *largest* subset of
  transactions whose conflict graph is acyclic (the abort-minimal
  schedule). Exponential, only usable on small blocks; the quality
  ceiling in the scheduler ablation bench.
- :func:`bcc_reorder` — a within-block adaptation of BCC's "move the
  commit back to the begin time" idea (Yuan et al., VLDB 2016; the
  paper's related work [28]): a transaction that conflicts with already
  committed transactions may still commit *before* all of them if none of
  them read or wrote anything it writes. The paper argues this recovers
  strictly less than full reordering — the bench quantifies that.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

from repro.core.conflict_graph import build_conflict_graph
from repro.core.reorder import ReorderResult, _build_schedule, wall_clock_seconds
from repro.graphalgo import is_acyclic


def arrival_order(count: int) -> List[int]:
    """The identity schedule: transactions in arrival order."""
    return list(range(count))


def optimal_reorder(rwsets: Sequence, max_transactions: int = 16) -> ReorderResult:
    """Abort-minimal reordering by exhaustive subset search.

    Finds a maximum subset of transactions whose induced conflict graph
    is acyclic and returns a serializable schedule over it. Complexity is
    exponential (maximum induced acyclic subgraph is NP-hard), so inputs
    larger than ``max_transactions`` are rejected.
    """
    n = len(rwsets)
    if n > max_transactions:
        raise ValueError(
            f"optimal_reorder is exponential; refusing n={n} > {max_transactions}"
        )
    started = wall_clock_seconds()
    graph = build_conflict_graph(rwsets)
    if is_acyclic(graph):
        best = list(range(n))
    else:
        best = []
        found = False
        for size in range(n - 1, 0, -1):
            for subset in combinations(range(n), size):
                if is_acyclic(graph.subgraph(subset)):
                    best = list(subset)
                    found = True
                    break
            if found:
                break
    survivors = set(best)
    aborted = [i for i in range(n) if i not in survivors]
    return ReorderResult(
        schedule=_build_schedule(graph, set(aborted)),
        aborted=aborted,
        cycles_found=0,
        elapsed_seconds=wall_clock_seconds() - started,
    )


def bcc_reorder(rwsets: Sequence) -> Tuple[List[int], List[int]]:
    """BCC-style rescue: retro-date conflicting commits to their begin.

    Processes transactions in arrival order against the within-block
    validation rule. A transaction that would abort (it read a key an
    earlier committed transaction wrote) is *rescued to the front* of the
    schedule if committing it before every already-committed transaction
    causes no conflict: nothing committed may have read or written a key
    it writes. Returns ``(schedule, aborted)``.
    """
    front: List[int] = []     # rescued transactions, committed "at begin"
    tail: List[int] = []      # normally committed transactions
    aborted: List[int] = []
    written_by_committed: set = set()
    read_by_committed: set = set()
    front_writes: set = set()

    for index, rwset in enumerate(rwsets):
        stale = any(key in written_by_committed for key in rwset.read_keys)
        if not stale:
            tail.append(index)
            written_by_committed |= set(rwset.write_keys)
            read_by_committed |= set(rwset.read_keys)
            continue
        # Try the begin-time rescue. Moving the commit to the begin time
        # must not (a) read anything an earlier-rescued transaction wrote
        # (those commit even earlier in the final order), nor (b) write
        # anything an already-committed transaction read or wrote.
        reads_front = set(rwset.read_keys) & front_writes
        writes_clash = (
            set(rwset.write_keys) & read_by_committed
            or set(rwset.write_keys) & written_by_committed
        )
        if reads_front or writes_clash:
            aborted.append(index)
            continue
        front.append(index)
        front_writes |= set(rwset.write_keys)
        # Its writes become visible "before" everyone; future readers of
        # those keys read the committed state, which now includes them.
        written_by_committed |= set(rwset.write_keys)
        read_by_committed |= set(rwset.read_keys)
    return front + tail, aborted
