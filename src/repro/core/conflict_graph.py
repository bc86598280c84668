"""Conflict-graph construction from read/write sets (Algorithm 1, step 1).

Ti conflicts into Tj (edge Ti -> Tj) iff Ti writes a key that Tj reads.
The paper finds these pairs with per-transaction bit vectors over the
block's unique keys and one bitwise AND per ordered pair — quadratic in
the block size, cheap in Go. Here the same edge set comes from a
key -> readers index in time linear in the block's reads, writes and
edges; the all-pairs bit-vector builder is kept as the reference oracle in
``tests/core/conflict_graph_oracle.py``. :class:`KeyUniverse` (keys as bit
positions) still serves the batch cutter's unique-key bound and the
validation dependency graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.graphalgo.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.rwset import ReadWriteSet


class KeyUniverse:
    """Maps the keys touched by a block to bit positions.

    The same universe also answers "how many unique keys so far" — the
    quantity bounded by Fabric++'s extra batch-cutting criterion.
    """

    def __init__(self) -> None:
        self._positions: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def position(self, key: str) -> int:
        """Return the bit position for ``key``, assigning one if new."""
        pos = self._positions.get(key)
        if pos is None:
            pos = len(self._positions)
            self._positions[key] = pos
        return pos

    def bitvector(self, keys) -> int:
        """Encode an iterable of keys as an integer bit vector."""
        vector = 0
        for key in keys:
            vector |= 1 << self.position(key)
        return vector


def build_conflict_graph(rwsets: Sequence["ReadWriteSet"]) -> DiGraph:
    """Build the conflict graph of a block's transactions.

    Nodes are the transaction indices ``0..len(rwsets)-1``; an edge
    ``i -> j`` means transaction ``i`` writes a key that transaction ``j``
    reads, so any serializable schedule must place ``j`` before ``i``.
    A transaction's conflict with itself (reading a key it also writes) is
    not an edge — the paper only considers pairs with ``j != i``.

    Only point reads (``rwset.reads``) count. Keys observed by a range
    scan do not create edges: the orderer cannot reorder around them, and
    validation's re-executed scan aborts the reader if they changed.

    Edges are inserted writer by writer in index order, each writer's
    readers in ascending order, so adjacency iteration (which cycle
    enumeration and hence the abort choice depend on) is the same as with
    a scan over all ordered pairs.
    """
    readers: Dict[str, List[int]] = {}
    for j, rwset in enumerate(rwsets):
        for key in rwset.reads:
            readers.setdefault(key, []).append(j)
    graph = DiGraph(range(len(rwsets)))
    for i, rwset in enumerate(rwsets):
        targets = set()
        for key in rwset.writes:
            targets.update(readers.get(key, ()))
        targets.discard(i)
        for j in sorted(targets):
            graph.add_edge(i, j)
    return graph


def _writes_into_ranges(writer: "ReadWriteSet", reader: "ReadWriteSet") -> bool:
    """True if any of ``writer``'s written keys falls inside one of
    ``reader``'s scanned ranges (phantom territory).

    The scan's *result keys* are already covered by key-intersection
    tests; this catches inserts of keys the scan did **not** observe but
    whose bounds it covers — exactly the phantoms the validation phase
    re-executes scans to detect.
    """
    if not reader.range_reads or not writer.writes:
        return False
    for range_read in reader.range_reads:
        for key in writer.writes:
            if key < range_read.start_key:
                continue
            if range_read.end_key is not None and key >= range_read.end_key:
                continue
            return True
    return False


def build_validation_dependencies(rwsets: Sequence["ReadWriteSet"]) -> DiGraph:
    """Build the intra-block dependency graph for parallel validation.

    Nodes are transaction indices in block order; an edge ``i -> j``
    (always ``i < j``) means transaction ``j``'s MVCC check/commit must
    wait for ``i``'s. Unlike :func:`build_conflict_graph` (which only
    needs write->read pairs to reorder), a *scheduler* must respect every
    hazard of the sequential validator's semantics:

    - true dependency: ``i`` writes a key ``j`` reads (point read or a
      key in a range-scan result) — ``j``'s version check must see ``i``'s
      pending write;
    - output dependency: ``i`` and ``j`` write the same key — last write
      (block order) must win in the store;
    - anti dependency: ``i`` reads a key ``j`` writes — ``j``'s write must
      not be visible to ``i``'s check;
    - phantom coverage, both directions: a write landing inside the
      other's scanned range changes that scan's re-execution.

    Edges only point from lower to higher index, so the graph is acyclic
    by construction and block order is always a valid topological order.
    """
    universe = KeyUniverse()
    read_vectors = [universe.bitvector(rwset.read_keys) for rwset in rwsets]
    write_vectors = [universe.bitvector(rwset.writes) for rwset in rwsets]
    graph = DiGraph(range(len(rwsets)))
    for j in range(len(rwsets)):
        for i in range(j):
            if (
                write_vectors[i] & (read_vectors[j] | write_vectors[j])
                or read_vectors[i] & write_vectors[j]
                or _writes_into_ranges(rwsets[i], rwsets[j])
                or _writes_into_ranges(rwsets[j], rwsets[i])
            ):
                graph.add_edge(i, j)
    return graph


def dependency_waves(graph: DiGraph) -> List[List[int]]:
    """Group a validation dependency graph into topological waves.

    Wave ``w`` holds the transactions whose longest dependency chain has
    exactly ``w`` predecessors; every transaction in a wave is
    independent of the others in the same wave, so a scheduler may
    validate a whole wave concurrently and commit waves in order. The
    number of waves is the block's critical-path length — the lower bound
    on sequential MVCC steps no amount of parallelism can beat. Requires
    edges to point from lower to higher node (as
    :func:`build_validation_dependencies` guarantees); within a wave,
    transactions keep ascending block order.
    """
    levels: Dict[int, int] = {}
    waves: List[List[int]] = []
    for node in sorted(graph.nodes()):
        level = 0
        for pred in graph.predecessors(node):
            level = max(level, levels[pred] + 1)
        levels[node] = level
        if level == len(waves):
            waves.append([])
        waves[level].append(node)
    return waves


def schedule_is_serializable(
    rwsets: Sequence["ReadWriteSet"], schedule: Sequence[int]
) -> bool:
    """Check that ``schedule`` respects every conflict among its members.

    For every pair of scheduled transactions with an edge ``i -> j``
    (i writes what j reads), ``j`` must appear before ``i``. This is the
    correctness oracle used by the test-suite's property-based tests.
    """
    position = {tx: pos for pos, tx in enumerate(schedule)}
    graph = build_conflict_graph(rwsets)
    for i, j in graph.edges():
        if i in position and j in position and position[j] > position[i]:
            return False
    return True
