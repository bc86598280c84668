"""Property-based tests for the reordering mechanism (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict_graph import build_conflict_graph, schedule_is_serializable
from repro.core.early_abort import filter_stale_within_block
from repro.core.reorder import _abort_residual_cycles, _break_cycles, reorder
from repro.fabric.rwset import ReadWriteSet
from repro.graphalgo import is_acyclic
from repro.graphalgo.digraph import DiGraph
from repro.ledger.state_db import Version
from tests.conftest import count_valid_in_order
from tests.core.conflict_graph_oracle import (
    abort_residual_cycles_scanning,
    break_cycles_pushing_per_cycle,
    reorder_rebuilding_survivors,
)

KEYS = [f"k{i}" for i in range(8)]


@st.composite
def random_rwset(draw):
    reads = draw(st.lists(st.sampled_from(KEYS), max_size=4, unique=True))
    writes = draw(st.lists(st.sampled_from(KEYS), max_size=4, unique=True))
    version = Version(draw(st.integers(min_value=1, max_value=3)), 0)
    result = ReadWriteSet()
    for key in reads:
        result.record_read(key, version)
    for key in writes:
        result.record_write(key, f"v-{key}")
    return result


random_block = st.lists(random_rwset(), max_size=14)


@given(random_block)
@settings(deadline=None)
def test_schedule_plus_aborted_partition_input(block):
    result = reorder(block)
    assert sorted(result.schedule + result.aborted) == list(range(len(block)))


@given(random_block)
@settings(deadline=None)
def test_schedule_always_serializable(block):
    result = reorder(block)
    assert schedule_is_serializable(block, result.schedule)


@given(random_block)
@settings(deadline=None)
def test_survivor_conflict_graph_acyclic(block):
    result = reorder(block)
    survivors = [block[i] for i in result.schedule]
    assert is_acyclic(build_conflict_graph(survivors))


@given(random_block)
@settings(deadline=None)
def test_all_scheduled_transactions_would_commit(block):
    """Key end-to-end property: replaying the schedule through Fabric's
    within-block validation rule commits every scheduled transaction.

    Within one block every read version matches the pre-block state by
    construction here (single version per key), so staleness can only
    come from within-block write ordering — which reordering eliminates.
    """
    uniform = []
    for rwset in block:
        clone = ReadWriteSet()
        for key in rwset.reads:
            clone.record_read(key, Version(1, 0))
        for key, value in rwset.writes.items():
            clone.record_write(key, value)
        uniform.append(clone)
    result = reorder(uniform)
    assert count_valid_in_order(uniform, result.schedule) == len(result.schedule)


@given(random_block)
@settings(deadline=None)
def test_reordering_never_worse_when_conflict_graph_acyclic(block):
    """On cycle-free blocks, reordering commits *everything* — always at
    least as much as arrival order.

    (On cyclic blocks the paper's greedy heuristic carries no such
    guarantee — see test_greedy_can_lose_to_arrival_order_on_cliques.)
    """
    uniform = []
    for rwset in block:
        clone = ReadWriteSet()
        for key in rwset.reads:
            clone.record_read(key, Version(1, 0))
        for key, value in rwset.writes.items():
            clone.record_write(key, value)
        uniform.append(clone)
    if not is_acyclic(build_conflict_graph(uniform)):
        return
    arrival = count_valid_in_order(uniform, range(len(uniform)))
    result = reorder(uniform)
    assert result.aborted == []
    assert len(result.schedule) == len(uniform) >= arrival


def test_greedy_can_lose_to_arrival_order_on_cliques():
    """Documented non-guarantee: Algorithm 1 greedily breaks cycles by
    cycle-participation count and can abort more transactions than the
    arrival order loses on dense conflict cliques. The paper concedes the
    heuristic is not abort-minimal (NP-hard); this regression test pins
    the behaviour so a future 'fix' is a conscious trade-off.
    """
    v = Version(1, 0)

    def make(reads, writes):
        clone = ReadWriteSet()
        for key in reads:
            clone.record_read(key, v)
        for key in writes:
            clone.record_write(key, f"v-{key}")
        return clone

    block = (
        [make(["k0"], ["k1"])]
        + [make(["k0", "k1"], ["k0"]) for _ in range(2)]
        + [make(["k0"], ["k0"])]
        + [make(["k0", "k1"], ["k0"]) for _ in range(3)]
    )
    arrival = count_valid_in_order(block, range(len(block)))
    result = reorder(block)
    assert arrival == 2
    assert len(result.schedule) == 1  # greedy keeps only one here


@given(
    random_block,
    st.none() | st.integers(min_value=1, max_value=5),
    st.none() | st.integers(min_value=1, max_value=12),
)
@settings(deadline=None)
def test_reorder_equals_reference_rebuilding_survivor_graph(block, cap, node_cap):
    """``reorder`` takes the survivors' graph as an induced subgraph of
    the block's graph (original labels); the reference builds the block's
    graph from all ordered pairs and the survivors' graph again from
    their rwsets, relabelled. Same result, with and without the caps
    (whose truncation makes the abort choice depend on cycle order)."""
    assert reorder(block, cap, node_cap) == reorder_rebuilding_survivors(
        block, cap, node_cap
    )


@st.composite
def dense_rwset(draw):
    """Reads and writes over three keys: blocks full of long cycles."""
    result = ReadWriteSet()
    for key in draw(st.lists(st.sampled_from(KEYS[:3]), min_size=1, unique=True)):
        result.record_read(key, Version(1, 0))
    for key in draw(st.lists(st.sampled_from(KEYS[:3]), min_size=1, unique=True)):
        result.record_write(key, f"v-{key}")
    return result


@given(
    st.lists(dense_rwset(), min_size=6, max_size=18),
    st.integers(min_value=1, max_value=3),
)
@settings(deadline=None)
def test_truncated_reorder_equals_the_scanning_fallback(block, cap):
    """A cap of a few cycles on a dense block always truncates
    enumeration, so the residual-cycle fallback decides most aborts;
    the lazy degree heap picks the same victims as a scan would."""
    assert reorder(block, max_cycles=cap) == reorder_rebuilding_survivors(
        block, max_cycles=cap
    )


@st.composite
def random_digraph(draw):
    nodes = range(draw(st.integers(min_value=1, max_value=24)))
    graph = DiGraph(nodes)
    node = st.sampled_from(nodes)
    for source, target in draw(st.lists(st.tuples(node, node))):
        if source != target:
            graph.add_edge(source, target)
    return graph, sorted(draw(st.lists(node, unique=True)))


@given(random_digraph())
@settings(deadline=None)
def test_residual_cycle_fallback_equals_the_scanning_oracle(drawn):
    graph, surviving = drawn
    extra = _abort_residual_cycles(graph, surviving)
    assert extra == abort_residual_cycles_scanning(graph, surviving)
    left = set(surviving) - extra
    assert is_acyclic(graph.subgraph(left))


@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=15), min_size=2, max_size=6),
        max_size=30,
    )
)
@settings(deadline=None)
def test_greedy_cycle_breaking_equals_the_per_cycle_push_oracle(cycles):
    aborted = _break_cycles(cycles)
    assert aborted == break_cycles_pushing_per_cycle(cycles)
    assert all(cycle & aborted for cycle in cycles)


@given(random_block, st.integers(min_value=1, max_value=5))
@settings(deadline=None)
def test_cycle_cap_preserves_serializability(block, cap):
    result = reorder(block, max_cycles=cap)
    assert schedule_is_serializable(block, result.schedule)
    assert sorted(result.schedule + result.aborted) == list(range(len(block)))


@given(random_block)
@settings(deadline=None)
def test_reorder_is_deterministic(block):
    first = reorder(block)
    second = reorder(block)
    assert first.schedule == second.schedule
    assert first.aborted == second.aborted


@given(random_block)
@settings(deadline=None)
def test_version_filter_partition(block):
    kept, aborted = filter_stale_within_block(block)
    assert sorted(kept + aborted) == list(range(len(block)))


@given(random_block)
@settings(deadline=None)
def test_version_filter_keeps_newest_readers(block):
    kept, _ = filter_stale_within_block(block)
    newest = {}
    for rwset in block:
        for key, version in rwset.reads.items():
            if key not in newest or (version is not None and (
                newest[key] is None or version > newest[key]
            )):
                newest[key] = version
    for index in kept:
        for key, version in block[index].reads.items():
            assert version == newest[key]
