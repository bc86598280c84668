"""Unit tests for conflict-graph construction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict_graph import (
    KeyUniverse,
    build_conflict_graph,
    schedule_is_serializable,
)
from repro.fabric.rwset import RangeRead
from repro.ledger.state_db import GENESIS_VERSION
from tests.conftest import rwset
from tests.core.conflict_graph_oracle import (
    build_conflict_graph_all_pairs,
    rwset_bitvectors,
)


def test_key_universe_assigns_stable_positions():
    universe = KeyUniverse()
    assert universe.position("a") == 0
    assert universe.position("b") == 1
    assert universe.position("a") == 0
    assert len(universe) == 2


def test_key_universe_bitvector():
    universe = KeyUniverse()
    vector = universe.bitvector(["a", "b", "d"])
    universe.position("c")  # c gets position 2... after d? order: a=0,b=1,d=2,c=3
    assert vector == 0b111  # a,b,d occupy the first three positions
    assert universe.bitvector(["c"]) == 0b1000


def test_bitvectors_match_table3(table3):
    """Row T0 of Table 3 reads K0,K1 and writes K2."""
    reads, writes = rwset_bitvectors(table3)
    # The universe assigns positions in first-seen order across rwsets:
    # T0 reads K0,K1 -> bits 0,1; T0 writes K2 -> next bit when seen.
    assert reads[0] & writes[0] == 0
    assert reads[5] == 0  # T5 reads nothing
    assert bin(writes[4]).count("1") == 3  # T4 writes three keys


def test_no_conflict_no_edges():
    graph = build_conflict_graph(
        [rwset(reads=["a"], writes=["b"]), rwset(reads=["c"], writes=["d"])]
    )
    assert graph.num_edges() == 0


def test_write_read_conflict_creates_edge():
    writer = rwset(writes=["k"])
    reader = rwset(reads=["k"])
    graph = build_conflict_graph([writer, reader])
    assert graph.has_edge(0, 1)  # writer -> reader
    assert not graph.has_edge(1, 0)


def test_self_conflict_excluded():
    """A transaction reading and writing the same key has no self-edge."""
    graph = build_conflict_graph([rwset(reads=["k"], writes=["k"])])
    assert graph.num_edges() == 0


def test_mutual_conflict_creates_two_cycle():
    a = rwset(reads=["x"], writes=["y"])
    b = rwset(reads=["y"], writes=["x"])
    graph = build_conflict_graph([a, b])
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 0)


def test_write_write_is_not_a_conflict():
    """Only read-write conflicts matter under Fabric's validation rule."""
    graph = build_conflict_graph([rwset(writes=["k"]), rwset(writes=["k"])])
    assert graph.num_edges() == 0


def test_read_read_is_not_a_conflict():
    graph = build_conflict_graph([rwset(reads=["k"]), rwset(reads=["k"])])
    assert graph.num_edges() == 0


def test_paper_figure3_edges(table3):
    """Exact edge set of the conflict graph in Figure 3."""
    graph = build_conflict_graph(table3)
    expected = {
        (0, 3),  # T0 writes K2, T3 reads K2
        (1, 0),  # T1 writes K0, T0 reads K0
        (2, 1),  # T2 writes K3, T1 reads K3
        (2, 4),  # T2 writes K9, T4 reads K9
        (3, 0),  # T3 writes K1, T0 reads K1
        (3, 1),  # T3 writes K4, T1 reads K4
        (4, 1),  # T4 writes K5, T1 reads K5
        (4, 2),  # T4 writes K6, T2 reads K6
        (4, 3),  # T4 writes K8, T3 reads K8
        (5, 2),  # T5 writes K7, T2 reads K7
    }
    assert set(graph.edges()) == expected


def test_empty_input():
    graph = build_conflict_graph([])
    assert len(graph) == 0


def test_schedule_is_serializable_accepts_good_order():
    writer = rwset(writes=["k"])
    reader = rwset(reads=["k"])
    assert schedule_is_serializable([writer, reader], [1, 0])
    assert not schedule_is_serializable([writer, reader], [0, 1])


def test_schedule_is_serializable_partial_schedule():
    """Aborted transactions are simply absent from the schedule."""
    a = rwset(reads=["x"], writes=["y"])
    b = rwset(reads=["y"], writes=["x"])
    # A cycle: no full schedule works, but either one alone does.
    assert schedule_is_serializable([a, b], [0])
    assert schedule_is_serializable([a, b], [1])
    assert not schedule_is_serializable([a, b], [0, 1])
    assert not schedule_is_serializable([a, b], [1, 0])


def test_edge_orientation_writer_to_reader():
    """Pin the documented orientation end to end on the smallest case:
    T0 writes k, T1 reads k. The edge is 0 -> 1 (writer -> reader), and a
    serializable schedule commits the reader *before* the writer — the
    docstring of :func:`build_conflict_graph` and the check in
    :func:`schedule_is_serializable` agree on this."""
    block = [rwset(writes=["k"]), rwset(reads=["k"])]
    graph = build_conflict_graph(block)
    assert list(graph.edges()) == [(0, 1)]
    assert schedule_is_serializable(block, [1, 0])
    assert not schedule_is_serializable(block, [0, 1])


def test_range_scan_result_keys_create_no_edge():
    """Pins today's behaviour: only point reads feed the conflict graph.

    T0 writes a key that T1 observed through a range scan. No edge, so
    the orderer does not move T1 ahead of T0; that T0-then-T1 aborts T1
    is validation's job (pinned end to end in
    ``tests/fabric/test_range_queries.py``).
    Changing this means changing the golden hashes, deliberately.
    """
    scanner = rwset()
    scanner.record_range_read(
        RangeRead("k0", "k9", (("k1", GENESIS_VERSION), ("k2", GENESIS_VERSION)))
    )
    assert "k1" in scanner.read_keys
    for block in ([rwset(writes=["k1"]), scanner], [scanner, rwset(writes=["k1"])]):
        assert build_conflict_graph(block).num_edges() == 0
        assert build_conflict_graph_all_pairs(block).num_edges() == 0


ORACLE_KEYS = [f"k{i}" for i in range(6)]
oracle_block = st.lists(
    st.builds(
        rwset,
        reads=st.lists(st.sampled_from(ORACLE_KEYS), max_size=4, unique=True),
        writes=st.lists(st.sampled_from(ORACLE_KEYS), max_size=4, unique=True),
    ),
    max_size=24,
)


@given(oracle_block)
@settings(deadline=None)
def test_index_builder_equals_all_pairs_oracle(block):
    """Same nodes, same edges, and the same adjacency *iteration order*.

    Six keys over up to 24 transactions force empty read/write sets,
    read-own-write, many writers of one key and many readers of one key.
    Iteration order of the adjacency sets is what Tarjan and Johnson walk,
    so it decides which cycles a capped enumeration sees and thereby
    which transactions abort; equal sets in another order would not do.
    """
    graph = build_conflict_graph(block)
    oracle = build_conflict_graph_all_pairs(block)
    assert graph.nodes() == oracle.nodes() == list(range(len(block)))
    assert graph.edges() == oracle.edges()
    for node in oracle.nodes():
        assert list(graph.successors(node)) == list(oracle.successors(node))
        assert list(graph.predecessors(node)) == list(oracle.predecessors(node))
