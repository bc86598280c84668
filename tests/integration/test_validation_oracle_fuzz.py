"""End-to-end fuzz: the peer's validation equals the independent oracle.

Random blocks of forged-but-honestly-signed transactions are delivered to
real peers; the set of transactions the validator commits must equal what
an independent, direct re-statement of Fabric's validation rule predicts.
This ties the production pipeline to the oracle used throughout the
micro-benchmarks.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import bcc_reorder
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Transaction
from repro.ledger.block import Block
from repro.ledger.ledger import GENESIS_HASH
from repro.ledger.state_db import Version
from repro.testing import count_valid_in_order
from tests.fabric.conftest import TestBed

KEYS = [f"acc{i}" for i in range(6)]
GENESIS = Version(0, 0)


@st.composite
def block_rwsets(draw):
    """Random rwsets whose reads are either fresh (genesis) or stale."""
    count = draw(st.integers(min_value=1, max_value=8))
    rwsets = []
    for _ in range(count):
        rwset = ReadWriteSet()
        for key in draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
            stale = draw(st.booleans())
            rwset.record_read(key, Version(9, 9) if stale else GENESIS)
        for key in draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
            rwset.record_write(key, draw(st.integers(0, 99)))
        rwsets.append(rwset)
    return rwsets


def oracle_validity(rwsets: List[ReadWriteSet]) -> List[bool]:
    """Directly re-state the validation rule; returns per-tx validity."""
    effective: Dict[str, Optional[Version]] = {key: GENESIS for key in KEYS}
    flags = []
    for position, rwset in enumerate(rwsets):
        valid = all(
            effective.get(key) == version
            for key, version in rwset.reads.items()
        )
        flags.append(valid)
        if valid:
            for key in rwset.writes:
                effective[key] = Version(1, position)
    return flags


@given(block_rwsets())
@settings(max_examples=40, deadline=None)
def test_peer_validation_matches_oracle(rwsets):
    bed = TestBed(initial={key: 0 for key in KEYS})
    transactions = []
    for index, rwset in enumerate(rwsets):
        proposal = bed.proposal(f"t{index}")
        endorsements = [
            bed.forge_endorsement(proposal, rwset, peer) for peer in bed.peers
        ]
        transactions.append(
            Transaction(f"t{index}", proposal.payload_bytes(), rwset, endorsements)
        )
    block = Block.create(1, GENESIS_HASH, transactions)
    bed.deliver(block)
    expected = oracle_validity(rwsets)
    actual = [block.is_valid(f"t{index}") for index in range(len(rwsets))]
    assert actual == expected


@given(block_rwsets())
@settings(max_examples=40, deadline=None)
def test_all_peers_agree_on_validity(rwsets):
    bed = TestBed(initial={key: 0 for key in KEYS})
    transactions = []
    for index, rwset in enumerate(rwsets):
        proposal = bed.proposal(f"t{index}")
        endorsements = [
            bed.forge_endorsement(proposal, rwset, peer) for peer in bed.peers
        ]
        transactions.append(
            Transaction(f"t{index}", proposal.payload_bytes(), rwset, endorsements)
        )
    block = Block.create(1, GENESIS_HASH, transactions)
    bed.deliver(block)
    states = [peer.channels["ch0"].state for peer in bed.peers]
    for key in KEYS:
        assert states[0].get(key).value == states[1].get(key).value
        assert states[0].get(key).version == states[1].get(key).version


@given(block_rwsets())
@settings(max_examples=60, deadline=None)
def test_bcc_schedule_fully_validates(rwsets):
    """Every transaction BCC schedules must survive the oracle replay
    (when all reads start fresh; stale-read txs are normalised first)."""
    fresh = []
    for rwset in rwsets:
        clone = ReadWriteSet()
        for key in rwset.reads:
            clone.record_read(key, Version(1, 0))
        for key, value in rwset.writes.items():
            clone.record_write(key, value)
        fresh.append(clone)
    schedule, aborted = bcc_reorder(fresh)
    assert sorted(schedule + aborted) == list(range(len(fresh)))
    assert count_valid_in_order(fresh, schedule) == len(schedule)
