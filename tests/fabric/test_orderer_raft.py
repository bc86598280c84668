"""The ordering-service contract, again, behind a 3-node Raft cluster.

The star imports re-collect every contract test of ``test_orderer`` and
``test_orderer_channels`` in this module, where the ``consenter`` fixture
is overridden — same assertions, same harness, the other consenter. The
property at the end states why that works: the cut transform is shared,
so a healthy cluster seals exactly the blocks solo seals, only later.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_cutter import BatchCutConfig
from repro.fabric.config import FabricConfig
from repro.ledger.state_db import Version

from tests.fabric.conftest import OrdererHarness
from tests.fabric.test_orderer import *  # noqa: F401,F403 - the contract tests
from tests.fabric.test_orderer_channels import *  # noqa: F401,F403
from tests.fabric.test_orderer import make_tx  # noqa: E402 - after the stars: both modules define one


@pytest.fixture
def consenter():
    return "raft"


KEYS = ["a", "b", "c", "d"]

#: One transaction: the keys it reads (each at block version 1 or 2, so
#: some reads are stale within the batch) and the keys it writes.
tx_shapes = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(KEYS), st.integers(1, 2)), max_size=3,
        unique_by=lambda read: read[0],
    ),
    st.lists(st.sampled_from(KEYS), max_size=2, unique=True),
)


def sealed_blocks(consenter, config, shapes):
    harness = OrdererHarness(config, consenter)
    harness.submit_all(
        make_tx(
            f"t{index}",
            reads=[(key, Version(block, 0)) for key, block in reads],
            writes=writes,
        )
        for index, (reads, writes) in enumerate(shapes)
    )
    harness.env.process(harness.orderer.flush())
    harness.run()
    assert harness.orderer.pending_count == 0
    return [
        (
            block.block_id,
            [tx.tx_id for tx in block.transactions],
            [tx.tx_id for tx in block.early_aborted],
            block.header.previous_hash,
            block.header.data_hash,
        )
        for block in harness.blocks
    ]


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.lists(tx_shapes, min_size=1, max_size=14),
    fabric_plus_plus=st.booleans(),
)
def test_healthy_raft_seals_the_same_blocks_as_solo(shapes, fabric_plus_plus):
    """Raft ≡ solo modulo time: count cuts plus a final flush produce the
    same tx order, the same early aborts and the same hash chain."""
    config = replace(
        FabricConfig(),
        # No timeout cuts: they depend on arrival *times*, which differ.
        batch=BatchCutConfig(max_transactions=4, max_batch_delay=60.0),
        reordering=fabric_plus_plus,
        early_abort_ordering=fabric_plus_plus,
    )
    solo = sealed_blocks("solo", config, shapes)
    assert solo == sealed_blocks("raft", config, shapes)
    assert sum(len(ids) + len(aborts) for _, ids, aborts, _, _ in solo) == len(shapes)
