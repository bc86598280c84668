"""Property test: dependency-wave validation ≡ strict serial validation.

The pipeline's dependency scheduler claims that processing a block's
transactions wave-by-wave (independent transactions concurrently, waves
in topological order) produces exactly the outcomes and final state of
the sequential validator — for both application styles: vanilla's
buffered ``pending_writes`` + batch commit and Fabric++'s inline
per-transaction applies. This Hypothesis test drives both procedures
over random blocks — stale and fresh point reads, range reads with
phantoms, and intra-block write-write chains — and requires bit-equal
results. The anti- and output-dependency edges of
:func:`build_validation_dependencies` are precisely what make this hold;
drop either and this test fails.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict_graph import (
    build_validation_dependencies,
    dependency_waves,
)
from repro.fabric.peer import Peer
from repro.fabric.rwset import RangeRead, ReadWriteSet
from repro.ledger.state_db import StateDatabase, Version

KEYS = [f"k{i}" for i in range(6)]
#: A version no committed write ever carries — models a stale read.
STALE = Version(0, 777)

key_strategy = st.sampled_from(KEYS)


def reads_current(
    state: StateDatabase, pending: Dict[str, Version], rwset: ReadWriteSet
) -> bool:
    """Mirror of ``Peer._reads_current`` against a bare state + overlay."""
    for key, read_version in rwset.reads.items():
        current = pending.get(key)
        if current is None:
            current = state.read(key)[1]
        if current != read_version:
            return False
    for range_read in rwset.range_reads:
        if not Peer._range_read_current(state, pending, range_read):
            return False
    return True


def run_serial(
    state: StateDatabase, rwsets: List[ReadWriteSet], inline: bool
) -> List[bool]:
    """The sequential validator's MVCC/commit procedure."""
    block_id = state.last_block_id + 1
    pending: Dict[str, Version] = {}
    valid_writes = []
    outcomes = []
    for index, rwset in enumerate(rwsets):
        ok = reads_current(state, pending, rwset)
        outcomes.append(ok)
        if ok:
            version = Version(block_id, index)
            if inline:
                for key, value in rwset.writes.items():
                    state.apply_write(key, value, version)
            else:
                for key in rwset.writes:
                    pending[key] = version
                valid_writes.append((version, rwset.writes))
    if inline:
        state.advance_block(block_id)
    else:
        state.apply_block_writes(block_id, valid_writes)
    return outcomes


def run_waves(
    state: StateDatabase, rwsets: List[ReadWriteSet], inline: bool
) -> List[bool]:
    """The pipeline's wave procedure (commit order by dependency level)."""
    block_id = state.last_block_id + 1
    waves = dependency_waves(build_validation_dependencies(rwsets))
    pending: Dict[str, Version] = {}
    valid_writes = []
    outcomes: Dict[int, bool] = {}
    for wave in waves:
        for index in wave:
            rwset = rwsets[index]
            ok = reads_current(state, pending, rwset)
            outcomes[index] = ok
            if ok:
                version = Version(block_id, index)
                if inline:
                    for key, value in rwset.writes.items():
                        state.apply_write(key, value, version)
                else:
                    for key in rwset.writes:
                        pending[key] = version
                    valid_writes.append((version, rwset.writes))
    if inline:
        state.advance_block(block_id)
    else:
        valid_writes.sort(key=lambda entry: entry[0].tx_id)
        state.apply_block_writes(block_id, valid_writes)
    return [outcomes[index] for index in range(len(rwsets))]


def draw_tx(data, state: StateDatabase) -> ReadWriteSet:
    rwset = ReadWriteSet()
    for key in data.draw(
        st.lists(key_strategy, unique=True, max_size=3), label="reads"
    ):
        stale = data.draw(st.booleans(), label=f"stale[{key}]")
        rwset.record_read(key, STALE if stale else state.read(key)[1])
    for key in data.draw(
        st.lists(key_strategy, unique=True, max_size=3), label="writes"
    ):
        rwset.record_write(key, data.draw(st.integers(0, 99), label="value"))
    if data.draw(st.booleans(), label="has_range"):
        bounds = sorted(
            data.draw(
                st.lists(key_strategy, min_size=1, max_size=2, unique=True),
                label="bounds",
            )
        )
        start = bounds[0]
        end = bounds[1] if len(bounds) == 2 else None
        results = tuple(
            (key, entry.version) for key, entry in state.range_scan(start, end)
        )
        if results and data.draw(st.booleans(), label="phantomise"):
            # Pretend the scan ran before its first key existed: the
            # current state then shows a phantom.
            results = results[1:]
        rwset.record_range_read(RangeRead(start, end, results))
    return rwset


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_wave_schedule_matches_serial_validation(data):
    inline = data.draw(st.booleans(), label="inline (Fabric++)")
    base = StateDatabase()
    base.populate({key: index for index, key in enumerate(KEYS)})
    pre_writes = data.draw(
        st.dictionaries(key_strategy, st.integers(0, 9), max_size=4),
        label="pre-block writes",
    )
    if pre_writes:
        base.apply_block_writes(1, [(Version(1, 0), pre_writes)])

    count = data.draw(st.integers(1, 8), label="block size")
    rwsets = [draw_tx(data, base) for _ in range(count)]

    serial_state = deepcopy(base)
    wave_state = deepcopy(base)
    serial_outcomes = run_serial(serial_state, rwsets, inline)
    wave_outcomes = run_waves(wave_state, rwsets, inline)

    assert wave_outcomes == serial_outcomes
    assert dict(wave_state.items()) == dict(serial_state.items())
    assert wave_state.last_block_id == serial_state.last_block_id
