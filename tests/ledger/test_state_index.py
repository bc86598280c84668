"""The sorted-key index behind ``StateDatabase.range_scan``.

``range_scan`` used to sort every key on every call — O(n log n) per
scan, and scans sit on the validation hot path for phantom detection.
The bisect-maintained index must stay exactly equivalent to the
brute-force sorted-filter semantics under any interleaving of
``populate`` / ``apply_write`` / ``apply_block_writes``.
"""

from __future__ import annotations

import time

from repro.fabric.peer import Peer
from repro.fabric.rwset import RangeRead
from repro.ledger.state_db import StateDatabase, Version
from repro.sim.distributions import Rng


def brute_force(state: StateDatabase, start, end):
    keys = sorted(key for key, _ in state.items())
    picked = [
        key for key in keys if key >= start and (end is None or key < end)
    ]
    return [(key, state.get(key)) for key in picked]


def test_index_matches_brute_force_under_random_mutation():
    rng = Rng(1234)
    state = StateDatabase()
    state.populate({f"a{i:03d}": i for i in range(20)})
    universe = [f"{prefix}{i:03d}" for prefix in "abc" for i in range(40)]
    for block_id in range(1, 15):
        # A mix of inline writes (Fabric++ style) ...
        for _ in range(rng.randint(0, 3)):
            key = universe[rng.randint(0, len(universe) - 1)]
            state.apply_write(key, block_id, Version(block_id, 0))
        # ... and batched block writes (vanilla style), new + old keys.
        writes = {
            universe[rng.randint(0, len(universe) - 1)]: block_id
            for _ in range(rng.randint(0, 4))
        }
        state.apply_block_writes(block_id, [(Version(block_id, 1), writes)])
        for start, end in [
            ("a000", "c999"),
            ("b000", None),
            ("a010", "a020"),
            ("zz", None),
            ("", "a005"),
        ]:
            got = list(state.range_scan(start, end))
            assert got == brute_force(state, start, end), (block_id, start, end)


def test_index_has_no_duplicate_keys_after_overwrites():
    state = StateDatabase()
    state.populate({"k1": 0, "k2": 0})
    for block_id in range(1, 6):
        state.apply_write("k1", block_id, Version(block_id, 0))
        state.apply_block_writes(
            block_id, [(Version(block_id, 0), {"k2": block_id})]
        )
    assert [key for key, _ in state.range_scan("k", None)] == ["k1", "k2"]


def test_phantom_detection_still_works_through_index():
    state = StateDatabase()
    state.populate({"acct_1": 10, "acct_3": 30})
    observed = tuple(
        (key, entry.version) for key, entry in state.range_scan("acct_", "acct_9")
    )
    scan = RangeRead("acct_", "acct_9", observed)
    assert Peer._range_read_current(state, {}, scan)
    # A key inserted inside the scanned bounds is a phantom.
    state.apply_write("acct_2", 20, Version(5, 0))
    assert not Peer._range_read_current(state, {}, scan)


def test_scan_cost_does_not_resort_all_keys():
    # Not a benchmark, just a guard-rail: scanning a narrow window of a
    # large database must be far cheaper than sorting the whole key set
    # every call. With the old sort-per-scan this ratio blows past 100×.
    state = StateDatabase()
    state.populate({f"k{i:06d}": i for i in range(20000)})

    start = time.perf_counter()
    for _ in range(200):
        list(state.range_scan("k010000", "k010010"))
    narrow = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(200):
        sorted(key for key, _ in state.items())
    full_sort = time.perf_counter() - start

    assert narrow < full_sort
