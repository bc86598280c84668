"""Golden stream for :func:`repro.sim.distributions.mix_seed`.

The seed mixer replaced ``hash((seed, channel, client))`` because the
builtin hash of a *tuple of ints* is stable on CPython today but is not
a documented guarantee — and client RNG streams must never move between
interpreter builds. These literals pin the frozen implementation; they
must never be regenerated. A separate test checks that, on current
64-bit CPython, the frozen function still agrees with the builtin it
was cloned from — catching any accidental "re-sync" edit.
"""

from __future__ import annotations

import sys

import pytest

from repro.faults import FAULT_SEED_SALT, FaultInjector, FaultSchedule
from repro.sim.distributions import Rng, mix_seed

#: Pinned outputs. Changing any of these rewires every client RNG stream
#: and therefore every golden metrics hash in the suite.
GOLDEN = {
    (): 750394491,
    (0,): 2087574872,
    (7,): 1272795442,
    (7, 0, 0): 493701517,
    (7, 0, 1): 113094886,
    (7, 1, 0): 157641936,
    (11, 2, 3): 1573682427,
    (2**63, -5): 791344212,
    (123456789, 987654321, 42): 1140403140,
}


def test_golden_stream_is_pinned():
    for parts, expected in GOLDEN.items():
        assert mix_seed(*parts) == expected, parts


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.hash_info.width != 64,
    reason="the frozen mixer clones 64-bit CPython tuple hashing",
)
def test_matches_builtin_hash_on_current_cpython():
    for parts in GOLDEN:
        assert mix_seed(*parts) == hash(parts) & 0x7FFFFFFF


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.hash_info.width != 64,
    reason="the frozen mixer clones 64-bit CPython tuple hashing",
)
def test_fault_backoff_stream_keeps_its_builtin_hash_seed():
    """The endorsement-backoff stream was seeded with the builtin hash of
    ``(seed, FAULT_SEED_SALT, channel, client)`` before it moved onto
    the mixer; every such stream must still draw the same numbers."""
    for seed in (0, 3, 7, 42, 2**40, -3):
        injector = FaultInjector(None, FaultSchedule(), seed, None)
        for channel in range(4):
            for client in range(6):
                legacy = hash((seed, FAULT_SEED_SALT, channel, client)) & 0x7FFFFFFF
                assert mix_seed(seed, FAULT_SEED_SALT, channel, client) == legacy
                stream = injector.backoff_rng(channel, client)
                assert stream.random() == Rng(legacy).random()


def test_part_order_and_position_matter():
    assert mix_seed(7, 0, 1) != mix_seed(7, 1, 0)
    assert mix_seed(7, 0) != mix_seed(0, 7)
    assert len(set(GOLDEN.values())) == len(GOLDEN)


def test_result_seeds_an_rng():
    value = mix_seed(7, 0, 0)
    assert 0 <= value <= 0x7FFFFFFF
    stream_a = [Rng(value).random() for _ in range(5)]
    stream_b = [Rng(mix_seed(7, 0, 0)).random() for _ in range(5)]
    assert stream_a == stream_b


@pytest.mark.parametrize("bad", [True, False, 1.5, "7", None])
def test_non_int_parts_are_rejected(bad):
    with pytest.raises(TypeError):
        mix_seed(7, bad)
