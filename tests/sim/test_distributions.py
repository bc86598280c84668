"""Unit and statistical tests for the random distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.distributions import Rng, ZipfSampler


def test_rng_deterministic_from_seed():
    a = Rng(7)
    b = Rng(7)
    assert [a.randint(0, 100) for _ in range(10)] == [
        b.randint(0, 100) for _ in range(10)
    ]


#: Range widths around the generator's bit boundaries and above 32 bits.
_WIDTHS = st.one_of(
    st.just(1),
    st.sampled_from(
        [2**k + d for k in (1, 2, 8, 31, 32, 33, 53, 64) for d in (-1, 0, 1)]
    ),
    st.integers(min_value=2, max_value=2**70),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    draws=st.lists(
        st.tuples(
            st.sampled_from(["randint", "random", "bernoulli"]),
            st.integers(min_value=-(2**40), max_value=2**40),
            _WIDTHS,
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_randint_draws_what_random_randint_draws(seed, draws):
    """Interleaved with the other draws, ``Rng.randint`` returns what
    ``random.Random.randint`` returns and leaves the stream where it does."""
    rng, reference = Rng(seed), random.Random(seed)
    for kind, low, width in draws:
        if kind == "randint":
            high = low + width - 1
            assert rng.randint(low, high) == reference.randint(low, high)
        elif kind == "random":
            assert rng.random() == reference.random()
        else:
            assert rng.bernoulli(0.3) == (reference.random() < 0.3)
    assert rng.getstate() == reference.getstate()


#: Widths on both sides of the bulk path: up to 2**32 - 1 a draw takes
#: one 32-bit word, and 2**32 and above fall back to ``randint``.
_BULK_WIDTHS = st.one_of(
    st.sampled_from(
        [1, 2, 2**32, 2**32 + 1]
        + [2**k + d for k in (1, 2, 8, 16, 31) for d in (0, 1)]
    ),
    st.integers(min_value=1, max_value=2**33),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    low=st.integers(min_value=-(2**40), max_value=2**40),
    width=_BULK_WIDTHS,
    count=st.integers(min_value=0, max_value=3000),
)
def test_randints_draws_what_count_randint_calls_draw(seed, low, width, count):
    """``Rng.randints`` returns the values of ``count`` ``randint`` calls
    and leaves the stream exactly where those calls leave it."""
    high = low + width - 1
    rng, reference = Rng(seed), random.Random(seed)
    assert rng.randints(low, high, count) == [
        reference.randint(low, high) for _ in range(count)
    ]
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("low, high", [(0, -1), (5, 3), (-1, -2)])
def test_randint_of_an_empty_range_raises(low, high):
    with pytest.raises(ValueError):
        Rng(0).randint(low, high)
    with pytest.raises(ValueError):
        Rng(0).randints(low, high, 3)


def test_rng_different_seeds_differ():
    a = [Rng(1).randint(0, 10**9) for _ in range(3)]
    b = [Rng(2).randint(0, 10**9) for _ in range(3)]
    assert a != b


def test_bernoulli_extremes():
    rng = Rng(0)
    assert not any(rng.bernoulli(0.0) for _ in range(100))
    assert all(rng.bernoulli(1.0) for _ in range(100))


def test_sample_distinct():
    rng = Rng(3)
    sample = rng.sample_distinct(100, 10)
    assert len(sample) == 10
    assert len(set(sample)) == 10
    assert all(0 <= x < 100 for x in sample)


def test_exponential_positive():
    rng = Rng(4)
    draws = [rng.exponential(0.5) for _ in range(100)]
    assert all(d > 0 for d in draws)
    assert 0.3 < sum(draws) / len(draws) < 0.8


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, -0.5)


def test_zipf_s_zero_is_uniform():
    sampler, rng = ZipfSampler(1000, 0.0), Rng(1)
    draws = [sampler.sample(rng) for _ in range(20_000)]
    assert all(0 <= d < 1000 for d in draws)
    # Chi-square-ish sanity: the most popular item under uniformity over
    # 1000 bins with 20k draws should not exceed ~3x the expectation.
    counts = {}
    for d in draws:
        counts[d] = counts.get(d, 0) + 1
    assert max(counts.values()) < 60


def test_zipf_skew_concentrates_mass():
    sampler, rng = ZipfSampler(1000, 2.0), Rng(2)
    draws = [sampler.sample(rng) for _ in range(20_000)]
    counts = {}
    for d in draws:
        counts[d] = counts.get(d, 0) + 1
    top = max(counts.values()) / len(draws)
    # Under Zipf s=2 over 1000 items, the top item carries ~61% of mass.
    assert 0.55 < top < 0.68


def test_zipf_rank_probabilities_decrease():
    sampler = ZipfSampler(100, 1.0)
    probs = [sampler.probability_of_rank(r) for r in range(100)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert abs(sum(probs) - 1.0) < 1e-9


def test_zipf_uniform_rank_probability():
    sampler = ZipfSampler(50, 0.0)
    assert sampler.probability_of_rank(0) == pytest.approx(1 / 50)


def test_zipf_single_item():
    sampler = ZipfSampler(1, 1.5)
    assert sampler.sample(Rng(0)) == 0


def test_zipf_higher_skew_more_concentration():
    def top_share(s_value):
        sampler, rng = ZipfSampler(500, s_value), Rng(5)
        draws = [sampler.sample(rng) for _ in range(10_000)]
        counts = {}
        for d in draws:
            counts[d] = counts.get(d, 0) + 1
        return max(counts.values()) / len(draws)

    assert top_share(0.0) < top_share(1.0) < top_share(2.0)
