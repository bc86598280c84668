"""Seeded random distributions for workload generation.

The Smallbank experiments select accounts with a Zipfian distribution
parameterised by an ``s-value`` (paper Table 6: 0.0 — uniform — up to 2.0,
highly skewed). :class:`ZipfSampler` implements inverse-CDF sampling over a
finite population, matching that parameterisation: item ``i`` (1-based) has
probability proportional to ``1 / i**s``.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Optional, Sequence

#: Constants of the frozen seed-mixing function below (xxHash primes).
_MASK64 = (1 << 64) - 1
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
#: Mersenne prime 2**61 - 1 used to fold each part onto the hash field.
_HASH_MODULUS = (1 << 61) - 1


def mix_seed(*parts: int) -> int:
    """Mix integer parts into one 31-bit stream seed, deterministically.

    Client RNG streams used to be derived with ``hash((seed, channel,
    client))``: stable for pure-integer tuples, but one string slipping
    into that tuple would have silently made every run depend on
    ``PYTHONHASHSEED``. This function replaces it with an explicit mix
    that (a) accepts only integers — anything else raises ``TypeError``
    instead of degrading determinism — and (b) is a frozen re-statement
    of CPython's integer-tuple hashing (the xxHash-based combiner of
    3.8+), so the streams every golden hash was captured under are
    preserved bit-for-bit. The algorithm is pinned *here*, in this
    repository, and must never be re-synced against the interpreter:
    golden tests pin its outputs directly.
    """
    acc = _XXPRIME_5
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, int):
            raise TypeError(
                f"mix_seed() parts must be plain ints, got {part!r}"
            )
        # CPython's long_hash: reduce modulo 2**61-1, keep the sign,
        # then map -1 to -2; the combiner consumes the 64-bit pattern.
        lane = part % _HASH_MODULUS if part >= 0 else -((-part) % _HASH_MODULUS)
        if lane == -1:
            lane = -2
        acc = (acc + (lane & _MASK64) * _XXPRIME_2) & _MASK64
        acc = ((acc << 31) | (acc >> 33)) & _MASK64
        acc = (acc * _XXPRIME_1) & _MASK64
    acc = (acc + (len(parts) ^ (_XXPRIME_5 ^ 3527539))) & _MASK64
    if acc == _MASK64:
        acc = 1546275796
    return acc & 0x7FFFFFFF


class Rng:
    """A seeded random source shared by a workload generator.

    Thin wrapper around :mod:`random` that keeps all draws on one stream,
    so a benchmark run is reproducible from a single integer seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive.

        The value ``random.Random.randint`` returns for int bounds (its
        ``randrange`` ends in ``low + _randbelow(width)`` on CPython
        3.10-3.12), drawn without its two wrapper calls.
        """
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range for randint({low}, {high})")
        return low + self._random._randbelow(width)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, items: Sequence) -> object:
        """Uniform choice from ``items``."""
        return self._random.choice(items)

    def shuffle(self, items: List) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def sample_distinct(self, population: int, count: int) -> List[int]:
        """Sample ``count`` distinct integers from range(population)."""
        return self._random.sample(range(population), count)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._random.random() < probability

    def exponential(self, mean: float) -> float:
        """Exponentially distributed float with the given mean."""
        return self._random.expovariate(1.0 / mean)

    def getstate(self) -> tuple:
        """The underlying generator state (checkpoint digests/snapshots)."""
        return self._random.getstate()

    def setstate(self, state: tuple) -> None:
        """Restore a state captured with :meth:`getstate`."""
        self._random.setstate(state)


class ZipfSampler:
    """Zipf(s) sampling over a finite population via the inverse CDF.

    ``s = 0`` degenerates to the uniform distribution, matching the
    paper's note that "an s-value of 0 corresponds to a uniform
    distribution". Ranks are mapped onto population indices by a fixed
    seeded permutation so that "popular" items are spread across the key
    space rather than clustered at low indices.
    """

    def __init__(self, population: int, s_value: float, rng: Optional[Rng] = None) -> None:
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        if s_value < 0:
            raise ValueError(f"s-value must be >= 0, got {s_value}")
        self.population = population
        self.s_value = s_value
        self._rng = rng or Rng(0)
        if s_value == 0:
            self._cdf: Optional[List[float]] = None
        else:
            weights = [1.0 / (rank ** s_value) for rank in range(1, population + 1)]
            total = sum(weights)
            self._cdf = list(itertools.accumulate(w / total for w in weights))
            # Guard against floating-point undershoot at the tail.
            self._cdf[-1] = 1.0
        permutation = list(range(population))
        random.Random(self._rng.seed ^ 0x5BF03635).shuffle(permutation)
        self._rank_to_index = permutation

    def sample(self) -> int:
        """Draw one index in ``range(population)``."""
        if self._cdf is None:
            rank = self._rng.randint(0, self.population - 1)
        else:
            rank = bisect.bisect_left(self._cdf, self._rng.random())
        return self._rank_to_index[rank]

    def probability_of_rank(self, rank: int) -> float:
        """Return P(rank) for the 0-based ``rank`` (testing helper)."""
        if self._cdf is None:
            return 1.0 / self.population
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - previous
