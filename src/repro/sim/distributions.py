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
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

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

    def randints(self, low: int, high: int, count: int) -> List[int]:
        """``count`` uniform integers in [low, high], drawn in bulk.

        The values of ``count`` :meth:`randint` calls, leaving the stream
        exactly where they leave it. For a width of at most 32 bits each
        ``randint`` consumes whole 32-bit words: it keeps the top
        ``width.bit_length()`` bits of a word and draws again while they
        reach the width (CPython's ``_randbelow_with_getrandbits``).
        Each round here asks ``getrandbits`` for one word per value still
        missing, so it never draws a word those calls would not; wider
        ranges draw one :meth:`randint` at a time.
        """
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range for randint({low}, {high})")
        shift = 32 - width.bit_length()
        if shift < 0:
            return [self.randint(low, high) for _ in range(count)]
        # A word's top bits are below ``width`` iff the word is below this.
        limit = width << shift
        getrandbits = self._random.getrandbits
        values: List[int] = []
        missing = count
        while missing:
            # ``getrandbits(32 * m)`` holds the next m words, first word
            # least significant; as native-order bytes they load into an
            # array of 32-bit unsigned ints ("I" is 4 bytes on every
            # platform CPython supports).
            words = array(
                "I", getrandbits(32 * missing).to_bytes(4 * missing, sys.byteorder)
            )
            values += [low + (word >> shift) for word in words if word < limit]
            missing = count - len(values)
        return values

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
    permutation seeded from the drawing stream's :class:`Rng`, so that
    "popular" items are spread across the key space rather than
    clustered at low indices.

    One sampler serves every client stream of a workload. The rank CDF
    depends only on ``(population, s_value)``, so it is built once, on
    the first draw, as an array of doubles. Each stream adds only its
    permutation, an array of machine ints, kept under the identity of
    its ``Rng`` (held beside it, so the identity cannot be reused). The
    sampler lives and dies with its workload.
    """

    def __init__(self, population: int, s_value: float) -> None:
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        if s_value < 0:
            raise ValueError(f"s-value must be >= 0, got {s_value}")
        self.population = population
        self.s_value = s_value
        self._cdf: Optional[array] = None
        #: id(rng) -> (rng, that stream's rank -> index permutation).
        self._streams: Dict[int, Tuple[Rng, array]] = {}

    def sample(self, rng: Rng) -> int:
        """Draw one index in ``range(population)`` from ``rng``'s stream."""
        stream = self._streams.get(id(rng))
        if stream is None:
            stream = self._streams[id(rng)] = (rng, self._permutation(rng))
        if self.s_value == 0:
            rank = rng.randint(0, self.population - 1)
        else:
            rank = bisect.bisect_left(self._cdf or self._rank_cdf(), rng.random())
        return stream[1][rank]

    def probability_of_rank(self, rank: int) -> float:
        """Return P(rank) for the 0-based ``rank`` (testing helper)."""
        if self.s_value == 0:
            return 1.0 / self.population
        cdf = self._rank_cdf()
        previous = cdf[rank - 1] if rank > 0 else 0.0
        return cdf[rank] - previous

    def _rank_cdf(self) -> array:
        """The cumulative rank probabilities, built on first use."""
        if self._cdf is None:
            weights = [
                1.0 / (rank ** self.s_value)
                for rank in range(1, self.population + 1)
            ]
            total = sum(weights)
            cdf = array("d", itertools.accumulate(w / total for w in weights))
            # Guard against floating-point undershoot at the tail.
            cdf[-1] = 1.0
            self._cdf = cdf
        return self._cdf

    def _permutation(self, rng: Rng) -> array:
        """The rank -> index permutation of ``rng``'s stream.

        Shuffled as a list, exactly as the draws were always made, then
        kept as 4-byte ints: a population that overflows them could not
        have been shuffled in memory anyway.
        """
        permutation = list(range(self.population))
        random.Random(rng.seed ^ 0x5BF03635).shuffle(permutation)
        return array("i", permutation)
