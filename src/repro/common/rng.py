"""Deterministic random-number helpers.

All stochastic behaviour in the project (workload synthesis, branch
behaviour assignment) flows through :class:`SplitMix`, a tiny, fast,
seedable generator, so that every simulation is bit-reproducible and
sub-streams can be derived for independent components.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

MASK64 = (1 << 64) - 1

#: SplitMix64's Weyl-sequence increment.
GAMMA = 0x9E3779B97F4A7C15

#: Draws computed per block.
BLOCK = 2048

_TWO64 = float(1 << 64)


def draws(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start + 1`` … ``start + count`` of ``SplitMix(seed)``, as a
    numpy ``uint64`` array: what *count* ``next_u64()`` calls return
    after *start* of them.

    Draw n (n = 1, 2, ...) is ``mix(seed + n * GAMMA mod 2**64)``, so any
    run of draws is computed at once in numpy ``uint64``, whose
    arithmetic wraps mod 2**64 exactly like the masked scalar formula.
    """
    u64 = np.uint64
    z = np.arange(start + 1, start + count + 1, dtype=u64)
    z *= u64(GAMMA)
    z += u64(seed & MASK64)
    z ^= z >> u64(30)
    z *= u64(0xBF58476D1CE4E5B9)
    z ^= z >> u64(27)
    z *= u64(0x94D049BB133111EB)
    z ^= z >> u64(31)
    return z


def _blocks(seed: int):
    """Endless SplitMix64 output of *seed*, as lists of ``BLOCK`` ints."""
    start = 0
    while True:
        yield draws(seed, start, BLOCK).tolist()
        start += BLOCK


class SplitMix:
    """SplitMix64 PRNG: fast, high-quality, trivially seedable.

    Draws are computed ``BLOCK`` at a time (see :func:`_blocks`) and
    handed out one by one; the stream is bit-identical to the scalar
    ``state += GAMMA; return mix(state)`` loop.
    """

    __slots__ = ("_draw",)

    def __init__(self, seed: int) -> None:
        self._draw = chain.from_iterable(_blocks(seed & MASK64)).__next__

    def next_u64(self) -> int:
        """Next 64-bit value."""
        return self._draw()

    def uniform(self) -> float:
        """Float in [0, 1)."""
        return self._draw() / _TWO64

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self._draw() % (hi - lo + 1)

    def choice(self, seq):
        """Uniformly pick one element of *seq*."""
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self._draw() % len(seq)]

    def weighted_choice(self, items, weights) -> object:
        """Pick ``items[i]`` with probability proportional to ``weights[i]``."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        point = self._draw() / _TWO64 * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if point < acc:
                return item
        return items[-1]

    def geometric(self, mean: float) -> int:
        """Geometric-ish positive integer with the given mean (>= 1)."""
        if mean < 1.0:
            raise ValueError("mean must be >= 1")
        if mean == 1.0:
            return 1
        p = 1.0 / mean
        draw = self._draw
        count = 1
        while draw() / _TWO64 > p:
            count += 1
            if count > 64 * mean:  # hard safety bound
                break
        return count

    def split(self) -> "SplitMix":
        """Derive an independent child stream."""
        return SplitMix(self._draw() ^ 0xA5A5A5A5DEADBEEF)


def mix_hash(*values: int) -> int:
    """Deterministic 64-bit hash of a tuple of ints (for index hashing)."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h ^= v & MASK64
        h = (h * 0xBF58476D1CE4E5B9) & MASK64
        h ^= h >> 29
    return h
