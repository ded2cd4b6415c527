"""Unit tests for the deterministic RNG."""

import random

import numpy as np
import pytest

from repro.common.rng import BLOCK, SplitMix, draws, mix_hash

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
C1, C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class ScalarSplitMix:
    """The scalar SplitMix64 the block generator must reproduce draw for
    draw: one masked Python step per draw, ``uniform = u / 2**64``, and
    the derived draws written on top of those two."""

    def __init__(self, seed):
        self.state = seed & MASK64
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * C1) & MASK64
        z = ((z ^ (z >> 27)) * C2) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return self.next_u64() / 2 ** 64

    def randint(self, lo, hi):
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def weighted_choice(self, items, weights):
        point = self.uniform() * float(sum(weights))
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if point < acc:
                return item
        return items[-1]

    def geometric(self, mean):
        if mean == 1.0:
            return 1
        p = 1.0 / mean
        count = 1
        while self.uniform() > p:
            count += 1
            if count > 64 * mean:
                break
        return count

    def split(self):
        return ScalarSplitMix(self.next_u64() ^ 0xA5A5A5A5DEADBEEF)


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def seed_drawing_first(u):
    """The seed whose first draw is *u* (SplitMix64's mix is a bijection)."""
    z = _unxorshift(u, 31)
    z = (z * pow(C2, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(C1, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 30)
    return (z - GAMMA) & MASK64


SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1, -1, 2 ** 70]


def test_known_answers_for_seed_42():
    rng = SplitMix(42)
    assert [rng.next_u64() for _ in range(5)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
    ]
    rng = SplitMix(42)
    assert [rng.uniform() for _ in range(3)] == [
        0.7415648787718234,
        0.15991039287692013,
        0.2786011302551388,
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_scalar_reference_across_blocks(seed):
    rng, ref = SplitMix(seed), ScalarSplitMix(seed)
    n = 3 * BLOCK + BLOCK // 2 + 1
    assert [rng.next_u64() for _ in range(n)] == [ref.next_u64() for _ in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_runs_equal_scalar_reference_across_blocks(seed):
    """``draws(seed, start, count)`` is the scalar stream's draws
    ``start + 1`` … ``start + count``, wherever the run starts and ends
    relative to ``SplitMix``'s blocks."""
    ref = ScalarSplitMix(seed)
    stream = [ref.next_u64() for _ in range(3 * BLOCK + 16)]
    for start in (0, 1, BLOCK - 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 7, 2 * BLOCK):
        for count in (0, 1, 5, BLOCK, BLOCK + 9):
            run = draws(seed, start, count)
            assert run.dtype == np.uint64
            assert run.tolist() == stream[start : start + count], (start, count)


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_equal_scalar_reference(seed):
    script = random.Random(seed & 0xFFFF)
    pairs = [(SplitMix(seed), ScalarSplitMix(seed))]
    items = ["a", "b", "c", "d", "e"]
    # Run until every stream, split children included, has crossed
    # three block refills.
    while min(ref.draws for _, ref in pairs) <= 3 * BLOCK:
        rng, ref = pairs[script.randrange(len(pairs))]
        op = script.randrange(7)
        if op == 0:
            assert rng.next_u64() == ref.next_u64()
        elif op == 1:
            assert rng.uniform() == ref.uniform()
        elif op == 2:
            lo = script.randint(-50, 50)
            hi = lo + script.randint(0, 1000)
            assert rng.randint(lo, hi) == ref.randint(lo, hi)
        elif op == 3:
            assert rng.choice(items) == ref.choice(items)
        elif op == 4:
            weights = [script.random() for _ in items]
            assert rng.weighted_choice(items, weights) == ref.weighted_choice(items, weights)
        elif op == 5:
            mean = script.choice([1.0, 1.5, 4.4, 16.0])
            assert rng.geometric(mean) == ref.geometric(mean)
        elif len(pairs) < 4:
            pairs.append((rng.split(), ref.split()))
    for rng, ref in pairs:  # every stream still in step
        assert rng.next_u64() == ref.next_u64()


def _uniform_edges():
    """u64 draws where int -> float rounding is delicate: around 2**53,
    the half-way cases (and their neighbours) at every binary exponent
    above it, for even and odd mantissas, and the top 5 000 values, of
    which those from 2**64 - 2**10 up round to 1.0."""
    edges = [0, 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1]
    for bits in range(54, 65):
        ulp = 1 << (bits - 53)
        for mantissa in (1 << 52, (1 << 52) + 1, (1 << 53) - 2, (1 << 53) - 1):
            half = mantissa * ulp + ulp // 2
            edges += [half - 1, half, half + 1]
    edges += range(2 ** 64 - 5_000, 2 ** 64)
    return edges


def test_uniform_equals_python_division_on_rounding_edges():
    for u in _uniform_edges():
        rng = SplitMix(seed_drawing_first(u))
        assert rng.uniform() == u / 2 ** 64, u
    # The top draws round to 1.0; traces depend on that, so it stays.
    assert SplitMix(seed_drawing_first(MASK64)).uniform() == 1.0


def test_same_seed_same_stream():
    a, b = SplitMix(42), SplitMix(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    a, b = SplitMix(1), SplitMix(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uniform_in_unit_interval():
    rng = SplitMix(7)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_randint_bounds_inclusive():
    rng = SplitMix(3)
    seen = {rng.randint(2, 5) for _ in range(500)}
    assert seen == {2, 3, 4, 5}


def test_randint_empty_range_raises():
    with pytest.raises(ValueError):
        SplitMix(1).randint(5, 4)


def test_choice_and_empty():
    rng = SplitMix(9)
    assert rng.choice([42]) == 42
    with pytest.raises(ValueError):
        rng.choice([])


def test_weighted_choice_respects_zero_weight():
    rng = SplitMix(11)
    picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(200)}
    assert picks == {"a"}


def test_weighted_choice_rough_proportion():
    rng = SplitMix(13)
    counts = {"a": 0, "b": 0}
    for _ in range(4000):
        counts[rng.weighted_choice(["a", "b"], [3.0, 1.0])] += 1
    ratio = counts["a"] / counts["b"]
    assert 2.2 < ratio < 4.2


def test_weighted_choice_requires_positive_total():
    with pytest.raises(ValueError):
        SplitMix(1).weighted_choice(["a"], [0.0])


def test_geometric_mean_close():
    rng = SplitMix(17)
    samples = [rng.geometric(6.0) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert 5.0 < mean < 7.2
    assert min(samples) >= 1


def test_geometric_mean_one_is_constant():
    rng = SplitMix(19)
    assert all(rng.geometric(1.0) == 1 for _ in range(10))


def test_geometric_rejects_sub_one():
    with pytest.raises(ValueError):
        SplitMix(1).geometric(0.5)


def test_split_streams_are_independent():
    parent = SplitMix(23)
    child = parent.split()
    a = [child.next_u64() for _ in range(4)]
    b = [parent.next_u64() for _ in range(4)]
    assert a != b


def test_mix_hash_deterministic_and_sensitive():
    assert mix_hash(1, 2, 3) == mix_hash(1, 2, 3)
    assert mix_hash(1, 2, 3) != mix_hash(3, 2, 1)
    assert mix_hash(0) != mix_hash(1)
