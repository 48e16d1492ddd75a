from collections import Counter

import pytest

from gametrace.rng import Xoshiro256StarStar, derive_seed


def test_sequence_is_deterministic():
    r1 = Xoshiro256StarStar(42)
    r2 = Xoshiro256StarStar(42)
    a = [r1.next_u64() for _ in range(8)]
    b = [r2.next_u64() for _ in range(8)]
    assert a == b
    assert len(set(a)) == 8


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1).next_u64()
    b = Xoshiro256StarStar(2).next_u64()
    assert a != b


def test_outputs_are_64_bit():
    rng = Xoshiro256StarStar(7)
    for _ in range(1000):
        v = rng.next_u64()
        assert 0 <= v < 1 << 64


def test_randbelow_bounds_and_rough_uniformity():
    rng = Xoshiro256StarStar(11)
    counts = Counter(rng.randbelow(5) for _ in range(20000))
    assert set(counts) == {0, 1, 2, 3, 4}
    for c in counts.values():
        assert abs(c - 4000) < 400


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(1).randbelow(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    a = list(items)
    Xoshiro256StarStar(3).shuffle(a)
    b = list(items)
    Xoshiro256StarStar(3).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def test_derive_seed_depends_on_index_not_call_order():
    master = 42
    forward = [derive_seed(master, i) for i in range(10)]
    backward = [derive_seed(master, i) for i in reversed(range(10))]
    assert forward == list(reversed(backward))
    assert len(set(forward)) == 10
