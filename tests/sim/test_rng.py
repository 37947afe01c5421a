"""Unit tests for reproducible random streams (repro.sim.rng)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomStreams
from repro.sim.rng import hash_name


def test_same_seed_same_sequence():
    a = RandomStreams(seed=123)
    b = RandomStreams(seed=123)
    seq_a = [a.exponential("x", 1.0) for _ in range(20)]
    seq_b = [b.exponential("x", 1.0) for _ in range(20)]
    assert seq_a == seq_b


def test_different_seeds_differ():
    a = RandomStreams(seed=1)
    b = RandomStreams(seed=2)
    assert [a.uniform("u", 0, 1) for _ in range(5)] != [
        b.uniform("u", 0, 1) for _ in range(5)
    ]


def test_streams_are_independent():
    """Drawing from stream A must not perturb stream B."""
    a = RandomStreams(seed=9)
    b = RandomStreams(seed=9)
    # Interleave extra draws on an unrelated stream in `a` only.
    seq_a = []
    for _ in range(10):
        a.exponential("noise", 1.0)
        seq_a.append(a.uniform("signal", 0, 1))
    seq_b = [b.uniform("signal", 0, 1) for _ in range(10)]
    assert seq_a == seq_b


def test_exponential_mean():
    streams = RandomStreams(seed=5)
    n = 20000
    total = sum(streams.exponential("e", 2.5) for _ in range(n))
    assert total / n == pytest.approx(2.5, rel=0.05)


def test_exponential_zero_mean_returns_zero():
    streams = RandomStreams(seed=5)
    assert streams.exponential("e", 0.0) == 0.0


def test_uniform_int_bounds():
    streams = RandomStreams(seed=5)
    values = {streams.uniform_int("i", 3, 7) for _ in range(500)}
    assert values == {3, 4, 5, 6, 7}


def test_bernoulli_extremes():
    streams = RandomStreams(seed=5)
    assert streams.bernoulli("b", 0.0) is False
    assert streams.bernoulli("b", 1.0) is True


def test_bernoulli_probability():
    streams = RandomStreams(seed=5)
    n = 20000
    hits = sum(streams.bernoulli("b", 0.3) for _ in range(n))
    assert hits / n == pytest.approx(0.3, abs=0.02)


def test_choice_weighted_distribution():
    streams = RandomStreams(seed=5)
    n = 30000
    counts = [0, 0, 0]
    for _ in range(n):
        counts[streams.choice_weighted("c", [1.0, 2.0, 1.0])] += 1
    assert counts[0] / n == pytest.approx(0.25, abs=0.02)
    assert counts[1] / n == pytest.approx(0.50, abs=0.02)


def test_choice_weighted_rejects_bad_weights():
    streams = RandomStreams(seed=5)
    with pytest.raises(ValueError):
        streams.choice_weighted("c", [0.0, 0.0])
    with pytest.raises(ValueError):
        streams.choice_weighted("c", [-1.0, 2.0])


def linear_scan_choice(rng, weights):
    """The first index whose running sum exceeds the scaled draw."""
    total = 0.0
    for w in weights:
        total += w
    x = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)),
        min_size=1, max_size=12,
    ).filter(lambda ws: sum(ws) > 0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200, deadline=None)
def test_choice_weighted_matches_linear_scan(weights, seed):
    """The bisect picks exactly the index of the linear scan (zero
    weights included), draw for draw."""
    streams = RandomStreams(seed)
    oracle = RandomStreams(seed).stream("c")
    for _ in range(25):
        assert streams.choice_weighted("c", weights) == \
            linear_scan_choice(oracle, weights)


def test_below_draws_like_uniform_int():
    a, b = RandomStreams(9), RandomStreams(9)
    below = b.below("p")
    assert [a.uniform_int("p", 5, 40) for _ in range(200)] == \
        [5 + below(36) for _ in range(200)]


def test_geometric_like_size_minimum():
    streams = RandomStreams(seed=5)
    values = [streams.geometric_like_size("s", 10.0) for _ in range(2000)]
    assert min(values) >= 1
    assert sum(values) / len(values) == pytest.approx(10.0, rel=0.15)


def test_geometric_like_size_small_mean():
    streams = RandomStreams(seed=5)
    assert streams.geometric_like_size("s", 1.0) == 1


def test_zipf_in_range():
    streams = RandomStreams(seed=5)
    for _ in range(1000):
        rank = streams.zipf("z", 100, 0.8)
        assert 0 <= rank < 100


def test_zipf_skewed_toward_low_ranks():
    streams = RandomStreams(seed=5)
    n = 20000
    low = sum(1 for _ in range(n) if streams.zipf("z", 1000, 0.9) < 100)
    # With theta=0.9 far more than 10% of mass is on the first 10% of ranks.
    assert low / n > 0.3


def test_zipf_single_item():
    streams = RandomStreams(seed=5)
    assert streams.zipf("z", 1, 0.5) == 0


def test_spawn_child_is_deterministic():
    a = RandomStreams(seed=77).spawn("child")
    b = RandomStreams(seed=77).spawn("child")
    assert [a.uniform("u", 0, 1) for _ in range(5)] == [
        b.uniform("u", 0, 1) for _ in range(5)
    ]


def test_hash_name_stability():
    # FNV-1a of "abc" is a fixed, documented value.
    assert hash_name("abc") == 0xE71FA2190541574B
    assert hash_name("") == 0xCBF29CE484222325


def test_shuffle_is_reproducible():
    a = RandomStreams(seed=3)
    b = RandomStreams(seed=3)
    items_a = list(range(10))
    items_b = list(range(10))
    a.shuffle("sh", items_a)
    b.shuffle("sh", items_b)
    assert items_a == items_b
