"""Determinism and range guarantees of the counter-mode PRNG."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rankinv.rng import DetRNG


def test_same_seed_and_tag_reproduce_stream():
    a = DetRNG(42, "x")
    b = DetRNG(42, "x")
    assert a.bytes(100) == b.bytes(100)
    assert [a.randbits(13) for _ in range(20)] == [b.randbits(13) for _ in range(20)]


def test_stream_depends_on_seed_and_on_tag():
    ref = DetRNG(1, "t").bytes(32)
    assert DetRNG(2, "t").bytes(32) != ref
    assert DetRNG(1, "u").bytes(32) != ref
    assert DetRNG(1, "").bytes(32) != ref


def test_spawn_does_not_disturb_parent():
    parent = DetRNG(7, "parent")
    before = DetRNG(7, "parent").bytes(40)
    child_a = parent.spawn("a")
    child_b = parent.spawn("b")
    assert child_a.bytes(16) != child_b.bytes(16)
    assert parent.bytes(40) == before
    # spawn path is hierarchical: parent/a
    assert child_a.tag == "parent/a"
    assert parent.spawn("a").bytes(16) == DetRNG(7, "parent/a").bytes(16)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        DetRNG(-1)


@given(st.integers(0, 2**64 - 1), st.integers(1, 10_000))
def test_randbelow_in_range(seed, bound):
    rng = DetRNG(seed, "range")
    for _ in range(10):
        assert 0 <= rng.randbelow(bound) < bound


def test_randbelow_hits_all_small_values():
    rng = DetRNG(0, "cover")
    seen = {rng.randbelow(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}


def test_randint_inclusive_bounds():
    rng = DetRNG(3, "ri")
    vals = {oracles.randint(rng, -2, 1) for _ in range(100)}
    assert vals == {-2, -1, 0, 1}
    with pytest.raises(ValueError):
        oracles.randint(rng, 5, 4)


def test_choice_and_empty_choice():
    rng = DetRNG(9, "choice")
    seq = ["a", "b", "c"]
    assert all(rng.choice(seq) in seq for _ in range(20))
    with pytest.raises(ValueError):
        rng.choice([])


def test_sample_distinct():
    rng = DetRNG(11, "sd")
    got = rng.sample_distinct(6, 6)
    assert sorted(got) == list(range(6))
    got2 = rng.sample_distinct(3, 50)
    assert len(set(got2)) == 3 and all(0 <= v < 50 for v in got2)
    with pytest.raises(ValueError):
        rng.sample_distinct(7, 6)


def test_bytes_stream_is_prefix_stable():
    # reading 10+10 bytes equals reading 20 in one call
    a = DetRNG(5, "p")
    b = DetRNG(5, "p")
    assert a.bytes(10) + a.bytes(10) == b.bytes(20)
