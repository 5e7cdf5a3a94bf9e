"""Monomial counting and enumeration, checked against brute-force oracles."""

import itertools
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpinterp import (
    UnsupportedWeightsError,
    Weights,
    count_monomials,
    enumerate_monomials,
    hilbert_closed_form,
    semigroup_member,
)
from wpinterp import grading


def brute_count(weights, d):
    """Count solutions of sum a_i e_i = d by full enumeration."""
    if d < 0:
        return 0
    ranges = [range(d // a + 1) for a in weights]
    return sum(
        1
        for e in itertools.product(*ranges)
        if sum(a * x for a, x in zip(weights, e)) == d
    )


SMALL_SYSTEMS = [
    (1,),
    (2,),
    (1, 1),
    (1, 2),
    (2, 3),
    (1, 2, 3),
    (1, 5, 9),
    (2, 3, 5),
    (1, 1, 2, 3),
    (3, 4, 7),
]


@pytest.mark.parametrize("entries", SMALL_SYSTEMS)
def test_count_matches_brute_force(entries):
    w = Weights(entries)
    for d in range(31):
        assert count_monomials(w, d) == brute_count(entries, d), (entries, d)


def test_count_zero_for_negative_degree():
    w = Weights((1, 2, 3))
    assert count_monomials(w, -1) == 0
    assert count_monomials(w, -100) == 0


@pytest.mark.parametrize("entries", [(1, 2, 3), (2, 3), (1, 1, 1), (1, 3, 4), (2, 3, 5)])
def test_enumerate_matches_count_and_order(entries):
    w = Weights(entries)
    for d in range(26):
        monos = enumerate_monomials(w, d)
        assert len(monos) == count_monomials(w, d)
        assert all(sum(a * e for a, e in zip(w, expos)) == d for expos in monos)
        assert len(set(monos)) == len(monos)
        # lexicographic descending, which refines total degree for sorted weights
        assert monos == sorted(monos, reverse=True)
    assert enumerate_monomials(w, -2) == []


def test_closed_form_one_and_b():
    for b in range(1, 7):
        w = Weights((1, b))
        for d in range(201):
            value = hilbert_closed_form(w, d)
            assert value == count_monomials(w, d) == d // b + 1


@pytest.mark.parametrize("pair", [(2, 3), (3, 4), (2, 5), (3, 5), (4, 7), (5, 7), (6, 7), (5, 9)])
def test_closed_form_coprime_pairs(pair):
    w = Weights(pair)
    for d in range(301):
        assert hilbert_closed_form(w, d) == count_monomials(w, d), (pair, d)


def test_closed_form_plane_123():
    w = Weights((1, 2, 3))
    for d in range(301):
        value = hilbert_closed_form(w, d)
        assert value == (d * d + 6 * d + 12) // 12 == count_monomials(w, d)


def test_closed_form_absent():
    assert hilbert_closed_form(Weights((2, 4)), 10) is None
    assert hilbert_closed_form(Weights((1, 1, 1)), 10) is None
    assert hilbert_closed_form(Weights((1, 2, 4)), 10) is None
    assert hilbert_closed_form(Weights((2, 3, 5)), 10) is None


def test_closed_form_negative_degree():
    assert hilbert_closed_form(Weights((1, 2, 3)), -3) == 0
    assert hilbert_closed_form(Weights((2, 4)), -3) == 0


@pytest.mark.parametrize(
    "entries,expected",
    [
        ((1,), True),
        ((2,), False),
        ((1, 1), True),
        ((2, 3), False),
        ((1, 2, 3), True),
        ((1, 5, 9), True),
        ((2, 4, 5), False),
        ((2, 3, 5), True),
        ((1, 2, 3, 4), True),
    ],
)
def test_well_formed(entries, expected):
    assert Weights(entries).well_formed is expected


def test_weights_sorted_with_permutation():
    w = Weights((3, 1, 2))
    assert w == (1, 2, 3)
    assert type(w) is Weights and isinstance(w, tuple)
    assert w.n == 2
    assert len(w) == 3
    assert list(w) == [1, 2, 3]
    assert w[2] == 3
    assert w == Weights((1, 2, 3))
    assert hash(w) == hash(Weights((2, 3, 1))) == hash((1, 2, 3))
    assert repr(w) == "Weights(1, 2, 3)"
    assert repr(Weights([4])) == "Weights(4,)"
    assert Weights(["2", 1.0]) == (1, 2)


def test_weights_immutable():
    w = Weights((1, 2))
    with pytest.raises(AttributeError):
        w.n = 3
    with pytest.raises(AttributeError):
        w.extra = (1, 3)
    with pytest.raises(TypeError):
        w[0] = 5


def test_weights_validation():
    with pytest.raises(UnsupportedWeightsError, match="^need at least one weight$"):
        Weights(())
    with pytest.raises(UnsupportedWeightsError, match=r"^weights must be positive: \(1, 0\)$"):
        Weights((1, 0))
    with pytest.raises(UnsupportedWeightsError, match=r"^weights must be positive: \(-2, 3\)$"):
        Weights((-2, 3))


def test_drop():
    w = Weights((1, 2, 3))
    assert w.drop(0) == (2, 3)
    assert w.drop(2) == (1, 2)
    with pytest.raises(IndexError):
        w.drop(3)
    with pytest.raises(IndexError):
        w.drop(-1)
    with pytest.raises(UnsupportedWeightsError, match="^cannot drop the only weight$"):
        Weights((2,)).drop(0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=5), st.data())
def test_weights_is_the_sorted_tuple(entries, data):
    w = Weights(entries)
    assert Weights(w) is w
    assert w == tuple(sorted(entries))
    assert hash(w) == hash(tuple(sorted(entries)))
    if len(w) == 1:
        return
    i = data.draw(st.integers(0, len(w) - 1))
    dropped = w.drop(i)
    assert type(dropped) is Weights
    assert dropped == Weights(w[:i] + w[i + 1:])
    for d in (0, 1, 7, 30, 61):
        assert count_monomials(dropped, d) == coin_count(w[:i] + w[i + 1:], d)


def test_recursion_identity_random_systems():
    # s_d = s_{d - a_i} + (count with variable i removed), for every i
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 3)
        entries = tuple(rng.randint(1, 9) for _ in range(n + 1))
        w = Weights(entries)
        for i in range(len(w)):
            dropped = w.drop(i)
            for d in range(0, 121, 7):
                assert count_monomials(w, d) == (
                    count_monomials(w, d - w[i]) + count_monomials(dropped, d)
                )


def test_table_concurrent_growth():
    w = Weights((1, 2, 3))
    fresh = Weights((1, 2, 3))
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        for _ in range(200):
            d = rng.randint(0, 3000)
            if count_monomials(w, d) != (d * d + 6 * d + 12) // 12:
                errors.append(d)

    threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert count_monomials(w, 3000) == count_monomials(fresh, 3000)


def coin_count(weights, d):
    """s_d from a fresh coin-counting DP up to d."""
    if d < 0:
        return 0
    dp = [1] + [0] * d
    for a in weights:
        for t in range(a, d + 1):
            dp[t] += dp[t - a]
    return dp[d]


def test_equal_weight_tuples_share_one_table():
    entries = (1, 4, 9, 10)
    assert entries not in grading._TABLES  # growth starts from nothing below
    views = [Weights(entries), Weights((10, 9, 4, 1)), Weights(entries + (11,)).drop(4)]
    assert all(v == entries for v in views)
    for k, d in enumerate((5, 1000, 3, -1, 17, -40, 1000, 0)):
        assert count_monomials(views[k % 3], d) == coin_count(entries, d)
    assert count_monomials(views[0], 1000) == count_monomials(views[2], 1000)


@pytest.mark.parametrize("nthreads", [2, 3, 4])
def test_shared_table_concurrent_growth(nthreads):
    entries = (1, 5, 11, 100 + nthreads)
    assert entries not in grading._TABLES
    degrees = [5, 1000, 3, -2, 2500, 40, -1, 1700, 16, 17, 33]
    expected = {d: coin_count(entries, d) for d in degrees}
    start = threading.Barrier(nthreads)
    errors = []

    def reader(t):
        views = [Weights(entries), Weights(entries[::-1]), Weights(entries + (7,)).drop(2)]
        start.wait()
        for k, d in enumerate(degrees[t:] + degrees[:t]):
            if count_monomials(views[(k + t) % 3], d) != expected[d]:
                errors.append((t, d))

    threads = [threading.Thread(target=reader, args=(t,)) for t in range(nthreads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors


def test_semigroup_member():
    w = Weights((2, 3))
    assert not semigroup_member(w, 1)
    assert semigroup_member(w, 2)
    assert semigroup_member(w, 3)
    assert all(semigroup_member(w, d) for d in range(2, 30))
    w25 = Weights((2, 5))
    assert not semigroup_member(w25, 3)
    assert not semigroup_member(w25, -1)
