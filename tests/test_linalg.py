"""Exact and modular linear algebra against straightforward reference code."""

import math
import random
from array import array
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, Matrix, Rational
from sympy.polys.matrices import DomainMatrix

from wpinterp import linalg
from wpinterp.interpolation import PRIME_HIGH
from wpinterp.linalg import (
    _prime_below,
    det_exact,
    group_ranks_exact,
    group_ranks_mod_p,
    is_probable_prime,
    nullspace_exact,
    random_prime,
    rank_exact,
)

BIG_PRIME = (1 << 61) - 1
TOP_PRIME = (1 << 62) - 57  # the largest prime below 2**62: slots wider than a word
TRIAL_PRIME = _prime_below(PRIME_HIGH)  # the largest trial prime
PRIMES = (2, 3, TRIAL_PRIME, (1 << 31) - 1, BIG_PRIME, TOP_PRIME)


def permutation_det(rows):
    """Determinant by the Leibniz formula; fine up to 5x5."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += term
    return total


def gauss_rank(rows):
    """Plain fraction pivoting, independent of the multimodular code under test."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def random_matrix(rng, nrows, ncols, with_fractions=False):
    def entry():
        num = rng.randint(-5, 5)
        if with_fractions and rng.random() < 0.3:
            return Fraction(num, rng.randint(1, 4))
        return num

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def test_det_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n, with_fractions=True)
        assert det_exact(rows) == permutation_det(rows)


def test_det_singular_and_edge_cases():
    assert det_exact([]) == 1
    assert det_exact([[Fraction(7, 2)]]) == Fraction(7, 2)
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
    rows = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]  # row3 = row1 + row2
    assert det_exact(rows) == 0
    with pytest.raises(ValueError):
        det_exact([[1, 2], [3, 4], [5, 6]])


def test_rank_exact_matches_gauss():
    rng = random.Random(11)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols, with_fractions=True)
        if rng.random() < 0.3 and nrows > 1:
            rows[-1] = rows[0]  # force a dependency
        assert rank_exact(rows) == gauss_rank(rows)
    assert rank_exact([]) == 0
    assert rank_exact([[0, 0], [0, 0]]) == 0


def test_rank_mod_p_matches_exact_on_small_entries():
    # minors are far below the prime, so ranks must agree
    rng = random.Random(13)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols)
        mod = [[x % BIG_PRIME for x in row] for row in rows]
        assert group_ranks_mod_p(mod, BIG_PRIME, [len(mod)])[-1] == rank_exact(rows)


def test_group_ranks_are_prefix_ranks():
    rng = random.Random(17)
    for _ in range(30):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        total = sum(sizes)
        rows = random_matrix(rng, total, rng.randint(1, 6))
        mod = [[x % BIG_PRIME for x in row] for row in rows]
        ranks = group_ranks_mod_p(mod, BIG_PRIME, sizes)
        assert len(ranks) == len(sizes)
        cut = 0
        for size, got in zip(sizes, ranks):
            cut += size
            assert got == rank_exact(rows[:cut])
        assert ranks == sorted(ranks)


def test_group_ranks_exact_are_prefix_ranks():
    rng = random.Random(23)
    for _ in range(30):
        sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        rows = random_matrix(rng, sum(sizes), rng.randint(1, 6), with_fractions=True)
        if rng.random() < 0.5 and len(rows) > 1:
            rows[-1] = rows[0]
        ranks = group_ranks_exact(rows, sizes)
        cut = 0
        for size, got in zip(sizes, ranks):
            cut += size
            assert got == rank_exact(rows[:cut]) == gauss_rank(rows[:cut])
    assert group_ranks_exact([], [0, 0]) == [0, 0]
    assert group_ranks_exact([], []) == []


def list_group_ranks_mod_p(rows, p, group_sizes):
    """The list-of-ints kernel the packed one replaced, kept as a reference."""
    echelon = []  # (pivot column, normalized row)
    ranks = []
    idx = 0
    for size in group_sizes:
        for _ in range(size):
            row = [x % p for x in rows[idx]]
            idx += 1
            for pc, er in echelon:
                f = row[pc]
                if f:
                    row = [(x - f * y) % p for x, y in zip(row, er)]
            pc = next((j for j, x in enumerate(row) if x), None)
            if pc is not None:
                inv = pow(row[pc], -1, p)
                echelon.append((pc, [x * inv % p for x in row]))
        ranks.append(len(echelon))
    return ranks


def sympy_rank(rows, p):
    """Rank over GF(p) by sympy's DomainMatrix, an independent oracle."""
    if not rows or not rows[0]:
        return 0
    field = GF(p)
    return DomainMatrix([[field(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()


def low_rank_matrix(rng, nrows, ncols, rank, p):
    """Random rows drawn from the span of ``rank`` random rows."""
    span = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coef = [rng.randrange(p) for _ in span]
        rows.append([sum(c * v[j] for c, v in zip(coef, span)) % p for j in range(ncols)])
    return rows


def split_sizes(rng, total):
    """Group sizes summing to ``total``, zeros included."""
    sizes = []
    while total:
        size = rng.randint(0, min(total, 4))
        sizes.append(size)
        total -= size
    return sizes + [0] * rng.randint(0, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernel_matches_list_kernel_and_sympy(p):
    assert is_probable_prime(p)
    rng = random.Random(p)
    shapes = [(12, 4), (4, 12), (9, 9), (1, 7), (7, 1), (30, 25), (25, 40)]
    for nrows, ncols in shapes:
        for rank in {0, 1, min(nrows, ncols) // 2, min(nrows, ncols)}:
            rows = low_rank_matrix(rng, nrows, ncols, rank, p)
            sizes = split_sizes(rng, nrows)
            got = group_ranks_mod_p(rows, p, sizes)
            assert got == list_group_ranks_mod_p(rows, p, sizes), (nrows, ncols, rank)
            assert got[-1] == sympy_rank(rows, p)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernel_edge_shapes(p):
    rng = random.Random(-p)
    row = [rng.randrange(p) for _ in range(6)]
    other = [rng.randrange(p) for _ in range(6)]
    zero = [0] * 6
    cases = [
        ([row, row, row], [1, 1, 1]),  # duplicate rows
        ([zero, row, zero, other, row], [2, 0, 3]),  # zero rows and an empty group
        ([zero, zero], [2]),
        ([[p - 1] * 6 for _ in range(4)], [4]),  # every slot starts at its maximum
        ([[0], [1], [0]], [1, 1, 1]),
    ]
    for rows, sizes in cases:
        got = group_ranks_mod_p(rows, p, sizes)
        assert got == list_group_ranks_mod_p(rows, p, sizes)
        assert got[-1] == sympy_rank(rows, p)
    assert group_ranks_mod_p([], p, []) == []
    assert group_ranks_mod_p([], p, [0, 0]) == [0, 0]
    assert group_ranks_mod_p([[], []], p, [1, 1]) == [0, 0]
    assert group_ranks_mod_p([], p, [0])[-1] == 0


def test_packed_kernel_on_wide_slot_growth():
    # A full-rank square matrix makes every row meet every earlier pivot, so
    # the unreduced slots grow the most the width bound allows for.
    rng = random.Random(29)
    for n in (40, 90):
        rows = [[rng.randrange(TOP_PRIME) for _ in range(n)] for _ in range(n)]
        assert group_ranks_mod_p(rows, TOP_PRIME, [n]) == [n]
        assert group_ranks_mod_p(rows, TOP_PRIME, [n // 2, n - n // 2]) == \
            list_group_ranks_mod_p(rows, TOP_PRIME, [n // 2, n - n // 2])


@pytest.mark.parametrize("nrows, one_word", [(2, True), (3, False)])
def test_slot_width_picks_the_packing(monkeypatch, nrows, one_word):
    # At p = 2**31 - 1 the slot needs 2 * 31 + bits(m + 1) bits: 64 for m = 2
    # rows, one word, and 65 for m = 3, packed byte by byte.
    p = (1 << 31) - 1
    assert (2 * p.bit_length() + (nrows + 1).bit_length() <= 64) == one_word
    typecodes = []

    def spy(typecode, *args):
        typecodes.append(typecode)
        return array(typecode, *args)

    monkeypatch.setattr(linalg, "array", spy)
    rng = random.Random(nrows)
    for rows in ([[p - 1] * 5 for _ in range(nrows)],
                 [[p - 1] * 5] + [[rng.choice((p - 1, rng.randrange(p))) for _ in range(5)]
                                  for _ in range(nrows - 1)]):
        got = group_ranks_mod_p(rows, p, [1] * nrows)
        assert got == list_group_ranks_mod_p(rows, p, [1] * nrows)
        assert got[-1] == sympy_rank(rows, p)
    assert set(typecodes) == ({"Q"} if one_word else set())


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([(1 << 31) - 1, TRIAL_PRIME, BIG_PRIME]),
    ncols=st.integers(1, 6),
    data=st.data(),
)
def test_echelon_takes_every_row_form(p, ncols, data):
    # Lists, array('Q') residue rows and unreduced rows are the same matrix,
    # in one-word slots (up to 2 rows at 2**31 - 1, the trial prime) and wide ones.
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    npiv = data.draw(st.integers(0, ncols))
    entry = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=sum(sizes), max_size=sum(sizes)))
    lift = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    lifts = data.draw(st.lists(lift, min_size=len(rows), max_size=len(rows)))
    unreduced = [[x + k * p for x, k in zip(r, ks)] for r, ks in zip(rows, lifts)]
    want = linalg._echelon(rows, p, sizes, npiv)
    assert linalg._echelon([array("Q", r) for r in rows], p, sizes, npiv) == want
    assert linalg._echelon(unreduced, p, sizes, npiv) == want
    assert linalg._echelon([[x or p for x in r] for r in rows], p, sizes, npiv) == want
    if npiv == ncols:
        assert want[0] == list_group_ranks_mod_p(rows, p, sizes)


def test_trial_primes_fit_one_word_slot():
    # 2 * bits(p) + bits(m + 1) <= 64 for every m <= 16382, and not for m = 16383.
    assert 2 * TRIAL_PRIME.bit_length() + (16382 + 1).bit_length() <= 64
    assert 2 * TRIAL_PRIME.bit_length() + (16383 + 1).bit_length() > 64


@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernel_reduces_unreduced_and_negative_entries(p):
    rng = random.Random(31 + p)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-(p << 70), p << 70) for _ in range(ncols)] for _ in range(nrows)]
        reduced = [[x % p for x in row] for row in rows]
        sizes = split_sizes(rng, nrows)
        assert group_ranks_mod_p(rows, p, sizes) == list_group_ranks_mod_p(reduced, p, sizes)
    assert group_ranks_mod_p([[-1, 1], [1, -1]], p, [2])[-1] == 1
    assert group_ranks_mod_p([[-1, 0], [0, -p - 1]], p, [2])[-1] == 2


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    ncols=st.integers(1, 6),
    data=st.data(),
)
def test_group_ranks_monotone_and_last_is_rank(p, ncols, data):
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    row = st.lists(st.integers(-3 * p, 3 * p), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=sum(sizes), max_size=sum(sizes)))
    ranks = group_ranks_mod_p(rows, p, sizes)
    assert len(ranks) == len(sizes)
    assert ranks == sorted(ranks)
    assert ranks[-1] == group_ranks_mod_p(rows, p, [len(rows)])[-1]
    assert ranks[-1] <= min(len(rows), ncols)


def test_nullspace_exact():
    rng = random.Random(19)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols, with_fractions=True)
        basis = nullspace_exact(rows, ncols)
        assert len(basis) == ncols - rank_exact(rows)
        for vec in basis:
            assert len(vec) == ncols
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
        if basis:
            assert rank_exact(basis) == len(basis)
    assert nullspace_exact([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_is_probable_prime_against_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_probable_prime(n) == sieve[n], n


def test_is_probable_prime_hard_cases():
    for carmichael in (561, 1105, 1729, 29341, 41041):
        assert not is_probable_prime(carmichael)
    assert is_probable_prime((1 << 61) - 1)
    assert is_probable_prime((1 << 89) - 1)
    assert not is_probable_prime((1 << 67) - 1)  # 193707721 * 761838257287


def test_random_prime_reproducible():
    lo, hi = 1 << 50, 1 << 62
    avoid = {3, 5, 7}
    p1 = random_prime(random.Random("fixed"), lo, hi, avoid)
    p2 = random_prime(random.Random("fixed"), lo, hi, avoid)
    assert p1 == p2
    assert lo <= p1 < hi
    assert is_probable_prime(p1)
    assert p1 not in avoid
    assert random_prime(random.Random("other"), lo, hi, avoid) != p1


def sympy_matrix(rows, ncols):
    return Matrix(len(rows), ncols,
                  [Rational(x.numerator, x.denominator) for row in rows for x in row])


def exact_oracle_cases():
    """Int and Fraction matrices: low rank, duplicate and zero rows, 2**200 entries."""
    rng = random.Random(41)
    for nrows, ncols in [(1, 1), (3, 5), (5, 3), (6, 6), (7, 4), (4, 7)]:
        for rank in sorted({0, 1, min(nrows, ncols) // 2, min(nrows, ncols)}):
            for scale in (5, 1 << 200):
                left = [[rng.randint(-scale, scale) for _ in range(rank)] for _ in range(nrows)]
                right = [[rng.randint(-scale, scale) for _ in range(ncols)] for _ in range(rank)]
                rows = [[sum(a * b[j] for a, b in zip(row, right)) for j in range(ncols)]
                        for row in left]
                if nrows > 1:
                    rows[rng.randrange(nrows)] = list(rows[0])
                rows.insert(rng.randrange(nrows + 1), [0] * ncols)
                yield rows, ncols
                scales = [Fraction(1, rng.randint(1, 9)) for _ in rows]
                yield [[x * c for x in row] for row, c in zip(rows, scales)], ncols
        yield random_matrix(rng, nrows, ncols, with_fractions=True), ncols


def test_exact_kernels_match_sympy():
    rng = random.Random(43)
    for rows, ncols in exact_oracle_cases():
        sizes = split_sizes(rng, len(rows))
        want, cut = [], 0
        for size in sizes:
            cut += size
            want.append(sympy_matrix(rows[:cut], ncols).rank())
        assert group_ranks_exact(rows, sizes) == want
        full = sympy_matrix(rows, ncols)
        assert rank_exact(rows) == full.rank()
        basis = nullspace_exact(rows, ncols)
        oracle = full.nullspace()
        assert len(basis) == len(oracle)
        if basis:
            # Two bases span the same space exactly when their RREFs agree.
            ours = sympy_matrix(basis, ncols)
            assert ours.rref()[0] == Matrix.hstack(*oracle).T.rref()[0]


def test_exact_rank_needs_more_than_one_prime():
    primes = [_prime_below(1 << 61)]  # the exact field's primes, largest first
    while len(primes) < 3:
        primes.append(_prime_below(primes[-1]))
    prime = primes[0]
    # diag(P, 1) and [[P, 1], [0, 1]] have determinant P: singular mod the
    # first prime of the sequence, regular over Q.
    for rows in ([[prime, 0], [0, 1]], [[prime, 1], [0, 1]]):
        assert rank_exact(rows) == 2
        assert group_ranks_exact(rows, [1, 1]) == [1, 2]
    product = math.prod(primes)
    assert rank_exact([[product, 1], [0, 1]]) == 2
    assert rank_exact([[product, 1], [0, 1], [product, 2]]) == 2
    # Rows of norm about sqrt(P) whose 2-minor is P, the first or the second
    # prime: the stop must use the m + 1 largest norms, and the max of the
    # checkpoints over every prime so far.
    for p, rest in ((primes[0], []), (primes[1], [[0, 0, 0]])):
        s = math.isqrt(p)
        rows = [[s, -1, 0], [p - s * s, s, 0]] + rest
        assert group_ranks_exact(rows, [2] + [1] * len(rest)) == [2] * (1 + len(rest))
    # A rank-1 block of 2**200 entries: its row dependency is recovered and
    # checked exactly over the integers.
    big = [(1 << 200) + 7, (1 << 201) - 3]
    assert group_ranks_exact([big, [2 * x for x in big], [0, 1]], [2, 1]) == [1, 2]


def test_exact_rank_keeps_the_prime_with_the_latest_dependent_rows():
    # Mod P, row 1 is dependent and row 2 is not; over Q it is the other way
    # round, with the same final rank.  A rule that keeps the prime with the
    # most pivots would keep P's false dependency and never finish.
    p = _prime_below(1 << 61)
    assert group_ranks_exact([[1, 0], [1, p], [0, 1]], [1, 1, 1]) == [1, 2, 2]
    assert nullspace_exact([[1, 1, 0], [0, p, 1]], 3) == [[Fraction(1, p), Fraction(-1, p), 1]]


def test_exact_ranks_skip_a_prime_with_fewer_dependent_rows():
    # Mod q the second row reads (1, 0, 0), so it is dependent there and the
    # third is not: q's list [1] is below the other primes' [2] and is skipped.
    q = _prime_below(_prime_below(1 << 61))
    assert group_ranks_exact([[1, 0, 0], [1, q, 0], [0, 1, 0]], [1, 1, 1]) == [1, 2, 2]
