"""Exact linear algebra: ranks over F_p and Q, determinants, kernels.

Matrices are lists of rows: lists of ints, over Q of ints and Fractions,
or over F_p ``array('Q')`` rows of residues.
``_echelon`` is the one elimination loop.  Answers over Q run it mod the
primes below 2**61 and lift its results by CRT.  A rank over Q counts pivot
rows, independent mod p and so over Q; every other row is shown dependent
on earlier ones by a nonzero integer combination that is exactly zero, read
mod p off an identity block and rationally reconstructed (Wang, Guy and
Davenport 1982).  A determinant is lifted past twice the Hadamard bound.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12 = 399165290221 * 798330580441, the least composite that passes the test.
_MR_EXACT_BELOW = 318665857834031151167461


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2..37, deterministic for n < _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int, avoid=frozenset()) -> int:
    """A random prime in [lo, hi) outside ``avoid``."""
    while True:
        cand = rng.randrange(lo | 1, hi, 2)
        if cand not in avoid and is_probable_prime(cand):
            return cand


def group_ranks_mod_p(rows, p: int, group_sizes) -> list[int]:
    """Ranks over F_p of the leading rows cut after each group: one pass serves a scan."""
    return _echelon(rows, p, group_sizes, len(rows[0]) if rows else 0)[0]


def _echelon(rows, p: int, group_sizes, npiv: int):
    """Online row echelon over F_p, with pivots sought in the first ``npiv`` columns.

    Returns the rank after each group of rows, each pivot's (column, value),
    and, by row, the slots past ``npiv`` of each row left without a pivot
    before the rank reached ``npiv``.  Rows are lists of ints or
    ``array('Q')`` rows; a row whose entries lie in [0, p) is not reduced
    again.  Each row is packed into one int, an ``nb``-byte slot per column,
    so a reduction is one multiply-add.  A slot that fits in 64 bits is one
    word, and a row packs and unpacks through one ``array('Q')``; wider slots
    go through bytes one entry at a time.  A pivot row is packed as it is,
    with c = -1/pivot, and clears a slot s by adding (s * c mod p) times it.
    """
    ncols = len(rows[0]) if rows else 0
    # Slot invariant: a slot starts below p, and each of at most m = min(nrows, npiv)
    # reductions adds f * y <= (p - 1)**2, so it stays below (m + 1) * p**2 < 2**bits.
    # If this ever breaks, to_bytes raises OverflowError once the carry reaches the top slot.
    bits = 2 * p.bit_length() + (min(len(rows), npiv) + 1).bit_length()
    nb = 8 if bits <= 64 else (bits + 7) // 8
    width = 8 * nb
    mask = (1 << width) - 1
    nbytes = nb * ncols
    top = (ncols - 1) * width
    if nb == 8:
        swap = sys.byteorder == "little"

        def pack(vals):
            words = array("Q", vals)
            if swap:
                words.byteswap()
            return int.from_bytes(words, "big")

        def unpack(w):
            words = array("Q", w.to_bytes(nbytes, "big"))
            if swap:
                words.byteswap()
            return words
    else:
        def pack(vals):
            return int.from_bytes(b"".join([x.to_bytes(nb, "big") for x in vals]), "big")

        def unpack(w):
            buf = w.to_bytes(nbytes, "big")
            return [int.from_bytes(buf[i:i + nb], "big") for i in range(0, nbytes, nb)]
    echelon = []  # (bit offset of the pivot slot, -1/pivot mod p, packed row)
    pivots = []
    dependent = {}
    ranks = []
    idx = 0
    for size in group_sizes:
        if len(echelon) < npiv:
            for k, row in enumerate(rows[idx:idx + size], idx):
                vals = row if min(row) >= 0 and max(row) < p else [x % p for x in row]
                if echelon:
                    w = pack(vals)
                    for shift, c, packed in echelon:
                        f = (w >> shift & mask) * c % p
                        if f:
                            w += f * packed
                    vals = [x % p for x in unpack(w)]
                for pc, x in zip(range(npiv), vals):
                    if x:
                        echelon.append((top - pc * width, p - pow(x, -1, p), pack(vals)))
                        pivots.append((pc, x))
                        break
                else:
                    dependent[k] = list(vals[npiv:])
                if len(echelon) == npiv:
                    break
        idx += size
        ranks.append(len(echelon))
    return ranks, pivots, dependent


def _primitive_integer_row(row):
    """(ints, scale) with row == scale * ints and ints a primitive integer vector."""
    den = math.lcm(*[x.denominator for x in row if isinstance(x, Fraction)])
    ints = [int(x * den) for x in row]
    g = math.gcd(*ints) or 1
    return [x // g for x in ints], Fraction(g, den)


@cache
def _prime_below(n: int) -> int:
    """The largest prime below n, cached: each exact-field prime is found once per process."""
    p = n - 1
    while not is_probable_prime(p):
        p -= 1
    return p


def _lift_dependency(rows, residues, m: int) -> list[int]:
    """Integers, not all 0, combining ``rows`` to exactly 0, congruent mod m to den * residues.

    Each entry is reconstructed as n/d with |n|, d <= sqrt(m/2), and d joins
    den.  ValueError if an entry has no such n/d or the integers fail.
    """
    bound = math.isqrt(m // 2)
    den, ints = 1, []
    for a in residues:
        r0, r1, t0, t1 = m, a * den % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound:
            raise ValueError("an entry is no small fraction mod m")
        if abs(t1) > 1:
            den *= abs(t1)
            ints = [x * abs(t1) for x in ints]
        ints.append(r1 if t1 > 0 else -r1)
    if not any(ints) or any(sum(c * x for c, x in zip(ints, col) if c) for col in zip(*rows)):
        raise ValueError("the combination is zero or does not vanish")
    return ints


def _dependencies(rows, group_sizes):
    """(ranks, combos) of integer rows over Q, combos keyed by the rows without a pivot.

    Rows dependent mod p, with nrows appended, list lexicographically at most
    those over Q, and equal them for almost every prime: the largest list wins.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    augmented = [row + [0] * i + [1] + [0] * (nrows - 1 - i) for i, row in enumerate(rows)]
    best, p = [], 1 << 61
    while True:
        p = _prime_below(p)
        ranks, _, dependent = _echelon(augmented, p, group_sizes, ncols)
        key = [*dependent, nrows]
        if key < best:
            continue
        if key > best:  # restart the CRT from zero mod 1
            best, modulus, residues = key, 1, {k: [0] * len(w) for k, w in dependent.items()}
        inv = pow(modulus, -1, p)
        residues = {k: [a + modulus * ((b - a) * inv % p) for a, b in zip(old, dependent[k])]
                    for k, old in residues.items()}
        modulus *= p
        try:
            return ranks, {k: _lift_dependency(rows, res, modulus) for k, res in residues.items()}
        except ValueError:
            pass


def rank_exact(rows) -> int:
    """Rank over Q; the last checkpoint of :func:`group_ranks_exact`."""
    return group_ranks_exact(rows, [len(rows)])[-1]


def group_ranks_exact(rows, group_sizes) -> list[int]:
    """The checkpoints of :func:`group_ranks_mod_p` over Q, proved by ``_dependencies``."""
    return _dependencies([_primitive_integer_row(row)[0] for row in rows], group_sizes)[0]


def det_exact(rows) -> Fraction:
    """Exact determinant of a square matrix over Q.

    Mod p it is the sign of the pivot columns' permutation times the pivots'
    product, or 0 with fewer than n pivots.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    cleared = [_primitive_integer_row(row) for row in rows]
    ints = [row for row, _ in cleared]
    hadamard_sq = math.prod(sum(x * x for x in row) for row in ints)
    det, modulus, p = 0, 1, 1 << 61
    while modulus * modulus <= 4 * hadamard_sq:
        p = _prime_below(p)
        _, pivots, _ = _echelon(ints, p, [n], n)
        sign = (-1) ** sum(a > b for i, (a, _) in enumerate(pivots) for b, _ in pivots[i + 1:])
        residue = sign * math.prod(x for _, x in pivots) if len(pivots) == n else 0
        det += modulus * ((residue - det) * pow(modulus, -1, p) % p)
        modulus *= p
    det = det - modulus if 2 * det > modulus else det
    return math.prod((scale for _, scale in cleared), start=Fraction(det))


def nullspace_exact(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel over Q: the reduced row echelon one, the columns' dependencies."""
    ints = [_primitive_integer_row(row)[0] for row in rows]
    # A zero appended to each column keeps the rank below npiv, so no column is skipped.
    columns = [[row[c] for row in ints] + [0] for c in range(ncols)]
    combos = _dependencies(columns, [ncols])[1]
    return [[Fraction(a, combo[k]) for a in combo] for k, combo in combos.items()]
