"""Exact linear algebra: ranks over F_p and Q, determinants, kernels.

Matrices are lists of row lists of ints or, over Q, ints and Fractions.
One elimination kernel serves both fields: ``group_ranks_mod_p``, an online
row echelon that records the rank after each group of rows, so one pass
serves every leading sub-configuration.  It packs each row into one Python
int with a fixed-width slot per column, so a reduction step is one C-level
bigint multiply-add.  A slot holds at least 2*bits(p) + bits(min(nrows,
ncols) + 1) bits, rounded up to whole bytes, enough for every pivot step a
row can meet before it is reduced mod p again.  Ranks over Q
(``group_ranks_exact``) run that kernel on the cleared integer rows mod
fixed 61-bit primes until the ranks are trivially full or the primes'
product exceeds the Hadamard bound of every larger minor, which proves them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 with the fixed base set."""
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
    """A random prime in [lo, hi] outside ``avoid``."""
    while True:
        cand = rng.randrange(lo | 1, hi, 2)
        if cand not in avoid and is_probable_prime(cand):
            return cand


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return group_ranks_mod_p(rows, p, [len(rows)])[-1]


def group_ranks_mod_p(rows, p: int, group_sizes) -> list[int]:
    """Online row echelon over F_p with rank checkpoints.

    Processes rows in order; after each group of ``group_sizes[k]`` rows the
    current rank is recorded.  One elimination pass therefore yields the
    ranks of all leading-row submatrices cut at the group boundaries, which
    is what incremental point-count scans need.

    Each row is packed into one Python int with one slot of ``nb`` bytes per
    column (Kronecker substitution), big-endian: column 0 is the most
    significant slot, so a normalized echelon row, zero left of its pivot,
    is a short int.  Entries are reduced mod p before packing, so every
    slot starts in [0, p).  Reducing by an echelon row whose pivot slot
    holds f is the single bigint multiply-add ``w += (p - f) * pivot_row``;
    no slot is reduced mod p in between.  After its last reduction a row is
    unpacked and reduced once; if a pivot is left, the normalized row is
    repacked and appended.  Once the rank reaches the column count every
    later row is dependent and is skipped.
    """
    ncols = len(rows[0]) if rows else 0
    # Slot invariant: a slot starts below p and each of the at most
    # min(nrows, ncols) reductions adds (p - f) * y <= (p - 1)**2, so it stays
    # below (min(nrows, ncols) + 1) * p**2 < 2**bits.  If this ever breaks,
    # to_bytes raises OverflowError once the carry reaches the top slot.
    bits = 2 * p.bit_length() + (min(len(rows), ncols) + 1).bit_length()
    nb = (bits + 7) // 8
    width = 8 * nb
    mask = (1 << width) - 1
    nbytes = nb * ncols
    top = (ncols - 1) * width
    echelon = []  # (bit offset of the pivot slot, packed normalized row)
    ranks = []
    idx = 0
    for size in group_sizes:
        if len(echelon) < ncols:
            for row in rows[idx:idx + size]:
                vals = [x % p for x in row]
                if echelon:
                    w = int.from_bytes(b"".join([x.to_bytes(nb, "big") for x in vals]), "big")
                    for shift, packed in echelon:
                        f = ((w >> shift) & mask) % p
                        if f:
                            w += (p - f) * packed
                    buf = w.to_bytes(nbytes, "big")
                    vals = [int.from_bytes(buf[i:i + nb], "big") % p for i in range(0, nbytes, nb)]
                for pc, x in enumerate(vals):
                    if x:
                        inv = pow(x, -1, p)
                        packed = b"".join([(y * inv % p).to_bytes(nb, "big") for y in vals])
                        echelon.append((top - pc * width, int.from_bytes(packed, "big")))
                        break
                if len(echelon) == ncols:
                    break
        idx += size
        ranks.append(len(echelon))
    return ranks


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


def rank_exact(rows) -> int:
    """Rank over Q; the last checkpoint of :func:`group_ranks_exact`."""
    return group_ranks_exact(rows, [len(rows)])[-1]


def group_ranks_exact(rows, group_sizes) -> list[int]:
    """The checkpoints of :func:`group_ranks_mod_p` over Q, proved mod primes.

    Rows are cleared to primitive integer vectors; each checkpoint is the
    max of its ranks mod the primes below 2**61, largest first.  This stops
    once every checkpoint reaches min(rows so far, ncols), or once the
    product P of the primes used exceeds H, the product of the m + 1 largest
    row norms (a zero row counting as 1), m the largest checkpoint so far.

    Proof.  For an integer matrix rank mod p <= rank over Q.  If a leading
    block with checkpoint c had rank over Q >= c + 1, some (c + 1)-minor
    D != 0 would exist.  Every prime used leaves the block at rank <= c, so
    divides every (c + 1)-minor, and P divides D.  But by Hadamard |D| <= H
    (c + 1 <= m + 1 rows) and H < P, so D = 0, a contradiction.
    """
    rows = [_primitive_integer_row(row)[0] for row in rows]
    ncols = len(rows[0]) if rows else 0
    bounds = [min(cut, ncols) for cut in accumulate(group_sizes)]
    sq_norms = sorted((max(1, sum(x * x for x in row)) for row in rows), reverse=True)
    ranks = [0] * len(group_sizes)
    product, p = 1, 1 << 61
    while True:
        p = _prime_below(p)
        ranks = [max(a, b) for a, b in zip(ranks, group_ranks_mod_p(rows, p, group_sizes))]
        product *= p
        if ranks == bounds or product * product > math.prod(sq_norms[:max(ranks, default=0) + 1]):
            return ranks


def det_exact(rows) -> Fraction:
    """Exact determinant of a square matrix over Q (Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    cleared = [_primitive_integer_row(row) for row in rows]
    m = [ints for ints, _ in cleared]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] * math.prod(scale for _, scale in cleared)


def nullspace_exact(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel over Q (reduced row echelon back-substitution)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][c]
        basis.append(v)
    return basis
