"""Hilbert functions of fat-point schemes by exact rank computations.

A configuration of r points with multiplicities (m_1, ..., m_r) imposes, in
degree d, one linear condition per derivative operator of order m_i - 1 at
each point.  The evaluation matrix collects these conditions against the
degree-d monomial basis; its rank is the Hilbert function of the scheme,
and the scheme imposes independent conditions exactly when the rank hits
min{s_d, sum of the condition counts}.

Rows are built from per-point derivative tables: for each variable j the
k-th derivatives of x_j^e at the point's coordinate c_j, e!/(e-k)! *
c_j^(e-k), for every order k < m and exponent e.  The basis exponents are
transposed into one column per variable once per matrix, so an operator's
row is a product of table lookups over those columns and one reduction.

Generic behaviour is probed by sampling: coordinates are drawn from a
random prime field (a fresh prime in [2**24, 2**25) per trial, always larger
than the degree so the derivative model stays faithful), and ranks are
maximized over a few trials.  A rank that reaches its expected value is
proved at any such prime, since a minor nonzero mod p is nonzero over Z;
the prime's size only sets how often a trial under-reports and another
runs.  By the Schwartz-Zippel lemma (Schwartz, JACM 1980) an m x m minor of
degree-d rows, a nonzero polynomial of degree at most m*d in the
coordinates, vanishes with probability at most m*d/p: about 5.5e-4 for a
201 x 200 matrix at d = 46.  At these primes a reduced matrix entry fits
one 64-bit slot of ``linalg._echelon`` for every m <= 16382.  Over any
prime below 2**64 a row is an ``array('Q')`` of residues, 8 bytes an entry;
over Q or a wider fixed prime it is a list of ints (``_point_rows``).

The exact field samples integer points and takes the rank over Q of their
matrix (``linalg.group_ranks_exact``: the same mod-p elimination over fixed
primes, with every row dependency checked exactly over the integers, so a
deficient rank is proved).  All randomness is derived from (seed,
degree, trial), so results are reproducible across runs and processes.

One trial loop serves every rank profile: ``hilbert_fat_points`` (the
whole configuration) and ``ah_profile_scan`` (every leading part of it).
It enumerates the basis once per degree.  When the points impose few
conditions against s_d, a trial first ranks its rows on a column subset:
with k the largest expected value, k + 8 columns whenever 2 (k + 8) <= s_d,
namely every column of total degree at most m - 2 for the largest
multiplicity m (the extra rows' columns) and random others.  The bound is
two-sided: a subset's rank is at most the full matrix's, which is at most
its expected value min{s_d, conditions}.  So a subset that reaches every
expected value gives the full matrix's ranks; one that falls short leaves
the trial to the full matrix, and the degree's later trials skip the
subset.  Ranks and trial counts are the full matrix's either way.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import mul

from .grading import Weights, count_monomials, enumerate_monomials
from .ideals import WeightedPoint
from .linalg import (
    _MR_EXACT_BELOW,
    group_ranks_exact,
    group_ranks_mod_p,
    is_probable_prime,
    random_prime,
)

PRIME_LOW = 2**24
PRIME_HIGH = 2**25
EXACT_COORD_HIGH = 999983


class FieldTooSmallError(ValueError):
    """Raised when the working prime does not exceed the degree."""


def conditions_of_multiplicity(multiplicity: int, n: int) -> int:
    """Number of linear conditions a multiplicity-m point imposes in n+1 variables."""
    return math.comb(n + multiplicity - 1, n)


def derivative_operators(nvars: int, order: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total order ``order``, lexicographically descending."""
    if nvars == 1:
        return [(order,)]
    out = []
    for first in range(order, -1, -1):
        for rest in derivative_operators(nvars - 1, order - first):
            out.append((first,) + rest)
    return out


def _stream(*parts) -> random.Random:
    return random.Random("wpinterp:" + ":".join(str(p) for p in parts))


def _trial_prime(rng: random.Random, degree: int, weights: Weights) -> int:
    avoid = {2, 3, 5} | set(weights)
    avoid |= {x + y for x in weights for y in weights}
    lo = max(PRIME_LOW, degree + 1)
    # Past PRIME_HIGH a prime still lies in [lo, 2 * lo) (Bertrand), in wider slots.
    return random_prime(rng, lo, max(PRIME_HIGH, 2 * lo), avoid)


def _sample_coords(weights: Weights, count: int, rng: random.Random, high: int):
    """Coordinates for ``count`` generic points.

    The first weight-one slot, if any, is pinned to 1 for every point; the
    remaining slots get nonzero values, pairwise distinct within each slot,
    from 1..high; more points than that is a ValueError.
    """
    pin = next((i for i, a in enumerate(weights) if a == 1), None)
    if count > high and any(j != pin for j in range(len(weights))):
        raise ValueError(
            f"{count} generic points need {count} distinct nonzero values per coordinate, "
            f"but only {high} are available"
        )
    used = [set() for _ in weights]
    points = []
    for _ in range(count):
        coords = []
        for j in range(len(weights)):
            if j == pin:
                coords.append(1)
                continue
            while True:
                val = rng.randrange(1, high + 1)
                if val not in used[j]:
                    used[j].add(val)
                    coords.append(val)
                    break
        points.append(tuple(coords))
    return points


def _fixed_prime(field, degree: int) -> int:
    """A fixed prime field, checked to be prime and to exceed the degree.

    Primality is only certain below ``_MR_EXACT_BELOW``, so no larger field is taken.
    """
    prime = int(field)
    if prime >= _MR_EXACT_BELOW:
        raise ValueError(
            f"field must be below {_MR_EXACT_BELOW}, where primality is certain, got {prime}"
        )
    if not is_probable_prime(prime):
        raise ValueError(f"field must be prime, got {prime}")
    if prime <= degree:
        raise FieldTooSmallError(f"prime {prime} does not exceed the degree {degree}")
    return prime


def sample_trial(weights: Weights, count: int, degree: int, seed, trial: int, field=None):
    """Prime and point coordinates for one sampling trial.

    Returns (prime, coords) where prime is None in exact mode.  The stream
    is keyed by (seed, degree, trial) only, so any caller asking for the
    same trial sees the same prime and the same points.
    """
    rng = _stream(seed, degree, trial)
    if field == "exact":
        prime = None
        high = EXACT_COORD_HIGH
    else:
        prime = _trial_prime(rng, degree, weights) if field is None else _fixed_prime(field, degree)
        high = prime - 1
    return prime, _sample_coords(weights, count, rng, high)


@dataclass(frozen=True)
class FatPointConfig:
    """A fat-point interpolation problem.

    points left as None means "sample generic points"; a fixed prime, the
    string "exact", or None (fresh random prime per trial) selects the field;
    a prime is stored as an int.
    """

    weights: Weights
    multiplicities: tuple[int, ...]
    points: tuple | None = None
    field: object = None
    seed: object = 0
    trials: int = 3

    def __post_init__(self):
        w = Weights(self.weights)
        object.__setattr__(self, "weights", w)
        mults = tuple(int(m) for m in self.multiplicities)
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "multiplicities", mults)
        if self.points is not None:
            pts = tuple(
                p if isinstance(p, WeightedPoint) else WeightedPoint(w, p)
                for p in self.points
            )
            if len(pts) != len(mults):
                raise ValueError("points and multiplicities differ in length")
            object.__setattr__(self, "points", pts)
        if self.field not in (None, "exact"):
            object.__setattr__(self, "field", int(self.field))
        if self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def r(self) -> int:
        return len(self.multiplicities)

    @property
    def conditions(self) -> int:
        n = self.weights.n
        return sum(conditions_of_multiplicity(m, n) for m in self.multiplicities)


@dataclass
class EvaluationMatrix:
    """Derivative conditions (rows, grouped by point) against the monomial basis.

    Each row is an ``array('Q')`` of residues over a prime below 2**64, and
    a list of ints over Q or a wider prime (``_point_rows``).
    """

    weights: Weights
    degree: int
    basis: list
    rows: list
    multiplicities: tuple[int, ...]
    prime: int | None
    points: list

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.basis)

    def group_sizes(self) -> list[int]:
        n = self.weights.n
        sizes = {
            m: conditions_of_multiplicity(m, n) + len(_low_columns(self.basis, m))
            for m in set(self.multiplicities)
        }
        return [sizes[m] for m in self.multiplicities]

    def rank(self) -> int:
        """Rank of all rows: the one checkpoint of a single group."""
        return self._checkpoints([self.nrows])[-1]

    def group_ranks(self) -> list[int]:
        """Rank after each point's block of rows, one elimination pass."""
        return self._checkpoints(self.group_sizes())

    def _checkpoints(self, sizes) -> list[int]:
        if not self.basis:
            return [0] * len(sizes)
        if self.prime is not None:
            return group_ranks_mod_p(self.rows, self.prime, sizes)
        return group_ranks_exact(self.rows, sizes)


def _low_columns(basis, multiplicity: int) -> list[int]:
    """Columns of the monomials of total degree at most multiplicity - 2."""
    return [col for col, e in enumerate(basis) if sum(e) <= multiplicity - 2]


def _derivative_tables(coords, tops, order: int, prime) -> list[list[list]]:
    """tables[j][k][e] = (d/dx)^k x^e at x = coords[j], for k <= order, e <= tops[j].

    The entry is e!/(e-k)! * c^(e-k), or 0 for e < k, reduced mod the prime
    if there is one.  Each order is the previous one shifted and scaled,
    D[k][e] = e * D[k-1][e-1] with D[k][0] = 0, so the zeros come for free.
    """
    tables = []
    for c, top in zip(coords, tops):
        powers = [1] * (top + 1)
        for e in range(1, top + 1):
            powers[e] = powers[e - 1] * c % prime if prime else powers[e - 1] * c
        table = [powers]
        for _ in range(order):
            shifted = [0, *map(mul, range(1, top + 1), table[-1])]
            table.append(list(map(prime.__rmod__, shifted)) if prime else shifted)
        tables.append(table)
    return tables


def _point_rows(columns, tops, coords, ops, low_rows, prime) -> list:
    """All condition rows of one point.

    One row per operator of order multiplicity-1; the weighted Euler identity
    then forces every lower-order derivative to vanish as well, except where
    the complementary degree is zero and the identity degenerates.  Those
    operators are exactly the degree-d monomials of total degree at most
    multiplicity-2, and their (constant) values, ``low_rows`` as (column,
    value) pairs, are imposed as extra rows.

    ``columns[j]`` holds the exponent of variable j in every basis monomial
    and ``tops[j]`` its largest value.  The entry of operator op at monomial
    e is the product over j of the derivative tables D_j[op_j][e_j], so a
    row is one C-level product over the columns and one reduction.
    """
    tables = _derivative_tables(coords, tops, sum(ops[0]), prime)  # every op has one order
    # The row rule: over a prime below 2**64 a row is an array('Q') of
    # residues, 8 bytes an entry; over Q or a wider prime it is a list of ints.
    row_of = partial(array, "Q") if prime and prime < 1 << 64 else list
    rows = []
    for op in ops:
        cells = map(tables[0][op[0]].__getitem__, columns[0])
        for j in range(1, len(columns)):
            cells = map(mul, cells, map(tables[j][op[j]].__getitem__, columns[j]))
        rows.append(row_of(map(prime.__rmod__, cells) if prime else cells))
    ncols = len(columns[0])
    for col, val in low_rows:
        row = row_of([0]) * ncols
        row[col] = val
        rows.append(row)
    return rows


def _matrix_rows(weights: Weights, basis, points, multiplicities, prime) -> list:
    """Condition rows of each point in turn, against the monomial basis.

    The basis is transposed into per-variable exponent columns once, and the
    operators and extra rows are found once per distinct multiplicity.
    """
    nvars = len(weights)
    columns = list(zip(*basis)) or [()] * nvars
    tops = [max(col, default=0) for col in columns]
    per_mult = {}
    for m in set(multiplicities):
        low_rows = []
        for col in _low_columns(basis, m):
            val = math.prod(map(math.factorial, basis[col]))
            low_rows.append((col, val % prime if prime else val))
        per_mult[m] = derivative_operators(nvars, m - 1), low_rows
    rows = []
    for coords, m in zip(points, multiplicities):
        rows.extend(_point_rows(columns, tops, coords, *per_mult[m], prime))
    return rows


def _reduce_coords(coords, prime):
    out = []
    for c in coords:
        c = Fraction(c)
        if c.denominator % prime == 0:
            raise ValueError("coordinate denominator vanishes mod the prime")
        out.append(c.numerator * pow(c.denominator, -1, prime) % prime)
    return tuple(out)


def _trial_points(cfg: FatPointConfig, degree: int, trial: int):
    """(prime, coords) of one trial: cfg's own points, reduced if it names a prime, or sampled."""
    if cfg.points is None:
        return sample_trial(cfg.weights, cfg.r, degree, cfg.seed, trial, cfg.field)
    if cfg.field in (None, "exact"):
        return None, [p.coords for p in cfg.points]
    prime = _fixed_prime(cfg.field, degree)
    return prime, [_reduce_coords(p.coords, prime) for p in cfg.points]


def _evaluation_matrix(cfg: FatPointConfig, degree: int, basis, prime, coords) -> EvaluationMatrix:
    """The matrix of one trial's points against ``basis``, the whole degree's or a column subset."""
    rows = _matrix_rows(cfg.weights, basis, coords, cfg.multiplicities, prime)
    return EvaluationMatrix(cfg.weights, degree, basis, rows, cfg.multiplicities, prime, coords)


def build_evaluation_matrix(cfg: FatPointConfig, degree: int, trial: int = 0) -> EvaluationMatrix:
    """The evaluation matrix of cfg in one degree.

    With explicit points the matrix is exact over Q unless cfg.field is a
    prime, in which case coordinates are reduced.  Without points, one
    sampling trial is instantiated.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    basis = enumerate_monomials(cfg.weights, degree)
    return _evaluation_matrix(cfg, degree, basis, *_trial_points(cfg, degree, trial))


@dataclass(frozen=True)
class RankProfile:
    """Outcome of one Hilbert-function evaluation."""

    weights: Weights
    r: int
    degree: int
    s_d: int
    expected: int
    actual: int
    deficiency: int
    is_AH: bool
    trials: int

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "r": self.r,
            "d": self.degree,
            "s_d": self.s_d,
            "expected": self.expected,
            "actual": self.actual,
            "deficiency": self.deficiency,
            "is_AH": self.is_AH,
            "trials": self.trials,
        }


def _profile(weights, r, degree, s_d, expected, actual, trials) -> RankProfile:
    return RankProfile(
        weights=weights,
        r=r,
        degree=degree,
        s_d=s_d,
        expected=expected,
        actual=actual,
        deficiency=expected - actual,
        is_AH=actual == expected,
        trials=trials,
    )


def _subset_columns(basis, multiplicity: int, size: int, rng: random.Random) -> list[int]:
    """Every low column of the multiplicity and random others, ``size`` columns at least.

    The basis is graded-lex descending, so the low columns are its last ones.
    """
    low = _low_columns(basis, multiplicity)
    others = range(len(basis) - len(low))
    return sorted(rng.sample(others, max(0, size - len(low)))) + low


def _sampled_profiles(cfg: FatPointConfig, degree: int, per_point: bool) -> list[RankProfile]:
    """Profiles of the first k points for k = 1..r (per_point) or k = r alone.

    Each trial builds one evaluation matrix and ranks it with one checkpoint
    per profile, so the exact field proves one rank unless per_point asks
    for r.  Ranks are maximized over the trials until every checkpoint
    reaches its expected value; explicit points are one trial.  Degree zero
    reports the expected value and a degree with no monomials (every
    negative one) or no points reports 0, with no matrix and 0 trials.
    Wide degrees try a column subset first (module docstring), its random
    columns drawn from the trial's own "columns" stream.
    """
    w = cfg.weights
    s_d = count_monomials(w, degree)
    if per_point:
        counts = range(1, cfg.r + 1)
        conditions = accumulate(conditions_of_multiplicity(m, w.n) for m in cfg.multiplicities)
    else:
        counts, conditions = [cfg.r], [cfg.conditions]
    expect = [min(s_d, c) for c in conditions]

    def ranks(basis, prime, coords) -> list[int]:
        mat = _evaluation_matrix(cfg, degree, basis, prime, coords)
        return mat.group_ranks() if per_point else [mat.rank()]

    if degree == 0 or not any(expect):
        best, used = expect, 0
    else:
        size = max(expect) + 8
        subset = 2 * size <= s_d
        basis = enumerate_monomials(w, degree)
        best, used = [0] * len(expect), 0
        for trial in range(cfg.trials if cfg.points is None else 1):
            used += 1
            prime, coords = _trial_points(cfg, degree, trial)
            if subset:
                rng = _stream(cfg.seed, degree, trial, "columns")
                cols = _subset_columns(basis, max(cfg.multiplicities), size, rng)
                got = ranks([basis[c] for c in cols], prime, coords)
                if got == expect:
                    best = got
                    break
                subset = False
            best = [max(b, x) for b, x in zip(best, ranks(basis, prime, coords))]
            if all(b >= e for b, e in zip(best, expect)):
                break
    return [_profile(w, r, degree, s_d, e, b, used) for r, e, b in zip(counts, expect, best)]


def hilbert_fat_points(cfg: FatPointConfig, degree: int) -> RankProfile:
    """Hilbert function of the fat-point scheme in one degree.

    Trials stop once the whole configuration reaches its expected value.
    Degree zero reports 1 for any nonempty configuration, since constants
    are killed by no point, and a degree with no monomials, negative or
    not, reports 0; neither samples anything, so trials is 0.
    """
    return _sampled_profiles(cfg, degree, per_point=False)[0]


def ah_profile_scan(weights, degree: int, r_max: int, multiplicity: int = 2, seed=0,
                    trials: int = 3, field=None) -> list[RankProfile]:
    """Profiles for r = 1..r_max equal-multiplicity generic points, one degree.

    The points of a trial for r_max points extend those for fewer points,
    so one elimination per trial serves every r.  This is the trial loop of
    hilbert_fat_points with its degree conventions, but it stops only once
    every r reaches its expected value, and each profile reports the
    trials of the whole scan.
    """
    cfg = FatPointConfig(weights, (multiplicity,) * r_max, field=field, seed=seed, trials=trials)
    return _sampled_profiles(cfg, degree, per_point=True)


def deficiency_table(cfg: FatPointConfig, degrees) -> list[RankProfile]:
    """hilbert_fat_points over a degree range, in input order."""
    return [hilbert_fat_points(cfg, d) for d in degrees]


def line_interpolation_formula(weights, multiplicities, degree: int) -> int:
    """Hilbert function of fat points on a weighted line P(a, b), closed form.

    Valid for generic points with every coordinate nonzero.  No matrix is
    built: the value is s_d below the critical degree b*(a*M - 1) with
    M = sum of the multiplicities, and M at or beyond it.
    """
    w = Weights(weights)
    if len(w) != 2:
        raise ValueError("expected two weights")
    a, b = w[0], w[1]
    if math.gcd(a, b) != 1:
        raise ValueError("line weights must be coprime")
    total = sum(multiplicities)
    if total == 0:
        return 0
    if degree < b * (a * total - 1):
        return count_monomials(w, degree)
    return total


def simple_points_hilbert(weights, r: int, degree: int) -> int:
    """Expected (and actual, generically) value for r simple points."""
    w = Weights(weights)
    return min(count_monomials(w, degree), r)
