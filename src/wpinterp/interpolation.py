"""Hilbert functions of fat-point schemes by exact rank computations.

A configuration of r points with multiplicities (m_1, ..., m_r) imposes, in
degree d, one linear condition per derivative operator of order m_i - 1 at
each point.  The evaluation matrix collects these conditions against the
degree-d monomial basis; its rank is the Hilbert function of the scheme,
and the scheme imposes independent conditions exactly when the rank hits
min{s_d, sum of the condition counts}.

Generic behaviour is probed by sampling: coordinates are drawn from a large
random prime field (a fresh 50-62 bit prime per trial, always larger than
the degree so the derivative model stays faithful), and ranks are
maximized over a few trials.  The exact field samples integer points and
takes the rank over Q of their matrix (``linalg.group_ranks_exact``).  All
randomness is derived from (seed, degree, trial), so results are
reproducible across runs and processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .grading import Weights, count_monomials, enumerate_monomials
from .ideals import WeightedPoint
from .linalg import (
    group_ranks_exact,
    group_ranks_mod_p,
    is_probable_prime,
    random_prime,
    rank_exact,
    rank_mod_p,
)

PRIME_LOW = 2**50
PRIME_HIGH = 2**62
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
    return random_prime(rng, lo, PRIME_HIGH, avoid)


def _sample_coords(weights: Weights, count: int, rng: random.Random, high: int):
    """Coordinates for ``count`` generic points.

    The first weight-one slot, if any, is pinned to 1 for every point; the
    remaining slots get nonzero values, pairwise distinct within each slot.
    """
    pin = next((i for i, a in enumerate(weights) if a == 1), None)
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
    elif field is None:
        prime = _trial_prime(rng, degree, weights)
        high = prime - 1
    else:
        prime = int(field)
        if not is_probable_prime(prime):
            raise ValueError(f"field must be prime, got {prime}")
        if prime <= degree:
            raise FieldTooSmallError(
                f"prime {prime} does not exceed the degree {degree}"
            )
        high = prime - 1
    return prime, _sample_coords(weights, count, rng, high)


@dataclass(frozen=True)
class FatPointConfig:
    """A fat-point interpolation problem.

    points left as None means "sample generic points"; a fixed prime, the
    string "exact", or None (fresh random prime per trial) selects the field.
    """

    weights: Weights
    multiplicities: tuple[int, ...]
    points: tuple | None = None
    field: object = None
    seed: object = 0
    trials: int = 3

    def __post_init__(self):
        w = self.weights if isinstance(self.weights, Weights) else Weights(self.weights)
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
    """Derivative conditions (rows, grouped by point) against the monomial basis."""

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
        return [
            conditions_of_multiplicity(m, n)
            + sum(1 for mono in self.basis if mono.total_degree <= m - 2)
            for m in self.multiplicities
        ]

    def rank(self) -> int:
        if not self.rows or not self.basis:
            return 0
        if self.prime is not None:
            return rank_mod_p(self.rows, self.prime)
        return rank_exact(self.rows)

    def group_ranks(self) -> list[int]:
        """Rank after each point's block of rows, one elimination pass."""
        if not self.basis:
            return [0] * len(self.multiplicities)
        if self.prime is not None:
            return group_ranks_mod_p(self.rows, self.prime, self.group_sizes())
        return group_ranks_exact(self.rows, self.group_sizes())


def _point_rows(weights: Weights, degree: int, basis, coords, multiplicity: int, prime):
    """All condition rows of one point.

    One row per operator of order multiplicity-1; the weighted Euler identity
    then forces every lower-order derivative to vanish as well, except where
    the complementary degree is zero and the identity degenerates.  Those
    operators are exactly the degree-d monomials of total degree at most
    multiplicity-2, and their (constant) values are imposed as extra rows.
    """
    nvars = len(weights)
    pow_tables = []
    for j, c in enumerate(coords):
        top = degree // weights[j]
        table = [1] * (top + 1)
        for k in range(1, top + 1):
            table[k] = table[k - 1] * c % prime if prime else table[k - 1] * c
        pow_tables.append(table)
    rows = []
    for op in derivative_operators(nvars, multiplicity - 1):
        row = []
        hot = [j for j in range(nvars) if op[j]]
        for mono in basis:
            e = mono.exponents
            if any(op[j] > e[j] for j in hot):
                row.append(0)
                continue
            val = 1
            for j in hot:
                val *= math.perm(e[j], op[j])
            for j in range(nvars):
                val *= pow_tables[j][e[j] - op[j]]
            row.append(val % prime if prime else val)
        rows.append(row)
    for col, mono in enumerate(basis):
        if mono.total_degree <= multiplicity - 2:
            row = [0] * len(basis)
            val = math.prod(math.factorial(e) for e in mono.exponents)
            row[col] = val % prime if prime else val
            rows.append(row)
    return rows


def _reduce_coords(coords, prime):
    out = []
    for c in coords:
        c = Fraction(c)
        if c.denominator % prime == 0:
            raise ValueError("coordinate denominator vanishes mod the prime")
        out.append(c.numerator * pow(c.denominator, -1, prime) % prime)
    return tuple(out)


def build_evaluation_matrix(cfg: FatPointConfig, degree: int, trial: int = 0) -> EvaluationMatrix:
    """The evaluation matrix of cfg in one degree.

    With explicit points the matrix is exact over Q unless cfg.field is a
    prime, in which case coordinates are reduced.  Without points, one
    sampling trial is instantiated.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    w = cfg.weights
    basis = enumerate_monomials(w, degree)
    if cfg.points is not None:
        if isinstance(cfg.field, int):
            prime = cfg.field
            if not is_probable_prime(prime):
                raise ValueError(f"field must be prime, got {prime}")
            if prime <= degree:
                raise FieldTooSmallError(
                    f"prime {prime} does not exceed the degree {degree}"
                )
            coords = [_reduce_coords(p.coords, prime) for p in cfg.points]
        else:
            prime = None
            coords = [p.coords for p in cfg.points]
    else:
        prime, coords = sample_trial(w, cfg.r, degree, cfg.seed, trial, cfg.field)
    rows = []
    for pt, mult in zip(coords, cfg.multiplicities):
        rows.extend(_point_rows(w, degree, basis, pt, mult, prime))
    return EvaluationMatrix(w, degree, basis, rows, cfg.multiplicities, prime, coords)


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


def hilbert_fat_points(cfg: FatPointConfig, degree: int) -> RankProfile:
    """Hilbert function of the fat-point scheme in one degree.

    Sampled configurations maximize the rank over cfg.trials trials with an
    early exit once the expected value is reached.  Degree zero reports 1
    for any nonempty configuration: constants are killed by no point, and
    the derivative rows of order >= 1 cannot see them.
    """
    w = cfg.weights
    s_d = count_monomials(w, degree)
    expected = min(s_d, cfg.conditions)
    if degree == 0:
        actual = 1 if cfg.r else 0
        return _profile(w, cfg.r, degree, s_d, min(expected, 1) if cfg.r else 0, actual, 0)
    if cfg.r == 0 or s_d == 0:
        return _profile(w, cfg.r, degree, s_d, expected, 0, 0)
    if cfg.points is not None:
        actual = build_evaluation_matrix(cfg, degree).rank()
        return _profile(w, cfg.r, degree, s_d, expected, actual, 1)
    best = 0
    used = 0
    for trial in range(cfg.trials):
        used += 1
        best = max(best, build_evaluation_matrix(cfg, degree, trial).rank())
        if best >= expected:
            break
    return _profile(w, cfg.r, degree, s_d, expected, best, used)


def ah_profile_scan(
    weights,
    degree: int,
    r_max: int,
    multiplicity: int = 2,
    seed=0,
    trials: int = 3,
    field=None,
) -> list[RankProfile]:
    """Profiles for r = 1..r_max equal-multiplicity generic points, one degree.

    A single elimination per trial serves every r: the points of trial t for
    r_max points extend those for fewer points, so the rank checkpoints after
    each point's row block are the ranks of the leading sub-configurations.
    """
    w = weights if isinstance(weights, Weights) else Weights(weights)
    s_d = count_monomials(w, degree)
    cond = conditions_of_multiplicity(multiplicity, w.n)
    expect = [min(s_d, cond * r) for r in range(1, r_max + 1)]
    if degree == 0:
        return [
            _profile(w, r, 0, s_d, min(expect[r - 1], 1), 1, 0)
            for r in range(1, r_max + 1)
        ]
    best = [0] * r_max
    used = 0
    for trial in range(trials):
        used += 1
        cfg = FatPointConfig(w, (multiplicity,) * r_max, field=field, seed=seed)
        mat = build_evaluation_matrix(cfg, degree, trial)
        for i, rank in enumerate(mat.group_ranks()):
            if rank > best[i]:
                best[i] = rank
        if all(b >= e for b, e in zip(best, expect)):
            break
    return [
        _profile(w, r, degree, s_d, expect[r - 1], best[r - 1], used)
        for r in range(1, r_max + 1)
    ]


def deficiency_table(cfg: FatPointConfig, degrees) -> list[RankProfile]:
    """hilbert_fat_points over a degree range, in input order."""
    return [hilbert_fat_points(cfg, d) for d in degrees]


def line_interpolation_formula(weights, multiplicities, degree: int) -> int:
    """Hilbert function of fat points on a weighted line P(a, b), closed form.

    Valid for generic points with every coordinate nonzero.  No matrix is
    built: the value is s_d below the critical degree b*(a*M - 1) with
    M = sum of the multiplicities, and M at or beyond it.
    """
    w = weights if isinstance(weights, Weights) else Weights(weights)
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
    w = weights if isinstance(weights, Weights) else Weights(weights)
    return min(count_monomials(w, degree), r)
