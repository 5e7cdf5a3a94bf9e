"""Numerical bounds and exception classification for double points in P(1, b, c).

The central inequality is floor(s_d / 3) >= s_{floor(d/2)}: whenever it
holds, no set of general double points can be deficient in degree d.  It is
proved by decomposing the lattice triangle {bx + cy <= d} into three
half-size translates plus a middle region, and it holds for all d >= 10c
(and already for d >= 6c when floor(2c/b) >= 5).  The converse direction is
the sufficient exception test: r general double points with r < s_{floor(d/2)}
and (n+1) r >= s_d are never independent in degree d, because the square of
a low-degree form through the reduced points survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grading import Weights, count_monomials


class BoundViolationError(RuntimeError):
    """The proved inequality failed inside its asserted region."""


def _require_unit_first(w: Weights):
    if w[0] != 1:
        raise ValueError("the smallest weight must be 1")


def exception_sufficient(weights, r: int, d: int) -> bool:
    """True when r general double points are certainly not independent in degree d.

    Criterion: r < s_{floor(d/2)} and (n+1) r >= s_d.  The first condition
    puts a nonzero form F of degree floor(d/2) through the reduced points;
    F^2 then lives in degree <= d while the expected dimension is zero.
    """
    w = Weights(weights)
    _require_unit_first(w)
    if r < 1 or d < 1:
        return False
    return r < count_monomials(w, d // 2) and (w.n + 1) * r >= count_monomials(w, d)


def exception_classifier_div3(weights, d: int) -> bool:
    """For P(1, b, c) and 3 | s_d: are s_d/3 general double points deficient?

    In this balanced case the sufficient test at r = s_d/3 is also
    necessary, so the answer is exact: deficient iff s_d/3 < s_{floor(d/2)}.
    """
    w = Weights(weights)
    _require_unit_first(w)
    if len(w) != 3:
        raise ValueError("expected three weights")
    s_d = count_monomials(w, d)
    if s_d % 3:
        raise ValueError(f"s_{d} = {s_d} is not divisible by 3")
    return exception_sufficient(w, s_d // 3, d)


def neck_condition(weights, r: int) -> bool:
    """Necessary condition for r general double points to be independent in all degrees.

    For P(1, b, c): c <= r + 1 when b = 1, and c < (r + 1) b otherwise.
    Returns True when the condition holds (independence everywhere is still
    possible), False when some degree is forced to be deficient.
    """
    w = Weights(weights)
    _require_unit_first(w)
    if len(w) != 3:
        raise ValueError("expected three weights")
    b, c = w[1], w[2]
    if b == 1:
        return c <= r + 1
    return c < (r + 1) * b


def _proved_from(b: int, c: int) -> int:
    """Degree from which the thirds inequality is proved: 6c if floor(2c/b) >= 5, else 10c."""
    return 6 * c if (2 * c) // b >= 5 else 10 * c


@dataclass(frozen=True)
class BoundCheckRow:
    d: int
    lhs: int  # floor(s_d / 3)
    rhs: int  # s_{floor(d/2)}
    holds: bool
    asserted: bool


@dataclass(frozen=True)
class BoundCheckReport:
    b: int
    c: int
    ratio_ok: bool  # floor(2c/b) >= 5, enabling the 6c threshold
    threshold: int  # degree from which the inequality is asserted
    rows: tuple[BoundCheckRow, ...]

    @property
    def all_asserted_hold(self) -> bool:
        return all(row.holds for row in self.rows if row.asserted)

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "c": self.c,
            "ratio_ok": self.ratio_ok,
            "threshold": self.threshold,
            "rows": [
                {
                    "d": row.d,
                    "lhs": row.lhs,
                    "rhs": row.rhs,
                    "holds": row.holds,
                    "asserted": row.asserted,
                }
                for row in self.rows
            ],
        }


def interpolation_bound_check(b: int, c: int, degrees) -> BoundCheckReport:
    """Check floor(s_d/3) >= s_{floor(d/2)} over a degree range.

    Degrees at or beyond the proved threshold ``_proved_from(b, c)`` are
    asserted: a failure there raises BoundViolationError instead of being
    reported quietly.
    """
    if not (1 <= b <= c):
        raise ValueError("need 1 <= b <= c")
    w = Weights((1, b, c))
    threshold = _proved_from(b, c)
    ratio_ok = threshold == 6 * c
    rows = []
    for d in degrees:
        lhs = count_monomials(w, d) // 3
        rhs = count_monomials(w, d // 2)
        holds = lhs >= rhs
        asserted = d >= threshold
        if asserted and not holds:
            raise BoundViolationError(
                f"floor(s_{d}/3) = {lhs} < {rhs} = s_{d // 2} for (1,{b},{c}) "
                f"at asserted degree {d} >= {threshold}"
            )
        rows.append(BoundCheckRow(d, lhs, rhs, holds, asserted))
    return BoundCheckReport(b, c, ratio_ok, threshold, tuple(rows))


@dataclass(frozen=True)
class TriangleDecomposition:
    """Audit of the lattice-triangle decomposition behind the bound.

    T is the triangle bx + cy <= d in the first quadrant; T1 its half-size
    copy bx + cy <= half = floor(d/2); T2 and T3 the translates of T1 by
    (x0, 0) and (0, y0), where x0 = floor(d/2b) = floor(half/b) and
    y0 = floor(d/2c) = floor(half/c); T4 the middle region.  Only T, T1 and
    T4's interior are counted.  The other facts the proof needs hold for
    every (b, c, d) the audit takes, so they are proved here instead.

    b x0 <= half < b(x0 + 1) and c y0 <= half < c(y0 + 1).  T2 and T3 lie
    in T, since half + b x0 and half + c y0 are at most d, so each has
    |T1| = s_{floor(d/2)} points.  T1 and T2 meet in at most (x0, 0): x >= x0
    and bx <= half force x = x0, then cy <= half - b x0 < c.  T2 and T3 meet
    in at most (x0, y0): in T3 y >= y0 forces bx <= half, so x = x0, and
    then T2 gives cy <= half.  T1 and T3 meet in row y0, where
    bx <= half - c y0 < c: at most floor(c/b) + 1 points.

    T4 has points only in columns x < x0; let rise = (half - bx) // c
    there.  Its interior in column x is y in [rise + 1, y0 - 1], above T1's
    column [0, rise] and below T3's, which starts at y0; T2 has no point
    left of x0.  And bx < b x0 <= half <= d - bx, so rise >= 0 and
    y0 <= (d - bx) / c: the interval lies in T's column [0, (d - bx) // c].
    By inclusion-exclusion, then, s_d >= 3 s_{floor(d/2)} - 3 - floor(c/b)
    + #interior(T4), the aggregate clause.
    """

    b: int
    c: int
    d: int
    total: int
    t1: int
    t4_interior: int
    t4_bound: int | None  # proved lower bound when a threshold regime applies

    @property
    def aggregate_holds(self) -> bool:
        """s_d >= 3 s_{floor(d/2)} - 3 - floor(c/b) + #interior(T4)."""
        return self.total >= 3 * self.t1 - 3 - self.c // self.b + self.t4_interior

    @property
    def holds(self) -> bool:
        """Every clause of the audit: T4, the aggregate and total = s_d."""
        return (
            (self.t4_bound is None or self.t4_interior >= self.t4_bound)
            and self.aggregate_holds
            and self.total == count_monomials(Weights((1, self.b, self.c)), self.d)
        )


def triangle_lattice_check(b: int, c: int, d: int) -> TriangleDecomposition:
    """Count T, T1 and T4's interior exactly, one row y at a time.

    In row y each region is an interval of integer x: T is
    [0, (d - cy)/b] for y <= d/c, T1 is [0, (half - cy)/b] for y <= y0,
    and T4's interior is the proof's "(half - cy)/b < x < x0, q < y < y0".
    Here q = (half - b x0)/c, the height of T1's hypotenuse over x = x0,
    lies in [0, 1), so those rows are 1 <= y < y0.  In them
    0 <= half - cy <= half - b, so T4's row holds x0 - 1 - (half - cy) // b
    >= 0 points, all with x >= 1.  Rows, not columns: c >= b makes them fewer.
    """
    if not (1 <= b <= c):
        raise ValueError("need 1 <= b <= c")
    if d < 2 * c:
        raise ValueError("the decomposition needs d >= 2c")
    half = d // 2
    x0 = d // (2 * b)
    y0 = d // (2 * c)
    total = sum((d - c * y) // b + 1 for y in range(d // c + 1))
    t1 = sum((half - c * y) // b + 1 for y in range(y0 + 1))
    t4_interior = sum(x0 - 1 - (half - c * y) // b for y in range(1, y0))

    if d < _proved_from(b, c):
        t4_bound = None
    elif d >= 10 * c:
        t4_bound = c // b + 5
    else:
        t4_bound = (c // b - 1) + ((2 * c) // b - 1)
    return TriangleDecomposition(b, c, d, total, t1, t4_interior, t4_bound)


def minimal_balanced_degree(b: int, c: int, r: int) -> int:
    """Smallest d with s_d = 3r in P(1, b, c), assuming rb < c < (r+1)b.

    In that regime the value is (r-1) b + c; the caller can use it as the
    single degree whose rank decides independence in every degree.
    """
    if not (r * b < c < (r + 1) * b):
        raise ValueError("need rb < c < (r+1)b")
    return (r - 1) * b + c


@dataclass(frozen=True)
class UniquenessRecord:
    b: int
    c: int
    r: int | None
    d: int | None

    @property
    def has_exception(self) -> bool:
        return self.r is not None


@dataclass(frozen=True)
class UniquenessReport:
    c_max: int
    r_max: int
    d_max: int
    records: tuple[UniquenessRecord, ...]

    @property
    def exception_free(self) -> list[tuple[int, int]]:
        return [(rec.b, rec.c) for rec in self.records if not rec.has_exception]


def classify_plane_123_uniqueness(c_max: int = 8, r_max: int = 8, d_max: int = 48) -> UniquenessReport:
    """Search every well-formed P(1, b, c) with c <= c_max for deficient doubles.

    For each plane the sufficient exception test is scanned over (d, r) in
    increasing order, and the first hit is recorded as the plane's witness.
    exception_sufficient proves the deficiency (the square of a form of
    degree floor(d/2) through the points survives), so no rank is computed.
    Planes with no witness in the search box are reported as
    exception-free; (1, 2, 3) is expected to be the only such plane, in
    this box and in any larger one.
    """
    records = []
    for b in range(1, c_max + 1):
        for c in range(b, c_max + 1):
            if math.gcd(b, c) != 1:
                continue
            w = Weights((1, b, c))
            found = next(
                ((r, d) for d in range(1, d_max + 1) for r in range(1, r_max + 1)
                 if exception_sufficient(w, r, d)),
                (None, None),
            )
            records.append(UniquenessRecord(b, c, *found))
    return UniquenessReport(c_max, r_max, d_max, tuple(records))
