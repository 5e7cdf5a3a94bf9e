"""Double points in P(1, b, c): a proved deficiency and the halving inequality.

This module answers two questions.  Is a deficiency proved?
exception_sufficient: r general double points with r < s_{floor(d/2)} and
(n+1) r >= s_d are never independent in degree d, because the square of a
form of degree floor(d/2) through the reduced points survives.  Does the
halving inequality floor(s_d / 3) >= s_{floor(d/2)} hold?  Where it does,
that test cannot fire on P(1, b, c) in degree d, since 3r >= s_d forces
r >= s_{floor(d/2)}.  interpolation_bound_check tests it over a degree range and asserts it from
d >= 10c (already d >= 6c when floor(2c/b) >= 5), where it is proved by
decomposing the lattice triangle {bx + cy <= d} into three half-size
translates plus a middle region; triangle_lattice_check audits that
decomposition.
"""

from __future__ import annotations

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


def _proved_from(b: int, c: int) -> int:
    """Degree from which the halving inequality is proved: 6c if floor(2c/b) >= 5, else 10c."""
    return 6 * c if (2 * c) // b >= 5 else 10 * c


@dataclass(frozen=True, slots=True)
class BoundCheckRow:
    d: int
    lhs: int  # floor(s_d / 3)
    rhs: int  # s_{floor(d/2)}
    holds: bool
    asserted: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "asserted": self.asserted,
        }


@dataclass(frozen=True)
class BoundCheckReport:
    b: int
    c: int
    ratio_ok: bool  # floor(2c/b) >= 5, enabling the 6c threshold
    threshold: int  # degree from which the inequality is asserted
    rows: tuple[BoundCheckRow, ...]

    def to_json_dict(self) -> dict:
        """The JSON body; its rows are a generator, which json_chunks writes one at a time."""
        return {
            "b": self.b,
            "c": self.c,
            "ratio_ok": self.ratio_ok,
            "threshold": self.threshold,
            "rows": (row.to_json_dict() for row in self.rows),
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
