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

    In this balanced case the sufficient test is also necessary, so the
    answer is exact: deficient iff s_d/3 < s_{floor(d/2)}.
    """
    w = Weights(weights)
    _require_unit_first(w)
    if len(w) != 3:
        raise ValueError("expected three weights")
    s_d = count_monomials(w, d)
    if s_d % 3:
        raise ValueError(f"s_{d} = {s_d} is not divisible by 3")
    return s_d // 3 < count_monomials(w, d // 2)


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

    Degrees at or beyond the proved threshold (10c, or 6c when
    floor(2c/b) >= 5) are asserted: a failure there raises
    BoundViolationError instead of being reported quietly.
    """
    if not (1 <= b <= c):
        raise ValueError("need 1 <= b <= c")
    w = Weights((1, b, c))
    ratio_ok = (2 * c) // b >= 5
    threshold = 6 * c if ratio_ok else 10 * c
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
    (x0, 0) = (floor(d/2b), 0) and (0, y0) = (0, floor(d/2c)).  The middle
    region T4's interior lattice points are counted by the double
    inequality in the proof.

    The proof also needs T1, T2, T3 and T4's interior to lie in T, and T4's
    interior to miss the other three.  Both hold for every (b, c, d) the
    audit takes, so they are proved here instead of audited.  T2 and T3
    lie in T because half + b x0 and half + c y0 are at most d.  T4 has
    points only in columns x < x0; let rise = (half - bx) // c there.  Its
    interior in column x is y in [rise + 1, y0 - 1].  T1's column is
    [0, rise] and ends below it; T2 has no point left of x0; T3's column
    starts at y0, above it.  And bx < b x0 <= half <= d - bx, so rise >= 0
    and y0 <= (d - bx) / c, which puts [rise + 1, y0 - 1] inside T's
    column [0, (d - bx) // c].
    """

    b: int
    c: int
    d: int
    total: int
    t1: int
    t2: int
    t3: int
    i12: int
    i23: int
    i13: int
    i13_cap: int
    t4_interior: int
    t4_bound: int | None  # proved lower bound when a threshold regime applies

    @property
    def aggregate_holds(self) -> bool:
        """s_d >= 3 s_{floor(d/2)} - 3 - floor(c/b) + #interior(T4)."""
        return self.total >= 3 * self.t1 - 3 - self.c // self.b + self.t4_interior

    @property
    def holds(self) -> bool:
        """Every clause of the audit: the i13 cap, T4 and the aggregate."""
        return (
            self.i13 <= self.i13_cap
            and (self.t4_bound is None or self.t4_interior >= self.t4_bound)
            and self.aggregate_holds
        )


def triangle_lattice_check(b: int, c: int, d: int) -> TriangleDecomposition:
    """Count every region of the decomposition exactly, one column x at a time.

    In column x every region is an interval of integer y, cut to T's
    column [0, top] as a point set would be: T1 is [0, (half - bx)/c], T2
    is T1's column x - x0, T3 is T1's column shifted up by y0, and T4's
    interior is ((half - bx)/c, y0) for x < x0.  That last interval is the
    proof's "x > (half - cy)/b, q < y < y0", since x > (half - cy)/b says
    y > (half - bx)/c, which for x < x0 implies y > q, the height of T1's
    hypotenuse over x = x0.  Columns outside [0, d/b] hold no point of any
    region.  Intersections are intervals, so every count is a sum of
    interval lengths.
    """
    if not (1 <= b <= c):
        raise ValueError("need 1 <= b <= c")
    if d < 2 * c:
        raise ValueError("the decomposition needs d >= 2c")
    half = d // 2
    x0 = d // (2 * b)
    y0 = d // (2 * c)

    total = t1 = t2 = t3 = i12 = i23 = i13 = t4_interior = 0
    for x in range(d // b + 1):
        # T is [0, top]; T1 is [0, h1], T2 is [0, h2] and T3 is [y0, h3], each
        # cut to top.  Conditional expressions, not min and max calls: this
        # loop is most of verify-suite's triangle audit.
        top = (d - b * x) // c
        rise = (half - b * x) // c
        h1 = rise if rise < top else top
        h2 = (half - b * (x - x0)) // c if x >= x0 else -1
        h2 = h2 if h2 < top else top
        h3 = y0 + rise if y0 + rise < top else top
        h12 = h1 if h1 < h2 else h2
        h23 = h2 if h2 < h3 else h3
        h13 = h1 if h1 < h3 else h3
        total += top + 1
        t1 += h1 + 1 if h1 >= 0 else 0
        t2 += h2 + 1 if h2 >= 0 else 0
        t3 += h3 - y0 + 1 if h3 >= y0 else 0
        i12 += h12 + 1 if h12 >= 0 else 0
        i23 += h23 - y0 + 1 if h23 >= y0 else 0
        i13 += h13 - y0 + 1 if h13 >= y0 else 0
        if x < x0 and rise + 1 < y0:  # T4's interior is [rise + 1, y0 - 1]
            t4_interior += y0 - 1 - rise

    regime_10c = d >= 10 * c
    regime_6c = d >= 6 * c and (2 * c) // b >= 5
    if regime_10c:
        t4_bound = c // b + 5
    elif regime_6c:
        t4_bound = (c // b - 1) + ((2 * c) // b - 1)
    else:
        t4_bound = None

    return TriangleDecomposition(
        b=b,
        c=c,
        d=d,
        total=total,
        t1=t1,
        t2=t2,
        t3=t3,
        i12=i12,
        i23=i23,
        i13=i13,
        i13_cap=c // b + 1,
        t4_interior=t4_interior,
        t4_bound=t4_bound,
    )


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
