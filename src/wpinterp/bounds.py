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
from fractions import Fraction

from .grading import Weights, count_monomials
from .interpolation import FatPointConfig, hilbert_fat_points


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
    w = weights if isinstance(weights, Weights) else Weights(weights)
    _require_unit_first(w)
    if r < 1 or d < 1:
        return False
    return r < count_monomials(w, d // 2) and (w.n + 1) * r >= count_monomials(w, d)


def exception_classifier_div3(weights, d: int) -> bool:
    """For P(1, b, c) and 3 | s_d: are s_d/3 general double points deficient?

    In this balanced case the sufficient test is also necessary, so the
    answer is exact: deficient iff s_d/3 < s_{floor(d/2)}.
    """
    w = weights if isinstance(weights, Weights) else Weights(weights)
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
    w = weights if isinstance(weights, Weights) else Weights(weights)
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
    copy bx + cy <= floor(d/2); T2 and T3 the translates of T1 by
    (floor(d/2b), 0) and (0, floor(d/2c)).  The middle region's interior
    lattice points are counted by the double inequality in the proof.
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
    disjoint_middle: bool
    covered: bool

    @property
    def aggregate_holds(self) -> bool:
        """s_d >= 3 s_{floor(d/2)} - 3 - floor(c/b) + #interior(T4)."""
        return self.total >= 3 * self.t1 - 3 - self.c // self.b + self.t4_interior

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "total": self.total,
            "t1": self.t1,
            "t2": self.t2,
            "t3": self.t3,
            "i12": self.i12,
            "i23": self.i23,
            "i13": self.i13,
            "i13_cap": self.i13_cap,
            "t4_interior": self.t4_interior,
            "t4_bound": self.t4_bound,
            "disjoint_middle": self.disjoint_middle,
            "covered": self.covered,
            "aggregate_holds": self.aggregate_holds,
        }


def triangle_lattice_check(b: int, c: int, d: int) -> TriangleDecomposition:
    """Count every region of the decomposition by direct lattice enumeration."""
    if not (1 <= b <= c):
        raise ValueError("need 1 <= b <= c")
    if d < 2 * c:
        raise ValueError("the decomposition needs d >= 2c")
    half = d // 2
    x0 = d // (2 * b)
    y0 = d // (2 * c)

    def in_t1(x, y):
        return x >= 0 and y >= 0 and b * x + c * y <= half

    def in_t2(x, y):
        return in_t1(x - x0, y)

    def in_t3(x, y):
        return in_t1(x, y - y0)

    pts = [(x, y) for x in range(d // b + 1) for y in range((d - b * x) // c + 1)]
    t_set = set(pts)
    t1_set = {p for p in pts if in_t1(*p)}
    t2_set = {p for p in pts if in_t2(*p)}
    t3_set = {p for p in pts if in_t3(*p)}
    i12 = t1_set & t2_set
    i23 = t2_set & t3_set
    i13 = t1_set & t3_set

    # interior of the middle region: q < y < y0 and (half - y*c)/b < x < x0,
    # with q the height of T1's hypotenuse over x = x0
    q = Fraction(half - b * x0, c)
    t4 = set()
    for y in range(math.floor(q) + 1, y0):
        if y <= q:
            continue
        lo = Fraction(half - y * c, b)
        for x in range(math.floor(lo) + 1, x0):
            if x > lo:
                t4.add((x, y))

    regime_10c = d >= 10 * c
    regime_6c = d >= 6 * c and (2 * c) // b >= 5
    if regime_10c:
        t4_bound = c // b + 5
    elif regime_6c:
        t4_bound = (c // b - 1) + ((2 * c) // b - 1)
    else:
        t4_bound = None

    union = t1_set | t2_set | t3_set
    return TriangleDecomposition(
        b=b,
        c=c,
        d=d,
        total=len(t_set),
        t1=len(t1_set),
        t2=len(t2_set),
        t3=len(t3_set),
        i12=len(i12),
        i23=len(i23),
        i13=len(i13),
        i13_cap=c // b + 1,
        t4_interior=len(t4),
        t4_bound=t4_bound,
        disjoint_middle=not (t4 & union),
        covered=(union | t4) <= t_set,
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
    deficiency: int | None

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

    def to_json_dict(self) -> dict:
        return {
            "c_max": self.c_max,
            "r_max": self.r_max,
            "d_max": self.d_max,
            "records": [
                {
                    "b": rec.b,
                    "c": rec.c,
                    "r": rec.r,
                    "d": rec.d,
                    "deficiency": rec.deficiency,
                }
                for rec in self.records
            ],
            "exception_free": self.exception_free,
        }


def classify_plane_123_uniqueness(
    c_max: int = 8,
    r_max: int = 8,
    d_max: int = 48,
    seed=0,
    trials: int = 3,
) -> UniquenessReport:
    """Search every well-formed P(1, b, c) with c <= c_max for deficient doubles.

    For each plane the sufficient exception test is scanned over
    (d, r) in increasing order; the first hit is confirmed by an actual
    rank computation and recorded.  Planes with no confirmed witness in the
    search box are reported as exception-free; (1, 2, 3) is expected to be
    the only such plane, in this box and in any larger one.
    """
    records = []
    for b in range(1, c_max + 1):
        for c in range(b, c_max + 1):
            if math.gcd(b, c) != 1:
                continue
            w = Weights((1, b, c))
            found = None
            for d in range(1, d_max + 1):
                for r in range(1, r_max + 1):
                    if not exception_sufficient(w, r, d):
                        continue
                    cfg = FatPointConfig(w, (2,) * r, seed=seed, trials=trials)
                    prof = hilbert_fat_points(cfg, d)
                    if prof.deficiency > 0:
                        found = (r, d, prof.deficiency)
                        break
                if found:
                    break
            if found:
                records.append(UniquenessRecord(b, c, found[0], found[1], found[2]))
            else:
                records.append(UniquenessRecord(b, c, None, None, None))
    return UniquenessReport(c_max, r_max, d_max, tuple(records))
