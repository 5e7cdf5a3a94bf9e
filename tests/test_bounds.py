"""The exception test, the halving inequality, and the triangle decomposition audit."""

import dataclasses
import math
from fractions import Fraction

import pytest

from wpinterp import (
    BoundViolationError,
    FatPointConfig,
    TriangleDecomposition,
    Weights,
    bounds,
    count_monomials,
    exception_sufficient,
    hilbert_fat_points,
    interpolation_bound_check,
    triangle_lattice_check,
)

P2 = Weights((1, 1, 1))
W123 = Weights((1, 2, 3))


def test_exception_sufficient_known_cases():
    assert exception_sufficient(P2, 5, 4)
    assert exception_sufficient(P2, 2, 2)
    assert not exception_sufficient(P2, 6, 4)  # r = s_{d/2} already fails
    assert not exception_sufficient(P2, 0, 4)
    assert not exception_sufficient(P2, 3, 0)


def test_exception_sufficient_is_sound():
    # every flagged pair must show an actual rank drop
    for d in range(1, 9):
        for r in range(1, 8):
            if not exception_sufficient(P2, r, d):
                continue
            cfg = FatPointConfig(P2, (2,) * r, seed=5, trials=2)
            assert hilbert_fat_points(cfg, d).deficiency > 0, (r, d)


def test_exception_sufficient_never_fires_on_123():
    for d in range(1, 25):
        s_d = count_monomials(W123, d)
        for r in range(1, math.ceil(s_d / 3) + 2):
            assert not exception_sufficient(W123, r, d)


def test_exception_sufficient_requires_unit_weight():
    with pytest.raises(ValueError):
        exception_sufficient(Weights((2, 3, 5)), 2, 10)


def test_div3_classifier():
    # when 3 | s_d, s_d/3 double points are deficient exactly when the test fires
    for w, d, deficient in [(P2, 2, True), (P2, 4, True), (W123, 3, False), (W123, 9, False)]:
        s_d = count_monomials(w, d)
        assert s_d % 3 == 0
        assert exception_sufficient(w, s_d // 3, d) == deficient


def test_neck_condition():
    # where the neck condition fails, one double point is already deficient:
    # c >= (r + 1) b on (1, 2, 5), and c > r + 1 with b = 1 on (1, 1, 3)
    assert exception_sufficient(Weights((1, 2, 5)), 1, 4)
    assert exception_sufficient(Weights((1, 1, 3)), 1, 2)


def test_one_double_point_on_125_drops_rank_at_degree_4():
    # (1,2,5) with one double point: degree 4 already drops rank
    cfg = FatPointConfig(Weights((1, 2, 5)), (2,), seed=1, trials=2)
    prof = hilbert_fat_points(cfg, 4)
    assert prof.expected == 3
    assert prof.deficiency > 0


def test_bound_check_report_123():
    report = interpolation_bound_check(2, 3, range(2, 37))
    assert not report.ratio_ok
    assert report.threshold == 30
    row = next(r for r in report.rows if r.d == 30)
    assert (row.lhs, row.rhs, row.holds, row.asserted) == (30, 27, True, True)
    low = next(r for r in report.rows if r.d == 2)
    assert not low.holds and not low.asserted  # quiet failure below threshold


def test_bound_check_ratio_regime():
    report = interpolation_bound_check(1, 3, [18, 20])
    assert report.ratio_ok
    assert report.threshold == 18


def test_asserted_failure_raises(monkeypatch):
    monkeypatch.setattr(bounds, "_proved_from", lambda b, c: 2 * c)
    message = "floor(s_6/3) = 2 < 3 = s_3 for (1,2,3) at asserted degree 6 >= 6"
    with pytest.raises(BoundViolationError) as err:
        interpolation_bound_check(2, 3, range(2, 37))
    assert str(err.value) == message


def test_bound_check_validates_b_and_c():
    with pytest.raises(ValueError):
        interpolation_bound_check(3, 2, [30])
    with pytest.raises(ValueError):
        interpolation_bound_check(0, 2, [30])


@pytest.mark.parametrize("b,c", [(1, 1), (1, 2), (2, 3), (2, 5), (3, 4), (4, 5)])
def test_triangle_decomposition_audit(b, c):
    w = Weights((1, b, c))
    for d in (2 * c, 2 * c + 1, 6 * c, 6 * c + 3, 10 * c, 10 * c + 7):
        dec = triangle_lattice_check(b, c, d)
        assert dec.total == count_monomials(w, d)
        assert dec.t1 == count_monomials(w, d // 2)
        assert dec.holds


# Ids start at 3 so that each case keeps its id; the three region clauses
# that came first are proved in TriangleDecomposition's docstring instead.
@pytest.mark.parametrize("change", [
    {"t4_interior": 5},  # below t4_bound = 7 at d = 50 >= 10c
    {"total": 100},  # the aggregate needs 3 t1 - 5 + t4_interior
    {"total": 147},  # s_50 + 1: the aggregate still holds, total = s_d fails
    {"t1": 44},  # 3 t1 - 5 + t4_interior = 147 > total, which is still s_50
], ids=["change3", "change4", "change5", "change6"])
def test_triangle_holds_needs_every_clause(change):
    dec = triangle_lattice_check(2, 5, 50)
    assert dec.holds
    assert (dec.total, dec.t1, dec.t4_interior, dec.t4_bound) == (146, 42, 20, 7)
    assert not dataclasses.replace(dec, **change).holds


def reference_triangle_lattice_check(b: int, c: int, d: int) -> TriangleDecomposition:
    """The former point-set body of triangle_lattice_check, kept as an oracle.

    It also asserts the region facts that TriangleDecomposition's docstring
    proves: T4's interior misses T1, T2 and T3; every region lies in T;
    T1, T2 and T3 have equally many points; T1 meets T2 and T2 meets T3 in
    at most one point, and T1 meets T3 in at most floor(c/b) + 1.
    """
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
    assert not (t4 & union), (b, c, d)
    assert (union | t4) <= t_set, (b, c, d)
    assert len(t1_set) == len(t2_set) == len(t3_set), (b, c, d)
    assert len(i12) <= 1 and len(i23) <= 1, (b, c, d)
    assert len(i13) <= c // b + 1, (b, c, d)
    return TriangleDecomposition(
        b=b,
        c=c,
        d=d,
        total=len(t_set),
        t1=len(t1_set),
        t4_interior=len(t4),
        t4_bound=t4_bound,
    )


def test_triangle_columns_match_the_point_sets():
    grid = [(b, c, d) for b in range(1, 9) for c in range(b, 9) for d in range(2 * c, 12 * c + 1)]
    assert len(grid) == 2076  # verify-suite's default triangle grid
    grid += [
        (b, c, d)
        for b in range(1, 13)
        for c in range(b, 13)
        for d in (2 * c, 2 * c + 5, 6 * c, 10 * c, 13 * c, 14 * c)  # criterion 10's degrees
    ]
    for b, c, d in grid:
        assert triangle_lattice_check(b, c, d) == reference_triangle_lattice_check(b, c, d)


def test_asserted_degrees_are_the_audits_t4_regimes():
    for b in range(1, 13):
        for c in range(b, 13):
            degrees = range(2 * c, 14 * c + 1)
            report = interpolation_bound_check(b, c, degrees)
            for row in report.rows:
                assert row.asserted == (triangle_lattice_check(b, c, row.d).t4_bound is not None)


def test_triangle_needs_room():
    with pytest.raises(ValueError):
        triangle_lattice_check(2, 3, 5)
    with pytest.raises(ValueError):
        triangle_lattice_check(3, 2, 20)


def test_minimal_balanced_degree():
    # with rb < c < (r+1)b, d0 = (r-1)b + c is the least degree with s_d = 3r
    for b, c, r in [(2, 5, 2), (3, 7, 2), (2, 7, 3), (4, 9, 2), (3, 10, 3)]:
        assert r * b < c < (r + 1) * b
        d0 = (r - 1) * b + c
        w = Weights((1, b, c))
        assert count_monomials(w, d0) == 3 * r
        assert all(count_monomials(w, d) != 3 * r for d in range(d0))


def test_plane_uniqueness_classifier():
    # each coprime P(1, b, c) with c <= 6: the first d <= 24, then r <= 6, that
    # exception_sufficient proves deficient; (2, 3) is the only plane with none
    witnesses = {}
    for b in range(1, 7):
        for c in range(b, 7):
            if math.gcd(b, c) == 1:
                w = Weights((1, b, c))
                witnesses[(b, c)] = next(
                    ((r, d) for d in range(1, 25) for r in range(1, 7)
                     if exception_sufficient(w, r, d)),
                    None,
                )
    assert [plane for plane, hit in witnesses.items() if hit is None] == [(2, 3)]
    assert witnesses[(1, 1)] == (2, 2)
    assert witnesses[(1, 2)] == (3, 4)
    assert witnesses[(2, 5)] == (1, 4)
    assert witnesses[(3, 4)] == (2, 8)
    assert witnesses[(3, 5)] == (3, 12)
    assert witnesses[(4, 5)] == (2, 10)
    assert witnesses[(5, 6)] == (2, 12)
