"""Evaluation matrices and generic ranks, checked against symbolic differentiation."""

from fractions import Fraction

import pytest

from wpinterp import (
    FatPointConfig,
    FieldTooSmallError,
    SparsePoly,
    WeightedPoint,
    Weights,
    ah_profile_scan,
    build_evaluation_matrix,
    conditions_of_multiplicity,
    count_monomials,
    deficiency_table,
    derivative_operators,
    enumerate_monomials,
    hilbert_fat_points,
    line_interpolation_formula,
    sample_trial,
    simple_points_hilbert,
)
from wpinterp.linalg import is_probable_prime, nullspace_exact, rank_exact

W123 = Weights((1, 2, 3))


def apply_operator(weights, mono_exponents, op, coords):
    poly = SparsePoly(weights, {mono_exponents: 1})
    for j, order in enumerate(op):
        for _ in range(order):
            poly = poly.partial(j)
    return poly.evaluate(coords)


def symbolic_matrix(weights, degree, points, mults):
    """Differentiate each basis monomial as a SparsePoly and evaluate.

    A second, slower route to the evaluation matrix that never touches the
    closed-form row builder.  The operator set mirrors the library's rule:
    order m-1, plus the order <= m-2 operators the Euler identity misses
    (degree-d exponent vectors of total degree <= m-2).
    """
    basis = enumerate_monomials(weights, degree)
    rows = []
    for coords, m in zip(points, mults):
        ops = list(derivative_operators(len(weights), m - 1))
        ops.extend(b.exponents for b in basis if b.total_degree <= m - 2)
        for op in ops:
            rows.append([apply_operator(weights, b.exponents, op, coords) for b in basis])
    return rows


def full_closure_rank(weights, degree, points, mults):
    """Rank of the definitional condition set: all operators of order < m."""
    basis = enumerate_monomials(weights, degree)
    rows = []
    for coords, m in zip(points, mults):
        for order in range(m):
            for op in derivative_operators(len(weights), order):
                rows.append(
                    [apply_operator(weights, b.exponents, op, coords) for b in basis]
                )
    return rank_exact(rows) if rows and basis else 0


@pytest.mark.parametrize(
    "entries,mults,points",
    [
        ((1, 2, 3), (2,), ((1, 2, 5),)),
        ((1, 2, 3), (3, 2), ((1, 2, 5), (1, 3, 7))),
        ((1, 1, 2), (2, 2), ((1, 2, 3), (1, 5, 4))),
        ((1, 2, 3, 4), (2,), ((1, 2, 3, 4),)),
        ((2, 3), (4,), ((2, 3),)),
    ],
)
def test_matrix_matches_symbolic_differentiation(entries, mults, points):
    w = Weights(entries)
    cfg = FatPointConfig(w, mults, points=points, field="exact")
    for degree in range(9):
        mat = build_evaluation_matrix(cfg, degree)
        expected = symbolic_matrix(w, degree, points, mults)
        assert len(mat.rows) == len(expected)
        for got, want in zip(mat.rows, expected):
            assert [Fraction(x) for x in got] == [Fraction(x) for x in want]


@pytest.mark.parametrize(
    "entries,mults,points",
    [
        ((2, 3), (3,), ((1, 1),)),
        ((2, 3), (4,), ((2, 3),)),
        ((1, 2), (3, 2), ((1, 2), (1, 5))),
        ((1, 2, 3), (3,), ((1, 2, 5),)),
        ((1, 2, 3), (3, 3), ((1, 2, 5), (1, 3, 7))),
        ((2, 3, 5), (3,), ((1, 1, 1),)),
    ],
)
def test_rank_equals_full_derivative_closure(entries, mults, points):
    # vanishing to order m is the definition; the trimmed operator set of the
    # library must reach the same rank in every degree
    w = Weights(entries)
    cfg = FatPointConfig(w, mults, points=points, field="exact")
    for degree in range(1, 16):
        mat = build_evaluation_matrix(cfg, degree)
        assert mat.rank() == full_closure_rank(w, degree, points, mults), degree


def test_triple_point_on_line_small_degree():
    # the u-column survives: its only nonzero derivative has order 1, which
    # order-2 rows cannot see
    cfg = FatPointConfig(Weights((2, 3)), (3,), points=((1, 1),), field="exact")
    mat = build_evaluation_matrix(cfg, 3)
    assert mat.rank() == 1


def test_hand_built_single_double_point():
    cfg = FatPointConfig(W123, (2,), points=((1, 2, 5),), field="exact")
    mat = build_evaluation_matrix(cfg, 3)
    assert [m.exponents for m in mat.basis] == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert [[Fraction(x) for x in row] for row in mat.rows] == [
        [3, 2, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert mat.rank() == 3


def test_operator_enumeration():
    assert derivative_operators(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert derivative_operators(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert derivative_operators(3, 0) == [(0, 0, 0)]
    for n, m in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]:
        ops = derivative_operators(n + 1, m - 1)
        assert len(ops) == conditions_of_multiplicity(m, n)
        assert all(sum(op) == m - 1 for op in ops)
        assert len(set(ops)) == len(ops)


def test_known_rank_profiles():
    prof = hilbert_fat_points(FatPointConfig(Weights((1, 5, 9)), (2, 2, 2)), 21)
    assert (prof.expected, prof.actual, prof.deficiency) == (9, 8, 1)
    assert not prof.is_AH

    prof = hilbert_fat_points(FatPointConfig(Weights((1, 1, 1)), (2,) * 5), 4)
    assert (prof.expected, prof.actual, prof.deficiency) == (15, 14, 1)

    prof = hilbert_fat_points(FatPointConfig(W123, (2,)), 2)
    assert prof.actual == prof.s_d == 2
    assert prof.is_AH


def test_degree_zero_convention():
    prof = hilbert_fat_points(FatPointConfig(W123, (2, 2)), 0)
    assert (prof.s_d, prof.expected, prof.actual) == (1, 1, 1)
    assert prof.is_AH and prof.trials == 0

    empty = hilbert_fat_points(FatPointConfig(W123, ()), 0)
    assert (empty.expected, empty.actual) == (0, 0)


def test_empty_degree_has_no_columns():
    cfg = FatPointConfig(Weights((2, 3)), (2,))
    mat = build_evaluation_matrix(cfg, 1, 0)
    assert mat.ncols == 0
    prof = hilbert_fat_points(cfg, 1)
    assert (prof.s_d, prof.expected, prof.actual) == (0, 0, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        FatPointConfig(W123, (0,))
    with pytest.raises(ValueError):
        FatPointConfig(W123, (2, 2), points=((1, 1, 1),))
    with pytest.raises(ValueError):
        FatPointConfig(W123, (2,), trials=0)


def test_field_too_small():
    cfg = FatPointConfig(W123, (2,), field=7)
    with pytest.raises(FieldTooSmallError):
        hilbert_fat_points(cfg, 10)
    with pytest.raises(ValueError):
        hilbert_fat_points(FatPointConfig(W123, (2,), field=6), 2)


def test_sampling_reproducible_and_pinned():
    prime, coords = sample_trial(W123, 4, 15, 0, 0)
    again = sample_trial(W123, 4, 15, 0, 0)
    assert (prime, coords) == again
    assert is_probable_prime(prime)
    assert (1 << 50) <= prime < (1 << 62)
    assert len(coords) == 4
    for pt in coords:
        assert pt[0] == 1  # weight-one slot pinned
        assert all(0 < c < prime for c in pt[1:])
    for slot in (1, 2):
        values = [pt[slot] for pt in coords]
        assert len(set(values)) == len(values)

    other_trial = sample_trial(W123, 4, 15, 0, 1)
    assert other_trial != (prime, coords)
    other_seed = sample_trial(W123, 4, 15, "s", 0)
    assert other_seed != (prime, coords)


def test_sampling_without_unit_weight():
    prime, coords = sample_trial(Weights((2, 3)), 3, 9, 0, 0)
    for pt in coords:
        assert all(c > 0 for c in pt)
    values = [pt[0] for pt in coords]
    assert len(set(values)) == len(values)
    assert prime > 9


def test_sampling_exact_mode():
    prime, coords = sample_trial(W123, 3, 12, 0, 0, field="exact")
    assert prime is None
    assert all(0 < c <= 999983 for pt in coords for c in pt[1:])


def test_sampling_prefix_property():
    _, many = sample_trial(W123, 5, 10, 0, 0)
    _, few = sample_trial(W123, 2, 10, 0, 0)
    assert many[:2] == few


def test_scan_matches_pointwise():
    profiles = ah_profile_scan(W123, 12, 7, seed=0, trials=3)
    assert len(profiles) == 7
    for r, prof in enumerate(profiles, start=1):
        solo = hilbert_fat_points(FatPointConfig(W123, (2,) * r, seed=0, trials=3), 12)
        assert prof.r == solo.r == r
        assert prof.actual == solo.actual
        assert prof.expected == solo.expected
        assert prof.is_AH == solo.is_AH


def test_scan_degree_zero():
    profiles = ah_profile_scan(W123, 0, 3)
    assert [p.actual for p in profiles] == [1, 1, 1]
    assert all(p.expected == 1 for p in profiles)


def test_exact_and_modular_ranks_agree():
    for r, d in [(1, 4), (2, 6), (3, 8)]:
        exact = hilbert_fat_points(FatPointConfig(W123, (2,) * r, field="exact"), d)
        sampled = hilbert_fat_points(FatPointConfig(W123, (2,) * r), d)
        fixed = hilbert_fat_points(FatPointConfig(W123, (2,) * r, field=(1 << 61) - 1), d)
        assert exact.actual == sampled.actual == fixed.actual


def test_exact_group_ranks_are_prefix_ranks():
    # one pass must reproduce the rank of every leading block
    for w, d, mults in [(W123, 8, (2,) * 5), (W123, 12, (3, 2, 2, 1)), (Weights((1, 1, 1)), 4, (2,) * 5)]:
        cfg = FatPointConfig(w, mults, field="exact", seed=3)
        mat = build_evaluation_matrix(cfg, d)
        want, cut = [], 0
        for size in mat.group_sizes():
            cut += size
            want.append(rank_exact(mat.rows[:cut]))
        assert mat.group_ranks() == want
        assert want[-1] == mat.rank()


@pytest.mark.parametrize(
    "weights, d, r, actual, deficiency",
    [((1, 2, 3), 30, 31, 91, 0), ((1, 5, 9), 21, 3, 8, 1)],
)
def test_exact_field_on_larger_cases(weights, d, r, actual, deficiency):
    prof = hilbert_fat_points(FatPointConfig(weights, (2,) * r, field="exact", seed=1), d)
    assert (prof.actual, prof.deficiency) == (actual, deficiency)


def test_two_fixed_primes_agree():
    p1 = (1 << 61) - 1
    p2 = (1 << 31) - 1
    for d in (5, 9, 13):
        a = hilbert_fat_points(FatPointConfig(W123, (2, 2), field=p1), d)
        b = hilbert_fat_points(FatPointConfig(W123, (2, 2), field=p2), d)
        assert a.actual == b.actual


def test_deficiency_table_order_and_workers():
    cfg = FatPointConfig(Weights((1, 5, 9)), (2, 2, 2))
    degrees = list(range(18, 26))
    serial = deficiency_table(cfg, degrees)
    assert [p.degree for p in serial] == degrees


def test_line_formula_examples():
    assert line_interpolation_formula(Weights((1, 2)), (2,), 2) == 2
    assert line_interpolation_formula(Weights((1, 2)), (2,), 1) == 1
    assert line_interpolation_formula(Weights((2, 3)), (2,), 12) == 2
    assert line_interpolation_formula(Weights((1, 1)), (), 5) == 0
    with pytest.raises(ValueError):
        line_interpolation_formula(Weights((2, 4)), (2,), 10)
    with pytest.raises(ValueError):
        line_interpolation_formula(W123, (2,), 10)


def test_line_formula_equals_rank_spot_checks():
    for entries, mults in [((1, 2), (2, 2)), ((2, 3), (3,)), ((3, 4), (2, 1, 1))]:
        w = Weights(entries)
        cfg = FatPointConfig(w, mults, seed=5)
        for d in range(0, 40, 3):
            assert line_interpolation_formula(w, mults, d) == hilbert_fat_points(cfg, d).actual


def test_simple_points_oracle():
    assert simple_points_hilbert(W123, 4, 11) == 4
    assert simple_points_hilbert(W123, 1, 0) == 1
    assert simple_points_hilbert(Weights((2, 3)), 2, 1) == 0


def test_rank_monotone_after_fill():
    # once the conditions fill, larger degrees keep them filled (unit first weight)
    cfg = FatPointConfig(W123, (2, 2))
    filled_at = None
    for d in range(1, 21):
        prof = hilbert_fat_points(cfg, d)
        if filled_at is not None:
            assert prof.actual == 6, d
        elif prof.actual == 6:
            filled_at = d
    assert filled_at is not None


def test_nullspace_vectors_live_in_the_ideal():
    point = (1, 2, 5)
    cfg = FatPointConfig(W123, (2,), points=(point,), field="exact")
    degree = 6
    mat = build_evaluation_matrix(cfg, degree)
    rows = [[Fraction(x) for x in row] for row in mat.rows]
    kernel = nullspace_exact(rows, mat.ncols)
    assert len(kernel) == count_monomials(W123, degree) - mat.rank()
    assert kernel
    for vec in kernel:
        poly = SparsePoly(
            W123,
            {mono.exponents: c for mono, c in zip(mat.basis, vec)},
        )
        assert poly.evaluate(point) == 0
        for j in range(3):
            assert poly.partial(j).evaluate(point) == 0


def _display_two_point_matrix(b, c, p1, p2, q1, q2):
    # basis z^{b+c}, z^c u, z^{c-b} u^2, z^{c-2b} u^3, z^b v, u v
    return [
        [b + c, c * p1, (c - b) * p1**2, (c - 2 * b) * p1**3, b * p2, 0],
        [0, 1, 2 * p1, 3 * p1**2, 0, p2],
        [b + c, c * q1, (c - b) * q1**2, (c - 2 * b) * q1**3, b * q2, 0],
        [0, 1, 2 * q1, 3 * q1**2, 0, q2],
        [0, 0, 0, 0, 1, p1],
        [0, 0, 0, 0, 1, q1],
    ]


def test_two_double_points_matrix_agrees_with_direct_build():
    # regime 2b < c < 3b: six monomials in degree b+c
    b, c = 3, 7
    w = Weights((1, b, c))
    p1, p2, q1, q2 = Fraction(2), Fraction(5), Fraction(3), Fraction(11)
    cfg = FatPointConfig(w, (2, 2), points=((1, p1, p2), (1, q1, q2)), field="exact")
    mat = build_evaluation_matrix(cfg, b + c)

    display_basis = [
        (b + c, 0, 0),
        (c, 1, 0),
        (c - b, 2, 0),
        (c - 2 * b, 3, 0),
        (b, 0, 1),
        (0, 1, 1),
    ]
    col_of = {m.exponents: i for i, m in enumerate(mat.basis)}
    assert sorted(col_of) == sorted(display_basis)
    # package rows come per point: d/dz, d/du, d/dv
    row_map = [0, 1, 3, 4, 2, 5]
    display = _display_two_point_matrix(b, c, p1, p2, q1, q2)
    for i, j in enumerate(row_map):
        got = [Fraction(mat.rows[j][col_of[e]]) for e in display_basis]
        assert got == [Fraction(x) for x in display[i]], i
    assert mat.rank() == 6


def test_three_b_matrix_direct_build_determinant():
    # regime 3b/2 < c < 2b: six monomials in degree 3b; the z-derivative of u^3
    # vanishes, giving 9 b^2 (p1-q1)^5
    from wpinterp.linalg import det_exact

    for b, c in [(4, 7), (5, 8), (7, 12)]:
        w = Weights((1, b, c))
        p1, p2, q1, q2 = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
        cfg = FatPointConfig(w, (2, 2), points=((1, p1, p2), (1, q1, q2)), field="exact")
        mat = build_evaluation_matrix(cfg, 3 * b)
        assert mat.ncols == 6
        ordered_basis = [
            (3 * b, 0, 0),
            (2 * b, 1, 0),
            (b, 2, 0),
            (0, 3, 0),
            (2 * b - c, 1, 1),
            (3 * b - c, 0, 1),
        ]
        col_of = {m.exponents: i for i, m in enumerate(mat.basis)}
        assert sorted(col_of) == sorted(ordered_basis)
        reordered = [
            [Fraction(row[col_of[e]]) for e in ordered_basis] for row in mat.rows
        ]
        assert det_exact(reordered) == 9 * b**2 * (p1 - q1) ** 5
