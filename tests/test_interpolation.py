"""Evaluation matrices and generic ranks, checked against symbolic differentiation."""

import math
import random
import tracemalloc
from array import array
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpinterp import (
    FatPointConfig,
    FieldTooSmallError,
    SparsePoly,
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
from wpinterp import interpolation, linalg
from wpinterp.interpolation import PRIME_HIGH, PRIME_LOW, _matrix_rows
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
        ops.extend(e for e in basis if sum(e) <= m - 2)
        for op in ops:
            rows.append([apply_operator(weights, e, op, coords) for e in basis])
    return rows


def full_closure_rank(weights, degree, points, mults):
    """Rank of the definitional condition set: all operators of order < m."""
    basis = enumerate_monomials(weights, degree)
    rows = []
    for coords, m in zip(points, mults):
        for order in range(m):
            for op in derivative_operators(len(weights), order):
                rows.append(
                    [apply_operator(weights, e, op, coords) for e in basis]
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


def reference_point_rows(weights, degree, basis, coords, multiplicity, prime):
    """The per-cell row builder the derivative tables replaced, kept as a reference."""
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
        for e in basis:
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
    for col, e in enumerate(basis):
        if sum(e) <= multiplicity - 2:
            row = [0] * len(basis)
            val = math.prod(math.factorial(x) for x in e)
            row[col] = val % prime if prime else val
            rows.append(row)
    return rows


def reference_matrix_rows(weights, degree, points, mults, prime):
    basis = enumerate_monomials(weights, degree)
    rows = []
    for coords, m in zip(points, mults):
        rows.extend(reference_point_rows(weights, degree, basis, coords, m, prime))
    return rows


ROW_PRIMES = [None, 7, (1 << 31) - 1, (1 << 61) - 1]


@st.composite
def row_cases(draw):
    """Weights with n = 1..3, multiplicities 1..6, degrees 0..30 and a field."""
    entries = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)))
    degree = draw(st.integers(0, 30))
    mults = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    prime = draw(st.sampled_from(ROW_PRIMES))
    if prime is None:
        coord = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)
    else:
        coord = st.integers(0, prime - 1)
    points = tuple(draw(st.tuples(*[coord] * len(entries))) for _ in mults)
    return entries, degree, mults, points, prime


@settings(max_examples=120, deadline=None)
@given(case=row_cases())
@example(case=((2, 3), 1, (2, 3), ((1, 1), (2, 5)), None))  # empty basis
@example(case=((2, 3), 8, (6,), ((3, 4),), 7))  # extra row u^4 has 4! = 3 mod 7
@example(case=((1, 1, 1), 4, (6, 1), ((0, 1, 0), (1, 0, 0)), None))  # zero coordinates
@example(case=((1, 2, 3), 9, (3, 2), ((Fraction(1, 2), Fraction(-2, 3), 0), (1, 2, 3)), None))
@example(case=((1, 1, 2, 3), 12, (6, 5, 4), ((1, 2, 3, 4), (0, 0, 5, 6), (7, 0, 0, 1)), (1 << 61) - 1))
def test_row_builder_matches_per_cell_reference(case):
    entries, degree, mults, points, prime = case
    w = Weights(entries)
    basis = enumerate_monomials(w, degree)
    want = reference_matrix_rows(w, degree, points, mults, prime)
    blocks = _matrix_rows(w, basis, points, mults, prime)
    assert [list(r) for block in blocks for r in block] == want


@pytest.mark.parametrize("prime, word_rows", [
    (linalg._prime_below(PRIME_HIGH), True),
    ((1 << 61) - 1, True),
    (None, False),
    (linalg._prime_below(linalg._MR_EXACT_BELOW), False),
])
def test_rows_are_word_arrays_below_2_to_the_64(prime, word_rows):
    # two triple points: six operator rows each, and an extra row for z
    basis = enumerate_monomials(W123, 3)
    rows = [r for block in _matrix_rows(W123, basis, [(1, 2, 3), (1, 5, 7)], (3, 3), prime)
            for r in block]
    assert len(rows) == 2 * (6 + 1)
    assert {type(r) for r in rows} == {array if word_rows else list}
    assert all(r.typecode == "Q" for r in rows if word_rows)


def test_scan_peak_is_set_by_word_rows():
    """The d = 46 scan ranks a 201 x 200 matrix of 8-byte residues, not boxed ints."""
    ah_profile_scan(W123, 46, 67, seed=1)  # fills the monomial count tables first
    tracemalloc.start()
    try:
        profiles = ah_profile_scan(W123, 46, 67, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(prof.is_AH for prof in profiles)
    assert peak < 800_000


GROUP_SIZES_123 = {0: [7, 4, 4, 1], 1: [7, 3, 3, 1], 2: [7, 3, 3, 1], 12: [6, 3, 3, 1]}


@pytest.mark.parametrize("degree", sorted(GROUP_SIZES_123))
def test_group_sizes_are_per_point_row_counts(degree):
    # a triple point gains a row for each monomial of total degree <= 1, a
    # double point for the constant, a simple point never
    mults = (3, 2, 2, 1)
    mat = build_evaluation_matrix(FatPointConfig(W123, mults, seed=5), degree)
    sizes = mat.group_sizes()
    assert sizes == GROUP_SIZES_123[degree]
    assert sum(sizes) == mat.nrows
    assert sizes == [
        len(reference_point_rows(W123, degree, mat.basis, pt, m, mat.prime))
        for pt, m in zip(mat.points, mults)
    ]


def test_triple_point_on_line_small_degree():
    # the u-column survives: its only nonzero derivative has order 1, which
    # order-2 rows cannot see
    cfg = FatPointConfig(Weights((2, 3)), (3,), points=((1, 1),), field="exact")
    mat = build_evaluation_matrix(cfg, 3)
    assert mat.rank() == 1


def test_hand_built_single_double_point():
    cfg = FatPointConfig(W123, (2,), points=((1, 2, 5),), field="exact")
    mat = build_evaluation_matrix(cfg, 3)
    assert mat.basis == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
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


def test_config_points_follow_the_weights_as_given():
    with pytest.raises(ValueError, match="not in ascending order"):
        FatPointConfig((3, 1, 2), (2,), points=((5, 0, 7),))
    cfg = FatPointConfig((1, 2, 3), (2,), points=((0, 5, 7),))
    assert cfg.points[0].coords == (0, 5, 7)
    # without explicit points the order of the weights does not matter
    assert FatPointConfig((3, 1, 2), (2,)).weights == (1, 2, 3)


def test_matrix_refuses_a_denominator_that_vanishes_mod_the_prime():
    cfg = FatPointConfig(W123, (1,), points=((Fraction(1, 7), 1, 1),), field=7)
    with pytest.raises(ValueError, match="denominator vanishes mod the prime"):
        build_evaluation_matrix(cfg, 3)


def test_matrix_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        build_evaluation_matrix(FatPointConfig(W123, (2,)), -1)


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
    assert PRIME_LOW <= prime < PRIME_HIGH
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


def test_trial_prime_above_the_range_for_huge_degrees():
    # Weights((8192, 8193)) has 2 monomials in degree 2**25 + 8192 * 8193.
    degree = PRIME_HIGH + 8192 * 8193
    prime, _ = sample_trial(Weights((8192, 8193)), 1, degree, 0, 0)
    assert degree < prime < 2 * degree + 2
    assert is_probable_prime(prime)


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


def test_more_points_than_field_values_is_rejected():
    # F_7 has six nonzero values, so a slot cannot hold ten distinct ones
    w = Weights((1, 1, 1))
    with pytest.raises(ValueError, match="only 6 are available"):
        hilbert_fat_points(FatPointConfig(w, (2,) * 10, field=7), 3)
    with pytest.raises(ValueError, match="only 6 are available"):
        sample_trial(Weights((2, 3)), 7, 3, 0, 0, field=7)
    _, coords = sample_trial(w, 6, 3, 0, 0, field=7)
    assert sorted(pt[1] for pt in coords) == [1, 2, 3, 4, 5, 6]


SCAN_CASES = [
    # weights, degree, r_max, multiplicity, field
    (W123, 12, 7, 2, None),
    (W123, 10, 8, 1, None),
    (W123, 15, 4, 3, None),
    (W123, 9, 5, 2, (1 << 31) - 1),
    (W123, 8, 5, 2, "exact"),
    (Weights((1, 1, 1)), 4, 6, 2, None),  # r = 5 is deficient
    (W123, 0, 3, 2, None),
    (W123, -3, 3, 2, None),
    (Weights((2, 3)), 1, 3, 2, None),  # s_d = 0
]


def test_scan_matches_pointwise():
    for w, d, r_max, m, field in SCAN_CASES:
        profiles = ah_profile_scan(w, d, r_max, multiplicity=m, seed=0, trials=3, field=field)
        assert [p.r for p in profiles] == list(range(1, r_max + 1))
        deficient = any(p.deficiency for p in profiles)
        for r, prof in enumerate(profiles, start=1):
            cfg = FatPointConfig(w, (m,) * r, field=field, seed=0, trials=3)
            got, want = prof.to_json_dict(), hilbert_fat_points(cfg, d).to_json_dict()
            if deficient:
                # the scan samples until every r is full; a full prefix alone stops at once
                del got["trials"], want["trials"]
            assert got == want, (tuple(w), d, m, field, r)
    deficient_scan = ah_profile_scan(Weights((1, 1, 1)), 4, 6)
    assert [p.deficiency for p in deficient_scan] == [0, 0, 0, 0, 1, 0]
    assert {p.trials for p in deficient_scan} == {3}


def test_scan_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be positive"):
        ah_profile_scan(W123, 10, 3, trials=0)


def test_field_is_normalized_once():
    for field in (7, "7"):
        cfg = FatPointConfig(W123, (1,), points=((1, 1, 1),), field=field)
        assert cfg.field == 7
        assert build_evaluation_matrix(cfg, 2).prime == 7
        assert build_evaluation_matrix(FatPointConfig(W123, (1,), field=field), 2).prime == 7
    for field in (None, "exact"):
        cfg = FatPointConfig(W123, (1,), points=((1, 1, 1),), field=field)
        assert cfg.field == field
        assert build_evaluation_matrix(cfg, 2).prime is None


def test_scan_degree_zero():
    profiles = ah_profile_scan(W123, 0, 3)
    assert [p.actual for p in profiles] == [1, 1, 1]
    assert all(p.expected == 1 for p in profiles)


def full_matrix_ranks(cfg, degree, expect, per_point):
    """The trial loop without column subsets: (best ranks, trials used)."""
    best = [0] * len(expect)
    for trial in range(cfg.trials):
        mat = build_evaluation_matrix(cfg, degree, trial)
        ranks = mat.group_ranks() if per_point else [mat.rank()]
        best = [max(b, x) for b, x in zip(best, ranks)]
        if all(b >= e for b, e in zip(best, expect)):
            return best, trial + 1
    return best, cfg.trials


# (1, 2, 11) has low columns in wide degrees: z^4 at d = 44 for 6-fold points.
SUBSET_WEIGHTS = [(1, 1, 1), (1, 2, 3), (1, 2, 11), (1, 3, 5), (1, 1, 2, 3)]


@st.composite
def wide_cases(draw):
    """Weights, degree, multiplicities and field of a configuration that passes the subset gate."""
    w = Weights(draw(st.sampled_from(SUBSET_WEIGHTS)))
    mults = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    need = 2 * (sum(conditions_of_multiplicity(m, w.n) for m in mults) + 8)
    start = next(d for d in range(200) if count_monomials(w, d) >= need)
    degree = draw(st.integers(start, start + 8))
    field = draw(st.sampled_from([None, None, "exact"]))
    return w, degree, mults, field


@settings(max_examples=40, deadline=None)
@given(case=wide_cases(), seed=st.integers(0, 10**6))
@example(case=((1, 2, 11), 44, (6,), None), seed=0)
@example(case=((1, 2, 11), 44, (6,), "exact"), seed=0)
@example(case=((1, 1, 40), 30, (2, 2), None), seed=0)  # deficient: the subset falls short
def test_subset_first_trials_match_full_matrix_elimination(case, seed):
    entries, degree, mults, field = case
    w = Weights(entries)
    s_d = count_monomials(w, degree)
    conditions = list(accumulate(conditions_of_multiplicity(m, w.n) for m in mults))
    assert 2 * (min(s_d, conditions[-1]) + 8) <= s_d  # the gate holds
    cfg = FatPointConfig(w, mults, field=field, seed=seed)
    prof = hilbert_fat_points(cfg, degree)
    want, used = full_matrix_ranks(cfg, degree, [min(s_d, conditions[-1])], False)
    assert (prof.actual, prof.trials) == (want[0], used)

    m = min(mults)  # the scan's largest expected value is then within the gate too
    scan = ah_profile_scan(w, degree, len(mults), multiplicity=m, seed=seed, field=field)
    cfg = FatPointConfig(w, (m,) * len(mults), field=field, seed=seed)
    expect = [min(s_d, k * conditions_of_multiplicity(m, w.n)) for k in range(1, len(mults) + 1)]
    want, used = full_matrix_ranks(cfg, degree, expect, True)
    assert [p.actual for p in scan] == want
    assert {p.trials for p in scan} == {used}


def record_column_counts(monkeypatch):
    """The column count of every matrix the trial loop ranks, in order."""
    counts = []
    build = interpolation._evaluation_matrix

    def recording(cfg, basis, prime, coords):
        counts.append(len(basis))
        return build(cfg, basis, prime, coords)

    monkeypatch.setattr(interpolation, "_evaluation_matrix", recording)
    return counts


def test_deficient_wide_configuration_falls_back_once(monkeypatch):
    # Degree 30 < 40 has no z, so the forms are binary and a double point
    # imposes 2 conditions, not 3: rank 4 of an expected 6 on 31 columns.
    w, degree = Weights((1, 1, 40)), 30
    cfg = FatPointConfig(w, (2, 2), seed=5)
    counts = record_column_counts(monkeypatch)
    prof = hilbert_fat_points(cfg, degree)
    assert (prof.expected, prof.actual, prof.trials) == (6, 4, 3)
    # trial 0 ranks the subset, falls short and ranks the full matrix; later trials skip the subset
    assert counts == [6 + 8, 31, 31, 31]
    assert full_matrix_ranks(cfg, degree, [6], False) == ([4], 3)


def test_short_subset_leaves_the_trial_to_the_full_matrix(monkeypatch):
    # Too few columns to reach the expected rank: the full matrix decides trial 0.
    w, degree = Weights((1, 1, 1)), 20
    monkeypatch.setattr(interpolation, "_subset_columns", lambda basis, m, size, rng: [0, 1, 2])
    counts = record_column_counts(monkeypatch)
    scan = ah_profile_scan(w, degree, 3, multiplicity=4, seed=2)
    assert counts == [3, count_monomials(w, degree)]
    assert [(p.expected, p.actual, p.trials) for p in scan] == [(10, 10, 1), (20, 20, 1), (30, 30, 1)]


def test_subset_holds_every_low_column():
    # (1, 2, 11) at d = 44: z^4 is the only monomial of total degree <= 4
    basis = enumerate_monomials(Weights((1, 2, 11)), 44)
    cols = interpolation._subset_columns(basis, 6, 29, random.Random(0))
    assert len(cols) == 29 == len(set(cols))
    assert cols == sorted(cols) and cols[-1] == len(basis) - 1
    assert basis[cols[-1]] == (0, 0, 4)
    assert [c for c in cols if sum(basis[c]) <= 4] == [len(basis) - 1]


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


RANK_FIELDS = [None, (1 << 64) + 13, "exact"]  # trial primes, wide slots over lists, Q


@st.composite
def rank_cases(draw):
    """1-4 weights up to 5, 0-4 points of multiplicity 1-4, degree 0-12, a field and a seed."""
    weights = Weights(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    mults = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    degree = draw(st.integers(0, 12))
    return weights, mults, degree, draw(st.sampled_from(RANK_FIELDS)), draw(st.integers(0, 99))


@settings(max_examples=90, deadline=None)
@given(case=rank_cases())
@example(case=(W123, (), 4, None, 0))
@example(case=(Weights((2, 3)), (3, 1), 1, "exact", 0))  # no monomials
@example(case=(Weights((1, 1, 1)), (4, 4, 4, 4), 8, (1 << 64) + 13, 0))
def test_rank_is_the_last_point_checkpoint(case):
    # rank() reads group_ranks(); both must equal the kernel's one-group rank
    weights, mults, degree, field, seed = case
    mat = build_evaluation_matrix(FatPointConfig(weights, mults, field=field, seed=seed), degree)
    assert sum(mat.group_sizes()) == mat.nrows
    rank = mat.rank()
    assert rank == (mat.group_ranks()[-1] if mults else 0)
    if mat.prime is None:
        assert rank == rank_exact(mat.rows)
    else:
        assert rank == linalg.group_ranks_mod_p(mat.rows, mat.prime, [mat.nrows])[-1]


@pytest.mark.parametrize("field", RANK_FIELDS)
def test_rank_without_points_is_zero(field):
    mat = build_evaluation_matrix(FatPointConfig(W123, (), field=field), 4)
    assert (mat.rows, mat.group_sizes(), mat.group_ranks(), mat.rank()) == ([], [], [], 0)


@pytest.mark.parametrize(
    "weights, d, r, actual, deficiency",
    [((1, 2, 3), 30, 31, 91, 0), ((1, 5, 9), 21, 3, 8, 1)],
)
def test_exact_field_on_larger_cases(weights, d, r, actual, deficiency):
    prof = hilbert_fat_points(FatPointConfig(weights, (2,) * r, field="exact", seed=1), d)
    assert (prof.actual, prof.deficiency) == (actual, deficiency)


def test_exact_deficient_rank_needs_few_primes(monkeypatch):
    # A 110 x 190 matrix of rank 109: its row dependency has 180-bit entries,
    # so a few primes prove the rank, while the Hadamard bound of its minors
    # is about 2**19690, one 61-bit prime per 61 bits (about 323 per trial).
    # Each prime is one elimination, so counting them counts the primes.
    calls = []
    real = linalg._echelon

    def counting(rows, p, group_sizes, npiv):
        calls.append(p)
        return real(rows, p, group_sizes, npiv)

    monkeypatch.setattr(linalg, "_echelon", counting)
    cfg = FatPointConfig(Weights((1, 1, 1)), (10, 10), field="exact", seed=1)
    prof = hilbert_fat_points(cfg, 18)
    assert (prof.actual, prof.deficiency) == (109, 1)
    assert len(calls) == 3 * 6  # three trials, six primes each


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
            dict(zip(mat.basis, vec)),
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
    col_of = {e: i for i, e in enumerate(mat.basis)}
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
        col_of = {e: i for i, e in enumerate(mat.basis)}
        assert sorted(col_of) == sorted(ordered_basis)
        reordered = [
            [Fraction(row[col_of[e]]) for e in ordered_basis] for row in mat.rows
        ]
        assert det_exact(reordered) == 9 * b**2 * (p1 - q1) ** 5
