"""Monomial embeddings, tangent Jacobians, and secant dimensions."""

from fractions import Fraction

import pytest

from wpinterp import (
    FatPointConfig,
    OutsideDomainError,
    UnsupportedWeightsError,
    VeroneseChart,
    WeightedPoint,
    Weights,
    build_evaluation_matrix,
    count_monomials,
    hilbert_fat_points,
    secant_dimension,
    tangent_jacobian,
    veronese_image,
)

W123 = Weights((1, 2, 3))


def test_chart_validation():
    with pytest.raises(UnsupportedWeightsError):
        VeroneseChart(Weights((2, 3, 5)), 10)
    with pytest.raises(UnsupportedWeightsError):
        VeroneseChart(W123, 2)  # below the largest weight
    chart = VeroneseChart(W123, 3)
    assert chart.degree == 3


def test_chart_accepts_raw_weight_tuples():
    chart = VeroneseChart((1, 2, 3), 6)
    assert chart.weights == W123
    assert chart.ambient_dim == count_monomials(W123, 6) - 1 == 6


def test_image_of_coordinate_point():
    chart = VeroneseChart(W123, 6)
    assert veronese_image(chart, (1, 0, 0)) == [1, 0, 0, 0, 0, 0, 0]


def test_image_follows_basis_order():
    chart = VeroneseChart(W123, 6)
    img = veronese_image(chart, (0, 0, 2))
    nonzero = [(e, v) for e, v in zip(chart.basis, img) if v]
    assert nonzero == [((0, 0, 2), 4)]


def test_image_length_check():
    chart = VeroneseChart(W123, 6)
    with pytest.raises(ValueError):
        veronese_image(chart, (1, 2))


def test_outside_domain():
    chart = VeroneseChart(W123, 7)
    with pytest.raises(OutsideDomainError):
        veronese_image(chart, (0, 0, 1))  # no pure v monomial in odd degree


def reference_image(chart, coords):
    """The former per-cell loop of veronese_image, kept as an oracle."""
    vals = []
    for mono in chart.basis:
        v = 1
        for c, e in zip(coords, mono):
            if e:
                v *= c**e
        vals.append(v)
    return vals


@pytest.mark.parametrize("entries", [(1, 2, 3), (1, 1, 1), (1, 1, 2, 3), (1, 4)])
@pytest.mark.parametrize(
    "coords",
    [(1, 2, 3, 4), (0, 5, -2, 1), (Fraction(1, 2), Fraction(-2, 3), 0, 7), (2, 0, 0, 0)],
)
def test_image_matches_per_cell_reference(entries, coords):
    coords = coords[: len(entries)]
    for d in range(max(entries), 13):
        chart = VeroneseChart(Weights(entries), d)
        expected = reference_image(chart, coords)
        if any(expected):
            assert veronese_image(chart, coords) == expected
        else:
            with pytest.raises(OutsideDomainError):
                veronese_image(chart, coords)


def test_image_is_equivariant():
    chart = VeroneseChart(W123, 6)
    pt = WeightedPoint(W123, (3, 2, 5))
    img = veronese_image(chart, pt.coords)
    scaled = veronese_image(chart, pt.scaled(2).coords)
    assert scaled == [2**6 * v for v in img]


def test_tangent_jacobian_matches_double_point_rows():
    pt = WeightedPoint(W123, (1, 4, 9))
    chart = VeroneseChart(W123, 7)
    cfg = FatPointConfig(W123, (2,), points=(pt,))
    mat = build_evaluation_matrix(cfg, 7)
    assert mat.rows == tangent_jacobian(chart, (1, 4, 9))
    assert len(mat.rows) == 3


def test_secant_of_plane_conics_is_defective():
    chart = VeroneseChart(Weights((1, 1, 1)), 2)
    rep = secant_dimension(chart, 2, seed=0)
    assert rep.expected_dim == 5
    assert rep.actual_dim == 4
    assert rep.defect == 1
    assert rep.trials == 3  # deficiency means no early exit


def test_secant_regular_case():
    chart = VeroneseChart(W123, 8)
    rep = secant_dimension(chart, 3, seed=0)
    assert (rep.expected_dim, rep.actual_dim, rep.defect) == (8, 8, 0)
    assert rep.trials == 1
    data = rep.to_json_dict()
    assert data["weights"] == [1, 2, 3]
    assert data["defect"] == 0


def test_secant_requires_positive_rank():
    with pytest.raises(ValueError):
        secant_dimension(VeroneseChart(W123, 6), 0)


def test_secant_requires_positive_trials():
    with pytest.raises(ValueError):
        secant_dimension(VeroneseChart(Weights((1, 1, 1)), 2), 2, trials=0)


@pytest.mark.parametrize(
    "weights,d,r,seed",
    [
        ((1, 2, 3), 8, 3, 11),
        ((1, 1, 2), 6, 4, 7),
        ((1, 3, 4), 9, 2, 3),
        ((1, 1, 1), 4, 5, 2),
    ],
)
def test_secant_rank_equals_double_point_rank(weights, d, r, seed):
    w = Weights(weights)
    chart = VeroneseChart(w, d)
    rep = secant_dimension(chart, r, seed=seed, trials=2)
    cfg = FatPointConfig(w, (2,) * r, seed=seed, trials=2)
    prof = hilbert_fat_points(cfg, d)
    assert rep.actual_dim + 1 == prof.actual
    assert rep.expected_dim + 1 == prof.expected


def test_secant_exact_field_agrees():
    chart = VeroneseChart(W123, 8)
    modular = secant_dimension(chart, 2, seed=4, trials=1)
    exact = secant_dimension(chart, 2, seed=4, trials=1, field="exact")
    assert modular.actual_dim == exact.actual_dim
