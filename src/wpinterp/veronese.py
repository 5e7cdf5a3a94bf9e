"""Degree-d embeddings of weighted projective space and their secant varieties.

The chart sends a point to the tuple of all degree-d monomial values.  For
weights (1, a_1, ..., a_n) and d at least the largest weight this is an
embedding, tangent spaces are spanned by the rows of the monomial Jacobian,
and the dimension of the r-th secant variety is the rank of the r stacked
Jacobians at generic points, minus one.  Those stacked Jacobians are the
evaluation matrix of r double points, so secant dimensions are computed as
double-point Hilbert functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grading import UnsupportedWeightsError, Weights, count_monomials, enumerate_monomials
from .interpolation import FatPointConfig, _matrix_rows, hilbert_fat_points


class OutsideDomainError(ValueError):
    """Raised when every basis monomial vanishes at the point."""


@dataclass(frozen=True)
class VeroneseChart:
    """The degree-d monomial embedding of P(1, a_1, ..., a_n)."""

    weights: Weights
    degree: int

    def __post_init__(self):
        w = Weights(self.weights)
        object.__setattr__(self, "weights", w)
        if w[0] != 1:
            raise UnsupportedWeightsError("the smallest weight must be 1")
        if self.degree < w[-1]:
            raise UnsupportedWeightsError(
                f"degree {self.degree} is below the largest weight {w[-1]}; "
                "the monomial map is not an embedding there"
            )

    @property
    def basis(self):
        return enumerate_monomials(self.weights, self.degree)

    @property
    def ambient_dim(self) -> int:
        return count_monomials(self.weights, self.degree) - 1


def veronese_image(chart: VeroneseChart, coords):
    """Coordinates of the image point, in basis order."""
    if len(coords) != len(chart.weights):
        raise ValueError("coordinate length does not match the weights")
    vals = _matrix_rows(chart.weights, chart.basis, [coords], (1,), None)[0][0]
    if not any(vals):
        raise OutsideDomainError("all basis monomials vanish at the point")
    return vals


def tangent_jacobian(chart: VeroneseChart, coords, prime=None):
    """Rows j = 0..n of first partials of the basis monomials at the point."""
    if len(coords) != len(chart.weights):
        raise ValueError("coordinate length does not match the weights")
    return _matrix_rows(chart.weights, chart.basis, [coords], (2,), prime)[0]


@dataclass(frozen=True)
class SecantReport:
    weights: Weights
    degree: int
    r: int
    expected_dim: int
    actual_dim: int
    defect: int
    trials: int

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "d": self.degree,
            "r": self.r,
            "expected_dim": self.expected_dim,
            "actual_dim": self.actual_dim,
            "defect": self.defect,
            "trials": self.trials,
        }


def secant_dimension(chart: VeroneseChart, r: int, seed=0, trials: int = 3, field=None) -> SecantReport:
    """Projective dimension of the r-th secant variety of the chart's image.

    By Terracini's lemma this is the rank of r generic double points in the
    chart's degree, minus one, so it is read off hilbert_fat_points: the
    expected dimension is min{s_d, r*(n+1)} - 1 and the defect is the
    double-point deficiency.
    """
    if r < 1:
        raise ValueError("r must be positive")
    cfg = FatPointConfig(chart.weights, (2,) * r, field=field, seed=seed, trials=trials)
    prof = hilbert_fat_points(cfg, chart.degree)
    return SecantReport(
        weights=chart.weights,
        degree=chart.degree,
        r=r,
        expected_dim=prof.expected - 1,
        actual_dim=prof.actual - 1,
        defect=prof.deficiency,
        trials=prof.trials,
    )
