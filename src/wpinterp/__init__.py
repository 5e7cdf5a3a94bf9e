"""Exact interpolation with fat points in weighted projective space.

Hilbert functions of graded polynomial rings with arbitrary positive
weights, evaluation matrices and generic-rank tests for fat-point schemes,
point ideals on weighted lines and planes, secant dimensions of weighted
Veronese varieties, numerical exception bounds, and checkable certificates
for the inductive independence argument in P(1, 2, 3).
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCheckReport,
    BoundViolationError,
    TriangleDecomposition,
    exception_sufficient,
    interpolation_bound_check,
    triangle_lattice_check,
)
from .grading import (
    UnsupportedWeightsError,
    Weights,
    count_monomials,
    enumerate_monomials,
    hilbert_closed_form,
    semigroup_member,
)
from .ideals import (
    HerzogData,
    SparsePoly,
    UnsupportedConfigurationError,
    WeightedPoint,
    evaluate,
    herzog_data,
    point_ideal,
    point_ideal_hyperplane_case,
    point_ideal_line,
    point_ideal_plane,
)
from .induction import (
    CertificateError,
    CertificateNode,
    ChandlerRecord,
    TerraciniChoice,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    chandler_inequality,
    check_certificate,
    numeric_facts_verify,
    teranum_verify,
    terracini_candidates,
)
from .interpolation import (
    EvaluationMatrix,
    FatPointConfig,
    FieldTooSmallError,
    RankProfile,
    ah_profile_scan,
    build_evaluation_matrix,
    conditions_of_multiplicity,
    deficiency_table,
    derivative_operators,
    hilbert_fat_points,
    line_interpolation_formula,
    sample_trial,
    simple_points_hilbert,
)
from .linalg import det_exact, is_probable_prime, nullspace_exact, rank_exact
from .veronese import (
    OutsideDomainError,
    SecantReport,
    VeroneseChart,
    secant_dimension,
    tangent_jacobian,
    veronese_image,
)
