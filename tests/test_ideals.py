"""Point ideals, scaling equivalence, and monomial-curve relations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpinterp import (
    SparsePoly,
    UnsupportedConfigurationError,
    UnsupportedWeightsError,
    WeightedPoint,
    Weights,
    evaluate,
    herzog_data,
    point_ideal,
    point_ideal_hyperplane_case,
    point_ideal_line,
    point_ideal_plane,
)
from wpinterp.ideals import _minimal_relation

W123 = Weights((1, 2, 3))


def brute_minimal_relation(lhs, mid, low):
    """Least r with r*lhs = k*mid + g*low solvable, and its lex-least (k, g).

    The k-scan that ideals._minimal_relation ran before it found k in closed
    form, loop for loop.
    """
    for r in range(1, 10**6):
        target = r * lhs
        for k in range(target // mid + 1):
            rem = target - k * mid
            if rem % low == 0:
                return r, k, rem // low
    raise AssertionError("no relation found")


def bezout_equivalent(p, q):
    """Scaling equivalence as ideals decided it with an extended Euclid.

    mu is the product of (p_i/q_i)^{c_i} with sum c_i a_i = g, the gcd of
    the weights at the nonzero slots; a scalar exists iff mu^{a_i/g} equals
    every p_i/q_i.
    """
    if not isinstance(q, WeightedPoint) or p.weights != q.weights:
        return False
    if any((x == 0) != (y == 0) for x, y in zip(p.coords, q.coords)):
        return False
    live = [i for i, x in enumerate(p.coords) if x]
    values = [p.weights[i] for i in live]
    g, coeffs = values[0], [1] + [0] * (len(values) - 1)
    for i in range(1, len(values)):
        old = g
        g = math.gcd(g, values[i])
        r0, r1, s0, s1 = old, values[i], 1, 0
        t0, t1 = 0, 1
        while r1:
            quo, (r0, r1) = r0 // r1, (r1, r0 - (r0 // r1) * r1)
            s0, s1 = s1, s0 - quo * s1
            t0, t1 = t1, t0 - quo * t1
        coeffs = [c * s0 for c in coeffs]
        coeffs[i] = t0
    mu = Fraction(1)
    for i, c in zip(live, coeffs):
        mu *= (p.coords[i] / q.coords[i]) ** c
    return all(mu ** (p.weights[i] // g) == p.coords[i] / q.coords[i] for i in live)


def test_sparse_poly_drops_zero_terms():
    p = SparsePoly(W123, {(2, 0, 0): 1, (0, 1, 0): 0})
    assert p.terms == {(2, 0, 0): Fraction(1)}
    assert not p.is_zero()
    assert SparsePoly(W123, {}).is_zero()
    assert str(SparsePoly(W123, {})) == "0"


def test_sparse_poly_degree_and_homogeneity():
    p = SparsePoly(W123, {(2, 0, 0): 1, (0, 1, 0): -1})  # z^2 - u
    assert p.degree() == 2
    assert p.is_homogeneous()
    q = SparsePoly(W123, {(1, 0, 0): 1, (0, 1, 0): 1})  # z + u, mixed degrees
    assert not q.is_homogeneous()
    assert q.degree() == 2
    assert SparsePoly(W123, {}).degree() is None


def test_sparse_poly_evaluate_and_partial():
    p = SparsePoly(W123, {(2, 0, 0): 1, (0, 1, 0): -1})
    assert p.evaluate((3, 9, 0)) == 0
    assert p.evaluate((3, 8, 0)) == 1
    dz = p.partial(0)
    assert dz.terms == {(1, 0, 0): Fraction(2)}
    du = p.partial(1)
    assert du.terms == {(0, 0, 0): Fraction(-1)}
    assert p.partial(2).is_zero()
    with pytest.raises(ValueError):
        p.evaluate((1, 2))


def test_sparse_poly_str():
    assert str(SparsePoly(W123, {(0, 3, 0): 1, (0, 0, 2): -1})) == "u^3 - v^2"
    assert str(SparsePoly(W123, {(2, 0, 0): -1, (0, 1, 0): 1})) == "-z^2 + u"
    assert str(SparsePoly(W123, {(1, 1, 0): Fraction(3, 2)})) == "3/2*z*u"


def test_sparse_poly_equality_and_json():
    a = SparsePoly(W123, {(0, 3, 0): 1, (0, 0, 2): -1})
    b = SparsePoly(W123, {(0, 0, 2): Fraction(-1), (0, 3, 0): Fraction(1)})
    assert a == b
    assert hash(a) == hash(b)
    d = a.to_json_dict()
    assert d["weights"] == [1, 2, 3]
    assert d["terms"][0] == {"exponents": [0, 3, 0], "coefficient": "1"}
    with pytest.raises(ValueError):
        SparsePoly(W123, {(1, 0): 1})


def test_records_are_immutable():
    poly = SparsePoly(W123, {(2, 0, 0): 1})
    point = WeightedPoint(W123, (1, 2, 3))
    with pytest.raises(AttributeError):
        poly.terms = {}
    with pytest.raises(AttributeError):
        point.coords = (1, 1, 1)
    assert poly.terms == {(2, 0, 0): 1}
    assert point.coords == (1, 2, 3)


def test_reprs():
    assert repr(SparsePoly(W123, {(2, 0, 0): 1, (0, 1, 0): -1})) == "SparsePoly(z^2 - u)"
    assert repr(SparsePoly(W123, {})) == "SparsePoly(0)"
    assert repr(WeightedPoint(W123, (Fraction(1, 2), 1, 0))) == "[1/2 : 1 : 0]"


def test_sparse_poly_rejects_exponents_of_the_wrong_length():
    with pytest.raises(ValueError, match="exponent length does not match the weights"):
        SparsePoly(W123, {(1, 0, 0, 0): 1})


def test_weighted_point_validation():
    with pytest.raises(ValueError):
        WeightedPoint(W123, (0, 0, 0))
    with pytest.raises(ValueError):
        WeightedPoint(W123, (1, 2))


def test_weighted_point_refuses_weights_out_of_order():
    # Weights would sort (3, 1, 2) and pair 5, 0, 7 with 1, 2, 3: another point
    with pytest.raises(ValueError, match=r"weights \(3, 1, 2\) are not in ascending order"):
        WeightedPoint((3, 1, 2), (5, 0, 7))
    assert WeightedPoint((1, 1, 2), (1, 2, 3)).weights == (1, 1, 2)  # ties keep their order
    assert type(WeightedPoint([1, 2, 3], (5, 0, 7)).weights) is Weights


def test_scaled_points_are_equivalent():
    rng = random.Random(3)
    for entries in [(1, 2, 3), (2, 3), (1, 1, 2), (2, 3, 5)]:
        w = Weights(entries)
        for _ in range(20):
            coords = tuple(Fraction(rng.randint(-4, 4)) for _ in range(len(w)))
            if not any(coords):
                continue
            pt = WeightedPoint(w, coords)
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            assert pt.is_equivalent(pt.scaled(lam))
            assert pt.scaled(lam).coords == tuple(
                c * lam**a for c, a in zip(coords, w)
            )


def test_equivalence_beyond_rational_scalings():
    # scalings may need roots of unity not present over Q
    w24 = Weights((2, 4))
    assert WeightedPoint(w24, (1, 1)).is_equivalent(WeightedPoint(w24, (-1, 1)))
    w23 = Weights((2, 3))
    assert WeightedPoint(w23, (1, 1)).is_equivalent(WeightedPoint(w23, (4, 8)))
    assert WeightedPoint(w23, (1, 1)).is_equivalent(WeightedPoint(w23, (4, -8)))
    w47 = Weights((4, 7))
    assert not WeightedPoint(w47, (1, 1)).is_equivalent(WeightedPoint(w47, (2, 2)))


def test_scaling_by_zero_is_refused():
    with pytest.raises(ValueError, match="scaling factor must be nonzero"):
        WeightedPoint(W123, (1, 2, 3)).scaled(0)


def test_equivalence_needs_a_point_of_the_same_weights():
    pt = WeightedPoint(W123, (1, 1, 1))
    assert not pt.is_equivalent(WeightedPoint(Weights((1, 1, 2)), (1, 1, 1)))
    assert not pt.is_equivalent((1, 1, 1))
    assert pt != (1, 1, 1)


SMALL_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def point_pairs(draw):
    """(p, q) on 1-4 weights up to 12: q is p scaled by a rational, or drawn on its own."""
    w = Weights(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    coords = st.lists(SMALL_RATIONALS, min_size=len(w), max_size=len(w)).filter(any)
    p = WeightedPoint(w, draw(coords))
    if draw(st.booleans()):
        return p, p.scaled(draw(SMALL_RATIONALS.filter(bool)))
    return p, WeightedPoint(w, draw(coords))


@settings(max_examples=400, deadline=None)
@given(point_pairs())
def test_equivalence_matches_the_bezout_reference(pair):
    p, q = pair
    assert p.is_equivalent(q) == bezout_equivalent(p, q)
    assert q.is_equivalent(p) == bezout_equivalent(q, p)


@pytest.mark.parametrize(
    "weights,p,q,expected",
    [
        ((2, 4), (1, 1), (-1, 1), True),
        ((2, 3), (1, 1), (4, 8), True),
        ((2, 3), (1, 1), (4, -8), True),
        ((4, 7), (1, 1), (2, 2), False),
    ],
)
def test_roots_of_unity_cases_match_the_bezout_reference(weights, p, q, expected):
    w = Weights(weights)
    p, q = WeightedPoint(w, p), WeightedPoint(w, q)
    assert p.is_equivalent(q) is expected
    assert bezout_equivalent(p, q) is expected


def test_equivalence_zero_patterns():
    a = WeightedPoint(W123, (0, 1, 1))
    b = WeightedPoint(W123, (1, 1, 1))
    assert not a.is_equivalent(b)
    assert a.is_equivalent(WeightedPoint(W123, (0, 4, 8)))
    assert a == WeightedPoint(W123, (0, 4, 8))


def test_canonical_pins_first_unit_coordinate():
    pt = WeightedPoint(W123, (2, 3, 5))
    canon = pt.canonical()
    assert canon.coords == (1, Fraction(3, 4), Fraction(5, 8))
    assert pt.is_equivalent(canon)


def test_canonical_without_a_unit_coordinate_is_the_point():
    for weights, coords in (((2, 3), (1, 1)), ((1, 2, 3), (0, 2, 5))):
        pt = WeightedPoint(Weights(weights), coords)
        assert pt.canonical() == pt
        assert pt.canonical().coords == pt.coords


@pytest.mark.parametrize(
    "triple,r,k,g,hc",
    [
        ((3, 4, 5), (3, 2, 2), (1, 1, 2), (1, 1, 1), False),
        ((1, 2, 3), (2, 1, 1), (1, 2, 1), (0, 0, 1), True),
    ],
)
def test_herzog_known_values(triple, r, k, g, hc):
    data = herzog_data(*triple)
    assert data.r == r
    assert data.k == k
    assert data.g == g
    assert data.hc is hc


@pytest.mark.parametrize("triple", [(3, 4, 5), (2, 3, 5), (3, 5, 7), (4, 6, 9), (5, 6, 8)])
def test_herzog_minimality(triple):
    a, b, c = triple
    data = herzog_data(a, b, c)
    # relation i pairs weight i with the two others in index order
    assert (data.r[0], data.k[0], data.g[0]) == brute_minimal_relation(a, b, c)
    assert (data.r[1], data.k[1], data.g[1]) == brute_minimal_relation(b, a, c)
    assert (data.r[2], data.k[2], data.g[2]) == brute_minimal_relation(c, a, b)
    assert data.hc == (0 in data.k or 0 in data.g)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60))
def test_minimal_relation_matches_the_k_scan(lhs, mid, low):
    assert _minimal_relation(lhs, mid, low) == brute_minimal_relation(lhs, mid, low)


def test_herzog_requires_coprime_triple():
    with pytest.raises(UnsupportedWeightsError):
        herzog_data(2, 4, 6)


def test_point_ideal_line():
    w = Weights((2, 3))
    gens = point_ideal_line(WeightedPoint(w, (1, 1)))
    assert len(gens) == 1
    assert str(gens[0]) == "z^3 - u^2"
    for p0, p1 in [(1, 1), (2, 3), (1, -2), (0, 1), (1, 0)]:
        pt = WeightedPoint(w, (p0, p1))
        for gen in point_ideal_line(pt):
            assert gen.is_homogeneous()
            assert gen.evaluate(pt.coords) == 0
            # the generator must vanish on the whole orbit, not only the representative
            assert gen.evaluate(pt.scaled(3).coords) == 0


def test_point_ideal_dispatches_a_line_point():
    pt = WeightedPoint(Weights((2, 3)), (1, 2))
    assert point_ideal(pt) == point_ideal_line(pt)
    assert [str(g) for g in point_ideal(pt)] == ["4*z^3 - u^2"]


def test_line_and_plane_recipes_refuse_what_they_do_not_cover():
    with pytest.raises(UnsupportedConfigurationError, match="weighted line"):
        point_ideal_line(WeightedPoint(W123, (1, 1, 1)))
    with pytest.raises(UnsupportedWeightsError, match="coprime"):
        point_ideal_line(WeightedPoint(Weights((2, 4)), (1, 1)))
    with pytest.raises(UnsupportedConfigurationError, match="weighted plane"):
        point_ideal_plane(WeightedPoint(Weights((2, 3)), (1, 1)))
    with pytest.raises(UnsupportedWeightsError, match="well formed"):
        point_ideal_plane(WeightedPoint(Weights((1, 2, 2)), (1, 1, 1)))


def test_point_ideal_plane_interior_point():
    gens = point_ideal(WeightedPoint(W123, (1, 1, 1)))
    assert len(gens) == 2
    texts = [str(g) for g in gens]
    assert texts == ["z^2 - u", "-z*u + v"]
    for g in gens:
        assert g.is_homogeneous()
        assert g.evaluate((1, 1, 1)) == 0


def test_point_ideal_plane_hc_collapse():
    # when a zero appears among the relation coefficients two Herzog binomials
    # agree up to sign; only the first is kept
    data = herzog_data(1, 2, 3)
    assert data.hc
    gens = point_ideal(WeightedPoint(W123, (1, 1, 1)))
    assert len(gens) == 2
    assert not _proportional(gens[0], gens[1])
    assert gens[0] == SparsePoly(W123, {(2, 0, 0): 1, (0, 1, 0): -1})


def _proportional(f, g):
    if set(f.terms) != set(g.terms):
        return False
    e0 = next(iter(f.terms))
    return all(f.terms[e] * g.terms[e0] == g.terms[e] * f.terms[e0] for e in f.terms)


WELL_FORMED_PLANES = [
    (a, b, c)
    for a in range(1, 8)
    for b in range(a, 8)
    for c in range(b, 8)
    if Weights((a, b, c)).well_formed
]


@pytest.mark.parametrize("entries", WELL_FORMED_PLANES, ids=lambda e: "-".join(map(str, e)))
def test_point_ideal_plane_has_no_proportional_generators(entries):
    w = Weights(entries)
    for coords in ((1, 1, 1), (1, Fraction(1, 2), 3), (2, -1, 5), (0, 1, 1), (1, 0, 2), (3, 1, 0), (0, 0, 1)):
        point = WeightedPoint(w, coords)
        gens = point_ideal_plane(point)
        for i, f in enumerate(gens):
            assert not f.is_zero()
            assert all(not _proportional(f, g) for g in gens[:i]), (entries, coords)
            for lam in (1, -2, Fraction(1, 3)):
                assert evaluate(f, point.scaled(lam)) == 0, (entries, coords, lam)


@pytest.mark.parametrize(
    "entries,coords",
    [
        ((1, 2, 3), (1, 2, 5)),
        ((1, 2, 3), (0, 1, 1)),
        ((1, 2, 3), (1, 0, 1)),
        ((1, 2, 3), (1, 1, 0)),
        ((1, 2, 3), (0, 0, 1)),
        ((1, 2, 3), (1, 0, 0)),
        ((3, 4, 5), (1, 1, 1)),
        ((3, 4, 5), (2, 3, 5)),
        ((2, 3, 5), (0, 1, 2)),
    ],
)
def test_point_ideal_plane_vanishing(entries, coords):
    w = Weights(entries)
    pt = WeightedPoint(w, coords)
    gens = point_ideal_plane(pt)
    assert gens
    for gen in gens:
        assert gen.is_homogeneous()
        assert gen.evaluate(pt.coords) == 0
        assert gen.evaluate(pt.scaled(2).coords) == 0
        assert not gen.is_zero()


# Captured before the one-zero binomial was lifted from point_ideal_line.
ZERO_SLOT_GENERATORS = [
    ((1, 2, 3), (0, 1, 1), ["z", "u^3 - v^2"]),
    ((1, 2, 3), (1, 0, 1), ["u", "z^3 - v"]),
    ((1, 2, 3), (1, 1, 0), ["v", "z^2 - u"]),
    ((2, 3, 5), (0, 1, 2), ["z", "8*u^5 - v^3"]),
    ((2, 3, 5), (3, 0, 2), ["u", "4*z^5 - 243*v^2"]),
    ((2, 3, 5), (3, 2, 0), ["v", "4*z^3 - 27*u^2"]),
    ((1, 2, 3), (0, 0, 1), ["z", "u"]),
    ((1, 2, 3), (1, 0, 0), ["u", "v"]),
]


@pytest.mark.parametrize(
    "weights,coords,expected",
    ZERO_SLOT_GENERATORS,
    ids=["".join(map(str, w)) + "-" + "".join(map(str, p)) for w, p, _ in ZERO_SLOT_GENERATORS],
)
def test_point_ideal_zero_slot_generators(weights, coords, expected):
    gens = point_ideal(WeightedPoint(Weights(weights), coords))
    assert [str(g) for g in gens] == expected


def test_point_ideal_hyperplane_case():
    w = Weights((1, 2, 3, 4))
    pt = WeightedPoint(w, (1, 1, 1, 1))
    gens = point_ideal_hyperplane_case(pt)
    assert gens
    for gen in gens:
        assert gen.is_homogeneous()
        assert gen.evaluate(pt.coords) == 0
        assert gen.evaluate(pt.scaled(2).coords) == 0
    assert point_ideal(pt) == gens


def test_point_ideal_hyperplane_case_names_four_variables():
    pt = WeightedPoint(Weights((1, 2, 3, 4)), (1, 2, 3, 4))
    gens = point_ideal(pt)
    assert [str(g) for g in gens] == ["2*x0^2 - x1", "3*x0^3 - x2", "4*x0^4 - x3"]
    assert all(evaluate(g, pt) == 0 for g in gens)


def test_evaluate_helper():
    pt = WeightedPoint(W123, (1, 1, 1))
    poly = SparsePoly(W123, {(0, 3, 0): 1, (0, 0, 2): -1})
    assert evaluate(poly, pt) == 0


def test_evaluate_refuses_a_point_of_other_weights():
    poly = SparsePoly(W123, {(0, 3, 0): 1, (0, 0, 2): -1})
    with pytest.raises(ValueError, match="different spaces"):
        evaluate(poly, WeightedPoint(Weights((1, 1, 2)), (1, 1, 1)))
