"""Point ideals, scaling equivalence, and monomial-curve relations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpinterp import (
    SparsePoly,
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


def test_weighted_point_validation():
    with pytest.raises(ValueError):
        WeightedPoint(W123, (0, 0, 0))
    with pytest.raises(ValueError):
        WeightedPoint(W123, (1, 2))


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


def test_evaluate_helper():
    pt = WeightedPoint(W123, (1, 1, 1))
    poly = SparsePoly(W123, {(0, 3, 0): 1, (0, 0, 2): -1})
    assert evaluate(poly, pt) == 0
