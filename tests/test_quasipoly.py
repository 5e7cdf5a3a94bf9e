"""Class polynomials, their period refinement and their last real root."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpinterp import Weights, count_monomials
from wpinterp.grading import closed_form
from wpinterp.quasipoly import class_values, differences, last_root, refine_period

PLANE_AND_LINES = [Weights(w) for w in ((1, 2, 3), (2, 3), (1, 3), (1, 2))]


def value_at(values, k):
    b0, b1, b2 = differences(values)
    return b0 + b1 * k + b2 * k * (k - 1) // 2


def test_class_polynomials_match_the_counts():
    for w in PLANE_AND_LINES:
        form = closed_form(w)
        for period in (math.lcm(*w), 36):
            for c in range(period):
                (values,) = class_values(lambda d: (form(d),), period, c)
                for k in range((2000 - c) // period + 1):
                    assert value_at(values, k) == count_monomials(w, period * k + c)


def least_constant_period(f, period, m, start, top=3000):
    """The least multiple of period on whose classes f mod m is constant, by scanning d <= top."""
    p = period
    while any(f(d) % m != f(d - p) % m for d in range(start + p, top)):
        p += period
    return p


def test_refine_period_is_the_least_constant_period():
    s123 = closed_form(PLANE_AND_LINES[0])
    assert refine_period(lambda d: (s123(d),), 6, 3, 6) == 18
    for w in PLANE_AND_LINES:
        form = closed_form(w)
        for m in (2, 3, 4, 5):
            for start in (0, 6):
                got = refine_period(lambda d: (form(d),), 6, m, start)
                assert got == least_constant_period(form, 6, m, start)


def test_refine_period_needs_every_entry():
    s123, s23 = closed_form(PLANE_AND_LINES[0]), closed_form(PLANE_AND_LINES[1])
    both = refine_period(lambda d: (s123(d), s23(d)), 6, 2, 6)
    assert both == math.lcm(
        refine_period(lambda d: (s123(d),), 6, 2, 6), refine_period(lambda d: (s23(d),), 6, 2, 6)
    )


def largest_root_floor(values):
    """Floor of the largest real root from Lagrange coefficients and a 60-digit square root."""
    v0, v1, v2 = (Fraction(v) for v in values)
    a = (v0 - 2 * v1 + v2) / 2
    b = (-3 * v0 + 4 * v1 - v2) / 2
    c = v0
    if a == 0:
        return None if b == 0 else math.floor(-c / b)
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt()
        lo, hi = (-Decimal(b.numerator) / b.denominator + s * root for s in (-1, 1))
        largest = max(lo / (2 * Decimal(a.numerator) / a.denominator),
                      hi / (2 * Decimal(a.numerator) / a.denominator))
        return math.floor(largest)


@settings(max_examples=500, deadline=None)
@given(st.tuples(*[st.integers(-10**6, 10**6)] * 3))
@example((0, 0, 0))
@example((5, 5, 5))
@example((4, 1, 0))  # (k - 2)^2, a double root at 2
@example((0, -1, 0))  # k (k - 2): integer roots 0 and 2
@example((0, 1, 0))  # -k (k - 2): the same roots, leading coefficient < 0
@example((1, 0, 1))  # (k - 1)^2
@example((-6, -3, 2))  # k^2 + 2k - 6: irrational roots
def test_last_root_against_brute_force(values):
    root = last_root(values)
    assert root == largest_root_floor(values)
    b0, b1, b2 = differences(values)
    lead = b2 or b1
    start = 0 if root is None else root + 1
    for k in range(start, start + 50):
        if lead:
            assert value_at(values, k) * lead > 0
        else:
            assert value_at(values, k) == b0
