"""Quasi-polynomials of degree at most 2, decided one residue class at a time.

A function f of d is a quasi-polynomial of period P when, on each residue
class d = P k + c, it agrees with a polynomial in k.  The monomial counts
s_d of a weighted polynomial ring are quasi-polynomials of degree n whose
period divides the lcm of the weights (Stanley, Enumerative Combinatorics I,
§4.4), and so is every integer combination of them and of their shifts
d - a.  Here a class polynomial p of degree at most 2 is carried by its
values at the nodes k = 0, 1, 2.  Their forward differences b_0, b_1, b_2
are its coefficients in the binomial basis:

    p(k) = b_0 + b_1 C(k, 1) + b_2 C(k, 2).

Two exact facts decide a class with O(1) work:

* An integer-valued polynomial maps Z into mZ iff m divides every one of
  its binomial-basis coefficients.  So p mod m is constant on the class iff
  m divides b_1 and b_2, and then floor(p/m) is again a class polynomial.
  ``refine_period`` finds the least period for which this holds on every
  class.
* A polynomial has the sign of its leading coefficient past its largest
  real root, so any predicate that depends only on the signs of some class
  polynomials is constant for k > ``last_root`` of each of them.
"""

from __future__ import annotations

from math import isqrt


def class_values(f, period: int, c: int) -> list[tuple[int, int, int]]:
    """Values at k = 0, 1, 2 of each entry of f(d) on the class d = period k + c.

    f returns a tuple of integers of the same length at the three nodes.
    """
    return list(zip(*(f(c + period * k) for k in (0, 1, 2))))


def differences(values) -> tuple[int, int, int]:
    """The binomial-basis coefficients (b_0, b_1, b_2) of the class polynomial."""
    v0, v1, v2 = values
    return v0, v1 - v0, v2 - 2 * v1 + v0


def refine_period(f, period: int, m: int, start: int) -> int:
    """The least multiple P of period on whose classes every entry of f(d) is constant mod m.

    Each entry of f(d) must be a polynomial of degree at most 2 in k on every
    class d = period k + c with c >= start; the classes of P are the
    c in [start, start + P).  An entry passes on a class iff m divides its
    b_1 and b_2.  On the subclass k = t j + e of a class polynomial, the
    coefficients in j are b_1 t + b_2 t (t + 2e - 1) / 2 and b_2 t^2, both
    divisible by m at t = 2m, so the search ends by P = 2 m period.
    """
    for p in range(period, 2 * m * period + 1, period):
        if all(
            b1 % m == 0 and b2 % m == 0
            for c in range(start, start + p)
            for values in class_values(f, p, c)
            for _, b1, b2 in (differences(values),)
        ):
            return p
    raise ValueError("f is not a polynomial of degree <= 2 on the classes of the period")


def last_root(values) -> int | None:
    """Floor of the largest real root of the class polynomial; None when it has none.

    For every integer k past the returned value, p(k) is nonzero with the
    sign of the leading coefficient.  Constant polynomials, the zero
    polynomial included, have no root and constant sign.  The root is exact:
    2 p(k) = a k^2 + b k + c with integer a = b_2, b = 2 b_1 - b_2, c = 2 b_0,
    the larger root is (n + sqrt(b^2 - 4ac)) / m with m > 0, and
    floor((n + x) / m) = floor((n + floor(x)) / m) for integers n, m > 0.
    """
    b0, b1, b2 = differences(values)
    a, b, c = b2, 2 * b1 - b2, 2 * b0
    if a == 0:
        return None if b == 0 else -c // b
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    n, m = (-b, 2 * a) if a > 0 else (b, -2 * a)
    return (n + isqrt(disc)) // m
