"""Points of weighted projective space and the ideals of their simple points.

A point is a nonzero coordinate tuple up to the weighted scaling
lambda . (p_0, ..., p_n) = (lambda^{a_0} p_0, ..., lambda^{a_n} p_n).
Equivalence is decided exactly, over the algebraic closure, by a gcd
argument on the weights at the nonzero slots.

Generators of the vanishing ideal are produced for three families:
the weighted line P(a, b), the weighted plane P(a, b, c), and any space
whose point has a nonzero coordinate of weight one.  The plane case with
all coordinates nonzero rests on the minimal relations

    r_1 a = k_1 b + g_1 c,   r_2 b = k_2 a + g_2 c,   r_3 c = k_3 a + g_3 b

with r_i minimal and (k_i, g_i) lexicographically least; the point ideal
is then cut out by the three corresponding binomials with coefficients
conjugated by the coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .grading import UnsupportedWeightsError, Weights


class UnsupportedConfigurationError(ValueError):
    """Raised when no implemented generator recipe covers the input."""


def _variable_names(n: int) -> list[str]:
    if n <= 2:
        return ["z", "u", "v"][: n + 1]
    return [f"x{i}" for i in range(n + 1)]


class SparsePoly:
    """A polynomial stored as {exponent tuple: coefficient}, zero terms dropped."""

    __slots__ = ("weights", "terms")

    def __init__(self, weights: Weights, terms):
        object.__setattr__(self, "weights", weights)
        clean = {}
        for expo, coeff in dict(terms).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(weights):
                raise ValueError("exponent length does not match the weights")
            coeff = Fraction(coeff)
            if coeff:
                clean[expo] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Weighted degree if homogeneous, else the maximum term degree."""
        if not self.terms:
            return None
        return max(sum(a * e for a, e in zip(self.weights, expo)) for expo in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(a * e for a, e in zip(self.weights, expo)) for expo in self.terms}
        return len(degs) <= 1

    def evaluate(self, coords):
        if len(coords) != len(self.weights):
            raise ValueError("coordinate length does not match the weights")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            val = coeff
            for c, e in zip(coords, expo):
                if e:
                    val *= Fraction(c) ** e
            total += val
        return total

    def partial(self, j: int) -> "SparsePoly":
        out = {}
        for expo, coeff in self.terms.items():
            if expo[j]:
                new = list(expo)
                new[j] -= 1
                out[tuple(new)] = out.get(tuple(new), Fraction(0)) + coeff * expo[j]
        return SparsePoly(self.weights, out)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.weights == other.weights
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.weights, frozenset(self.terms.items())))

    def __repr__(self):
        return f"SparsePoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        names = _variable_names(len(self.weights) - 1)
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            factors = []
            for name, e in zip(names, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors) or "1"
            if coeff == 1 and factors:
                term = mono
            elif coeff == -1 and factors:
                term = f"-{mono}"
            else:
                term = f"{coeff}*{mono}" if factors else str(coeff)
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "terms": [
                {"exponents": list(expo), "coefficient": str(coeff)}
                for expo, coeff in sorted(self.terms.items(), reverse=True)
            ],
        }


def _bezout_for_subset(values):
    """Coefficients c with sum(c_i * values_i) == gcd(values)."""
    g, coeffs = values[0], [1] + [0] * (len(values) - 1)
    for i in range(1, len(values)):
        old = g
        g = math.gcd(g, values[i])
        # extended gcd of (old, values[i])
        r0, r1, s0, s1 = old, values[i], 1, 0
        t0, t1 = 0, 1
        while r1:
            q, (r0, r1) = r0 // r1, (r1, r0 - (r0 // r1) * r1)
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        coeffs = [c * s0 for c in coeffs]
        coeffs[i] = t0
    return g, coeffs


class WeightedPoint:
    """A point of P(a_0..a_n) with exact rational coordinates."""

    __slots__ = ("weights", "coords")

    def __init__(self, weights: Weights, coords):
        weights = Weights(weights)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != len(weights):
            raise ValueError("coordinate length does not match the weights")
        if not any(coords):
            raise ValueError("all coordinates vanish")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedPoint is immutable")

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return "[" + " : ".join(str(c) for c in self.coords) + "]"

    def scaled(self, factor) -> "WeightedPoint":
        factor = Fraction(factor)
        if not factor:
            raise ValueError("scaling factor must be nonzero")
        return WeightedPoint(
            self.weights,
            tuple(c * factor**a for c, a in zip(self.coords, self.weights)),
        )

    def canonical(self) -> "WeightedPoint":
        """Scale the first weight-one nonzero coordinate to 1, when one exists."""
        for i, (a, c) in enumerate(zip(self.weights, self.coords)):
            if a == 1 and c:
                return self.scaled(1 / c)
        return self

    def is_equivalent(self, other: "WeightedPoint") -> bool:
        """Exact test for equality under the scaling action, over the closure.

        A scalar lambda with lambda^{a_i} = p_i/q_i for every nonzero slot
        exists iff the product mu of (p_i/q_i)^{c_i}, with sum c_i a_i equal
        to the gcd g of the involved weights, satisfies mu^{a_i/g} = p_i/q_i
        throughout.  Roots of mu are taken in the algebraic closure, so only
        these rational identities are needed.
        """
        if not isinstance(other, WeightedPoint) or self.weights != other.weights:
            return False
        if any((p == 0) != (q == 0) for p, q in zip(self.coords, other.coords)):
            return False
        live = [i for i, p in enumerate(self.coords) if p]
        ratios = {i: self.coords[i] / other.coords[i] for i in live}
        g, coeffs = _bezout_for_subset([self.weights[i] for i in live])
        mu = Fraction(1)
        for i, c in zip(live, coeffs):
            mu *= ratios[i] ** c
        return all(mu ** (self.weights[i] // g) == ratios[i] for i in live)

    def __eq__(self, other):
        return self.is_equivalent(other)

    __hash__ = None


@dataclass(frozen=True)
class HerzogData:
    """Minimal relation data for pairwise-coprime-free weights (a, b, c), gcd 1.

    r, k, g are parallel triples: r[0]*a = k[0]*b + g[0]*c with r[0] minimal
    and (k[0], g[0]) lexicographically least, and cyclically for b and c.
    ``hc`` flags the complete-intersection case (some k or g is zero).
    """

    weights: tuple[int, int, int]
    r: tuple[int, int, int]
    k: tuple[int, int, int]
    g: tuple[int, int, int]

    @property
    def hc(self) -> bool:
        return any(x == 0 for x in self.k) or any(x == 0 for x in self.g)

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "r": list(self.r),
            "k": list(self.k),
            "g": list(self.g),
            "hc": self.hc,
        }


def _minimal_relation(lhs: int, mid: int, low: int):
    """Least r >= 1 with r*lhs = k*mid + g*low for some k, g >= 0, and its least k.

    With t = r*lhs and h = gcd(mid, low), k*mid = t (mod low) needs h | t, and
    its least solution k = (t/h) (mid/h)^-1 mod low/h must have k*mid <= t.
    """
    h = math.gcd(mid, low)
    period = low // h
    inverse = pow(mid // h, -1, period)
    for r in range(1, 10**6):
        target = r * lhs
        if target % h == 0:
            k = target // h * inverse % period
            if k * mid <= target:
                return r, k, (target - k * mid) // low
    raise UnsupportedConfigurationError("the search bound was exceeded: no relation with r < 10^6")


def herzog_data(a: int, b: int, c: int) -> HerzogData:
    if math.gcd(math.gcd(a, b), c) != 1:
        raise UnsupportedWeightsError("weights (a, b, c) must have gcd 1")
    r1, k1, g1 = _minimal_relation(a, b, c)
    r2, k2, g2 = _minimal_relation(b, a, c)
    r3, k3, g3 = _minimal_relation(c, a, b)
    return HerzogData((a, b, c), (r1, r2, r3), (k1, k2, k3), (g1, g2, g3))


def point_ideal_line(point: WeightedPoint) -> list[SparsePoly]:
    """Generator of the ideal of a point of P(a, b) with gcd(a, b) = 1."""
    w = point.weights
    if len(w) != 2:
        raise UnsupportedConfigurationError("expected a point of a weighted line")
    a, b = w[0], w[1]
    if math.gcd(a, b) != 1:
        raise UnsupportedWeightsError("line weights must be coprime")
    p0, p1 = point.coords
    if p0 == 0:
        return [SparsePoly(w, {(1, 0): 1})]
    if p1 == 0:
        return [SparsePoly(w, {(0, 1): 1})]
    return [SparsePoly(w, {(b, 0): p1**a, (0, a): -(p0**b)})]


def point_ideal_plane(point: WeightedPoint) -> list[SparsePoly]:
    """Generators of the ideal of a point of a well-formed P(a, b, c), no two proportional."""
    w = point.weights
    if len(w) != 3:
        raise UnsupportedConfigurationError("expected a point of a weighted plane")
    if not w.well_formed:
        raise UnsupportedWeightsError("plane weights must be well formed")
    p0, p1, p2 = point.coords
    zeros = [i for i, x in enumerate(point.coords) if x == 0]
    gens = [SparsePoly(w, {tuple(int(j == i) for j in range(3)): 1}) for i in zeros]
    if len(zeros) == 1:
        # the other two coordinates are a point of the line P(w minus slot i),
        # whose weights a well-formed plane makes coprime
        i = zeros[0]
        line = WeightedPoint(w.drop(i), point.coords[:i] + point.coords[i + 1:])
        (binom,) = point_ideal_line(line)
        gens.append(SparsePoly(w, {e[:i] + (0,) + e[i:]: x for e, x in binom.terms.items()}))
    if zeros:
        return gens
    hd = herzog_data(*w)
    (r1, r2, r3), (k1, k2, k3), (g1, g2, g3) = hd.r, hd.k, hd.g
    return _drop_proportional([
        SparsePoly(w, {(r1, 0, 0): p1**k1 * p2**g1, (0, k1, g1): -(p0**r1)}),
        SparsePoly(w, {(0, r2, 0): p0**k2 * p2**g2, (k2, 0, g2): -(p1**r2)}),
        SparsePoly(w, {(0, 0, r3): p0**k3 * p1**g3, (k3, g3, 0): -(p2**r3)}),
    ])


def _drop_proportional(gens: list[SparsePoly]) -> list[SparsePoly]:
    """gens without each polynomial that is a scalar multiple of an earlier one.

    In the complete-intersection case (HerzogData.hc) two of the three
    binomials can be the same relation up to a scalar.
    """
    kept, seen = [], set()
    for g in gens:
        lead = g.terms[max(g.terms)]
        key = frozenset((expo, coeff / lead) for expo, coeff in g.terms.items())
        if key not in seen:
            seen.add(key)
            kept.append(g)
    return kept


def point_ideal_hyperplane_case(point: WeightedPoint) -> list[SparsePoly]:
    """Generators when some weight-one coordinate is nonzero.

    With p_t != 0 of weight one the point lies in the affine chart x_t != 0
    and its ideal is generated by p_j x_t^{a_j} - p_t^{a_j} x_j for j != t.
    """
    w = point.weights
    t = next((i for i, (a, c) in enumerate(zip(w, point.coords)) if a == 1 and c), None)
    if t is None:
        raise UnsupportedConfigurationError(
            "no nonzero weight-one coordinate; this case is not implemented"
        )
    pt = point.coords[t]
    gens = []
    for j in range(len(w)):
        if j == t:
            continue
        aj = w[j]
        terms = {}
        expo_t = [0] * len(w)
        expo_t[t] = aj
        terms[tuple(expo_t)] = point.coords[j]
        expo_j = [0] * len(w)
        expo_j[j] = 1
        terms[tuple(expo_j)] = terms.get(tuple(expo_j), 0) - pt**aj
        gens.append(SparsePoly(w, terms))
    return gens


def point_ideal(point: WeightedPoint) -> list[SparsePoly]:
    """Dispatch on the ambient dimension; n >= 3 needs a weight-one coordinate."""
    n = point.weights.n
    if n == 1:
        return point_ideal_line(point)
    if n == 2:
        return point_ideal_plane(point)
    return point_ideal_hyperplane_case(point)


def evaluate(poly: SparsePoly, point: WeightedPoint):
    if poly.weights != point.weights:
        raise ValueError("polynomial and point live in different spaces")
    return poly.evaluate(point.coords)
