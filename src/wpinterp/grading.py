"""Graded pieces of weighted polynomial rings.

The coordinate ring of weighted projective space P(a_0,...,a_n) is
S = k[x_0,...,x_n] with deg x_i = a_i.  The dimension s_d of the degree-d
piece equals the number of solutions e in N_0^{n+1} of

    a_0 e_0 + a_1 e_1 + ... + a_n e_n = d,

a coin-counting problem.  A weight vector is a ``Weights``, a sorted tuple
of positive ints, and a monomial is its exponent tuple e.  This module
provides the universal counting oracle (dynamic programming, exact
integers; one count table per weight tuple, shared by every equal
Weights), monomial enumeration in a fixed deterministic order, and the
closed forms that exist for one and two variables and for weights (1,2,3).
"""

from __future__ import annotations

import math
import threading


class UnsupportedWeightsError(ValueError):
    """Weights outside the domain of the requested operation."""


class Weights(tuple):
    """Weight vector (a_0,...,a_n): a sorted tuple of positive integers.

    The constructor converts its entries to int, validates them and sorts
    them; a Weights passed in is returned unchanged.  A Weights equals the
    plain tuple of its entries.  ``well_formed`` is True when dropping any
    single weight leaves a gcd of 1; ill-formed weights are accepted, the
    flag just reports it.
    """

    __slots__ = ()

    def __new__(cls, entries):
        if type(entries) is Weights:
            return entries
        entries = tuple(int(x) for x in entries)
        if not entries:
            raise UnsupportedWeightsError("need at least one weight")
        if any(x < 1 for x in entries):
            raise UnsupportedWeightsError(f"weights must be positive: {entries}")
        return super().__new__(cls, sorted(entries))

    @property
    def n(self) -> int:
        """Projective dimension: number of weights minus one."""
        return len(self) - 1

    @property
    def well_formed(self) -> bool:
        if len(self) == 1:
            return self[0] == 1
        return all(math.gcd(*self[:i], *self[i + 1:]) == 1 for i in range(len(self)))

    def drop(self, index: int) -> "Weights":
        """Weights of the hyperplane x_index = 0 (remove one variable).

        A slice of sorted, validated weights is both, so it is wrapped as is.
        """
        if not 0 <= index < len(self):
            raise IndexError(index)
        if len(self) == 1:
            raise UnsupportedWeightsError("cannot drop the only weight")
        return tuple.__new__(Weights, self[:index] + self[index + 1:])

    def __repr__(self):
        return f"Weights{tuple(self)}"


# s_0..s_N of each weight tuple, keyed by the weights themselves, so equal
# Weights share one table.  A table is replaced, never mutated, so readers
# need no lock.
_TABLES: dict[tuple, list[int]] = {}
_TABLES_LOCK = threading.Lock()


def _grow(a: tuple, d: int) -> list[int]:
    """The table of weight tuple a, grown to cover degree d."""
    with _TABLES_LOCK:
        values = _TABLES.get(a, [1])
        if d < len(values):
            return values
        cap = max(d, 2 * len(values), 16)
        dp = [0] * (cap + 1)
        dp[0] = 1
        for weight in a:
            for t in range(weight, cap + 1):
                dp[t] += dp[t - weight]
        _TABLES[a] = dp
        return dp


def count_monomials(w: Weights, d: int) -> int:
    """s_d: number of monomials of weighted degree d (0 for d < 0).

    Dynamic programming over the Diophantine equation; independent of any
    closed formula, so it serves as the oracle everywhere else.  The table
    belongs to the weight tuple, so a hyperplane from ``drop`` reuses the
    counts of every earlier object with the same weights.
    """
    if d < 0:
        return 0
    values = _TABLES.get(w)
    if values is None or d >= len(values):
        values = _grow(w, d)
    return values[d]


def enumerate_monomials(w: Weights, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the monomials of weighted degree d, graded-lex descending.

    With non-decreasing weights, descending lexicographic order on
    exponent vectors refines descending total degree, so this is the
    graded lexicographic order.  The order is the column order of every
    evaluation matrix and the coordinate order of every Veronese chart.
    """
    if d < 0:
        return []
    n = len(w)
    out: list[tuple[int, ...]] = []
    cur = [0] * n

    def descend(i: int, rem: int) -> None:
        if i == n - 1:
            if rem % w[i] == 0:
                cur[i] = rem // w[i]
                out.append(tuple(cur))
            return
        for e in range(rem // w[i], -1, -1):
            cur[i] = e
            descend(i + 1, rem - e * w[i])

    descend(0, d)
    return out


def _two_variable_closed_form(a: int, b: int):
    # s_d = floor(qd/b) - floor(pd/a) with aq - bp = 1, plus 1 when a | d
    q = pow(a, -1, b)
    p = (a * q - 1) // b

    def s(d: int) -> int:
        if d < 0:
            return 0
        return (q * d) // b - (p * d) // a + (d % a == 0)

    return s


def _s123(d: int) -> int:
    return (d * d + 6 * d + 12) // 12 if d >= 0 else 0  # floor(d^2/12 + d/2 + 1)


def closed_form(w: Weights):
    """d -> s_d as a plain function where a closed form exists, else None.

    Supported: two variables (a,b) with gcd 1, which includes every (1,b),
    and (1,2,3).  Everything else, including two variables with gcd > 1,
    returns None.  Each function returns 0 for d < 0.
    """
    if len(w) == 2:
        return _two_variable_closed_form(*w) if math.gcd(*w) == 1 else None
    if w == (1, 2, 3):
        return _s123
    return None


def hilbert_closed_form(w: Weights, d: int):
    """Closed-form s_d where one exists, else None (caller falls back to DP).

    Negative degrees give 0 for every weight vector.  See closed_form.
    """
    if d < 0:
        return 0
    form = closed_form(w)
    return None if form is None else form(d)


def semigroup_member(w: Weights, d: int) -> bool:
    """True iff d lies in the numerical semigroup generated by the weights."""
    if d < 0:
        return False
    return count_monomials(w, d) > 0
