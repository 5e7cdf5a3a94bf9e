"""Acceptance suite: one test per published claim, each with its time budget.

Every test prints a single "criterion NN: PASS ..." line so a -s run reads
as a checklist.  Budgets are asserted where the claim carries one.
"""

import math
import random
import time
from fractions import Fraction

from wpinterp import (
    FatPointConfig,
    VeroneseChart,
    Weights,
    ah_profile_scan,
    build_certificate,
    check_certificate,
    count_monomials,
    deficiency_table,
    hilbert_closed_form,
    hilbert_fat_points,
    interpolation_bound_check,
    line_interpolation_formula,
    numeric_facts_verify,
    secant_dimension,
    simple_points_hilbert,
    teranum_verify,
    triangle_lattice_check,
)
from wpinterp.grading import closed_form
from wpinterp.linalg import det_exact

W123 = Weights((1, 2, 3))
BIG_PRIME = (1 << 61) - 1


def _ranges(*spans):
    out = {}
    for lo, hi, value in spans:
        for d in range(lo, hi + 1):
            out[d] = value
    return out


def test_criterion_01_deficiency_tables():
    t0 = time.perf_counter()
    cases = [
        ((1, 5, 9), 3, 10, 35, _ranges((20, 22, 1))),
        ((1, 5, 26), 2, 15, 40, _ranges((20, 24, 1), (25, 25, 2), (26, 30, 1))),
        (
            (1, 4, 57),
            4,
            25,
            75,
            _ranges(
                (32, 35, 1), (36, 39, 2), (40, 43, 3), (44, 56, 4),
                (57, 60, 3), (61, 64, 2), (65, 68, 1),
            ),
        ),
    ]
    for weights, r, lo, hi, table in cases:
        cfg = FatPointConfig(Weights(weights), (2,) * r)
        profiles = deficiency_table(cfg, range(lo, hi + 1))
        for prof in profiles:
            want = table.get(prof.degree, 0)
            assert prof.deficiency == want, (weights, r, prof.degree, prof.deficiency)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"criterion 01: PASS three deficiency tables reproduced in {elapsed:.1f}s")


def test_criterion_02_plane_123_always_independent():
    t0 = time.perf_counter()
    checked = 0
    for d in range(0, 41):
        r_max = max(1, math.ceil(count_monomials(W123, d) / 3))
        for prof in ah_profile_scan(W123, d, r_max):
            assert prof.is_AH, (d, prof.r, prof.deficiency)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"criterion 02: PASS {checked} (d, r) pairs independent in {elapsed:.1f}s")


def test_criterion_03_classical_plane_exceptions():
    t0 = time.perf_counter()
    p2 = Weights((1, 1, 1))
    exceptions = {}
    for d in range(1, 11):
        r_max = math.ceil(count_monomials(p2, d) / 3) + 2
        for prof in ah_profile_scan(p2, d, r_max):
            if prof.deficiency:
                exceptions[(d, prof.r)] = prof.deficiency
    assert exceptions == {(2, 2): 1, (4, 5): 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"criterion 03: PASS plane exceptions exactly {{(2,2), (4,5)}} in {elapsed:.1f}s")


def _skeleton(node):
    if node.kind == "base":
        return ("base", node.d, node.r)
    if node.kind == "chandler-leaf":
        return ("leaf",)
    return (
        "terracini",
        node.d,
        node.r,
        node.choice.weight,
        node.choice.q,
        node.choice.direction,
        tuple(_skeleton(ch) for ch in node.children),
    )


def test_criterion_04_certificate_trace():
    cert = build_certificate(W123, 14, 8)
    assert check_certificate(cert)
    assert _skeleton(cert) == (
        "terracini", 14, 8, 3, 4, "independent",
        (
            ("leaf",),
            (
                "terracini", 11, 5, 3, 3, "independent",
                (
                    ("leaf",),
                    (
                        "terracini", 8, 3, 3, 2, "independent",
                        (("leaf",), ("base", 5, 1), ("base", 2, 1)),
                    ),
                    ("base", 5, 2),
                ),
            ),
            (
                "terracini", 8, 4, 3, 3, "fill",
                (("leaf",), ("base", 5, 1), ("base", 2, 1)),
            ),
        ),
    )
    print("criterion 04: PASS certificate for d=14, r=8 has the expected trace")


def test_criterion_05_closed_form_scan():
    t0 = time.perf_counter()
    assert teranum_verify(6, 100000).ok
    assert numeric_facts_verify(6, 100000).ok
    rng = random.Random("acceptance-5")
    systems = [
        (closed_form(W123), W123),
        (closed_form(Weights((2, 3))), Weights((2, 3))),
        (closed_form(Weights((1, 3))), Weights((1, 3))),
        (closed_form(Weights((1, 2))), Weights((1, 2))),
    ]
    for _ in range(200):
        d = rng.randint(0, 100000)
        for form, w in systems:
            assert form(d) == count_monomials(w, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    print(f"criterion 05: PASS closed forms hold to d=100000 in {elapsed:.1f}s")


PARTITIONS_TO_5 = [
    (1,),
    (2,), (1, 1),
    (3,), (2, 1), (1, 1, 1),
    (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
]


def test_criterion_06_line_formula():
    t0 = time.perf_counter()
    pairs = [
        (a, b)
        for a in range(1, 8)
        for b in range(a, 8)
        if math.gcd(a, b) == 1
    ]
    assert len(pairs) == 18
    checked = 0
    for a, b in pairs:
        w = Weights((a, b))
        for mults in PARTITIONS_TO_5:
            m_total = sum(mults)
            pivot = w[1] * (w[0] * m_total - 1)
            degrees = {0, 1, 2, 3, 47, 100}
            degrees.update(range(max(0, pivot - 2), pivot + 3))
            cfg = FatPointConfig(w, mults, seed=9, trials=1, field=BIG_PRIME)
            for d in sorted(degrees):
                if d > 100:
                    continue
                expected = line_interpolation_formula(w, mults, d)
                assert hilbert_fat_points(cfg, d).actual == expected, (a, b, mults, d)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"criterion 06: PASS line formula matched rank in {checked} cases, {elapsed:.1f}s")


def test_criterion_07_simple_points():
    t0 = time.perf_counter()
    for weights in [(1, 2, 3), (1, 3, 4), (1, 1, 2), (1, 2, 3, 4)]:
        w = Weights(weights)
        for d in range(0, 41):
            s_d = count_monomials(w, d)
            profiles = ah_profile_scan(w, d, 10, multiplicity=1, seed=3)
            for prof in profiles:
                want = min(s_d, prof.r)
                assert prof.actual == want, (weights, d, prof.r)
                assert simple_points_hilbert(w, prof.r, d) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"criterion 07: PASS simple points truncate at min(s_d, r), {elapsed:.1f}s")


def test_criterion_08_secant_equivalence():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-8")
    done = 0
    while done < 20:
        n = rng.choice((2, 2, 3))
        tail = sorted(rng.randint(1, 12) for _ in range(n))
        w = Weights((1, *tail))
        d = rng.randint(w[len(w) - 1], w[len(w) - 1] + 12)
        r = rng.randint(1, 6)
        seed = rng.randrange(10**6)
        rep = secant_dimension(VeroneseChart(w, d), r, seed=seed, trials=2)
        prof = hilbert_fat_points(FatPointConfig(w, (2,) * r, seed=seed, trials=2), d)
        assert rep.actual_dim + 1 == prof.actual, (tuple(w), d, r, seed)
        assert rep.expected_dim + 1 == prof.expected
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"criterion 08: PASS secant dimension equals double-point rank 20 times, {elapsed:.1f}s")


def _det_case_tall(rng):
    b = rng.randint(1, 10)
    c = 2 if b == 1 else rng.randint(2 * b + 1, 3 * b - 1)
    p1, p2, q1, q2 = (rng.randint(-40, 40) for _ in range(4))
    rows = [
        [b + c, c * p1, (c - b) * p1**2, (c - 2 * b) * p1**3, b * p2, 0],
        [0, 1, 2 * p1, 3 * p1**2, 0, p2],
        [b + c, c * q1, (c - b) * q1**2, (c - 2 * b) * q1**3, b * q2, 0],
        [0, 1, 2 * q1, 3 * q1**2, 0, q2],
        [0, 0, 0, 0, 1, p1],
        [0, 0, 0, 0, 1, q1],
    ]
    return rows, -((b + c) ** 2) * (p1 - q1) ** 5


def _det_case_squat(rng):
    b = rng.randint(3, 12)
    c = rng.choice([x for x in range(b, 2 * b) if 2 * x > 3 * b])
    p1, p2, q1, q2 = (rng.randint(-40, 40) for _ in range(4))
    rows = [
        [3 * b, 2 * b * p1, b * p1**2, p1**3, (2 * b - c) * p1 * p2, (3 * b - c) * p2],
        [0, 1, 2 * p1, 3 * p1**2, p2, 0],
        [0, 0, 0, 0, p1, 1],
        [3 * b, 2 * b * q1, b * q1**2, q1**3, (2 * b - c) * q1 * q2, (3 * b - c) * q2],
        [0, 1, 2 * q1, 3 * q1**2, q2, 0],
        [0, 0, 0, 0, q1, 1],
    ]
    want = 3 * b * (p1 - q1) ** 3 * (
        3 * b * (p1 - q1) ** 2 - 2 * p1**2 - 2 * p1 * q1 - 2 * q1**2
    )
    return rows, want


def test_criterion_09_determinant_identities():
    rng = random.Random("acceptance-9")
    for case in (_det_case_tall, _det_case_squat):
        pairs = 0
        while pairs < 5:
            pairs += 1
            for _ in range(50):
                rows, want = case(rng)
                assert det_exact(rows) == Fraction(want)
    print("criterion 09: PASS both determinant identities at 500 exact samples")


def test_criterion_10_bound_inequality():
    t0 = time.perf_counter()
    for b in range(1, 13):
        for c in range(b, 13):
            ratio_ok = (2 * c) // b >= 5
            lo = 6 * c if ratio_ok else 10 * c
            report = interpolation_bound_check(b, c, range(lo, 14 * c + 1))
            assert report.threshold == lo
            assert all(row.asserted and row.holds for row in report.rows)
            w = Weights((1, b, c))
            for d in (2 * c, 2 * c + 5, 6 * c, 10 * c, 13 * c, 14 * c):
                dec = triangle_lattice_check(b, c, d)
                assert dec.total == count_monomials(w, d)
                assert dec.t1 == count_monomials(w, d // 2)
                assert dec.holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"criterion 10: PASS halving bound and triangle audit for b <= c <= 12, {elapsed:.1f}s")


def test_criterion_11_closed_forms_and_recursion():
    closed = [Weights((1, b)) for b in range(1, 7)]
    closed += [Weights(p) for p in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 7), (6, 7), (5, 9)]]
    closed.append(W123)
    for w in closed:
        for d in range(0, 2001):
            cf = hilbert_closed_form(w, d)
            assert cf is not None
            assert cf == count_monomials(w, d), (tuple(w), d)
    for weights in [(1, 1, 1), (2, 4), (1, 2, 4)]:
        assert hilbert_closed_form(Weights(weights), 10) is None

    rng = random.Random("acceptance-11")
    for _ in range(100):
        parts = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 5)))
        w = Weights(parts)
        for i in range(len(w)):
            reduced = w.drop(i)
            a_i = w[i]
            for d in range(0, 501):
                assert count_monomials(w, d) == (
                    count_monomials(w, d - a_i) + count_monomials(reduced, d)
                )
    print("criterion 11: PASS closed forms to d=2000 and the deletion recursion to d=500")


def _node_objects(cert) -> list:
    """Node objects reachable from cert, each listed once by identity."""
    seen, todo = {}, [cert]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.children)
    return list(seen.values())


def test_criterion_12_certificates_through_degree_100_and_200():
    certified = 0
    for d in range(0, 101):
        s_d = count_monomials(W123, d)
        for r in sorted({s_d // 3, -(-s_d // 3)}):
            failures = []
            assert check_certificate(build_certificate(W123, d, r), failures), (d, r, failures)
            certified += 1
    cert = build_certificate(W123, 200, 1137)
    failures = []
    assert check_certificate(cert, failures), failures
    nodes = _node_objects(cert)
    # one object per (kind, d, r), and premise sizes stay on the floor/ceil
    # lattice of s_t/3: at most two sizes per degree below the root
    assert len(nodes) == len({(n.kind, n.d, n.r) for n in nodes})
    subproblems = {(n.d, n.r) for n in nodes}
    assert len(subproblems) <= 2 * 200 + 1
    print(
        f"criterion 12: PASS {certified} balanced double-point counts certified for d <= 100;"
        f" d=200, r=1137 checked: {len(nodes)} node objects, {len(subproblems)} subproblems"
    )
