"""Specialization windows, trace inequalities, and recursive certificates."""

import dataclasses
import hashlib
import json
import math
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpinterp import (
    CertificateError,
    UnsupportedWeightsError,
    Weights,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    chandler_inequality,
    check_certificate,
    count_monomials,
    numeric_facts_verify,
    teranum_verify,
    terracini_candidates,
)
from wpinterp import induction
from wpinterp.cli import main
from wpinterp.induction import ScanReport, TerraciniChoice, _q_window, json_document

W123 = Weights((1, 2, 3))


def test_candidates_satisfy_their_windows():
    # replay every returned window from the counting oracle
    for d in range(1, 31):
        s_d = count_monomials(W123, d)
        for r in range(1, math.ceil(s_d / 3) + 1):
            for cand in terracini_candidates(W123, d, r):
                idx = cand.index
                assert W123[idx] == cand.weight
                assert 1 <= cand.q <= r
                lo = 3 * r - count_monomials(W123, d - cand.weight)
                sbar = count_monomials(W123.drop(idx), d)
                nq = 2 * cand.q
                if cand.direction == "independent":
                    assert lo <= nq <= sbar
                else:
                    assert cand.direction == "fill"
                    assert sbar <= nq <= lo
                    assert not lo <= nq <= sbar  # overlaps are deduplicated


def reference_candidates(weights, d: int, r: int) -> list[TerraciniChoice]:
    """The former q loop of terracini_candidates, kept verbatim as an oracle."""
    w = weights if isinstance(weights, Weights) else Weights(weights)
    if w[0] != 1:
        raise UnsupportedWeightsError("the smallest weight must be 1")
    n = w.n
    out = []
    for index in range(len(w)):
        a_i = w[index]
        s_shift = count_monomials(w, d - a_i)
        sbar = count_monomials(w.drop(index), d)
        lo = (n + 1) * r - s_shift
        for q in range(1, r + 1):
            nq = n * q
            if lo <= nq <= sbar:
                out.append(TerraciniChoice(index, a_i, q, "independent"))
            elif sbar <= nq <= lo:
                out.append(TerraciniChoice(index, a_i, q, "fill"))
    return out


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(lambda rest: (1, *rest)),
    d=st.integers(0, 80),
    r=st.integers(0, 120),
)
@example(weights=(1, 2, 3), d=14, r=8)  # lo == sbar on the weight-3 hyperplane
@example(weights=(1, 1, 1), d=5, r=7)  # the same tie with repeated weights
@example(weights=(1, 2, 2, 3), d=8, r=6)  # and in P^3
@example(weights=(1, 1), d=0, r=0)
def test_candidates_match_the_q_loop(weights, d, r):
    assert terracini_candidates(weights, d, r) == reference_candidates(weights, d, r)


def test_teranum_windows_agree_with_dp_candidates():
    # the closed forms of teranum_verify against the DP counts of the candidates
    report = teranum_verify(6, 400)
    checked, empty = 0, []
    for d in range(6, 401):
        s_d = count_monomials(W123, d)
        for r in sorted({s_d // 3, -(-s_d // 3)}):
            checked += 1
            if not terracini_candidates(W123, d, r):
                empty.append((d, r))
    assert report.checked == checked
    assert sorted(report.failures) == empty


# sha256 of certificate_to_json(build_certificate(W123, d, r)): a refactor of
# build_certificate's candidate order or of the counting must keep these bytes
CERTIFICATE_SHA256 = {
    (14, 8): "7d0b18972eb17f1584aac6bfc42549fc3973c90db44b3493ae1125ed66e996d5",
    (44, 61): "3bc92f720efd45c06a54bfcb3b472188c15868c627f555e24194f82a7b2baac7",
    (60, 111): "5e6517bfce943eef1dd52bab9b2b0abe7af2ee9fcb4ca2cfbe92f23de085a768",
}


@pytest.mark.parametrize("d,r", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_pinned(d, r):
    text = certificate_to_json(build_certificate(W123, d, r))
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[(d, r)]


def test_candidates_require_unit_weight():
    with pytest.raises(UnsupportedWeightsError):
        terracini_candidates(Weights((2, 3, 5)), 10, 2)


def test_candidates_example_14_8():
    cands = terracini_candidates(W123, 14, 8)
    assert [(c.weight, c.q, c.direction) for c in cands] == [(3, 4, "independent")]


def test_candidates_empty_for_straight_plane_exception():
    assert terracini_candidates(Weights((1, 1, 1)), 4, 5) == []


def test_chandler_record_consistency():
    rec = chandler_inequality(W123, 14, 3, 4, 8)
    assert rec.ok
    assert rec.case in (1, 2)
    assert rec.d == 14 and rec.i == 3 and rec.q == 4 and rec.r == 8
    assert rec.s_d_minus_i == count_monomials(W123, 11)
    assert rec.s_d_minus_2i == count_monomials(W123, 8)
    assert rec.sbar_d == count_monomials(Weights((1, 2)), 14)
    ybar = rec.r - rec.q
    assert rec.h1 == min(rec.s_d_minus_i, 3 * ybar)
    assert rec.h2 == min(rec.s_d_minus_2i, 3 * ybar)
    if rec.case == 1:
        assert 3 * rec.r - 2 * rec.q <= rec.s_d_minus_i
        assert rec.h1 + rec.q <= rec.h2 + rec.sbar_d_minus_i


def test_chandler_vacuous_when_nothing_moves():
    rec = chandler_inequality(W123, 9, 2, 0, 4)
    assert rec.ok and rec.case == 0


def test_chandler_argument_checks():
    with pytest.raises(ValueError):
        chandler_inequality(W123, 10, 5, 1, 3)  # no variable of weight 5
    with pytest.raises(ValueError):
        chandler_inequality(W123, 10, 2, 4, 3)  # q > r


def test_certificate_example_trace():
    cert = build_certificate(W123, 14, 8)
    assert cert.kind == "terracini"
    assert (cert.choice.weight, cert.choice.q) == (3, 4)
    leaf, first, second = cert.children
    assert leaf.kind == "chandler-leaf"
    assert (first.d, first.r) == (11, 5)
    assert (first.choice.weight, first.choice.q) == (3, 3)
    assert (second.d, second.r) == (8, 4)
    # premise sizes walk the floor/ceil lattice of s_t/3
    prem = cert.witnesses["premises"]
    assert prem[0] == {"degree": 11, "required": 4, "certified": 5}
    assert prem[1] == {"degree": 8, "required": 4, "certified": 4}
    grandchild = first.children[1]
    assert (grandchild.d, grandchild.r) == (8, 3)
    assert check_certificate(cert)


def test_certificates_over_a_grid():
    for d in range(0, 19):
        s_d = count_monomials(W123, d)
        for r in range(0, math.ceil(s_d / 3) + 1):
            cert = build_certificate(W123, d, r)
            failures = []
            assert check_certificate(cert, failures), (d, r, failures)

            def assert_shape(node):
                if node.kind == "base":
                    assert node.d <= 5 or node.r == 0
                else:
                    assert node.kind in ("terracini", "chandler-leaf")
                for child in node.children:
                    assert_shape(child)

            assert_shape(cert)


def test_certificate_roundtrip_is_byte_stable():
    cert = build_certificate(W123, 14, 8)
    text = certificate_to_json(cert)
    again = certificate_to_json(certificate_from_json(text))
    assert text == again
    payload = json.loads(text)
    assert payload["schema"] == "wpinterp/certificate/v1"


def test_certificate_read_back_is_checked_once_per_distinct_node(monkeypatch):
    built = build_certificate(W123, 50, 78)
    text = certificate_to_json(built)
    copy = certificate_from_json(text)
    assert certificate_to_json(copy) == text
    assert induction._tree_size(copy) == 11_950
    checked = []
    real = induction._check_node
    monkeypatch.setattr(
        induction, "_check_node", lambda node, *rest: checked.append(node) or real(node, *rest)
    )
    assert check_certificate(copy)
    assert len(checked) == len(induction._dag(built)) == 95


def test_certificate_checker_rejects_tampering():
    cert = build_certificate(W123, 14, 8)
    payload = json.loads(certificate_to_json(cert))

    bad = json.loads(certificate_to_json(cert))
    bad["root"]["witnesses"]["s_d"] += 1
    failures = []
    assert not check_certificate(certificate_from_json(json.dumps(bad)), failures)
    assert failures

    bad = json.loads(certificate_to_json(cert))
    bad["root"]["choice"]["q"] = 5
    assert not check_certificate(certificate_from_json(json.dumps(bad)))

    bad = json.loads(certificate_to_json(cert))
    bad["root"]["children"][1]["d"] = 12
    assert not check_certificate(certificate_from_json(json.dumps(bad)))

    # lo == sbar == nq here: _q_window calls the shared endpoint "independent"
    bad = json.loads(certificate_to_json(cert))
    bad["root"]["choice"]["direction"] = "fill"
    assert not check_certificate(certificate_from_json(json.dumps(bad)))

    # the original still verifies
    assert check_certificate(certificate_from_json(json.dumps(payload)))


def test_certificate_rejects_other_weights():
    with pytest.raises(UnsupportedWeightsError):
        build_certificate(Weights((1, 1, 1)), 6, 3)
    with pytest.raises(ValueError):
        build_certificate(W123, -1, 2)


def test_certificate_degree_cap_is_decided_before_building(monkeypatch):
    top = induction.MAX_CERTIFICATE_DEGREE
    s = count_monomials(W123, top)
    for r in (s // 3, -(-s // 3)):  # the deepest chains, under the default recursion limit
        assert build_certificate(W123, top, r).d == top
    monkeypatch.setattr(induction, "_build", None)  # nothing past the cap reaches the builder
    for d in (top + 1, 1400, 4000):
        with pytest.raises(ValueError, match=f"up to degree {top}, not {d}"):
            build_certificate(W123, d, count_monomials(W123, d) // 3)


def test_certificate_base_cases():
    cert = build_certificate(W123, 4, 1)
    assert cert.kind == "base"
    assert cert.witnesses["actual"] == cert.witnesses["expected"]
    zero = build_certificate(W123, 9, 0)
    assert zero.kind == "base" and zero.r == 0


def test_teranum_scan():
    report = teranum_verify(6, 5000)
    assert report.ok
    assert report.checked > 0
    assert report.failures == ()
    with pytest.raises(ValueError):
        teranum_verify(4, 100)


def test_numeric_facts_scan():
    report = numeric_facts_verify(6, 5000)
    assert report.ok
    with pytest.raises(ValueError):
        numeric_facts_verify(2, 100)


def reference_teranum(d_lo: int = 6, d_hi: int = 100000) -> ScanReport:
    """The former degree-by-degree loop of teranum_verify, kept verbatim as an oracle."""
    if d_lo < 6:
        raise ValueError("the statement starts at d = 6")
    s123, s23, s13, s12 = induction._plane_123_forms()
    failures = []
    checked = 0
    for d in range(d_lo, d_hi + 1):
        s = s123(d)
        shifts = ((s123(d - 1), s23(d)), (s123(d - 2), s13(d)), (s123(d - 3), s12(d)))
        for r in {s // 3, -(-s // 3)}:
            checked += 1
            if not any(_q_window(2, r, 3 * r - s_shift, sbar)[0] for s_shift, sbar in shifts):
                failures.append((d, r))
    return ScanReport(d_lo, d_hi, checked, tuple(failures))


def reference_numeric_facts(d_lo: int = 6, d_hi: int = 100000) -> ScanReport:
    """The former degree-by-degree loop of numeric_facts_verify, kept verbatim as an oracle."""
    if d_lo < 6:
        raise ValueError("the statement starts at d = 6")
    s123, s23, s13, s12 = induction._plane_123_forms()
    failures = []
    checked = 0
    for d in range(d_lo, d_hi + 1):
        checked += 1
        if not s12(d) < 2 * s123(d - 3):
            failures.append((d, "s12 < 2 s(d-3)"))
        if not s23(d) <= 2 * s23(d - 1):
            failures.append((d, "s23 halving"))
        if not s13(d) <= 2 * s13(d - 2):
            failures.append((d, "s13 halving"))
        if not s12(d) <= 2 * s12(d - 3):
            failures.append((d, "s12 halving"))
    return ScanReport(d_lo, d_hi, checked, tuple(failures))


SCANS = [(teranum_verify, reference_teranum), (numeric_facts_verify, reference_numeric_facts)]


@pytest.mark.parametrize("scan,reference", SCANS, ids=["teranum", "numeric-facts"])
def test_scans_match_the_reference_loops(scan, reference):
    assert scan(6, 20000) == reference(6, 20000)
    for d_lo, d_hi in ((10, 9), (500, 7), (6, 5), (6, -3)):
        assert scan(d_lo, d_hi) == reference(d_lo, d_hi) == ScanReport(d_lo, d_hi, 0, ())


@settings(max_examples=150, deadline=None)
@given(
    d_lo=st.one_of(st.integers(6, 70), st.integers(6, 20000)),
    length=st.one_of(st.integers(-2, 70), st.integers(0, 400)),
)
@example(d_lo=6, length=0)
@example(d_lo=63, length=1)  # inside the degree-by-degree part of teranum's classes
@example(d_lo=64, length=36)  # one whole period from the last degree scanned one by one
def test_scans_match_the_reference_loops_on_sub_ranges(d_lo, length):
    for scan, reference in SCANS:
        assert scan(d_lo, d_lo + length) == reference(d_lo, d_lo + length)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    r=st.integers(-3, 30),
    lo=st.integers(-40, 40),
    sbar=st.integers(-40, 40),
)
def test_window_margins_decide_the_window(n, r, lo, sbar):
    order, *bounds = induction._window_margins(n, r, lo, sbar)
    chosen = bounds[:4] if order <= 0 else bounds[4:]
    assert bool(_q_window(n, r, lo, sbar)[0]) == all(m >= 0 for m in chosen)


def mutated_forms(index, cls, change):
    """_plane_123_forms with form `index` replaced by change(s_d) on every d = cls mod 6.

    The mutated form is again a quasi-polynomial of period 6, the kind of
    input the per-class decision is proved for.
    """
    real = induction._plane_123_forms

    def forms():
        out = list(real())
        form = out[index]
        out[index] = lambda d: change(form(d)) if d % 6 == cls else form(d)
        return tuple(out)

    return forms


@pytest.mark.parametrize(
    "index,cls,change,failing",
    [
        # (2,3) off by one: lo - sbar becomes 3r - s_d -/+ 1, so each window
        # spans two integers, holds an even one, and nothing fails
        (1, 1, lambda s: s + 1, {}),
        (1, 4, lambda s: s - 1, {}),
        # the plane's count read as 0 leaves r = 0, so every degree of the class
        # fails, and s12 < 2 s(d-3) fails three degrees later
        (0, 5, lambda s: 0, {teranum_verify: 5, numeric_facts_verify: 2}),
        # (2,3) read three times too large breaks its halving on the class
        (1, 1, lambda s: 3 * s, {numeric_facts_verify: 1}),
    ],
)
def test_a_failing_class_is_listed_to_the_end(monkeypatch, index, cls, change, failing):
    monkeypatch.setattr(induction, "_plane_123_forms", mutated_forms(index, cls, change))
    for scan, reference in SCANS:
        report = scan(6, 20000)
        assert report == reference(6, 20000)
        degrees = {d for d, _ in report.failures}
        if scan in failing:
            tail = {d for d in range(1001, 20001) if d % 6 == failing[scan]}
            assert {d for d in degrees if d > 1000} == tail
        else:
            assert not degrees


def teranum_case_count(d_hi: int) -> int:
    """teranum_verify's (d, r) cases on [6, d_hi]: two where 3 does not divide s_d, else one.

    s_d mod 3 has period 18 from d = 0 on (the class polynomials' test).
    """
    unbalanced = [c for c in range(6, 24) if count_monomials(W123, c) % 3]
    return max(0, d_hi - 5) + sum(max(0, (d_hi - c) // 18 + 1) for c in unbalanced)


def test_teranum_case_count_formula():
    checked = 0
    for d in range(6, 3000):
        checked += reference_teranum(d, d).checked
        assert teranum_case_count(d) == checked
    assert teranum_case_count(100000) == teranum_verify().checked == 161104


def test_verify_suite_decides_a_billion_degrees(capsys):
    start = time.perf_counter()
    code = main(["verify-suite", "--max-deg", "1000000000", "--max-bc", "4"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert elapsed < 2
    assert f"PASS teranum: {teranum_case_count(10**9)} cases on d in [6, 1000000000]" in lines
    assert "PASS numeric-facts: d in [6, 1000000000]" in lines


def _nodes(obj):
    """Every node dict of a certificate's JSON, depth first."""
    yield obj
    for child in obj["children"]:
        yield from _nodes(child)


def test_built_certificate_shares_repeated_subproblems():
    cert = build_certificate(W123, 20, 14)
    objects = {}
    todo, total = [cert], 0
    while todo:
        node = todo.pop()
        total += 1
        if node.kind != "chandler-leaf":
            objects.setdefault((node.kind, node.d, node.r), set()).add(id(node))
        todo.extend(node.children)
    assert all(len(ids) == 1 for ids in objects.values())
    assert total > 3 * len(objects)


def test_json_writer_matches_json_dumps():
    # the recursion walks the floor/ceil lattice of s_t/3, so these sizes
    # reach every node shape the writer sees
    for d in range(0, 31):
        s_d = count_monomials(W123, d)
        for r in sorted({0, 1, s_d // 3, -(-s_d // 3)}):
            dag = build_certificate(W123, d, r)
            want = json.dumps(
                {"schema": "wpinterp/certificate/v1", "root": dag.to_json_dict()}, indent=2
            )
            assert certificate_to_json(dag) == want, (d, r)
            tree = certificate_from_json(want)
            assert certificate_to_json(tree) == want, (d, r)


def test_json_document_places_nodes_anywhere():
    cert = build_certificate(W123, 9, 3)
    head = {"a": [1, {"b": "x\ny"}], "empty": {}, "none": None}
    doc = {**head, "first": cert, "middle": [], "last": cert}
    plain = {**head, "first": cert.to_json_dict(), "middle": [], "last": cert.to_json_dict()}
    assert json_document(doc) == json.dumps(plain, indent=2)
    assert json_document({}) == json.dumps({}, indent=2)
    assert json_document(head) == json.dumps(head, indent=2)
    # a generator value is written in batches, with the bytes of its list
    records = [{"d": d, "s_d": [d, {"x": None}]} for d in range(3)]
    assert json_document({"rows": (r for r in records), "none": []}) == \
        json.dumps({"rows": records, "none": []}, indent=2)
    assert json_document({"rows": (r for r in [])}) == json.dumps({"rows": []}, indent=2)


def reference_json_document(doc: dict) -> str:
    """The former json_document: one walk of the tree, with each node's head cached per level."""
    out = ["{"]
    heads: dict = {}
    sep = "\n  "
    for key, value in doc.items():
        out.append(f"{sep}{json.dumps(key)}: ")
        if isinstance(value, induction.CertificateNode):
            reference_write_node(value, 1, out, heads)
        else:
            out.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    out.append("\n}" if doc else "}")
    return "".join(out)


def reference_write_node(node, level: int, out: list, heads: dict):
    """Append the JSON of ``node`` as a value nested ``level`` objects deep."""
    pad = "\n" + "  " * level
    head = heads.get((id(node), level))
    if head is None:
        # Strip the closing "\n}" and indent: encoded strings hold no raw newline.
        own = json.dumps(node._own_json_dict(), indent=2)[:-2].replace("\n", pad)
        head = heads[(id(node), level)] = f'{own},{pad}  "children": '
    if not node.children:
        out.append(f"{head}[]{pad}}}")
        return
    item = pad + "    "
    out.append(head + "[")
    for k, child in enumerate(node.children):
        out.append(item if k == 0 else "," + item)
        reference_write_node(child, level + 2, out, heads)
    out.append(f"{pad}  ]{pad}}}")


def reference_trace_lines(root) -> list[str]:
    """The former text trace: a line per tree node, indented by depth, and a step's premises."""
    lines = []
    for _, depth, node in induction._tree_walk(root):
        pad = "  " * depth
        wit = node.witnesses
        if node.kind == "base":
            lines.append(
                f"{pad}base d={node.d} r={node.r}: rank {wit['actual']}/{wit['expected']}"
                f" (trials {wit['trials']})"
            )
        elif node.kind == "chandler-leaf":
            lines.append(
                f"{pad}trace d={wit['d']} i={wit['i']} q={wit['q']} r={wit['r']}:"
                f" case {wit['case']} ok"
            )
        else:
            ch = node.choice
            lines.append(
                f"{pad}terracini d={node.d} r={node.r}: q={ch.q} into the weight-{ch.weight}"
                f" hyperplane ({ch.direction}; nq={wit['nq']}, sbar_d={wit['sbar_d']})"
            )
            lines += [
                f"{pad}  premise d={prem['degree']}: required {prem['required']},"
                f" certified {prem['certified']}"
                for prem in wit["premises"]
            ]
    return lines


def _balanced(d: int) -> list[int]:
    s_d = count_monomials(W123, d)
    return sorted({s_d // 3, -(-s_d // 3)})


@pytest.mark.parametrize("d", range(6, 41))
def test_memoized_writers_match_the_tree_walks(d):
    for r in _balanced(d):
        cert = build_certificate(W123, d, r)
        doc = {"schema": "wpinterp/certificate/v1", "root": cert}
        assert certificate_to_json(cert) == reference_json_document(doc), (d, r)
        assert induction._trace_lines(cert) == reference_trace_lines(cert), (d, r)


def _unshared(node):
    """A copy of the certificate with one node object per tree node."""
    return dataclasses.replace(node, children=[_unshared(child) for child in node.children])


def test_memoized_writers_match_on_a_certificate_read_back():
    # certificate_from_json shares equal copies, as the builder does; the
    # unshared copy reuses no memo entry
    text = certificate_to_json(build_certificate(W123, 40, _balanced(40)[-1]))
    for tree in (certificate_from_json(text), _unshared(certificate_from_json(text))):
        doc = {"schema": "wpinterp/certificate/v1", "root": tree}
        assert reference_json_document(doc) == text
        assert certificate_to_json(tree) == text
        assert induction._trace_lines(tree) == reference_trace_lines(tree)
        mixed = {"a": [1, {"b": "x\ny"}], "first": tree, "none": None, "last": tree}
        assert json_document(mixed) == reference_json_document(mixed)
    assert len(induction._dag(_unshared(tree))) == induction._tree_size(tree)


def test_writers_refuse_past_the_printed_tree_budget():
    cert = build_certificate(W123, 100, count_monomials(W123, 100) // 3)
    assert len(induction._dag(cert)) == 239
    assert induction._tree_size(cert) == 92_460_133 > induction.MAX_TRACE_NODES
    start = time.perf_counter()
    for write in (
        certificate_to_json,
        lambda c: json_document({"certificate": c}),
        induction._trace_lines,
        induction._trace_records,
    ):
        with pytest.raises(ValueError, match="prints as 92460133 tree nodes") as err:
            write(cert)
        assert "build_certificate" in str(err.value) and "check_certificate" in str(err.value)
    assert time.perf_counter() - start < 1


def _fail_base_cases(monkeypatch, bad):
    """Make the base-case rank of every (d, r) with bad(d, r) fall one short."""
    real = induction.hilbert_fat_points

    def short(cfg, d):
        prof = real(cfg, d)
        if bad(d, len(cfg.multiplicities)):
            prof = dataclasses.replace(prof, actual=prof.actual - 1)
        return prof

    monkeypatch.setattr(induction, "hilbert_fat_points", short)


# Captured from the tree-building recursion before subproblems were shared.
FAIL_14_8 = (
    "root: d=14, r=8: root/children[1]: d=11, r=5: root/children[1]/children[2]: d=9, r=4:"
    " root/children[1]/children[2]/children[2]: d=7, r=3:"
    " root/children[1]/children[2]/children[2]/children[2]:"
    " base case d=5, r=2 has rank 4, expected 5"
)


def _fail_20_14():
    path, parts = "root", []
    for d, r, k in [(20, 14, 1), (19, 13, 1), (18, 12, 1), (17, 11, 1), (15, 9, 1),
                    (13, 7, 1), (12, 6, 1), (11, 5, 2), (9, 4, 2), (7, 3, 2)]:
        parts.append(f"{path}: d={d}, r={r}: ")
        path += f"/children[{k}]"
    return "".join(parts) + f"{path}: base case d=5, r=2 has rank 4, expected 5"


def test_failed_subproblem_messages_name_each_path(monkeypatch, capsys):
    _fail_base_cases(monkeypatch, lambda d, r: d >= 4 and r > 0)
    with pytest.raises(CertificateError) as err:
        build_certificate(W123, 14, 8)
    assert str(err.value) == FAIL_14_8
    with pytest.raises(CertificateError) as err:
        build_certificate(W123, 20, 14)
    assert str(err.value) == _fail_20_14()
    assert len(_fail_20_14()) == 879
    code = main(["terracini-trace", "--weights", "1,2,3", "--deg", "14", "--points", "8"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[-1] == f"FAIL d=14 r=8: {FAIL_14_8}"


def test_failed_subproblem_falls_back_to_the_same_certificate(monkeypatch):
    _fail_base_cases(monkeypatch, lambda d, r: d == 5 and r > 0)
    cert = build_certificate(W123, 20, 14)
    assert check_certificate(cert)
    digest = hashlib.sha256(certificate_to_json(cert).encode()).hexdigest()
    assert digest == "323f225a27b12c58afb5bf80f1324754d6b7ead0748c36791af561fac5a51ba8"


def _tampered_failures(cert, pick, edit):
    payload = json.loads(certificate_to_json(cert))
    hits = [node for node in _nodes(payload["root"]) if pick(node)]
    assert len(hits) > 1  # the subproblem is shared in the built certificate
    for node in hits:
        edit(node)
    failures = []
    assert not check_certificate(certificate_from_json(json.dumps(payload)), failures)
    return failures


def _key(kind, d, r):
    return lambda node: (node["kind"], node["d"], node["r"]) == (kind, d, r)


def test_tampered_shared_node_is_reported_on_every_path():
    cert = build_certificate(W123, 20, 14)

    def bump_counts(node):
        node["witnesses"]["s_d"] += 1

    def bump_degree(node):
        node["children"][1]["d"] += 1

    stored = ": stored counts disagree with recomputation"
    expected = [
        "root/children[1]/children[1]/children[1]/children[1]/children[2]" + stored,
        "root/children[1]/children[1]/children[2]/children[2]" + stored,
        "root/children[1]/children[2]/children[1]/children[1]/children[2]" + stored,
        "root/children[1]/children[2]/children[2]/children[2]" + stored,
        "root/children[2]/children[1]/children[2]" + stored,
    ]
    assert _tampered_failures(cert, _key("base", 5, 2), bump_counts) == expected
    assert _tampered_failures(cert, _key("terracini", 8, 3), bump_degree) == [
        "root/children[1]/children[2]/children[2]/children[1]/children[1]: degree 6 != 5",
        "root/children[2]/children[1]/children[1]/children[1]: degree 6 != 5",
    ]
    # the reader shares a node only between copies with equal witnesses, so
    # one tampered copy leaves the others sound
    payload = json.loads(certificate_to_json(cert))
    next(n for n in _nodes(payload["root"]) if _key("base", 5, 2)(n))["witnesses"]["s_d"] += 1
    failures = []
    assert not check_certificate(certificate_from_json(json.dumps(payload)), failures)
    assert failures == expected[:1]
    # the built DAG holds one object per subproblem, so mutating it in place
    # is reported under every path, as the JSON tamper of every copy is
    base = cert.children[2].children[1].children[2]
    assert (base.kind, base.d, base.r) == ("base", 5, 2)
    base.witnesses["s_d"] += 1
    failures = []
    assert not check_certificate(cert, failures)
    assert failures == expected


def test_read_back_shares_only_identical_copies():
    # 1.0 == 1, but the checker refuses a float trial count: a tampered later
    # copy must stay apart from the sound first copy, not be merged into it
    payload = json.loads(certificate_to_json(build_certificate(W123, 20, 14)))
    copies = [node for node in _nodes(payload["root"]) if _key("base", 5, 2)(node)]
    assert len(copies) == 5 and copies[-1]["witnesses"]["trials"] == 1
    copies[-1]["witnesses"]["trials"] = 1.0
    failures = []
    assert not check_certificate(certificate_from_json(json.dumps(payload)), failures)
    assert failures == [
        "root/children[2]/children[1]/children[2]: stored counts disagree with recomputation"
    ]


def _read_back_failures(cert, edit=lambda payload: None):
    """The checker's failures on a JSON copy of cert, after edit(payload)."""
    payload = json.loads(certificate_to_json(cert))
    edit(payload)
    failures = []
    assert not check_certificate(certificate_from_json(json.dumps(payload)), failures)
    return failures


def test_checker_rejects_an_unknown_node_kind():
    def edit(payload):
        payload["root"]["kind"] = "guess"

    assert _read_back_failures(build_certificate(W123, 20, 14), edit) == [
        "root: unknown node kind 'guess'"
    ]


def test_checker_rejects_a_step_with_two_children():
    def edit(payload):
        payload["root"]["children"].pop()

    assert _read_back_failures(build_certificate(W123, 20, 14), edit) == [
        "root: expected 3 children, found 2"
    ]


def test_checker_rejects_a_legal_choice_whose_trace_criterion_fails():
    choice = {"index": 2, "weight": 3, "q": 3, "direction": "fill"}
    assert TerraciniChoice(**choice) in induction.terracini_candidates(W123, 6, 3)
    assert not chandler_inequality(W123, 6, 3, 3, 3).ok
    edited = []

    def edit(payload):
        for node in _nodes(payload["root"]):
            if _key("terracini", 6, 3)(node):
                node["choice"] = dict(choice)
                edited.append(node)

    failures = _read_back_failures(build_certificate(W123, 20, 14), edit)
    trace = [f for f in failures if f.endswith("/children[0]: trace criterion fails on recomputation")]
    assert len(edited) == len(trace) == 2


def test_checker_resamples_each_base_rank(monkeypatch):
    cert = build_certificate(W123, 20, 14)
    _fail_base_cases(monkeypatch, lambda d, r: (d, r) == (5, 2))
    failures = _read_back_failures(cert)
    assert len(failures) == 5  # one per path to the shared base node (5, 2)
    assert all(f.endswith(": base rank 4 != expected 5 at d=5, r=2") for f in failures)


def test_certificate_from_json_refuses_text_that_is_not_json():
    with pytest.raises(CertificateError, match="not JSON"):
        certificate_from_json("{")


def _document(root) -> str:
    return json.dumps({"schema": "wpinterp/certificate/v1", "root": root})


@pytest.mark.parametrize(
    "text",
    [
        _document({}),
        _document({"kind": "terracini", "weights": [1, 2, 3], "d": 14, "r": 8,
                   "choice": {"index": 2, "q": 4}, "witnesses": {}, "children": []}),
        "[]",
    ],
    ids=["empty-root", "choice-missing-fields", "not-an-object"],
)
def test_malformed_certificate_json_is_a_certificate_error(text):
    with pytest.raises(CertificateError):
        certificate_from_json(text)


def test_root_trace_leaf_without_witnesses_is_rejected():
    leaf = {"kind": "chandler-leaf", "weights": [1, 2, 3], "d": 14, "r": 8,
            "choice": None, "witnesses": {}, "children": []}
    failures = []
    assert not check_certificate(certificate_from_json(_document(leaf)), failures)
    assert failures == ["root: a trace leaf certifies no subproblem on its own"]


def test_trace_leaf_is_no_premise():
    # a true trace record at the premise's (d, r) says nothing about its points
    doc = json.loads(certificate_to_json(build_certificate(W123, 14, 8)))
    premise = doc["root"]["children"][2]
    assert (premise["kind"], premise["d"], premise["r"]) == ("terracini", 8, 4)
    record = chandler_inequality(W123, 8, 1, 1, 4).to_json_dict()
    assert record["ok"]
    doc["root"]["children"][2] = dict(premise, kind="chandler-leaf", choice=None,
                                      witnesses=record, children=[])
    failures = []
    assert not check_certificate(certificate_from_json(json.dumps(doc)), failures)
    assert failures == ["root/children[2]: a trace leaf certifies no subproblem on its own"]


def _numbers(obj, path=()):
    """(path, edited value) for every int of a JSON value bumped by one and every bool flipped."""
    if isinstance(obj, dict):
        obj = obj.items()
    elif isinstance(obj, list):
        obj = enumerate(obj)
    else:
        yield path, (not obj) if isinstance(obj, bool) else obj + 1
        return
    for key, value in obj:
        if isinstance(value, (dict, list, int)):
            yield from _numbers(value, path + (key,))


@pytest.mark.parametrize("d,r", [(14, 8), (9, 0), (4, 1)])
def test_every_stored_number_is_checked(d, r):
    text = certificate_to_json(build_certificate(W123, d, r))
    edits = [
        (path, value) for path, value in _numbers(json.loads(text)["root"])
        if path[0] != "weights"  # the root's weights state the claim
    ]
    assert len(edits) == {(14, 8): 210, (9, 0): 6, (4, 1): 6}[(d, r)]
    accepted = []
    for path, value in edits:
        doc = json.loads(text)
        obj = doc["root"]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        if check_certificate(certificate_from_json(json.dumps(doc))):
            accepted.append(path)
    assert accepted == []


def _paths_to(cert, target):
    """The checker's path of every tree position of one node object."""
    return [
        re.sub(r"/(\d+)", r"/children[\1]", path)
        for path, _, node in induction._tree_walk(cert) if node is target
    ]


def test_foreign_weights_are_rejected_on_every_path():
    w112 = Weights((1, 1, 2))
    foreign = ": weights [1, 1, 2] are not the root's [1, 2, 3]"

    def relabel_base(node):
        node["weights"] = list(w112)
        node["witnesses"]["s_d"] = count_monomials(w112, node["d"])
        node["witnesses"]["expected"] = min(node["witnesses"]["s_d"], 3 * node["r"])

    cert = build_certificate(W123, 14, 8)
    base = cert.children[2].children[1]
    assert (base.kind, base.d, base.r) == ("base", 5, 1)
    paths = _paths_to(cert, base)
    assert paths == ["root/children[1]/children[1]/children[1]", "root/children[2]/children[1]"]
    assert _tampered_failures(cert, _key("base", 5, 1), relabel_base) == [
        path + foreign for path in paths
    ]
    # relabel a shared step's node object in place: every path reports it
    cert = build_certificate(W123, 20, 14)
    step = cert.children[2].children[1].children[1]
    assert (step.kind, step.d, step.r) == ("terracini", 8, 3)
    paths = _paths_to(cert, step)
    assert len(paths) > 1
    step.weights = w112
    failures = []
    assert not check_certificate(cert, failures)
    assert failures == [path + foreign for path in paths]
    # a lone base node on other weights is not a certificate this checker reads
    lone = build_certificate(W123, 4, 1)
    lone.weights = w112
    assert not check_certificate(lone)
