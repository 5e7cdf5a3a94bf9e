"""Inductive certificates that double points in P(1, 2, 3) are always independent.

The induction step specializes q of the r double points into the hyperplane
cut out by a variable of weight a_i.  The move is numerically legal when
q lies in [1, r] and n q lies between

    lo = (n+1) r - s_{d - a_i}   and   sbar_d,

where sbar_d counts the degree-d monomials of the hyperplane itself.  The
window is "independent" when lo <= sbar_d and "fill" otherwise; _q_window is
the one place that states it.  The traces of the specialized points still
have to impose independent conditions on the hyperplane; that is an
arithmetic criterion in the style of Chandler, checked exactly here.
A certificate is the recursion as a DAG with shared subproblems: every inner
node records its choice, its inequality witnesses, and the premise
reductions; leaves are small enough to verify by a direct rank computation.
A node's content is a function of its weights, (d, r), choice and premise
sizes, stated once (_base_witnesses, _step_witnesses, _trace_leaf).  The
checker re-derives each distinct node with that code, once, children first
(_dag), compares it whole with the stored node, and applies the proof rules;
the root's weights, d and r state the claim.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, islice
from types import GeneratorType
from typing import NamedTuple

from .grading import UnsupportedWeightsError, Weights, closed_form, count_monomials
from .interpolation import FatPointConfig, hilbert_fat_points, line_interpolation_formula
from .quasipoly import class_values, last_root, refine_period


class CertificateError(RuntimeError):
    """A certificate could not be built or failed verification."""


@dataclass(frozen=True)
class TerraciniChoice:
    """One legal specialization: q points into the hyperplane of variable index."""

    index: int
    weight: int
    q: int
    direction: str  # "independent" or "fill"

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "weight": self.weight,
            "q": self.q,
            "direction": self.direction,
        }


def _q_window(n: int, r: int, lo: int, sbar: int) -> tuple[range, str]:
    """The q in [1, r] with n q between lo and sbar, and the window's direction.

    The window is "independent" when lo <= sbar and "fill" otherwise, so a
    shared endpoint (lo == sbar) counts as "independent".
    """
    low, high = (lo, sbar) if lo <= sbar else (sbar, lo)
    qs = range(max(1, -(-low // n)), min(r, high // n) + 1)
    return qs, "independent" if lo <= sbar else "fill"


def _window_margins(n: int, r: int, lo: int, sbar: int) -> list[int]:
    """Integers whose signs decide _q_window(n, r, lo, sbar).

    lo - sbar picks the order of the ends; the window is empty iff an upper
    bound (r or high // n) is below a lower bound (1 or ceil(low / n)).
    Both orders are listed, so the list's shape does not depend on values.
    """
    return [lo - sbar] + [
        top - bottom
        for low, high in ((lo, sbar), (sbar, lo))
        for top in (r, high // n)
        for bottom in (1, -(-low // n))
    ]


def terracini_candidates(weights, d: int, r: int) -> list[TerraciniChoice]:
    """All (index, q, direction) satisfying the specialization inequality.

    Variable i contributes every q in [1, r] with n q between
    lo = (n+1) r - s_{d-a_i} and sbar_d, as "independent" when lo <= sbar_d
    and "fill" otherwise (_q_window), so a q on a shared endpoint is reported
    once, as "independent".  Ordered by index, then q.
    """
    w = Weights(weights)
    if w[0] != 1:
        raise UnsupportedWeightsError("the smallest weight must be 1")
    n = w.n
    out = []
    for index in range(len(w)):
        a_i = w[index]
        lo = (n + 1) * r - count_monomials(w, d - a_i)
        qs, direction = _q_window(n, r, lo, count_monomials(w.drop(index), d))
        out.extend(TerraciniChoice(index, a_i, q, direction) for q in qs)
    return out


@dataclass(frozen=True)
class ChandlerRecord:
    """Witness data for the traces-impose-independent-conditions criterion.

    With ybar = r - q points kept off the hyperplane, H1 and H2 are the
    expected Hilbert values min{s_t, (n+1) ybar} of the kept points in the
    two shifted degrees.  Case 1 (enough room: (n+1)r - nq <= s_{d-i})
    requires H1 + q <= H2 + sbar_{d-i}.  Case 2 first needs
    extra = s_{d-i} - (n+1) ybar of the q traces to fill degree d-i, which
    is legal when extra <= q and the filled value still fits:
    s_{d-i} <= H2 + sbar_{d-i}.  q = 0 is vacuously fine (case 0).
    """

    ok: bool
    case: int
    d: int
    i: int
    q: int
    r: int
    s_d_minus_i: int
    s_d_minus_2i: int
    sbar_d: int
    sbar_d_minus_i: int
    h1: int
    h2: int
    extra: int

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # every field, in declaration order


def chandler_inequality(weights, d: int, i: int, q: int, r: int) -> ChandlerRecord:
    """Decide the trace criterion for specializing q of r points; i is the weight."""
    w = Weights(weights)
    index = next((j for j in range(len(w)) if w[j] == i), None)
    if index is None:
        raise ValueError(f"no variable of weight {i}")
    if not (0 <= q <= r):
        raise ValueError("need 0 <= q <= r")
    n = w.n
    ybar = r - q
    s_di = count_monomials(w, d - i)
    s_d2i = count_monomials(w, d - 2 * i)
    line = w.drop(index)
    sbar_d = count_monomials(line, d)
    sbar_di = count_monomials(line, d - i)
    h1 = min(s_di, (n + 1) * ybar)
    h2 = min(s_d2i, (n + 1) * ybar)
    if q == 0:
        ok, case, extra = True, 0, 0
    elif (n + 1) * r - n * q <= s_di:
        ok, case, extra = h1 + q <= h2 + sbar_di, 1, 0
    else:
        extra = max(0, s_di - (n + 1) * ybar)
        ok = extra <= q and (extra == 0 or s_di <= h2 + sbar_di)
        case = 2
    return ChandlerRecord(
        ok=ok,
        case=case,
        d=d,
        i=i,
        q=q,
        r=r,
        s_d_minus_i=s_di,
        s_d_minus_2i=s_d2i,
        sbar_d=sbar_d,
        sbar_d_minus_i=sbar_di,
        h1=h1,
        h2=h2,
        extra=extra,
    )


_PLANE_123 = Weights((1, 2, 3))


def _plane_123_forms():
    """Closed forms of s_d for P(1,2,3) and its hyperplanes P(2,3), P(1,3), P(1,2)."""
    return tuple(closed_form(Weights(w)) for w in (_PLANE_123, (2, 3), (1, 3), (1, 2)))


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _class_ranges(d_lo: int, d_hi: int, period: int):
    """Each class c in [6, 6 + period), with the k of its degrees period k + c in [d_lo, d_hi]."""
    for c in range(6, 6 + period):
        yield c, range(max(0, -((c - d_lo) // period)), (d_hi - c) // period + 1)


def _scan_by_class(d_lo: int, d_hi: int, period: int, margins, failures_at) -> tuple:
    """The failures_at(d) of every d in [d_lo, d_hi], in order of d, one class at a time.

    failures_at(d) must depend only on the signs of the entries of
    margins(d), each a polynomial of degree <= 2 in k on every class
    d = period k + c.  Past the largest root of all of them the signs are
    fixed, so one probe there gives the verdict of the class's tail.  The
    degrees up to that root are scanned, and a failing tail is listed
    degree by degree up to d_hi.
    """
    found = []
    for c, ks in _class_ranges(d_lo, d_hi, period):
        if not ks:
            continue
        roots = [last_root(values) for values in class_values(margins, period, c)]
        tail = max((k for k in roots if k is not None), default=-1) + 1
        if not failures_at(c + period * tail):
            ks = range(ks.start, min(ks.stop, tail))
        for k in ks:
            found.extend(failures_at(c + period * k))
    return tuple(sorted(found, key=lambda failure: failure[0]))


def _teranum_windows(forms, d: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """(r, [(lo, sbar) of each hyperplane]) for r = floor and ceil of s_d/3, in the scan's order."""
    s123, *planes = forms
    s = s123(d)
    return [
        (r, [(3 * r - s123(d - a), plane(d)) for a, plane in zip(_PLANE_123, planes)])
        for r in {s // 3, -(-s // 3)}
    ]


def teranum_verify(d_lo: int = 6, d_hi: int = 100000) -> ScanReport:
    """Every balanced point count near s_d/3 admits a specialization, d >= 6.

    For r = floor(s_d/3) and ceil(s_d/3), some hyperplane must have a
    nonempty window (_q_window); each (d, r) without one is a failure.

    Decided per residue class, at a cost that does not grow with d_hi.  s_d
    and the hyperplane counts are quasi-polynomials of degree <= 2 whose
    period divides lcm(1, 2, 3) (quasipoly), and so are their shifts.  The
    period is refined until s_d mod 3 is constant on every class, which
    makes r a class polynomial, and then until every lo and sbar has a
    constant parity, which makes the halvings in _q_window class
    polynomials; each refinement is proved by the binomial-coefficient
    test.  The window's verdict is a function of the signs of its
    _window_margins, so on a class d = P k + c it is the same for every k
    past their largest root.  The degrees up to that root are checked one
    by one, and one degree past it decides the rest of the class: if it
    fails, every degree of the class up to d_hi is listed.
    """
    if d_lo < 6:
        raise ValueError("the statement starts at d = 6")
    forms = _plane_123_forms()

    def sorted_windows(d):
        return sorted(_teranum_windows(forms, d))

    def halved(d):
        return tuple(x for _, windows in sorted_windows(d) for pair in windows for x in pair)

    def margins(d):
        return tuple(
            m
            for r, windows in sorted_windows(d)
            for lo, sbar in windows
            for m in _window_margins(2, r, lo, sbar)
        )

    def failures_at(d):
        return [
            (d, r)
            for r, windows in _teranum_windows(forms, d)
            if not any(_q_window(2, r, lo, sbar)[0] for lo, sbar in windows)
        ]

    period = refine_period(lambda d: (forms[0](d),), math.lcm(*_PLANE_123), 3, 6)
    period = refine_period(halved, period, 2, 6)
    checked = sum(
        len(ks) * len(_teranum_windows(forms, c)) for c, ks in _class_ranges(d_lo, d_hi, period)
    )
    return ScanReport(d_lo, d_hi, checked, _scan_by_class(d_lo, d_hi, period, margins, failures_at))


_NUMERIC_FACTS = ("s12 < 2 s(d-3)", "s23 halving", "s13 halving", "s12 halving")


def _numeric_slacks(forms, d: int) -> tuple[int, int, int, int]:
    """Slack of each of _NUMERIC_FACTS at d: the fact holds iff its slack is >= 0."""
    s123, s23, s13, s12 = forms
    return (
        2 * s123(d - 3) - 1 - s12(d),
        2 * s23(d - 1) - s23(d),
        2 * s13(d - 2) - s13(d),
        2 * s12(d - 3) - s12(d),
    )


def numeric_facts_verify(d_lo: int = 6, d_hi: int = 100000) -> ScanReport:
    """The four counting inequalities the induction leans on, for d >= 6.

    s'''_d < 2 s_{d-3};  s'_d <= 2 s'_{d-1};  s''_d <= 2 s''_{d-2};
    s'''_d <= 2 s'''_{d-3}, where s', s'', s''' count monomials on the
    hyperplanes of weights 1, 2, 3 respectively.  A failure is (d, name).

    Decided per residue class, at a cost that does not grow with d_hi.
    Every count here is a quasi-polynomial of degree <= 2 whose period
    divides lcm(1, 2, 3) (quasipoly), so on a class d = P k + c the slack
    of each inequality is a polynomial in k and keeps its sign past its
    largest root.  The degrees up to the largest root of the four are
    checked one by one, and one degree past it decides the rest of the
    class: if it fails, every degree of the class up to d_hi is listed.
    """
    if d_lo < 6:
        raise ValueError("the statement starts at d = 6")
    forms = _plane_123_forms()

    def failures_at(d):
        slacks = _numeric_slacks(forms, d)
        return [(d, name) for name, slack in zip(_NUMERIC_FACTS, slacks) if slack < 0]

    failures = _scan_by_class(
        d_lo, d_hi, math.lcm(*_PLANE_123), lambda d: _numeric_slacks(forms, d), failures_at
    )
    return ScanReport(d_lo, d_hi, max(0, d_hi - d_lo + 1), failures)


@dataclass
class CertificateNode:
    """One step of a certificate.

    A built certificate shares the node of a repeated (d, r) subproblem
    between every parent that needs it, so mutating one node changes every
    path through it.  To alter a certificate, edit its JSON and read it back
    with certificate_from_json, which shares a node only between copies
    identical in every field.
    """

    kind: str  # "base", "terracini", "chandler-leaf"
    weights: Weights
    d: int
    r: int
    choice: TerraciniChoice | None
    witnesses: dict
    children: list

    def _own_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weights": list(self.weights),
            "d": self.d,
            "r": self.r,
            "choice": self.choice.to_json_dict() if self.choice else None,
            "witnesses": self.witnesses,
        }

    def to_json_dict(self) -> dict:
        return {
            **self._own_json_dict(),
            "children": [child.to_json_dict() for child in self.children],
        }


_SCHEMA = "wpinterp/certificate/v1"

MAX_TRACE_NODES = 2_000_000  # tree nodes the writers print before refusing


def _require_printable(roots) -> None:
    """Raise ValueError when these certificates print as more than MAX_TRACE_NODES tree nodes."""
    size = sum(_tree_size(root) for root in roots)
    if size > MAX_TRACE_NODES:
        raise ValueError(
            f"the certificate prints as {size} tree nodes, more than {MAX_TRACE_NODES};"
            " build and check it with build_certificate and check_certificate instead"
        )


def json_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, where top-level values may be CertificateNodes."""
    return "".join(json_chunks(doc))


def json_chunks(doc: dict):
    """The text of json_document(doc) as an iterator of chunks, to join or write in turn.

    A node is written as its ``to_json_dict()`` would be, byte for byte.
    Each node object's own fields are encoded once and re-indented per
    nesting level, and the chunk list of its subtree is kept per (node,
    level): a revisited shared subtree costs one list extend, not a walk.
    The memo holds references to chunks, never joined subtree text, so its
    size follows the DAG's chunk count rather than the printed bytes.  A
    list or generator value is encoded 128 elements at a time and
    re-indented, so a generator of records is never held whole.
    Certificates past MAX_TRACE_NODES tree nodes raise ValueError here,
    before any chunk.
    """
    _require_printable(v for v in doc.values() if isinstance(v, CertificateNode))
    return _doc_chunks(doc)


def _doc_chunks(doc: dict):
    memo: dict = {}
    owns: dict = {}
    yield "{"
    sep = "\n  "
    for key, value in doc.items():
        yield f"{sep}{json.dumps(key)}: "
        if isinstance(value, CertificateNode):
            yield from _node_chunks(value, 1, memo, owns)
        elif isinstance(value, (list, GeneratorType)):
            items, opener = iter(value), "["
            while batch := list(islice(items, 128)):
                # "[\n  a,\n  b\n]" less its brackets, one level deeper
                yield opener + json.dumps(batch, indent=2)[1:-2].replace("\n", "\n  ")
                opener = ","
            yield "[]" if opener == "[" else "\n  ]"
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "\n}" if doc else "}"


def _node_chunks(node: CertificateNode, level: int, memo: dict, owns: dict) -> list[str]:
    """The JSON of ``node`` as a value nested ``level`` objects deep, as chunks.

    memo maps (id(node), level) to those chunks, and owns maps id(node) to
    the node's own fields encoded unindented, without the closing brace.
    """
    chunks = memo.get((id(node), level))
    if chunks is not None:
        return chunks
    own = owns.get(id(node))
    if own is None:
        # Strip the closing "\n}"; encoded strings hold no raw newline, so
        # replacing newlines indents only the layout.
        own = owns[id(node)] = json.dumps(node._own_json_dict(), indent=2)[:-2]
    pad = "\n" + "  " * level
    head = own.replace("\n", pad) + f',{pad}  "children": '
    if not node.children:
        chunks = [f"{head}[]{pad}}}"]
    else:
        item = pad + "    "
        chunks = [f"{head}[{item}"]
        for k, child in enumerate(node.children):
            if k:
                chunks.append("," + item)
            chunks += _node_chunks(child, level + 2, memo, owns)
        chunks.append(f"{pad}  ]{pad}}}")
    memo[(id(node), level)] = chunks
    return chunks


def _dag(root: CertificateNode) -> list[CertificateNode]:
    """The distinct node objects of a certificate, each after all of its children."""
    order, seen = [], {id(root)}
    stack = [(root, iter(root.children))]
    while stack:
        node, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            order.append(node)
        elif id(child) not in seen:
            seen.add(id(child))
            stack.append((child, iter(child.children)))
    return order


def _tree_size(root: CertificateNode) -> int:
    """Nodes of the certificate printed as a tree, counted once per DAG node."""
    sizes: dict = {}
    for node in _dag(root):
        sizes[id(node)] = 1 + sum(sizes[id(child)] for child in node.children)
    return sizes[id(root)]


def _tree_walk(root: CertificateNode):
    """(path, depth, node) for each node of the certificate printed as a tree, in pre-order."""
    stack = [("root", 0, root)]
    while stack:
        path, depth, node = stack.pop()
        yield path, depth, node
        stack += [(f"{path}/{k}", depth + 1, child) for k, child in enumerate(node.children)][::-1]


def _trace_lines(root: CertificateNode) -> list[str]:
    """The text trace: a line per tree node, indented by depth, and a step's premises.

    As in json_chunks, the lines of each subtree are kept per (node, depth),
    so a revisited shared subtree costs one list extend, not a walk.
    Certificates past MAX_TRACE_NODES tree nodes raise ValueError.
    """
    _require_printable([root])
    memo: dict = {}

    def subtree(node: CertificateNode, depth: int) -> list[str]:
        lines = memo.get((id(node), depth))
        if lines is None:
            pad = "  " * depth
            lines = [pad + line for line in _own_trace_lines(node)]
            for child in node.children:
                lines += subtree(child, depth + 1)
            memo[(id(node), depth)] = lines
        return lines

    return subtree(root, 0)


def _trace_records(root: CertificateNode):
    """The csv trace: a generator of one record per tree node, in pre-order.

    Certificates past MAX_TRACE_NODES tree nodes raise ValueError at the call.
    """
    _require_printable([root])
    return (
        {"path": path, "kind": node.kind, "d": node.d, "r": node.r,
         **(node.choice.to_json_dict() if node.choice else {})}
        for path, _, node in _tree_walk(root)
    )


def _own_trace_lines(node: CertificateNode) -> list[str]:
    """A node's lines of the text trace, unindented."""
    wit = node.witnesses
    if node.kind == "base":
        return [
            f"base d={node.d} r={node.r}: rank {wit['actual']}/{wit['expected']}"
            f" (trials {wit['trials']})"
        ]
    if node.kind == "chandler-leaf":
        return [f"trace d={wit['d']} i={wit['i']} q={wit['q']} r={wit['r']}: case {wit['case']} ok"]
    ch = node.choice
    return [
        f"terracini d={node.d} r={node.r}: q={ch.q} into the weight-{ch.weight}"
        f" hyperplane ({ch.direction}; nq={wit['nq']}, sbar_d={wit['sbar_d']})"
    ] + [
        f"  premise d={prem['degree']}: required {prem['required']},"
        f" certified {prem['certified']}"
        for prem in wit["premises"]
    ]


class TraceReport(NamedTuple):
    """terracini-trace's outcome, and payloads as cli._render takes them."""

    ok: bool
    body: dict
    text: object
    columns: list | None = None
    records: object = None


def terracini_trace(weights, d: int, r: int, seed=0, trials: int = 3) -> TraceReport:
    """Build and check the certificate for (d, r); on other weights, list the candidate steps."""
    if trials < 1:
        raise ValueError("trials must be positive")
    w = Weights(weights)
    if _certifiable(w):
        try:
            cert = build_certificate(w, d, r, seed=seed, trials=trials)
        except CertificateError as err:
            body = {"d": d, "r": r, "ok": False, "error": str(err)}
            return TraceReport(False, body, [f"FAIL d={d} r={r}: {err}"])
        failures: list[str] = []
        ok = check_certificate(cert, failures)
        verdict = "accepted" if ok else "rejected"
        return TraceReport(
            ok,
            {"d": d, "r": r, "ok": ok, "failures": failures, "certificate": cert},
            lambda: _trace_lines(cert)
            + ["checker: " + (verdict if ok else "rejected: " + "; ".join(failures))],
            ["path", "kind", "d", "r", "weight", "q", "direction"],
            lambda: chain(_trace_records(cert), [{"path": "check", "direction": verdict}]),
        )
    candidates = terracini_candidates(w, d, r)
    note = "certificate construction is implemented for weights (1, 2, 3) only"
    body = {"d": d, "r": r, "candidates": [c.to_json_dict() for c in candidates], "note": note}
    if not candidates:
        return TraceReport(False, body, [f"FAIL d={d} r={r}: no specialization candidate"])
    records, text = [], [f"candidates for d={d}, r={r}:"]
    for c in candidates:
        trace_ok = chandler_inequality(w, d, c.weight, c.q, r).ok
        records.append(dict(c.to_json_dict(), trace_ok=trace_ok))
        t1, t2, m = _premises(d, r, c)
        text.append(
            f"  weight {c.weight} (index {c.index}), q={c.q}, {c.direction};"
            f" premises at d={t1} and d={t2} with {m} points;"
            f" trace criterion {'ok' if trace_ok else 'fails'}"
        )
    return TraceReport(True, body, text + [note], records=records)


def certificate_to_json(cert: CertificateNode) -> str:
    """The certificate's JSON document; past MAX_TRACE_NODES tree nodes, a ValueError."""
    return json_document({"schema": _SCHEMA, "root": cert})


_NODE_TYPES = dict(kind=(str,), weights=(list,), d=(int,), r=(int,), choice=(dict, type(None)),
                   witnesses=(dict,), children=(list,))
_CHOICE_TYPES = dict(index=(int,), weight=(int,), q=(int,), direction=(str,))


def _typed(obj, types: dict) -> bool:
    """Whether ``obj`` is a JSON object with exactly these keys and value types."""
    return (
        type(obj) is dict
        and obj.keys() == types.keys()
        and all(type(obj[key]) in allowed for key, allowed in types.items())
    )


def certificate_from_json(text: str) -> CertificateNode:
    """Read what certificate_to_json writes; any other document is a CertificateError."""
    try:
        data = json.loads(text)
    except ValueError as err:
        raise CertificateError(f"not JSON: {err}") from None
    schema = data.get("schema") if type(data) is dict else None
    if schema != _SCHEMA:
        raise CertificateError(f"unknown schema {schema!r}")

    # One node per distinct content, as build_certificate makes.  The key
    # holds the witnesses by repr, which keeps 1, 1.0 and true apart as the
    # checker's type tests do, and the children already shared.
    shared: dict = {}

    def node(obj) -> CertificateNode:
        if not (
            _typed(obj, _NODE_TYPES)
            and obj["weights"]
            and all(type(a) is int and a > 0 for a in obj["weights"])
            and (obj["choice"] is None or _typed(obj["choice"], _CHOICE_TYPES))
        ):
            raise CertificateError(f"malformed certificate node {obj!r:.80}")
        weights = Weights(obj["weights"])
        choice = TerraciniChoice(**obj["choice"]) if obj["choice"] is not None else None
        children = [node(ch) for ch in obj["children"]]
        witnesses = obj["witnesses"]
        key = (obj["kind"], weights, obj["d"], obj["r"], choice, repr(witnesses),
               tuple(map(id, children)))
        found = shared.get(key)
        if found is None:
            found = shared[key] = CertificateNode(
                obj["kind"], weights, obj["d"], obj["r"], choice, witnesses, children
            )
        return found

    return node(data.get("root"))


def _certifiable(w: Weights) -> bool:
    """Whether build_certificate constructs certificates on these weights."""
    return w == (1, 2, 3)


def _premises(d: int, r: int, choice: TerraciniChoice) -> tuple[int, int, int]:
    """The premise degrees d - a and d - 2a of a step, and the r - q points each keeps."""
    return d - choice.weight, d - 2 * choice.weight, r - choice.q


def _premise_size(w: Weights, t: int, m: int) -> int:
    """Replace a premise size by the nearest bracket of s_t/3 when it falls outside.

    Certifying floor(s_t/3) points covers any smaller requirement (a subset
    of independent conditions stays independent), and ceil(s_t/3) covers any
    larger one (once the conditions fill degree t, more points keep it
    filled); sizes already between the brackets are kept as they are.
    """
    if m <= 0:
        return 0
    s = count_monomials(w, t)
    return min(max(m, s // 3), -(-s // 3))


def _valid_reduction(required: int, certified: int, s_t: int) -> bool:
    if required == certified:
        return True
    if required < certified:
        return 3 * certified <= s_t
    return 3 * certified >= s_t


def _base_witnesses(w: Weights, d: int, r: int, seed: str, trials: int) -> dict:
    """A base node's witnesses: the rank of r double points sampled from ``seed``."""
    prof = hilbert_fat_points(FatPointConfig(w, (2,) * r, seed=seed, trials=trials), d)
    return {
        "s_d": prof.s_d,
        "expected": prof.expected,
        "actual": prof.actual,
        "trials": prof.trials,
        "seed": seed,
    }


def _step_witnesses(
    w: Weights, d: int, r: int, choice: TerraciniChoice, certified: list[int]
) -> dict:
    """A step's witnesses, given the sizes its two premises certify."""
    t1, t2, m = _premises(d, r, choice)
    line = w.drop(choice.index)
    return {
        "s_d": count_monomials(w, d),
        "s_d_minus_i": count_monomials(w, t1),
        "s_d_minus_2i": count_monomials(w, t2),
        "sbar_d": count_monomials(line, d),
        "nq": w.n * choice.q,
        "line": {
            "weights": list(line),
            "doubles": choice.q,
            "degree": d,
            "hilbert": line_interpolation_formula(line, (2,) * choice.q, d),
        },
        "premises": [
            {"degree": t, "required": m, "certified": c} for t, c in zip((t1, t2), certified)
        ],
    }


def _trace_leaf(w: Weights, d: int, r: int, choice: TerraciniChoice) -> CertificateNode:
    """A step's first child: the trace criterion's record, whose "ok" says if it holds."""
    rec = chandler_inequality(w, d, choice.weight, choice.q, r)
    return CertificateNode("chandler-leaf", w, d, r, None, rec.to_json_dict(), [])


# The builder recurses two frames per induction step, and the longest chain
# of steps from degree d is at most 0.37 d long (measured on the floor and
# ceil counts), so degree 1000 needs about 750 of Python's default 1000 frames.
MAX_CERTIFICATE_DEGREE = 1000


def build_certificate(weights, d: int, r: int, seed=0, trials: int = 3) -> CertificateNode:
    """Certificate that r general double points in P(1,2,3) are independent in degree d.

    Candidates are tried preferring the largest weight, then the smallest q.
    Premise sizes are bracket-normalized (see _premise_size) so the recursion
    walks the floor/ceil lattice of s_t/3.  Degrees at most 5 are closed by a
    direct rank computation with a seed derived from (seed, d, r).  Raises
    CertificateError, naming the failing subproblem, if some node admits no
    workable step, and ValueError past MAX_CERTIFICATE_DEGREE, before
    building anything.

    Each (d, r) is solved once per call: a node depends only on (d, r, seed,
    trials), so a repeated subproblem reuses the node (or the failure) of its
    first visit, and the result is a DAG.
    """
    w = Weights(weights)
    if not _certifiable(w):
        raise UnsupportedWeightsError("certificates are implemented for weights (1, 2, 3)")
    if d < 0 or r < 0:
        raise ValueError("d and r must be nonnegative")
    if d > MAX_CERTIFICATE_DEGREE:
        raise ValueError(
            f"certificates are built up to degree {MAX_CERTIFICATE_DEGREE}, not {d}:"
            " the builder recurses once per induction step"
        )
    node = _build(w, d, r, seed, trials, {})
    if isinstance(node, _Failure):
        raise CertificateError(node.message("root"))
    return node


@dataclass(frozen=True)
class _Failure:
    """Why a subproblem has no certificate, apart from the path that reached it.

    The message at a path is the path, then ``reason``, then, when a premise
    failed, that premise's message at the path of its child slot.
    """

    reason: str
    premise: tuple | None = None  # (child slot, _Failure)

    def message(self, path: str) -> str:
        if self.premise is None:
            return path + self.reason
        k, failure = self.premise
        return path + self.reason + failure.message(f"{path}/children[{k}]")


def _build(w: Weights, d: int, r: int, seed, trials: int, memo: dict):
    """The node for (d, r), or the _Failure saying why there is none."""
    found = memo.get((d, r))
    if found is None:
        found = memo[(d, r)] = _build_node(w, d, r, seed, trials, memo)
    return found


def _build_node(w: Weights, d: int, r: int, seed, trials: int, memo: dict):
    if d <= 5 or r == 0:
        wit = _base_witnesses(w, d, r, f"{seed}|base|{d}|{r}", trials)
        if wit["actual"] != wit["expected"]:
            return _Failure(
                f": base case d={d}, r={r} has rank {wit['actual']}, expected {wit['expected']}"
            )
        return CertificateNode("base", w, d, r, None, wit, [])
    # Ordered by index, then q: a stable sort puts the largest weight first.
    candidates = sorted(terracini_candidates(w, d, r), key=lambda c: -c.weight)
    at = f": d={d}, r={r}: "
    last = _Failure(at + "no specialization candidate")
    for choice in candidates:
        leaf = _trace_leaf(w, d, r, choice)
        if not leaf.witnesses["ok"]:
            last = _Failure(f"{at}trace criterion fails for weight {choice.weight}, q={choice.q}")
            continue
        t1, t2, m = _premises(d, r, choice)
        c1 = _premise_size(w, t1, m)
        c2 = _premise_size(w, t2, m)
        child1 = _build(w, t1, c1, seed, trials, memo)
        if isinstance(child1, _Failure):
            last = _Failure(at, (1, child1))
            continue
        child2 = _build(w, t2, c2, seed, trials, memo)
        if isinstance(child2, _Failure):
            last = _Failure(at, (2, child2))
            continue
        wit = _step_witnesses(w, d, r, choice, [c1, c2])
        line_value, sbar_d = wit["line"]["hilbert"], wit["sbar_d"]
        if line_value != min(sbar_d, 2 * choice.q):
            return _Failure(f": line value {line_value} != min({sbar_d}, {2 * choice.q})")
        return CertificateNode("terracini", w, d, r, choice, wit, [leaf, child1, child2])
    return last


def check_certificate(cert: CertificateNode, failures: list | None = None) -> bool:
    """Re-derive every node of a certificate and apply the proof rules.

    The root's weights, d and r state the claim.  Every other stored number
    is re-derived: each distinct node object once, children first (_dag),
    from its weights, d, r, choice and premise sizes, by the code that built
    it, and compared whole with the stored node.  Returns True when
    everything holds; failure descriptions are appended to ``failures`` when
    a list is supplied.  A node object shared by several parents has its
    failures reported under every path that reaches it.
    """
    w = cert.weights
    if _certifiable(w):
        found: dict = {}
        for node in _dag(cert):
            found[id(node)] = _check_node(node, w, found)
        own = found[id(cert)]
    else:
        own = [f": certificates are implemented for weights (1, 2, 3), not {list(w)}"]
    if failures is not None:
        failures.extend("root" + failure for failure in own)
    return not own


def _check_node(node: CertificateNode, w: Weights, found: dict) -> list[str]:
    """The failures of one node, each without the node's own path.

    ``w`` is the root's weights; ``found`` maps id(child) to each child's
    failures, which the node reports under its child slot.
    """
    if node.weights != w:
        return [f": weights {list(node.weights)} are not the root's {list(w)}"]
    d, r, choice = node.d, node.r, node.choice
    if node.kind == "base":
        if d > 5 and r > 0:
            return [f": base node with d={d} > 5"]
        seed, trials = node.witnesses.get("seed"), node.witnesses.get("trials")
        if type(seed) is not str or type(trials) is not int:
            return [": stored counts disagree with recomputation"]
        wit = _base_witnesses(w, d, r, seed, max(1, trials))
        if wit["actual"] != wit["expected"]:
            return [f": base rank {wit['actual']} != expected {wit['expected']} at d={d}, r={r}"]
        if node != CertificateNode("base", w, d, r, None, wit, []):
            return [": stored counts disagree with recomputation"]
        return []
    if node.kind == "chandler-leaf":
        return [": a trace leaf certifies no subproblem on its own"]
    if node.kind != "terracini":
        return [f": unknown node kind {node.kind!r}"]
    if choice not in terracini_candidates(w, d, r):
        return [f": the choice is no legal specialization at d={d}, r={r}"]
    if len(node.children) != 3:
        return [f": expected 3 children, found {len(node.children)}"]
    leaf, *premises = node.children
    sink = []
    trace = _trace_leaf(w, d, r, choice)
    if not trace.witnesses["ok"]:
        sink.append("/children[0]: trace criterion fails on recomputation")
    elif leaf != trace:
        sink.append("/children[0]: stored trace leaf disagrees with recomputation")
    t1, t2, m = _premises(d, r, choice)
    for k, (child, t) in enumerate(zip(premises, (t1, t2)), start=1):
        if child.d != t:
            sink.append(f"/children[{k}]: degree {child.d} != {t}")
            continue
        if not _valid_reduction(m, child.r, count_monomials(w, t)):
            sink.append(f"/children[{k}]: size {child.r} does not cover requirement {m}")
        sink += [f"/children[{k}]{failure}" for failure in found[id(child)]]
    wit = _step_witnesses(w, d, r, choice, [child.r for child in premises])
    if wit["line"]["hilbert"] != min(wit["sbar_d"], 2 * choice.q):
        sink.append(": line premise value disagrees with the closed form")
    if node.witnesses != wit:
        sink.append(": stored counts disagree with recomputation")
    return sink
