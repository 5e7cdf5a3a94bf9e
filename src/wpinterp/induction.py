"""Inductive certificates that double points in P(1, 2, 3) are always independent.

The induction step specializes q of the r double points into the hyperplane
cut out by a variable of weight a_i.  The move is numerically legal when

    (n+1) r - s_{d - a_i}  <=  n q  <=  sbar_d        ("independent"),

or with the two outer bounds swapped ("fill"), where sbar_d counts the
degree-d monomials of the hyperplane itself.  The traces of the specialized
points still have to impose independent conditions on the hyperplane; that
is an arithmetic criterion in the style of Chandler, checked exactly here.
A certificate is the recursion as a DAG with shared subproblems: every inner
node records its choice, its inequality witnesses, and the premise
reductions; leaves are small enough to verify by a direct rank computation.
The checker replays everything from monomial counts alone, each distinct node
once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .grading import UnsupportedWeightsError, Weights, closed_form, count_monomials
from .interpolation import FatPointConfig, hilbert_fat_points, line_interpolation_formula


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


def terracini_candidates(weights, d: int, r: int) -> list[TerraciniChoice]:
    """All (index, q, direction) satisfying the specialization inequality.

    Iterates every variable and q in [1, r]; a q meeting both directions at
    once (the two windows share an endpoint) is reported once, as
    "independent".  Ordered by index, then q.
    """
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
        return {
            "ok": self.ok,
            "case": self.case,
            "d": self.d,
            "i": self.i,
            "q": self.q,
            "r": self.r,
            "s_d_minus_i": self.s_d_minus_i,
            "s_d_minus_2i": self.s_d_minus_2i,
            "sbar_d": self.sbar_d,
            "sbar_d_minus_i": self.sbar_d_minus_i,
            "h1": self.h1,
            "h2": self.h2,
            "extra": self.extra,
        }


def chandler_inequality(weights, d: int, i: int, q: int, r: int) -> ChandlerRecord:
    """Decide the trace criterion for specializing q of r points; i is the weight."""
    w = weights if isinstance(weights, Weights) else Weights(weights)
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


def _plane_123_forms():
    """Closed forms of s_d for P(1,2,3) and its hyperplanes P(2,3), P(1,3), P(1,2)."""
    return tuple(closed_form(Weights(w)) for w in ((1, 2, 3), (2, 3), (1, 3), (1, 2)))


def _even_in(lo: int, hi: int) -> bool:
    lo = max(lo, 2)
    return lo <= hi and (hi // 2) * 2 >= lo


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def teranum_verify(d_lo: int = 6, d_hi: int = 100000) -> ScanReport:
    """Every balanced point count near s_d/3 admits a specialization, d >= 6.

    For r = floor(s_d/3) and ceil(s_d/3), some variable and some q in [1, r]
    must satisfy one of the two windows.  Closed forms keep the scan O(1)
    per degree.
    """
    if d_lo < 6:
        raise ValueError("the statement starts at d = 6")
    s123, s23, s13, s12 = _plane_123_forms()
    failures = []
    checked = 0
    for d in range(d_lo, d_hi + 1):
        s = s123(d)
        for r in {s // 3, -(-s // 3)}:
            checked += 1
            shifts = (
                (s123(d - 1), s23(d)),
                (s123(d - 2), s13(d)),
                (s123(d - 3), s12(d)),
            )
            found = False
            for s_shift, sbar in shifts:
                lo = 3 * r - s_shift
                if _even_in(lo, min(sbar, 2 * r)):
                    found = True
                    break
                if _even_in(sbar, min(lo, 2 * r)):
                    found = True
                    break
            if not found:
                failures.append((d, r))
    return ScanReport(d_lo, d_hi, checked, tuple(failures))


def numeric_facts_verify(d_lo: int = 6, d_hi: int = 100000) -> ScanReport:
    """The four counting inequalities the induction leans on, for d >= 6.

    s'''_d < 2 s_{d-3};  s'_d <= 2 s'_{d-1};  s''_d <= 2 s''_{d-2};
    s'''_d <= 2 s'''_{d-3}, where s', s'', s''' count monomials on the
    hyperplanes of weights 1, 2, 3 respectively.
    """
    if d_lo < 6:
        raise ValueError("the statement starts at d = 6")
    s123, s23, s13, s12 = _plane_123_forms()
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


@dataclass
class CertificateNode:
    """One step of a certificate.

    A built certificate shares the node of a repeated (d, r) subproblem
    between every parent that needs it, so mutating one node changes every
    path through it.  To alter a certificate, edit its JSON and read it back
    with certificate_from_json, which shares nothing.
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


def json_document(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, where top-level values may be CertificateNodes.

    A node is written as its ``to_json_dict()`` would be, byte for byte, but
    each node object's own fields are encoded once per nesting level and its
    children are streamed into one chunk list: a revisited shared node costs
    a few appends, not a dict and an encoding.  Whole subtrees are never
    cached, since their text grows with the tree, not with the DAG.
    """
    out = ["{"]
    heads: dict = {}
    sep = "\n  "
    for key, value in doc.items():
        out.append(f"{sep}{json.dumps(key)}: ")
        if isinstance(value, CertificateNode):
            _write_node(value, 1, out, heads)
        else:
            out.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    out.append("\n}" if doc else "}")
    return "".join(out)


def _write_node(node: CertificateNode, level: int, out: list, heads: dict):
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
        _write_node(child, level + 2, out, heads)
    out.append(f"{pad}  ]{pad}}}")


def certificate_to_json(cert: CertificateNode) -> str:
    return json_document({"schema": _SCHEMA, "root": cert})


def certificate_from_json(text: str) -> CertificateNode:
    data = json.loads(text)
    if data.get("schema") != _SCHEMA:
        raise CertificateError(f"unknown schema {data.get('schema')!r}")

    def node(obj) -> CertificateNode:
        choice = obj["choice"]
        return CertificateNode(
            kind=obj["kind"],
            weights=Weights(obj["weights"]),
            d=obj["d"],
            r=obj["r"],
            choice=TerraciniChoice(**choice) if choice else None,
            witnesses=obj["witnesses"],
            children=[node(ch) for ch in obj["children"]],
        )

    return node(data["root"])


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
    lo, hi = s // 3, -(-s // 3)
    if m < lo:
        return lo
    if m > hi:
        return hi
    return m


def _valid_reduction(required: int, certified: int, s_t: int) -> bool:
    if required == certified:
        return True
    if required < certified:
        return 3 * certified <= s_t
    return 3 * certified >= s_t


def _base_seed(seed, d: int, r: int) -> str:
    return f"{seed}|base|{d}|{r}"


def _candidate_order(choice: TerraciniChoice) -> tuple:
    return (
        -choice.weight,
        choice.q,
        0 if choice.direction == "independent" else 1,
        -choice.index,
    )


def build_certificate(weights, d: int, r: int, seed=0, trials: int = 3) -> CertificateNode:
    """Certificate that r general double points in P(1,2,3) are independent in degree d.

    Candidates are tried preferring the largest weight, then the smallest q.
    Premise sizes are bracket-normalized (see _premise_size) so the recursion
    walks the floor/ceil lattice of s_t/3.  Degrees at most 5 are closed by a
    direct rank computation with a seed derived from (seed, d, r).  Raises
    CertificateError, naming the failing subproblem, if some node admits no
    workable step.

    Each (d, r) is solved once per call: a node depends only on (d, r, seed,
    trials), so a repeated subproblem reuses the node (or the failure) of its
    first visit, and the result is a DAG.
    """
    w = weights if isinstance(weights, Weights) else Weights(weights)
    if tuple(w) != (1, 2, 3):
        raise UnsupportedWeightsError("certificates are implemented for weights (1, 2, 3)")
    if d < 0 or r < 0:
        raise ValueError("d and r must be nonnegative")
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
    s_d = count_monomials(w, d)
    if d <= 5 or r == 0:
        expected = min(s_d, 3 * r)
        cfg = FatPointConfig(w, (2,) * r, seed=_base_seed(seed, d, r), trials=trials)
        prof = hilbert_fat_points(cfg, d)
        if prof.actual != expected:
            return _Failure(
                f": base case d={d}, r={r} has rank {prof.actual}, expected {expected}"
            )
        witnesses = {
            "s_d": s_d,
            "expected": expected,
            "actual": prof.actual,
            "trials": prof.trials,
            "seed": _base_seed(seed, d, r),
        }
        return CertificateNode("base", w, d, r, None, witnesses, [])
    candidates = sorted(terracini_candidates(w, d, r), key=_candidate_order)
    at = f": d={d}, r={r}: "
    last = _Failure(at + "no specialization candidate")
    for choice in candidates:
        rec = chandler_inequality(w, d, choice.weight, choice.q, r)
        if not rec.ok:
            last = _Failure(f"{at}trace criterion fails for weight {choice.weight}, q={choice.q}")
            continue
        m = r - choice.q
        t1, t2 = d - choice.weight, d - 2 * choice.weight
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
        line = w.drop(choice.index)
        line_value = line_interpolation_formula(line, (2,) * choice.q, d)
        sbar_d = count_monomials(line, d)
        if line_value != min(sbar_d, 2 * choice.q):
            return _Failure(f": line value {line_value} != min({sbar_d}, {2 * choice.q})")
        leaf = CertificateNode(
            "chandler-leaf", w, d, r, None, rec.to_json_dict(), []
        )
        witnesses = {
            "s_d": s_d,
            "s_d_minus_i": count_monomials(w, t1),
            "s_d_minus_2i": count_monomials(w, t2),
            "sbar_d": sbar_d,
            "nq": w.n * choice.q,
            "line": {
                "weights": list(line),
                "doubles": choice.q,
                "degree": d,
                "hilbert": line_value,
            },
            "premises": [
                {"degree": t1, "required": m, "certified": c1},
                {"degree": t2, "required": m, "certified": c2},
            ],
        }
        return CertificateNode(
            "terracini", w, d, r, choice, witnesses, [leaf, child1, child2]
        )
    return last


def check_certificate(cert: CertificateNode, failures: list | None = None) -> bool:
    """Replay a certificate from monomial counts; no stored number is trusted.

    Every inequality, window, premise reduction, line value and base rank is
    recomputed.  Returns True when everything holds; failure descriptions are
    appended to ``failures`` when a list is supplied.  A node object shared
    by several parents is replayed once, and its failures are reported under
    every path that reaches it.
    """
    sink = failures if failures is not None else []
    _check(cert, "root", sink, {})
    return not sink


def _check(node: CertificateNode, path: str, sink: list, seen: dict):
    """Append the failures of ``node`` at ``path``; ``seen`` maps id(node) to them."""
    suffixes = seen.get(id(node))
    if suffixes is None:
        suffixes = seen[id(node)] = []
        _check_node(node, suffixes, seen)
    sink.extend(path + suffix for suffix in suffixes)


def _check_node(node: CertificateNode, sink: list, seen: dict):
    """Replay one node; each failure is appended without the node's own path."""
    w = node.weights
    s_d = count_monomials(w, node.d)
    if node.kind == "base":
        if node.d > 5 and node.r > 0:
            sink.append(f": base node with d={node.d} > 5")
            return
        expected = min(s_d, 3 * node.r)
        wit = node.witnesses
        if wit.get("s_d") != s_d or wit.get("expected") != expected:
            sink.append(": stored counts disagree with recomputation")
            return
        cfg = FatPointConfig(
            w, (2,) * node.r, seed=wit.get("seed", 0), trials=max(1, wit.get("trials", 1))
        )
        prof = hilbert_fat_points(cfg, node.d)
        if prof.actual != expected:
            sink.append(
                f": base rank {prof.actual} != expected {expected} at d={node.d}, r={node.r}"
            )
        return
    if node.kind == "chandler-leaf":
        wit = node.witnesses
        rec = chandler_inequality(w, wit["d"], wit["i"], wit["q"], wit["r"])
        if not rec.ok:
            sink.append(": trace criterion fails on recomputation")
        elif rec.to_json_dict() != dict(wit):
            sink.append(": stored trace witnesses disagree with recomputation")
        return
    if node.kind != "terracini":
        sink.append(f": unknown node kind {node.kind!r}")
        return
    choice = node.choice
    if choice is None or not (1 <= choice.q <= node.r):
        sink.append(": missing or out-of-range choice")
        return
    if w[choice.index] != choice.weight:
        sink.append(": choice weight does not match its index")
        return
    n = w.n
    s_shift = count_monomials(w, node.d - choice.weight)
    line = w.drop(choice.index)
    sbar = count_monomials(line, node.d)
    lo = (n + 1) * node.r - s_shift
    nq = n * choice.q
    if choice.direction == "independent":
        window_ok = lo <= nq <= sbar
    elif choice.direction == "fill":
        window_ok = sbar <= nq <= lo
    else:
        sink.append(f": unknown direction {choice.direction!r}")
        return
    if not window_ok:
        sink.append(
            f": nq={nq} misses the {choice.direction} window at d={node.d}, r={node.r}"
        )
    if len(node.children) != 3:
        sink.append(f": expected 3 children, found {len(node.children)}")
        return
    leaf, child1, child2 = node.children
    if leaf.kind != "chandler-leaf":
        sink.append(": first child must be the trace leaf")
        return
    if (leaf.witnesses.get("d"), leaf.witnesses.get("i"), leaf.witnesses.get("q"), leaf.witnesses.get("r")) != (
        node.d,
        choice.weight,
        choice.q,
        node.r,
    ):
        sink.append(": trace leaf does not match the choice")
    _check(leaf, "/children[0]", sink, seen)
    m = node.r - choice.q
    for k, (child, shift) in enumerate(((child1, 1), (child2, 2)), start=1):
        t = node.d - shift * choice.weight
        if child.d != t:
            sink.append(f"/children[{k}]: degree {child.d} != {t}")
            continue
        if not _valid_reduction(m, child.r, count_monomials(w, t)):
            sink.append(
                f"/children[{k}]: size {child.r} does not cover requirement {m}"
            )
        _check(child, f"/children[{k}]", sink, seen)
    wit = node.witnesses
    line_value = line_interpolation_formula(line, (2,) * choice.q, node.d)
    stored_line = wit.get("line", {})
    if stored_line.get("hilbert") != line_value or line_value != min(sbar, 2 * choice.q):
        sink.append(": line premise value disagrees with the closed form")
    if wit.get("s_d") != s_d or wit.get("sbar_d") != sbar:
        sink.append(": stored counts disagree with recomputation")
