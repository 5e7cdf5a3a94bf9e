"""Command-line interface.

Every command emits a metadata preamble (version, weights, seed, trials,
field mode) followed by its payload in text, csv, or json form.  Output is
byte-deterministic for a fixed command line: all randomness flows through
the seed, and no timestamps or machine identifiers are embedded.

Exit codes: 0 on success, 1 when a verification fails (a certificate is
rejected, a proved bound is violated), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .bounds import (
    BoundViolationError,
    interpolation_bound_check,
    triangle_lattice_check,
)
from .grading import UnsupportedWeightsError, Weights, count_monomials, hilbert_closed_form
from .ideals import (
    UnsupportedConfigurationError,
    WeightedPoint,
    herzog_data,
    point_ideal,
)
from .induction import (
    CertificateError,
    build_certificate,
    certificate_to_json,
    chandler_inequality,
    check_certificate,
    numeric_facts_verify,
    teranum_verify,
    terracini_candidates,
)
from .interpolation import FatPointConfig, deficiency_table
from .veronese import VeroneseChart, secant_dimension

MAX_DEGREE_RANGE = 100_000  # degrees one --deg lo..hi may span


def _parse_weights(text: str) -> Weights:
    try:
        entries = tuple(int(part) for part in text.split(","))
        return Weights(entries)
    except (ValueError, UnsupportedWeightsError) as err:
        raise argparse.ArgumentTypeError(f"bad weights {text!r}: {err}")


def _parse_degrees(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range")
            if hi - lo + 1 > MAX_DEGREE_RANGE:
                raise ValueError(f"more than {MAX_DEGREE_RANGE} degrees")
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad degree range {text!r}: {err}")


def _parse_point(text: str) -> tuple:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {err}")


def _parse_mults(text: str) -> tuple[int, ...]:
    try:
        mults = tuple(int(part) for part in text.split(","))
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        return mults
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad multiplicities {text!r}: {err}")


def _field_of(args):
    if getattr(args, "exact", False):
        return "exact"
    if getattr(args, "prime", None) is not None:
        return args.prime
    return None


def _field_label(field) -> str:
    if field == "exact":
        return "exact"
    if field is None:
        return "random-prime"
    return f"prime:{field}"


def _meta(args, command: str, weights: Weights | None) -> dict:
    meta = {"version": __version__, "command": command}
    if weights is not None:
        meta["weights"] = ",".join(str(a) for a in weights)
    if hasattr(args, "seed"):
        meta["seed"] = str(args.seed)
    if hasattr(args, "trials"):
        meta["trials"] = str(args.trials)
    if hasattr(args, "exact") or hasattr(args, "prime"):
        meta["field"] = _field_label(_field_of(args))
    return meta


def _emit(args, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _preamble(meta: dict) -> list[str]:
    lines = [f"# wpinterp {meta['version']}"]
    for key, value in meta.items():
        if key != "version":
            lines.append(f"# {key}: {value}")
    return lines


def _text_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header).rstrip()]
    for row in rows:
        out.append(fmt.format(*row).rstrip())
    return out


def _csv_cell(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _emit_table(args, meta: dict, header: list[str], rows: list[list[str]], payload: dict):
    if args.format == "json":
        _emit(args, [json.dumps(payload, indent=2)])
    elif args.format == "csv":
        lines = _preamble(meta)
        lines.append(",".join(_csv_cell(h) for h in header))
        lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
        _emit(args, lines)
    else:
        lines = _preamble(meta)
        lines.extend(_text_table(header, rows))
        _emit(args, lines)


def _json_envelope(meta: dict, command: str, body: dict) -> dict:
    out = {"schema": f"wpinterp/{command}/v1"}
    out.update(meta)
    out.update(body)
    return out


def _warn_not_well_formed(weights: Weights):
    if not weights.well_formed:
        print(
            f"warning: weights {tuple(weights)} are not well formed; "
            "counts are still exact but geometric readings may differ",
            file=sys.stderr,
        )


def _bool(x) -> str:
    return "true" if x else "false"


def cmd_hilbert(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    meta = _meta(args, "hilbert", w)
    header = ["d", "s_d", "source"]
    rows = []
    body_rows = []
    for d in args.deg:
        closed = hilbert_closed_form(w, d)
        value = count_monomials(w, d) if closed is None else closed
        source = "dp" if closed is None else "closed-form"
        rows.append([str(d), str(value), source])
        body_rows.append({"d": d, "s_d": value, "source": source})
    payload = _json_envelope(meta, "hilbert", {"rows": body_rows})
    _emit_table(args, meta, header, rows, payload)
    return 0


def cmd_ah_check(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    if args.mult is not None and len(args.mult) > 1:
        mults = args.mult
        if args.points is not None and args.points != len(mults):
            raise argparse.ArgumentTypeError("--points disagrees with --mult list")
    else:
        if args.points is None:
            raise argparse.ArgumentTypeError("need --points or a --mult list")
        m = args.mult[0] if args.mult else 2
        mults = (m,) * args.points
    cfg = FatPointConfig(w, mults, field=_field_of(args), seed=args.seed, trials=args.trials)
    profiles = deficiency_table(cfg, args.deg, workers=args.workers)
    meta = _meta(args, "ah-check", w)
    wtxt = ",".join(str(a) for a in w)
    header = ["weights", "r", "d", "s_d", "expected", "actual", "deficiency", "is_AH", "trials"]
    rows = [
        [
            wtxt,
            str(p.r),
            str(p.degree),
            str(p.s_d),
            str(p.expected),
            str(p.actual),
            str(p.deficiency),
            _bool(p.is_AH),
            str(p.trials),
        ]
        for p in profiles
    ]
    payload = _json_envelope(
        meta,
        "ah-check",
        {"multiplicities": list(mults), "rows": [p.to_json_dict() for p in profiles]},
    )
    _emit_table(args, meta, header, rows, payload)
    return 0


def _render_certificate(node, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if node.kind == "base":
        wit = node.witnesses
        return [
            f"{pad}base d={node.d} r={node.r}: rank {wit['actual']}/{wit['expected']}"
            f" (trials {wit['trials']})"
        ]
    if node.kind == "chandler-leaf":
        wit = node.witnesses
        return [
            f"{pad}trace d={wit['d']} i={wit['i']} q={wit['q']} r={wit['r']}:"
            f" case {wit['case']} ok"
        ]
    ch = node.choice
    wit = node.witnesses
    lines = [
        f"{pad}terracini d={node.d} r={node.r}: q={ch.q} into the weight-{ch.weight}"
        f" hyperplane ({ch.direction}; nq={wit['nq']}, sbar_d={wit['sbar_d']})"
    ]
    for prem, child in zip(wit["premises"], node.children[1:]):
        lines.append(
            f"{pad}  premise d={prem['degree']}: required {prem['required']},"
            f" certified {prem['certified']}"
        )
    for child in node.children:
        lines.extend(_render_certificate(child, indent + 1))
    return lines


def cmd_terracini_trace(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    if len(args.deg) != 1:
        raise argparse.ArgumentTypeError("terracini-trace takes a single degree")
    d = args.deg[0]
    r = args.points
    meta = _meta(args, "terracini-trace", w)
    if tuple(w) == (1, 2, 3):
        try:
            cert = build_certificate(w, d, r, seed=args.seed, trials=args.trials)
        except CertificateError as err:
            if args.format == "json":
                payload = _json_envelope(
                    meta, "terracini-trace", {"d": d, "r": r, "ok": False, "error": str(err)}
                )
                _emit(args, [json.dumps(payload, indent=2)])
            else:
                _emit(args, _preamble(meta) + [f"FAIL d={d} r={r}: {err}"])
            return 1
        failures: list[str] = []
        ok = check_certificate(cert, failures)
        if args.format == "json":
            payload = _json_envelope(
                meta,
                "terracini-trace",
                {
                    "d": d,
                    "r": r,
                    "ok": ok,
                    "failures": failures,
                    "certificate": json.loads(certificate_to_json(cert))["root"],
                },
            )
            _emit(args, [json.dumps(payload, indent=2)])
        elif args.format == "csv":
            header = ["path", "kind", "d", "r", "weight", "q", "direction"]
            rows = []

            def walk(node, path):
                ch = node.choice
                rows.append(
                    [
                        path,
                        node.kind,
                        str(node.d),
                        str(node.r),
                        str(ch.weight) if ch else "",
                        str(ch.q) if ch else "",
                        ch.direction if ch else "",
                    ]
                )
                for k, child in enumerate(node.children):
                    walk(child, f"{path}/{k}")

            walk(cert, "root")
            rows.append(["check", "", "", "", "", "", "accepted" if ok else "rejected"])
            _emit_table(args, meta, header, rows, {})
        else:
            lines = _preamble(meta)
            lines.extend(_render_certificate(cert))
            lines.append("checker: " + ("accepted" if ok else "rejected: " + "; ".join(failures)))
            _emit(args, lines)
        return 0 if ok else 1
    candidates = terracini_candidates(w, d, r)
    body = {
        "d": d,
        "r": r,
        "candidates": [c.to_json_dict() for c in candidates],
        "note": "certificate construction is implemented for weights (1, 2, 3) only",
    }
    if args.format == "json":
        _emit(args, [json.dumps(_json_envelope(meta, "terracini-trace", body), indent=2)])
    else:
        lines = _preamble(meta)
        if not candidates:
            lines.append(f"FAIL d={d} r={r}: no specialization candidate")
            _emit(args, lines)
            return 1
        lines.append(f"candidates for d={d}, r={r}:")
        for c in candidates:
            rec = chandler_inequality(w, d, c.weight, c.q, r)
            lines.append(
                f"  weight {c.weight} (index {c.index}), q={c.q}, {c.direction};"
                f" premises at d={d - c.weight} and d={d - 2 * c.weight}"
                f" with {r - c.q} points; trace criterion {'ok' if rec.ok else 'fails'}"
            )
        lines.append(body["note"])
        _emit(args, lines)
    return 0 if candidates else 1


def cmd_point_ideal(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    point = WeightedPoint(w, args.point)
    gens = point_ideal(point)
    meta = _meta(args, "point-ideal", w)
    if args.format == "json":
        payload = _json_envelope(
            meta,
            "point-ideal",
            {
                "point": [str(c) for c in point.coords],
                "generators": [g.to_json_dict() for g in gens],
            },
        )
        _emit(args, [json.dumps(payload, indent=2)])
    elif args.format == "csv":
        header = ["index", "degree", "generator"]
        rows = [[str(i), str(g.degree()), str(g)] for i, g in enumerate(gens)]
        _emit_table(args, meta, header, rows, {})
    else:
        lines = _preamble(meta)
        lines.append(f"point: {point!r}")
        lines.append(f"generators ({len(gens)}):")
        for g in gens:
            lines.append(f"  {g}   (degree {g.degree()})")
        _emit(args, lines)
    return 0


def cmd_herzog(args) -> int:
    w = args.weights
    if len(w) != 3:
        raise argparse.ArgumentTypeError("herzog needs exactly three weights")
    data = herzog_data(w[0], w[1], w[2])
    meta = _meta(args, "herzog", w)
    if args.format == "json":
        payload = _json_envelope(meta, "herzog", data.to_json_dict())
        _emit(args, [json.dumps(payload, indent=2)])
    elif args.format == "csv":
        header = ["a", "b", "c", "r1", "r2", "r3", "k1", "k2", "k3", "g1", "g2", "g3", "hc"]
        a, b, c = data.weights
        row = [str(a), str(b), str(c)] + [str(x) for x in data.r + data.k + data.g]
        row.append(_bool(data.hc))
        _emit_table(args, meta, header, [row], {})
    else:
        a, b, c = data.weights
        lines = _preamble(meta)
        lines.append(f"r: {','.join(map(str, data.r))}")
        lines.append(f"k: {','.join(map(str, data.k))}")
        lines.append(f"g: {','.join(map(str, data.g))}")
        lines.append(f"hc: {_bool(data.hc)}")
        lines.append("relations:")
        lines.append(f"  {data.r[0]}*{a} = {data.k[0]}*{b} + {data.g[0]}*{c}")
        lines.append(f"  {data.r[1]}*{b} = {data.k[1]}*{a} + {data.g[1]}*{c}")
        lines.append(f"  {data.r[2]}*{c} = {data.k[2]}*{a} + {data.g[2]}*{b}")
        _emit(args, lines)
    return 0


def cmd_secant_dim(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    if len(args.deg) != 1:
        raise argparse.ArgumentTypeError("secant-dim takes a single degree")
    chart = VeroneseChart(w, args.deg[0])
    report = secant_dimension(chart, args.rank, seed=args.seed, trials=args.trials, field=_field_of(args))
    meta = _meta(args, "secant-dim", w)
    header = ["d", "r", "expected_dim", "actual_dim", "defect", "trials"]
    row = [
        str(report.degree),
        str(report.r),
        str(report.expected_dim),
        str(report.actual_dim),
        str(report.defect),
        str(report.trials),
    ]
    payload = _json_envelope(meta, "secant-dim", report.to_json_dict())
    _emit_table(args, meta, header, [row], payload)
    return 0


def cmd_bound_check(args) -> int:
    w = args.weights
    if len(w) != 3 or w[0] != 1:
        raise argparse.ArgumentTypeError("bound-check needs weights 1,b,c")
    meta = _meta(args, "bound-check", w)
    try:
        report = interpolation_bound_check(w[1], w[2], args.deg)
    except BoundViolationError as err:
        _emit(args, _preamble(meta) + [f"FAIL: {err}"])
        return 1
    header = ["d", "lhs", "rhs", "holds", "asserted"]
    rows = [
        [str(row.d), str(row.lhs), str(row.rhs), _bool(row.holds), _bool(row.asserted)]
        for row in report.rows
    ]
    meta["threshold"] = str(report.threshold)
    meta["ratio_ok"] = _bool(report.ratio_ok)
    payload = _json_envelope(meta, "bound-check", report.to_json_dict())
    _emit_table(args, meta, header, rows, payload)
    return 0


def cmd_verify_suite(args) -> int:
    meta = _meta(args, "verify-suite", None)
    meta["max_deg"] = str(args.max_deg)
    meta["max_bc"] = str(args.max_bc)
    checks = []

    rep = teranum_verify(6, args.max_deg)
    checks.append(("teranum", rep.ok, f"{rep.checked} cases on d in [6, {args.max_deg}]"))
    rep = numeric_facts_verify(6, args.max_deg)
    checks.append(("numeric-facts", rep.ok, f"d in [6, {args.max_deg}]"))

    bound_ok = True
    detail = []
    try:
        for b in range(1, args.max_bc + 1):
            for c in range(b, args.max_bc + 1):
                interpolation_bound_check(b, c, range(2 * c, 12 * c + 1))
    except BoundViolationError as err:
        bound_ok = False
        detail.append(str(err))
    checks.append(
        ("bound-inequality", bound_ok, detail[0] if detail else f"b <= c <= {args.max_bc}, d <= 12c")
    )

    tri_ok = True
    tri_detail = f"b <= c <= {args.max_bc}, 2c <= d <= 12c"
    for b in range(1, args.max_bc + 1):
        for c in range(b, args.max_bc + 1):
            for d in range(2 * c, 12 * c + 1):
                tri = triangle_lattice_check(b, c, d)
                good = (
                    tri.total == count_monomials(Weights((1, b, c)), d)
                    and tri.disjoint_middle
                    and tri.covered
                    and tri.aggregate_holds
                    and (tri.t4_bound is None or tri.t4_interior >= tri.t4_bound)
                )
                if not good:
                    tri_ok = False
                    tri_detail = f"decomposition audit fails at b={b}, c={c}, d={d}"
    checks.append(("triangle-decomposition", tri_ok, tri_detail))

    lines = _preamble(meta)
    rows = []
    for name, ok, det in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {det}")
        rows.append({"check": name, "ok": ok, "detail": det})
    if args.format == "json":
        payload = _json_envelope(meta, "verify-suite", {"checks": rows})
        _emit(args, [json.dumps(payload, indent=2)])
    elif args.format == "csv":
        header = ["check", "status", "detail"]
        table = [[r["check"], "PASS" if r["ok"] else "FAIL", r["detail"]] for r in rows]
        _emit_table(args, meta, header, table, {})
    else:
        _emit(args, lines)
    return 0 if all(ok for _, ok, _ in checks) else 1


def _add_common(sub, weights_required=True, sampling=True):
    if weights_required:
        sub.add_argument("--weights", type=_parse_weights, required=True,
                         help="comma-separated positive weights, e.g. 1,2,3")
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--output", help="write to this file instead of stdout")
    if sampling:
        sub.add_argument("--seed", default=0, help="base seed for all sampling")
        sub.add_argument("--trials", type=int, default=3, help="sampling trials per degree")
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--prime", type=int, help="work over this fixed prime")
        group.add_argument("--exact", action="store_true", help="exact rational arithmetic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpinterp",
        description="Interpolation with fat points in weighted projective space",
    )
    parser.add_argument("--version", action="version", version=f"wpinterp {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("hilbert", help="monomial counts by degree")
    _add_common(p, sampling=False)
    p.add_argument("--deg", type=_parse_degrees, required=True, help="degree or lo..hi")
    p.set_defaults(func=cmd_hilbert)

    p = subs.add_parser("ah-check", help="deficiency table for fat points")
    _add_common(p)
    p.add_argument("--deg", type=_parse_degrees, required=True, help="degree or lo..hi")
    p.add_argument("--points", type=int, help="number of points")
    p.add_argument("--mult", type=_parse_mults, default=None,
                   help="multiplicity (uniform) or comma list per point; default 2")
    p.add_argument("--workers", type=int, default=1, help="threads across degrees")
    p.set_defaults(func=cmd_ah_check)

    p = subs.add_parser("terracini-trace", help="build and check an induction certificate")
    _add_common(p)
    p.add_argument("--deg", type=_parse_degrees, required=True, help="single degree")
    p.add_argument("--points", type=int, required=True, help="number of double points")
    p.set_defaults(func=cmd_terracini_trace)

    p = subs.add_parser("point-ideal", help="generators of a point's ideal")
    _add_common(p, sampling=False)
    p.add_argument("--point", type=_parse_point, required=True,
                   help="comma-separated coordinates; fractions allowed")
    p.set_defaults(func=cmd_point_ideal)

    p = subs.add_parser("herzog", help="minimal relations for three coprime weights")
    _add_common(p, sampling=False)
    p.set_defaults(func=cmd_herzog)

    p = subs.add_parser("secant-dim", help="dimension of a secant variety")
    _add_common(p)
    p.add_argument("--deg", type=_parse_degrees, required=True, help="single degree")
    p.add_argument("--rank", type=int, required=True, help="number of points", metavar="R")
    p.set_defaults(func=cmd_secant_dim)

    p = subs.add_parser("bound-check", help="verify the halving bound over a degree range")
    _add_common(p, sampling=False)
    p.add_argument("--deg", type=_parse_degrees, required=True, help="degree or lo..hi")
    p.set_defaults(func=cmd_bound_check)

    p = subs.add_parser("verify-suite", help="run the numeric verification suite")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.add_argument("--max-deg", type=int, default=100000, help="scan ceiling for closed forms")
    p.add_argument("--max-bc", type=int, default=8, help="grid ceiling for bound checks")
    p.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as err:
        parser.error(str(err))
    except (UnsupportedWeightsError, UnsupportedConfigurationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (BoundViolationError, CertificateError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
