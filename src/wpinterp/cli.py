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
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, islice

from . import __version__
from .bounds import (
    BoundViolationError,
    interpolation_bound_check,
    triangle_lattice_check,
)
from .grading import UnsupportedWeightsError, Weights, closed_form, count_monomials
from .ideals import (
    UnsupportedConfigurationError,
    WeightedPoint,
    herzog_data,
    point_ideal,
)
from .induction import (
    MAX_TRACE_NODES,
    json_chunks,
    numeric_facts_verify,
    teranum_verify,
    terracini_trace,
)
from .interpolation import FatPointConfig, deficiency_table
from .veronese import VeroneseChart, secant_dimension

MAX_DEGREE_RANGE = 100_000  # degrees one --deg lo..hi may span
MAX_DEGREE = 1_000_000  # largest --deg; the DP table holds one int per degree up to it


def _parse_weights(text: str) -> Weights:
    try:
        entries = tuple(int(part) for part in text.split(","))
        return Weights(entries)
    except (ValueError, UnsupportedWeightsError) as err:
        raise argparse.ArgumentTypeError(f"bad weights {text!r}: {err}")


def _parse_degrees(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("empty range")
            if hi - lo + 1 > MAX_DEGREE_RANGE:
                raise ValueError(f"more than {MAX_DEGREE_RANGE} degrees")
        else:
            lo = hi = int(text)
        if hi > MAX_DEGREE:
            raise ValueError(f"degree {hi} above {MAX_DEGREE}")
        return range(lo, hi + 1)
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


def _cells(columns, records):
    """The header, then each record's cells; columns default to the first record's keys."""
    records = iter(records)
    if columns is None:
        first = next(records)
        columns = list(first)
        records = chain([first], records)
    yield columns
    for rec in records:
        yield [_cell(rec.get(c, "")) for c in columns]


def _csv_cell(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cell(value) -> str:
    if value is True or value is False:
        return "true" if value else "false"
    if type(value) is list:
        return ",".join(map(str, value))
    return str(value)


def _joined(lines):
    """The lines in batches of 1024, each batch one chunk with every line newline-terminated."""
    lines = iter(lines)
    while batch := list(islice(lines, 1024)):
        batch.append("")
        yield "\n".join(batch)


def _render(args, meta: dict, body=None, columns=None, records=None, text=None):
    """Write a command's output in the chosen format, to --output or stdout.

    JSON prints ``body`` under the schema tag and ``meta``.  CSV prints the
    ``meta`` preamble, then ``columns`` (default: the keys of the first
    record) and one row per record; a record without a column leaves its
    cell empty.  Text prints the preamble and the ``text`` lines, or the
    aligned table when no lines are given.  A format whose own payload is
    None prints the preamble and ``text`` instead, which is how FAIL lines
    reach every format.  Payloads may be zero-argument callables, so only
    the chosen one is built.  Records may be any iterable and are written as
    they come: CSV takes one pass over them, a text table two (the widths,
    then the lines), so its records must be a callable or a list.  A
    CertificateNode in ``body`` is written chunk by chunk, and a generator of
    records one record at a time (see induction.json_chunks), never joined.
    """
    fmt = args.format
    if fmt == "json" and body is not None:
        body = body() if callable(body) else body
        doc = {"schema": f"wpinterp/{meta['command']}/v1", **meta, **body}
        chunks = chain(json_chunks(doc), "\n")
    else:
        head = [f"# wpinterp {meta['version']}"]
        head += [f"# {key}: {value}" for key, value in meta.items() if key != "version"]
        if text is not None and (fmt != "csv" or records is None):
            lines = text() if callable(text) else text
        else:
            source = records if callable(records) else lambda: records
            if fmt == "csv":
                lines = (",".join(map(_csv_cell, row)) for row in _cells(columns, source()))
            else:
                # The first pass keeps only the distinct tuples of cell lengths, which are few.
                lengths = {tuple(map(len, row)) for row in _cells(columns, source())}
                layout = "  ".join(f"{{:<{max(column)}}}" for column in zip(*lengths))
                lines = (layout.format(*row).rstrip() for row in _cells(columns, source()))
        chunks = _joined(chain(head, lines))
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def _warn_not_well_formed(weights: Weights):
    if not weights.well_formed:
        print(
            f"warning: weights {tuple(weights)} are not well formed; "
            "counts are still exact but geometric readings may differ",
            file=sys.stderr,
        )


def cmd_hilbert(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    form = closed_form(w)
    value = form or (lambda d: count_monomials(w, d))
    source = "dp" if form is None else "closed-form"

    def rows():
        return ({"d": d, "s_d": value(d), "source": source} for d in args.deg)

    _render(args, _meta(args, "hilbert", w), lambda: {"rows": rows()}, records=rows)
    return 0


def cmd_ah_check(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    if args.points is not None and args.points < 0:
        raise argparse.ArgumentTypeError("--points must be nonnegative")
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
    rows = [p.to_json_dict() for p in deficiency_table(cfg, args.deg)]
    body = {"multiplicities": list(mults), "rows": rows}
    _render(args, _meta(args, "ah-check", w), body, records=rows)
    return 0


def cmd_terracini_trace(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    if len(args.deg) != 1:
        raise argparse.ArgumentTypeError("terracini-trace takes a single degree")
    if args.points < 0:
        raise argparse.ArgumentTypeError("--points must be nonnegative")
    if _field_of(args) is not None:
        raise argparse.ArgumentTypeError(
            "terracini-trace samples its base ranks over random primes; --prime and --exact"
            " are not supported"
        )
    meta = _meta(args, "terracini-trace", w)
    report = terracini_trace(w, args.deg[0], args.points, seed=args.seed, trials=args.trials)
    if report.tree_nodes > MAX_TRACE_NODES:
        raise argparse.ArgumentTypeError(
            f"the certificate prints as {report.tree_nodes} tree nodes, more than"
            f" {MAX_TRACE_NODES}; build and check it through the library (build_certificate"
            " and check_certificate) instead"
        )
    _render(args, meta, report.body, report.columns, report.records, report.text)
    return 0 if report.ok else 1


def cmd_point_ideal(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    point = WeightedPoint(w, args.point)
    gens = point_ideal(point)
    body = {
        "point": [str(c) for c in point.coords],
        "generators": [g.to_json_dict() for g in gens],
    }
    records = [{"index": i, "degree": g.degree(), "generator": str(g)} for i, g in enumerate(gens)]
    text = [f"point: {point!r}", f"generators ({len(gens)}):"]
    text.extend(f"  {g}   (degree {g.degree()})" for g in gens)
    _render(args, _meta(args, "point-ideal", w), body, records=records, text=text)
    return 0


def cmd_herzog(args) -> int:
    w = args.weights
    if len(w) != 3:
        raise argparse.ArgumentTypeError("herzog needs exactly three weights")
    data = herzog_data(w[0], w[1], w[2])
    a, b, c = data.weights
    columns = ["a", "b", "c", "r1", "r2", "r3", "k1", "k2", "k3", "g1", "g2", "g3", "hc"]
    record = dict(zip(columns, (a, b, c) + data.r + data.k + data.g + (data.hc,)))
    text = [
        f"r: {','.join(map(str, data.r))}",
        f"k: {','.join(map(str, data.k))}",
        f"g: {','.join(map(str, data.g))}",
        f"hc: {_cell(data.hc)}",
        "relations:",
        f"  {data.r[0]}*{a} = {data.k[0]}*{b} + {data.g[0]}*{c}",
        f"  {data.r[1]}*{b} = {data.k[1]}*{a} + {data.g[1]}*{c}",
        f"  {data.r[2]}*{c} = {data.k[2]}*{a} + {data.g[2]}*{b}",
    ]
    _render(args, _meta(args, "herzog", w), data.to_json_dict(), records=[record], text=text)
    return 0


def cmd_secant_dim(args) -> int:
    w = args.weights
    _warn_not_well_formed(w)
    if len(args.deg) != 1:
        raise argparse.ArgumentTypeError("secant-dim takes a single degree")
    chart = VeroneseChart(w, args.deg[0])
    report = secant_dimension(chart, args.rank, seed=args.seed, trials=args.trials, field=_field_of(args))
    body = report.to_json_dict()
    columns = ["d", "r", "expected_dim", "actual_dim", "defect", "trials"]
    _render(args, _meta(args, "secant-dim", w), body, columns, [body])
    return 0


def cmd_bound_check(args) -> int:
    w = args.weights
    if len(w) != 3 or w[0] != 1:
        raise argparse.ArgumentTypeError("bound-check needs weights 1,b,c")
    meta = _meta(args, "bound-check", w)
    try:
        report = interpolation_bound_check(w[1], w[2], args.deg)
    except BoundViolationError as err:
        _render(args, meta, text=[f"FAIL: {err}"])
        return 1
    meta["threshold"] = str(report.threshold)
    meta["ratio_ok"] = _cell(report.ratio_ok)
    _render(args, meta, report.to_json_dict,
            records=lambda: (row.to_json_dict() for row in report.rows))
    return 0


def cmd_verify_suite(args) -> int:
    if args.max_deg < 6:
        raise argparse.ArgumentTypeError("--max-deg must be at least 6, where the scans start")
    if args.max_bc < 1:
        raise argparse.ArgumentTypeError("--max-bc must be at least 1")
    meta = _meta(args, "verify-suite", None)
    meta["max_deg"] = str(args.max_deg)
    meta["max_bc"] = str(args.max_bc)
    checks = []

    rep = teranum_verify(6, args.max_deg)
    checks.append(("teranum", rep.ok, f"{rep.checked} cases on d in [6, {args.max_deg}]"))
    rep = numeric_facts_verify(6, args.max_deg)
    checks.append(("numeric-facts", rep.ok, f"d in [6, {args.max_deg}]"))

    pairs = [(b, c) for b in range(1, args.max_bc + 1) for c in range(b, args.max_bc + 1)]
    try:
        for b, c in pairs:
            interpolation_bound_check(b, c, range(2 * c, 12 * c + 1))
        checks.append(("bound-inequality", True, f"b <= c <= {args.max_bc}, d <= 12c"))
    except BoundViolationError as err:
        checks.append(("bound-inequality", False, str(err)))

    for b, c, d in ((b, c, d) for b, c in pairs for d in range(2 * c, 12 * c + 1)):
        if not triangle_lattice_check(b, c, d).holds:
            detail = f"decomposition audit fails at b={b}, c={c}, d={d}"
            checks.append(("triangle-decomposition", False, detail))
            break
    else:
        detail = f"b <= c <= {args.max_bc}, 2c <= d <= 12c"
        checks.append(("triangle-decomposition", True, detail))

    status = {True: "PASS", False: "FAIL"}
    body = {"checks": [{"check": name, "ok": ok, "detail": det} for name, ok, det in checks]}
    records = [{"check": name, "status": status[ok], "detail": det} for name, ok, det in checks]
    text = [f"{status[ok]} {name}: {det}" for name, ok, det in checks]
    _render(args, meta, body, records=records, text=text)
    return 0 if all(ok for _, ok, _ in checks) else 1


def _add_output(sub):
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--output", help="write to this file instead of stdout")


def _add_common(sub, sampling=True):
    sub.add_argument("--weights", type=_parse_weights, required=True,
                     help="comma-separated positive weights, e.g. 1,2,3")
    _add_output(sub)
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
    _add_output(p)
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
    except BoundViolationError as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
