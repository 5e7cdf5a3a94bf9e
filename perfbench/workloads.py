"""The three workloads: their inputs, how one op runs, and how its answer is checked.

Every workload is a closed loop with one caller: the next op is issued only
after the previous one has returned and been checked.  Only the call itself
is timed; checking happens between calls.  The workload seed goes to
wpinterp as ``seed=`` / ``--seed``, where it picks the 50-62-bit trial
primes, so a parent and a change must be compared on the same seeds.

The references the answers are checked against are not produced by the code
under test: the (1,2,3) closed form and every monomial count are computed
here, and the deficiency tables are the published ones that acceptance
criterion 01 pins, copied into this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass

# Deficiency of r general double points, by degree, in the three published
# tables of acceptance criterion 01; degrees not listed have deficiency 0.
DEFICIENCY_TABLES = {
    (1, 5, 9): {"r": 3, "runs": ((20, 22, 1),)},
    (1, 5, 26): {"r": 2, "runs": ((20, 24, 1), (25, 25, 2), (26, 30, 1))},
    (1, 4, 57): {"r": 4, "runs": ((32, 35, 1), (36, 39, 2), (40, 43, 3), (44, 56, 4),
                                  (57, 60, 3), (61, 64, 2), (65, 68, 1))},
}

# Per-workload sizes.  "full" is what the benchmark measures; "tiny" keeps
# every code path but runs in well under a second, for the self-test.
SIZES = {
    "full": {
        "scan_degrees": range(38, 47),
        "trace_text": (44, 61),
        "trace_json": (50, 78),
        "verify_suite": [],
        "tables_degrees": {(1, 5, 9): "10..35", (1, 5, 26): "15..40", (1, 4, 57): "25..75"},
        "sextuple_degrees": "58..60",
        "exact": (24, 21),
        "secant": (20, 77),
        "hilbert": "0..2000",
        "bound": "0..5000",
    },
    "tiny": {
        "scan_degrees": range(10, 13),
        "trace_text": (20, 14),
        "trace_json": (22, 17),
        "verify_suite": ["--max-deg", "2000", "--max-bc", "3"],
        "tables_degrees": {(1, 5, 9): "18..24", (1, 5, 26): "19..27", (1, 4, 57): "30..40"},
        "sextuple_degrees": "20..21",
        "exact": (10, 5),
        "secant": (8, 15),
        "hilbert": "0..200",
        "bound": "0..500",
    },
}


def monomial_counts(weights, top: int) -> list[int]:
    """s_0..s_top for the weights, by the coin-counting recurrence."""
    dp = [1] + [0] * top
    for a in weights:
        for t in range(a, top + 1):
            dp[t] += dp[t - a]
    return dp


def s123(d: int) -> int:
    """Closed form of s_d for P(1,2,3)."""
    return (d * d + 6 * d + 12) // 12


def _degrees(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def deficiency(weights, d: int) -> int:
    for lo, hi, value in DEFICIENCY_TABLES[weights]["runs"]:
        if lo <= d <= hi:
            return value
    return 0


@dataclass
class Outcome:
    """What checking one op found."""

    attempted: int
    failed: int
    stdout_bytes: int = 0
    digest_key: str | None = None
    digest: str | None = None


@dataclass
class Op:
    call: object          # () -> raw result
    check: object         # raw result -> Outcome
    argv: list | None = None
    count: int = 1        # ops this call answers (a scan call decides r_max pairs)


def _digest_key(argv, seed) -> str:
    return " ".join("<seed>" if a == str(seed) and argv[i - 1] == "--seed" else a
                    for i, a in enumerate(argv))


def _normalized_digest(text: str, seed) -> str:
    """sha256 of stdout with the seed masked, so digests hold across seeds."""
    s = re.escape(str(seed))
    text = re.sub(rf"^# seed: {s}$", "# seed: <seed>", text, flags=re.M)
    text = re.sub(rf'"seed": "{s}([|"])', r'"seed": "<seed>\1', text)
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(wpinterp, argv):
    """wpinterp.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = wpinterp.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(body))


def _cli_op(wpinterp, seed, argv, judge) -> Op:
    """An op that runs one command line; ``judge(stdout)`` says if the answer is right."""

    def check(raw):
        code, out, _ = raw
        try:
            ok = code == 0 and judge(out)
        except (KeyError, IndexError, ValueError, TypeError):  # malformed answer
            ok = False
        return Outcome(1, 0 if ok else 1, len(out.encode()),
                       _digest_key(argv, seed), _normalized_digest(out, seed))

    return Op(lambda: run_cli(wpinterp, argv), check, argv)


# -- scan ---------------------------------------------------------------------

def make_scan(wpinterp, seed: int, size: str, refs=None) -> list[Op]:
    """ah_profile_scan over (1,2,3) for r = 1..ceil(s_d/3); one op per (d, r) pair."""
    closed = (refs or {}).get("s_d", s123)
    ops = []
    for d in SIZES[size]["scan_degrees"]:
        r_max = -(-s123(d) // 3)

        def call(d=d, r_max=r_max):
            return wpinterp.interpolation.ah_profile_scan((1, 2, 3), d, r_max, seed=seed)

        def check(profiles, d=d, r_max=r_max):
            good = 0
            for r, prof in enumerate(profiles[:r_max], start=1):
                want = min(closed(d), 3 * r)
                if prof.r == r and prof.degree == d and prof.is_AH and prof.actual == want:
                    good += 1
            return Outcome(r_max, r_max - good)

        ops.append(Op(call, check, count=r_max))
    return ops


# -- proof --------------------------------------------------------------------

def make_proof(wpinterp, seed: int, size: str, refs=None) -> list[Op]:
    """Build and replay two certificates, then the closed-form verify suite."""
    sz = SIZES[size]
    want_checks = (refs or {}).get("verify_checks", 4)
    ops = []
    d, r = sz["trace_text"]
    ops.append(_cli_op(wpinterp, seed, [
        "terracini-trace", "--weights", "1,2,3", "--deg", str(d), "--points", str(r),
        "--seed", str(seed)], lambda out: out.rstrip("\n").endswith("\nchecker: accepted")))

    d, r = sz["trace_json"]

    def json_ok(out, d=d, r=r):
        doc = json.loads(out)
        return doc["ok"] is True and doc["d"] == d and doc["r"] == r and not doc["failures"]

    ops.append(_cli_op(wpinterp, seed, [
        "terracini-trace", "--weights", "1,2,3", "--deg", str(d), "--points", str(r),
        "--format", "json", "--seed", str(seed)], json_ok))

    def suite_ok(out):
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        return len(lines) == want_checks and all(line.startswith("PASS ") for line in lines)

    ops.append(_cli_op(wpinterp, seed, ["verify-suite"] + sz["verify_suite"], suite_ok))
    return ops


# -- tables -------------------------------------------------------------------

def make_tables(wpinterp, seed: int, size: str, refs=None) -> list[Op]:
    """Deficiency tables, a wide sextuple case, the exact field and small commands."""
    sz = SIZES[size]
    defic = (refs or {}).get("deficiency", deficiency)
    ops = []
    seeded = ["--format", "csv", "--seed", str(seed)]

    for weights, deg in sz["tables_degrees"].items():
        r = DEFICIENCY_TABLES[weights]["r"]
        argv = ["ah-check", "--weights", ",".join(map(str, weights)), "--deg", deg,
                "--points", str(r)] + seeded
        judge = _ah_judge(weights, _degrees(deg), r, 2, lambda d, w=weights: defic(w, d))
        ops.append(_cli_op(wpinterp, seed, argv, judge))

    deg = sz["sextuple_degrees"]
    argv = ["ah-check", "--weights", "1,1,1", "--deg", deg, "--points", "3", "--mult", "6"] + seeded
    ops.append(_cli_op(wpinterp, seed, argv,
                       _ah_judge((1, 1, 1), _degrees(deg), 3, 6, lambda d: 0)))

    d, r = sz["exact"]
    argv = ["ah-check", "--weights", "1,2,3", "--deg", str(d), "--points", str(r), "--exact"] + seeded
    ops.append(_cli_op(wpinterp, seed, argv,
                       _ah_judge((1, 2, 3), _degrees(str(d)), r, 2, lambda d: 0)))

    d, r = sz["secant"]
    argv = ["secant-dim", "--weights", "1,1,1", "--deg", str(d), "--rank", str(r)] + seeded
    ops.append(_cli_op(wpinterp, seed, argv, _secant_judge(d, r)))

    deg = sz["hilbert"]
    argv = ["hilbert", "--weights", "3,5,7", "--deg", deg, "--format", "csv"]
    ops.append(_cli_op(wpinterp, seed, argv, _hilbert_judge((3, 5, 7), _degrees(deg))))

    deg = sz["bound"]
    argv = ["bound-check", "--weights", "1,5,9", "--deg", deg, "--format", "csv"]
    ops.append(_cli_op(wpinterp, seed, argv, _bound_judge(5, 9, _degrees(deg))))
    return ops


def _ah_judge(weights, degrees, r, mult, want_deficiency):
    """ah-check rows: counts from the recurrence, deficiency from ``want_deficiency(d)``."""
    n = len(weights) - 1
    counts = monomial_counts(weights, degrees[-1])
    conditions = r * math.comb(n + mult - 1, n)
    want = []
    for d in degrees:
        expected = min(counts[d], conditions)
        lack = want_deficiency(d)
        want.append((r, d, counts[d], expected, expected - lack, lack,
                     "true" if lack == 0 else "false"))

    def judge(out):
        got = [(int(row["r"]), int(row["d"]), int(row["s_d"]), int(row["expected"]),
                int(row["actual"]), int(row["deficiency"]), row["is_AH"])
               for row in _csv_rows(out)]
        return got == want

    return judge


def _secant_judge(d, r):
    """Secant variety of the degree-d Veronese plane: r points fill it, no defect."""
    expected_dim = min(monomial_counts((1, 1, 1), d)[d], 3 * r) - 1

    def judge(out):
        (row,) = _csv_rows(out)
        got = (int(row["d"]), int(row["r"]), int(row["expected_dim"]),
               int(row["actual_dim"]), int(row["defect"]))
        return got == (d, r, expected_dim, expected_dim, 0)

    return judge


def _hilbert_judge(weights, degrees):
    counts = monomial_counts(weights, degrees[-1])
    want = [(d, counts[d]) for d in degrees]

    def judge(out):
        return [(int(row["d"]), int(row["s_d"])) for row in _csv_rows(out)] == want

    return judge


def _bound_judge(b, c, degrees):
    """floor(s_d/3) against s_{floor(d/2)} on P(1,b,c), asserted from 6c or 10c on."""
    counts = monomial_counts((1, b, c), degrees[-1])
    threshold = 6 * c if (2 * c) // b >= 5 else 10 * c
    want = []
    for d in degrees:
        lhs, rhs = counts[d] // 3, counts[d // 2]
        want.append((d, lhs, rhs, "true" if lhs >= rhs else "false",
                     "true" if d >= threshold else "false"))

    def judge(out):
        got = [(int(row["d"]), int(row["lhs"]), int(row["rhs"]), row["holds"], row["asserted"])
               for row in _csv_rows(out)]
        return got == want

    return judge


MAKERS = {"scan": make_scan, "proof": make_proof, "tables": make_tables}


def make(wpinterp, name: str, seed: int, size: str = "full", refs=None) -> list[Op]:
    return MAKERS[name](wpinterp, seed, size, refs)
