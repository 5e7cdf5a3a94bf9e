"""End-to-end command-line checks against frozen output."""

import contextlib
import csv
import io
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from wpinterp import (
    Weights,
    bounds,
    build_certificate,
    certificate_from_json,
    check_certificate,
    cli,
    count_monomials,
)
from wpinterp.cli import (
    MAX_DEGREE,
    MAX_DEGREE_RANGE,
    MAX_TRACE_NODES,
    _parse_degrees,
    main,
)
from wpinterp.induction import _tree_size
from wpinterp.interpolation import PRIME_LOW
from wpinterp.linalg import _MR_EXACT_BELOW, _prime_below

WARN_23 = (
    "warning: weights (2, 3) are not well formed; "
    "counts are still exact but geometric readings may differ\n"
)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_hilbert_text(capsys):
    code, out, err = run(capsys, ["hilbert", "--weights", "2,3", "--deg", "0..6"])
    assert code == 0
    assert err == WARN_23
    lines = out.splitlines()
    assert lines[0] == "# wpinterp 0.1.0"
    assert lines[1] == "# command: hilbert"
    assert lines[2] == "# weights: 2,3"
    assert lines[3].split() == ["d", "s_d", "source"]
    values = [line.split() for line in lines[4:]]
    assert [v[1] for v in values] == ["1", "0", "1", "1", "1", "1", "2"]
    assert all(v[2] == "closed-form" for v in values)


def test_hilbert_falls_back_to_dp(capsys):
    code, out, err = run(
        capsys, ["hilbert", "--weights", "2,4", "--deg", "0..8", "--format", "csv"]
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "d,s_d,source"
    assert lines[1] == "0,1,dp"
    assert lines[-1] == "8,3,dp"


def test_hilbert_json_envelope(capsys):
    code, out, _ = run(
        capsys, ["hilbert", "--weights", "1,2,3", "--deg", "5", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": "wpinterp/hilbert/v1",
        "version": "0.1.0",
        "command": "hilbert",
        "weights": "1,2,3",
        "rows": [{"d": 5, "s_d": 5, "source": "closed-form"}],
    }


def test_ah_check_csv_quotes_weights(capsys):
    code, out, err = run(
        capsys,
        ["ah-check", "--weights", "1,2,3", "--deg", "6..8", "--points", "2",
         "--format", "csv"],
    )
    assert code == 0
    assert err == ""
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "weights,r,d,s_d,expected,actual,deficiency,is_AH,trials"
    assert lines[1] == '"1,2,3",2,6,7,6,6,0,true,1'
    assert all(line.startswith('"1,2,3",2,') for line in lines[1:])


def test_ah_check_exact_mode(capsys):
    code, out, _ = run(
        capsys,
        ["ah-check", "--weights", "1,2,3", "--deg", "6", "--points", "2", "--exact"],
    )
    assert code == 0
    assert "# field: exact" in out.splitlines()
    row = out.splitlines()[-1].split()
    assert row == ["1,2,3", "2", "6", "7", "6", "6", "0", "true", "1"]


def test_point_ideal_output(capsys):
    code, out, _ = run(
        capsys, ["point-ideal", "--weights", "1,2,3", "--point", "0,1,1"]
    )
    assert code == 0
    assert "point: [0 : 1 : 1]" in out
    assert "generators (2):" in out
    assert "  z   (degree 1)" in out
    assert "  u^3 - v^2   (degree 6)" in out


def test_herzog_output(capsys):
    code, out, _ = run(capsys, ["herzog", "--weights", "3,4,5"])
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == [
        "r: 3,2,2",
        "k: 1,1,2",
        "g: 1,1,1",
        "hc: false",
        "relations:",
        "  3*3 = 1*4 + 1*5",
        "  2*4 = 1*3 + 1*5",
        "  2*5 = 2*3 + 1*4",
    ]


def test_herzog_large_weights_answer_or_exceed_the_search_bound(capsys):
    code, out, _ = run(capsys, ["herzog", "--weights", "99991,100003,100019"])
    assert code == 0
    assert "  14289*99991 = 1*100003 + 14284*100019" in out
    code, out, err = run(capsys, ["herzog", "--weights", "1000000007,1000000009,1000000021"])
    assert code == 2
    assert out == ""
    assert "the search bound was exceeded" in err


def test_secant_dim_output(capsys):
    code, out, _ = run(
        capsys,
        ["secant-dim", "--weights", "1,2,3", "--deg", "8", "--rank", "3",
         "--trials", "1"],
    )
    assert code == 0
    assert out.splitlines()[-1].split() == ["8", "3", "8", "8", "0", "1"]


def test_bound_check_json(capsys):
    code, out, _ = run(
        capsys,
        ["bound-check", "--weights", "1,2,3", "--deg", "28..32", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "wpinterp/bound-check/v1"
    assert payload["threshold"] == 30
    assert payload["ratio_ok"] is False
    row30 = next(r for r in payload["rows"] if r["d"] == 30)
    assert row30 == {"d": 30, "lhs": 30, "rhs": 27, "holds": True, "asserted": True}


def test_trace_reports_missing_candidate(capsys):
    code, out, _ = run(
        capsys, ["terracini-trace", "--weights", "1,1,1", "--deg", "4", "--points", "5"]
    )
    assert code == 1
    assert out.splitlines()[-1] == "FAIL d=4 r=5: no specialization candidate"


def test_trace_builds_and_checks_certificate(capsys):
    code, out, _ = run(
        capsys, ["terracini-trace", "--weights", "1,2,3", "--deg", "14", "--points", "8"]
    )
    assert code == 0
    assert "terracini d=14 r=8: q=4 into the weight-3 hyperplane" in out
    assert out.splitlines()[-1] == "checker: accepted"


def test_trace_json_certificate_roundtrips(capsys):
    code, out, _ = run(
        capsys,
        ["terracini-trace", "--weights", "1,2,3", "--deg", "14", "--points", "8",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "wpinterp/terracini-trace/v1"
    assert payload["ok"] is True
    wrapper = {"schema": "wpinterp/certificate/v1", "root": payload["certificate"]}
    cert = certificate_from_json(json.dumps(wrapper))
    assert check_certificate(cert)


def test_trace_lists_candidates_for_other_weights(capsys):
    code, out, _ = run(
        capsys, ["terracini-trace", "--weights", "1,1,2", "--deg", "6", "--points", "3"]
    )
    assert code == 0
    assert "candidates for d=6, r=3:" in out
    assert "weight 2 (index 2), q=3, independent" in out
    assert "certificate construction is implemented for weights (1, 2, 3) only" in out


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        ["hilbert", "--weights", "1,2,3", "--deg", "0..4", "--format", "csv",
         "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "d,s_d,source" in text
    assert "4,4,closed-form" in text


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_trace_output_file_matches_stdout(tmp_path, capsys, fmt):
    argv = ["terracini-trace", "--weights", "1,2,3", "--deg", "30", "--points", "31",
            "--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.endswith("\n")
    target = tmp_path / f"trace.{fmt}"
    code, empty, _ = run(capsys, argv + ["--output", str(target)])
    assert code == 0 and empty == ""
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("argv", [
    ["hilbert", "--weights", "3,5,7", "--deg", "0..300"],
    ["bound-check", "--weights", "1,5,9", "--deg", "0..300"],
])
def test_table_output_file_matches_stdout(tmp_path, capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(out.splitlines()) > 300
    target = tmp_path / f"table.{fmt}"
    code, empty, _ = run(capsys, argv + ["--output", str(target)])
    assert code == 0 and empty == ""
    assert target.read_bytes() == out.encode()


def test_csv_rows_are_written_before_the_last_record_is_made(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(cli.sys, "stdout", out)
    written_before_last = []

    def records():
        for d in range(5000):
            if d == 4999:
                written_before_last.append(out.getvalue())
            yield {"d": d, "s_d": 2 * d}

    args = SimpleNamespace(format="csv", output=None)
    cli._render(args, {"version": "0.1.0", "command": "hilbert"}, records=records())
    lines = ["# wpinterp 0.1.0", "# command: hilbert", "d,s_d"]
    lines += [f"{d},{2 * d}" for d in range(5000)]
    assert out.getvalue() == "\n".join(lines) + "\n"
    # rows go out in batches of a fixed size, so all but the last batch is written
    (early,) = written_before_last
    assert early.startswith("# wpinterp 0.1.0\n# command: hilbert\nd,s_d\n0,0\n")
    assert len(early.splitlines()) >= 4000


@pytest.mark.parametrize("argv", [
    ["terracini-trace", "--weights", "1,2,3", "--deg", "50", "--points", "78"],
    ["bound-check", "--weights", "1,5,9", "--deg", "0..5000"],
])
def test_csv_tables_stream_in_bounded_memory(tmp_path, argv):
    """The csv is written as it is made: 11,950 trace rows or 5,001 bound rows in < 2 MB."""
    argv = argv + ["--format", "csv", "--output", str(tmp_path / "table.csv")]
    assert main(argv) == 0  # fills the monomial count tables first
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "table.csv").read_text().splitlines()) > 5000
    assert peak < 2_000_000


@pytest.mark.parametrize("argv, bound", [
    (["bound-check", "--weights", "1,5,9", "--deg", "0..5000"], 2_000_000),
    (["hilbert", "--weights", "3,5,7", "--deg", "0..5000"], 1_000_000),
])
def test_json_tables_stream_in_bounded_memory(tmp_path, argv, bound):
    """JSON records are encoded and written in small batches, so 5,001 rows stay under the bound."""
    out = tmp_path / "table.json"
    argv = argv + ["--format", "json", "--output", str(out)]
    assert main(argv) == 0  # fills the monomial count tables first
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(out.read_text())["rows"]) == 5001
    assert peak < bound


def test_repeat_runs_are_identical(capsys):
    argv = ["ah-check", "--weights", "1,2,3", "--deg", "5..9", "--points", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_bad_weights_exit_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--weights", "0,2", "--deg", "3"])
    assert exc.value.code == 2


def test_mult_points_disagreement_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ah-check", "--weights", "1,2,3", "--deg", "6", "--points", "2",
              "--mult", "2,2,2"])
    assert exc.value.code == 2


def test_huge_degree_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--weights", "1,2,3", "--deg", "0..1000000000"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"more than {MAX_DEGREE_RANGE} degrees" in err
    widest = _parse_degrees(f"5..{MAX_DEGREE_RANGE + 4}")
    assert len(widest) == MAX_DEGREE_RANGE
    assert widest[0] == 5 and widest[-1] == MAX_DEGREE_RANGE + 4


@pytest.mark.parametrize("deg", ["1000000000000", f"{MAX_DEGREE}..{MAX_DEGREE + 1}"])
def test_degree_above_cap_is_usage_error(capsys, deg):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--weights", "3,5,7", "--deg", deg])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"above {MAX_DEGREE}" in err
    assert list(_parse_degrees(str(MAX_DEGREE))) == [MAX_DEGREE]


def test_degree_cap_below_trial_primes():
    # A trial prime must exceed the degree; below PRIME_LOW the range stays whole.
    assert MAX_DEGREE < PRIME_LOW


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_trace_too_large_to_print_is_usage_error(capsys, fmt):
    with pytest.raises(SystemExit) as exc:
        main(["terracini-trace", "--weights", "1,2,3", "--deg", "200", "--points", "1137",
              "--format", fmt])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"more than {MAX_TRACE_NODES}" in err
    assert "build_certificate" in err and "check_certificate" in err


def test_trace_budget_admits_degree_70_and_rejects_80():
    w = Weights((1, 2, 3))
    assert _tree_size(build_certificate(w, 70, 148)) == 381_781 <= MAX_TRACE_NODES
    assert _tree_size(build_certificate(w, 80, 191)) == 2_886_961 > MAX_TRACE_NODES


@pytest.mark.parametrize("deg, points", [(1001, 1), (1400, 54678), (4000, 444667)])
def test_trace_past_the_certificate_degree_cap_is_usage_error(capsys, deg, points):
    code, out, err = run(
        capsys, ["terracini-trace", "--weights", "1,2,3", "--deg", str(deg), "--points", str(points)]
    )
    assert code == 2 and out == ""
    assert err == (
        f"error: certificates are built up to degree 1000, not {deg}:"
        " the builder recurses once per induction step\n"
    )


TEXT_TRACE_KINDS = {"terracini": "terracini", "trace": "chandler-leaf", "base": "base"}


@pytest.mark.parametrize("d", range(6, 41))
def test_text_and_csv_traces_print_the_same_tree(capsys, d):
    w = Weights((1, 2, 3))
    s = count_monomials(w, d)
    for r in sorted({s // 3, -(-s // 3)}):
        size = _tree_size(build_certificate(w, d, r))
        argv = ["terracini-trace", "--weights", "1,2,3", "--deg", str(d), "--points", str(r)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        text = [line for line in out.splitlines() if not line.startswith("#")]
        assert text.pop() == "checker: accepted"
        nodes = []
        for line in text:
            body = line.lstrip(" ")
            if body.startswith("premise "):
                continue
            word, head = body.split(":")[0].split(" ", 1)
            fields = dict(field.split("=") for field in head.split())
            depth = (len(line) - len(body)) // 2
            nodes.append((depth, TEXT_TRACE_KINDS[word], fields["d"], fields["r"]))
        assert len(nodes) == size

        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
        assert rows[0] == ["path", "kind", "d", "r", "weight", "q", "direction"]
        assert rows[-1] == ["check", "", "", "", "", "", "accepted"]
        assert len(rows) == 1 + size + 1
        assert [(path.count("/"), kind, d_, r_) for path, kind, d_, r_, *_ in rows[1:-1]] == nodes


@pytest.mark.parametrize("argv", [
    ["ah-check", "--weights", "1,1,1", "--deg", "3", "--points", "10", "--prime", "7"],
    ["secant-dim", "--weights", "1,1,1", "--deg", "3", "--rank", "10", "--prime", "7"],
])
def test_more_points_than_the_prime_allows_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "only 6 are available" in err


def test_negative_points_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ah-check", "--weights", "1,2,3", "--deg", "6", "--points", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--points must be nonnegative" in err


@pytest.mark.parametrize("weights", ["1,2,3", "1,1,2", "1,1,1"])
def test_trace_negative_points_is_usage_error(capsys, weights):
    with pytest.raises(SystemExit) as exc:
        main(["terracini-trace", "--weights", weights, "--deg", "6", "--points", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--points must be nonnegative" in err


@pytest.mark.parametrize("weights", ["1,2,3", "1,1,2"])
@pytest.mark.parametrize("field", [["--prime", "8"], ["--prime", "1000003"], ["--exact"]])
def test_trace_field_options_are_usage_errors(capsys, weights, field):
    # base ranks always come from fresh random primes, so a field option would be mislabelled
    with pytest.raises(SystemExit) as exc:
        main(["terracini-trace", "--weights", weights, "--deg", "14", "--points", "8", *field])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--prime and --exact are not supported" in err


def test_hilbert_without_closed_form_is_dp_at_every_degree(capsys):
    code, out, _ = run(
        capsys, ["hilbert", "--weights", "2,4", "--deg=-2..1", "--format", "csv"]
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines == ["d,s_d,source", "-2,0,dp", "-1,0,dp", "0,1,dp", "1,0,dp"]
    code, out, _ = run(
        capsys, ["hilbert", "--weights", "1,2,3", "--deg=-2..0", "--format", "csv"]
    )
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines == ["d,s_d,source", "-2,0,closed-form", "-1,0,closed-form", "0,1,closed-form"]


def test_trace_candidates_csv_is_a_table(capsys):
    code, out, _ = run(
        capsys,
        ["terracini-trace", "--weights", "1,1,2", "--deg", "6", "--points", "3",
         "--format", "csv"],
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "index,weight,q,direction,trace_ok"
    assert "2,2,3,independent,true" in lines
    assert len(lines) == 8


def test_secant_dim_zero_trials_is_an_error(capsys):
    code, out, err = run(
        capsys,
        ["secant-dim", "--weights", "1,1,1", "--deg", "2", "--rank", "2", "--trials", "0"],
    )
    assert code == 2
    assert out == ""
    assert err == "error: trials must be positive\n"


def test_small_prime_is_reported(capsys):
    code, _, err = run(
        capsys,
        ["ah-check", "--weights", "1,2", "--deg", "10", "--points", "2",
         "--prime", "7"],
    )
    assert code == 2
    assert "error: prime 7 does not exceed the degree 10" in err


def test_prime_past_the_primality_bound_is_usage_error(capsys):
    # psi_12 passes Miller-Rabin with every base the test uses.
    assert _MR_EXACT_BELOW == 399165290221 * 798330580441
    argv = ["ah-check", "--weights", "1,2,3", "--deg", "4", "--points", "2", "--prime"]
    code, out, err = run(capsys, argv + [str(_MR_EXACT_BELOW)])
    assert code == 2
    assert out == ""
    assert f"field must be below {_MR_EXACT_BELOW}" in err
    code, out, _ = run(capsys, argv + [str(_prime_below(_MR_EXACT_BELOW))])
    assert code == 0
    assert out.splitlines()[-1].split() == ["1,2,3", "2", "4", "4", "4", "4", "0", "true", "1"]


def test_zero_point_is_reported(capsys):
    code, _, err = run(
        capsys, ["point-ideal", "--weights", "1,2,3", "--point", "0,0,0"]
    )
    assert code == 2
    assert err == "error: all coordinates vanish\n"


def test_secant_dim_degree_too_small(capsys):
    code, _, err = run(
        capsys, ["secant-dim", "--weights", "1,2,3", "--deg", "2", "--rank", "2"]
    )
    assert code == 2
    assert "below the largest weight" in err


def test_verify_suite_small(capsys):
    code, out, _ = run(capsys, ["verify-suite", "--max-deg", "3000", "--max-bc", "4"])
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(body) == 4
    assert all(line.startswith("PASS ") for line in body)


@pytest.mark.parametrize("limits,message", [
    (["--max-deg", "5", "--max-bc", "0"], "--max-deg must be at least 6"),
    (["--max-deg", "-3", "--max-bc", "-1"], "--max-deg must be at least 6"),
    (["--max-deg", "6", "--max-bc", "0"], "--max-bc must be at least 1"),
])
def test_verify_suite_degenerate_limits_are_usage_errors(capsys, limits, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify-suite", *limits])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_verify_suite_triangle_audit_names_its_first_failure(capsys, monkeypatch):
    def failing_at_two_points(b, c, d):
        return SimpleNamespace(holds=(b, c, d) not in {(1, 2, 5), (2, 3, 9)})

    monkeypatch.setattr(cli, "triangle_lattice_check", failing_at_two_points)
    code, out, _ = run(capsys, ["verify-suite", "--max-deg", "100", "--max-bc", "3"])
    assert code == 1
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body[-1] == "FAIL triangle-decomposition: decomposition audit fails at b=1, c=2, d=5"


def test_asserted_failures_print_fail(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "_proved_from", lambda b, c: 2 * c)
    code, out, _ = run(capsys, ["bound-check", "--weights", "1,2,3", "--deg", "0..40"])
    assert code == 1
    assert out.splitlines()[-1] == (
        "FAIL: floor(s_6/3) = 2 < 3 = s_3 for (1,2,3) at asserted degree 6 >= 6"
    )
    code, out, _ = run(capsys, ["verify-suite", "--max-bc", "3"])
    assert code == 1
    assert out.splitlines()[-2:] == [
        "FAIL bound-inequality: floor(s_2/3) = 2 < 3 = s_1 for (1,1,1) at asserted degree 2 >= 2",
        "FAIL triangle-decomposition: decomposition audit fails at b=1, c=1, d=2",
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "wpinterp 0.1.0"


# Golden outputs: one stdout file per command line under tests/golden/, plus
# the exit codes in tests/golden/exit_codes.json.
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "hilbert": ["hilbert", "--weights", "1,2,3", "--deg", "0..12"],
    "ah-check": ["ah-check", "--weights", "1,5,9", "--deg", "19..23", "--points", "3",
                 "--seed", "1"],
    "ah-check-exact": ["ah-check", "--weights", "1,2,3", "--deg", "6..8", "--points", "2",
                       "--exact"],
    "ah-check-exact-deficient": ["ah-check", "--weights", "1,1,1", "--deg", "2..4",
                                 "--points", "5", "--exact"],
    "ah-check-prime": ["ah-check", "--weights", "1,2,3", "--deg", "6..8", "--points", "3",
                       "--prime", "1000003"],
    "terracini-trace": ["terracini-trace", "--weights", "1,2,3", "--deg", "14",
                        "--points", "8"],
    "terracini-trace-candidates": ["terracini-trace", "--weights", "1,1,2", "--deg", "6",
                                   "--points", "3"],
    "terracini-trace-fail": ["terracini-trace", "--weights", "1,1,1", "--deg", "4",
                             "--points", "5"],
    "point-ideal": ["point-ideal", "--weights", "1,2,3", "--point", "1,1/2,3"],
    "herzog": ["herzog", "--weights", "3,4,5"],
    "secant-dim": ["secant-dim", "--weights", "1,2,3", "--deg", "8", "--rank", "3"],
    "bound-check": ["bound-check", "--weights", "1,2,3", "--deg", "28..32"],
    "verify-suite": ["verify-suite", "--max-deg", "3000", "--max-bc", "4"],
}
GOLDEN_CASES = [
    (f"{name}.{fmt}", argv + ["--format", fmt])
    for name, argv in GOLDEN_COMMANDS.items()
    for fmt in ("text", "csv", "json")
]


def regenerate_goldens():
    """Rewrite every golden file from the current code."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    for name, argv in GOLDEN_CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = main(argv)
        (GOLDEN_DIR / name).write_text(buf.getvalue())
    (GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_golden_output(capsys, name, argv):
    """stdout and exit code match tests/golden/ byte for byte.

    Regenerate every golden file with: PYTHONPATH=src python tests/test_cli.py
    """
    code, out, _ = run(capsys, argv)
    codes = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":
    regenerate_goldens()
