"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

It runs every workload end to end through run.py, checks that every metric
BENCHMARK.json declares is printed with its unit, that layer counts repeat
for one seed and move for another, that a corrupted reference answer is
caught, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), "--size", "tiny", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_printed(workload):
    res = result("--workload", workload, "--seed", "1", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    return {w: result("--workload", w, "--seed", "1", "--trace", "1") for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_all_printed(traced, workload):
    res = traced[workload]
    assert res["correct"] is True
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("per_layer")
    assert res["metrics"]["fail_ratio"]["value"] == 0
    assert res["metrics"]["cli.stdout_digest_mismatches"]["value"] == 0


def test_layer_counts_repeat_for_a_seed_and_move_for_another():
    counts = {}
    for seed in (1, 1, 2):
        res = result("--workload", "proof", "--seed", str(seed), "--trace", "1")
        counts.setdefault(seed, []).append(
            {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"})
    first, again = counts[1]
    assert first == again
    assert first["induction.cert_nodes_total"] > first["induction.cert_nodes_distinct"] > 0
    assert first["linalg.elim_cells"] > 0
    # The seed picks the trial primes, so the prime search takes other steps.
    assert counts[2][0]["linalg.is_probable_prime.calls"] != first["linalg.is_probable_prime.calls"]


@pytest.fixture(scope="module")
def modules():
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    return run, workloads, run._import_wpinterp()


@pytest.mark.parametrize("workload, corrupt", [
    ("scan", {"s_d": lambda d: (d * d + 6 * d + 12) // 12 - 1}),
    ("proof", {"verify_checks": 5}),
    ("tables", {"deficiency": lambda w, d: 1 if d == 21 and w == (1, 5, 9) else 0}),
])
def test_corrupted_reference_is_caught(modules, workload, corrupt):
    run, workloads, wpinterp = modules
    sample = run.run_pass(workloads.make(wpinterp, workload, 1, "tiny", refs=corrupt), {})
    assert sample["failed"] > 0
    assert sample["failed"] / sample["attempted"] > 0
    clean = run.run_pass(workloads.make(wpinterp, workload, 1, "tiny"), {})
    assert clean["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = bench("--workload", "scan", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
