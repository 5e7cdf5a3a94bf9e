#!/usr/bin/env python3
"""wpinterp benchmark: one command, stdlib only, one process, one thread.

    python3 perfbench/run.py --workload scan|proof|tables --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--results FILE]

Run it from the root of a source checkout; wpinterp is imported from
``src/``, never from an installed copy.  It repeats passes over the
workload until S seconds have gone by, checks every answer, and prints as
its last stdout line one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds the environment record and
the per-pass samples.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates an untraced pass with a traced one and reports the per-layer
metrics; the spans of the last traced pass are written to
perfbench/out/trace-<workload>-seed<N>.jsonl.  --results appends the whole
record to FILE for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES_PER_PASS = 3  # spread over the run, so set-up sees the same machine as the passes


def _import_wpinterp():
    """wpinterp from this checkout's src/, or exit 2 when the checkout has none."""
    if not (SRC / "wpinterp" / "__init__.py").is_file():
        print(f"perfbench: no wpinterp sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import wpinterp
    import wpinterp.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(wpinterp.__file__).resolve().parent != SRC / "wpinterp":
        print(f"perfbench: imported {wpinterp.__file__}, not the checkout's copy", file=sys.stderr)
        sys.exit(2)
    return wpinterp


def _setup_seconds(args) -> list[float]:
    """Wall times of fresh processes that start, import wpinterp and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES_PER_PASS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            print("perfbench: set-up probe failed", file=sys.stderr)
            sys.exit(2)
    return samples


def run_pass(ops, digests, tracer=None) -> dict:
    """One pass over every op.  Only the calls are timed, not the checks."""
    sample = {"wall_s": 0.0, "cpu_s": 0.0, "attempted": 0, "failed": 0,
              "stdout_bytes": 0, "digest_mismatches": 0}
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw = op.call()
        except Exception:  # an op that raises counts as failed; the run goes on
            raw = None
            traceback.print_exc()
        t1, c1 = time.perf_counter(), time.process_time()
        sample["wall_s"] += t1 - t0
        sample["cpu_s"] += c1 - c0
        out = op.check(raw) if raw is not None else workloads.Outcome(op.count, op.count)
        sample["attempted"] += out.attempted
        sample["failed"] += out.failed
        sample["stdout_bytes"] += out.stdout_bytes
        if out.digest_key is not None and digests.get(out.digest_key) != out.digest:
            sample["digest_mismatches"] += 1
    if tracer is not None:
        tracer.op_id = None
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return sample


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed, load_before, load_after) -> dict:
    nproc = len(os.sched_getaffinity(0))
    src = hashlib.sha256()
    for path in sorted((SRC / "wpinterp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "wpinterp_commit": _git_commit(),
        "wpinterp_src_sha256": src.hexdigest(),
        "seed": seed,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
        "warnings": [],
    }
    if max(load_before, load_after) > nproc - 1:
        env["warnings"].append(
            f"1-min load {max(load_before, load_after):.2f} exceeds nproc - 1 = {nproc - 1}; "
            "timings are contended")
    return env


def measure(args, wpinterp, digests):
    """Passes until args.seconds have gone by, with set-up probes between untraced passes."""
    ops = workloads.make(wpinterp, args.workload, args.seed, args.size)
    plain, traced, layers, setup = [], [], [], []
    tracer = Tracer(wpinterp) if args.trace else None
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(ops, digests))
        if tracer is None:
            setup.extend(_setup_seconds(args))
        else:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(ops, digests, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
    return plain, traced, layers, setup, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.MAKERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--results", help="append the full run record to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the stdout digests of the current code (seed 0, both sizes)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_digests:
        parser.error("--workload is required")

    load_before = os.getloadavg()[0]
    wpinterp = _import_wpinterp()
    if args.setup_only:
        workloads.make(wpinterp, args.workload, args.seed, args.size)
        return 0
    if args.write_digests:
        return write_digests(wpinterp)

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    plain, traced, layers, setup, tracer = measure(args, wpinterp, digests)
    env = environment(args.seed, load_before, os.getloadavg()[0])
    for warning in env["warnings"]:
        print(f"perfbench: warning: {warning}", file=sys.stderr)

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if args.trace:
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        values["fail_ratio"] = failed / attempted
        values["cli.stdout_bytes"] = _median(traced, "stdout_bytes")
        values["cli.stdout_digest_mismatches"] = max(s["digest_mismatches"] for s in samples)
        values["trace.wall_s"] = _median(traced, "wall_s")
        values["trace.overhead_ratio"] = values["trace.wall_s"] / _median(plain, "wall_s")
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), span))))
                fh.write("\n")
        declared = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "ops_per_s": statistics.median(s["attempted"] / s["wall_s"] for s in plain),
            # After the first pass, as for a user's process that runs the commands
            # once; later passes add allocator fragmentation that differs run to run.
            "peak_rss_mb": plain[0]["peak_rss_mb"],
        }
        declared = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[declared]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds, "env": env,
              "setup_s_samples": setup, "passes": plain, "traced_passes": traced}
    print(json.dumps(record))
    if args.results:
        with open(args.results, "a") as fh:
            fh.write(json.dumps(dict(record, result=result)) + "\n")
    print(json.dumps(result))
    return 0


def write_digests(wpinterp) -> int:
    digests = {}
    for size in ("full", "tiny"):
        for name in workloads.MAKERS:
            for op in workloads.make(wpinterp, name, 0, size):
                if op.argv is not None:
                    out = op.check(op.call())
                    digests[out.digest_key] = out.digest
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
