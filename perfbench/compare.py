#!/usr/bin/env python3
"""Compare two result sets of the wpinterp benchmark.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are JSON-lines files written by ``run.py --results``.  For
every workload x metric it prints each side's median and quartiles, the
share of (base, new) pairs the new side won, and a verdict:

improved   the new side wins at least 9/10 of the pairs (ties count for
           neither) and the medians differ by more than the base side's
           quartile distance;
worse      the new median is worse than the base median by more than the
           metric's bound in BENCHMARK.json;
unresolved either side's quartile distance, as a share of its median, is
           wider than the bound, and not every new run beats every base run;
no worse   otherwise.

Runs are paired by seed when both sides ran the same seeds, else in order.
Per-layer metrics have no bound, so any spread leaves them unresolved
unless they improved; counts that repeat exactly are compared as they are.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """(workload, metric) -> list of (seed, value), in file order."""
    runs = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            for name, metric in rec["result"]["metrics"].items():
                runs[rec["workload"], name].append((rec["seed"], metric["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def number(value) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


def pairs(base, new):
    base_seeds = [s for s, _ in base]
    new_seeds = [s for s, _ in new]
    if sorted(base_seeds) == sorted(new_seeds) and len(set(base_seeds)) == len(base_seeds):
        by_seed = dict(new)
        return [(v, by_seed[s]) for s, v in base]
    return [(b, n) for (_, b), (_, n) in zip(base, new)]


def verdict(base, new, lower_better: bool, bound: float):
    def better(a, b):
        return a < b if lower_better else a > b

    bq1, bmed, bq3 = quartiles([v for _, v in base])
    nq1, nmed, nq3 = quartiles([v for _, v in new])
    matched = pairs(base, new)
    wins = sum(1 for b, n in matched if better(n, b))
    if matched and wins >= 0.9 * len(matched) and better(nmed, bmed) and abs(nmed - bmed) > bq3 - bq1:
        return "improved", wins, len(matched)

    def share(spread, median):
        return spread / abs(median) if median else (0.0 if spread == 0 else float("inf"))

    widest = max(share(bq3 - bq1, bmed), share(nq3 - nq1, nmed))
    every = all(better(n, b) for _, n in new for _, b in base)
    if widest > bound and not every:
        return "unresolved", wins, len(matched)
    loss = (nmed - bmed) if lower_better else (bmed - nmed)
    if share(max(loss, 0.0), bmed) > bound:
        return "worse", wins, len(matched)
    return "no worse", wins, len(matched)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    fmt = "{:<8} {:<46} {:>34} {:>34} {:>7} {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "won", "verdict"))
    for key in sorted(set(base) & set(new), key=lambda k: (k[0], list(metrics).index(k[1]))):
        workload, name = key
        m = metrics[name]
        label, wins, total = verdict(base[key], new[key], m["better"] == "lower", m.get("bound", 0.0))
        cells = []
        for side in (base[key], new[key]):
            q1, med, q3 = (number(v) for v in quartiles([v for _, v in side]))
            cells.append(f"{med} [{q1}, {q3}] {m['unit']}")
        print(fmt.format(workload, name, cells[0], cells[1], f"{wins}/{total}", label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
