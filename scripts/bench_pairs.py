#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against this one.

    python3 scripts/bench_pairs.py PARENT_DIR --workload W [W ...] [--pairs 10] [--seconds 30]

For each workload W in turn (``all`` names the four), runs
``perfbench/run.py --workload W --seconds S --trace 0`` alternately in
PARENT_DIR (a checkout of the parent commit, for example one unpacked from
``git archive``) and in this checkout, switching which of the two runs
first from pair to pair.  The metrics are the end-to-end metrics of this
checkout's BENCHMARK.json, each with its direction (``better``) and its
no-regression bound (``bound``, a fraction of the parent's median); the
file is only read.  For each workload it prints each pair's values, then
per metric each side's median and quartiles, how many pairs the change wins (ties count
for neither side) and the parent's interquartile range, and two verdicts:

* gain: holds when the change wins at least nine pairs in ten and the
  medians differ by more than the parent's interquartile range;
* no regression: "within bound" when the change's median is worse than the
  parent's by no more than the bound, "worse beyond bound" when it is, and
  "unresolved" when the parent's interquartile range exceeds the bound,
  unless every change run is better than every parent run.

Exits 1 when any run reports "correct": false or gives no result, or
when a workload has fewer than two complete pairs.  Stale
bytecode in one tree alone moves setup_s, so it warns when only one tree
has src/mhdlab/__pycache__.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("vortex2d", "mms1d", "budget2d", "box3d")


def end_to_end_metrics() -> dict:
    """{name: (better, bound)} of BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def run_once(tree: Path, workload: str, seconds: float) -> dict | None:
    """The JSON result of one benchmark run in `tree`, None if it gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  no result from {tree}: {proc.stderr.strip()[-300:]}", file=sys.stderr)
        return None


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(trees: dict, workload: str, pairs: int, seconds: float, metrics: dict) -> int:
    """Run the pairs of one workload and print them and the verdicts; the
    number of runs that failed or gave no result, or 1 when fewer than two
    pairs completed."""
    values = {side: {m: [] for m in metrics} for side in trees}
    failed = 0
    print(f"workload {workload}, {pairs} pairs of {seconds:g} s runs")
    print("pair first  " + "  ".join(f"{m:>29s}" for m in metrics))
    print("            " + "  ".join(f"{'parent':>14s} {'change':>14s}" for _ in metrics))
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            result = run_once(trees[side], workload, seconds)
            if result is None or not result.get("correct"):
                failed += 1
                print(f"  pair {i}: the {side} run is not correct", file=sys.stderr)
            if result is not None:
                results[side] = result["metrics"]
        if len(results) < 2:
            continue
        for side in trees:
            for m in metrics:
                values[side][m].append(results[side][m]["value"])
        cells = "  ".join(
            f"{results['parent'][m]['value']:14.6g} {results['change'][m]['value']:14.6g}" for m in metrics
        )
        print(f"{i:4d} {order[0]:6s} {cells}")

    done = len(values["parent"][next(iter(metrics))])
    if done < 2:
        print(f"{workload}: fewer than two complete pairs; nothing to compare", file=sys.stderr)
        return max(failed, 1)
    print()
    for m, (better, bound) in metrics.items():
        # sign = +1 where lower is better: sign * (change - parent) > 0 is worse
        sign = 1.0 if better == "lower" else -1.0
        parent, change = values["parent"][m], values["change"][m]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        iqr = p3 - p1
        holds = wins >= 0.9 * done and sign * (pm - cm) > iqr
        worse = sign * (cm - pm) / abs(pm)
        if max(sign * c for c in change) < min(sign * p for p in parent):
            verdict = "within bound"
        elif iqr > bound * abs(pm):
            verdict = "unresolved"
        else:
            verdict = "worse beyond bound" if worse > bound else "within bound"
        print(
            f"{workload} {m} ({better} is better, bound {100.0 * bound:g}%): "
            f"parent median {pm:.6g} (quartiles {p1:.6g}, {p3:.6g}); "
            f"change median {cm:.6g} (quartiles {c1:.6g}, {c3:.6g}); "
            f"change {100.0 * (cm - pm) / pm:+.1f}%, wins {wins}/{done}, "
            f"parent IQR {iqr:.6g} ({100.0 * iqr / abs(pm):.1f}%); "
            f"gain {'holds' if holds else 'does not hold'}; no regression: {verdict}"
        )
    print()
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True, nargs="+", choices=WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    workloads = WORKLOADS if "all" in args.workload else tuple(dict.fromkeys(args.workload))
    trees = {"parent": args.parent.resolve(), "change": HERE}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{side} tree {tree} has no perfbench/run.py")
    cached = {side for side, tree in trees.items() if (tree / "src" / "mhdlab" / "__pycache__").is_dir()}
    if len(cached) == 1:
        print(
            f"warning: only the {cached.pop()} tree has src/mhdlab/__pycache__; "
            "setup_s compares unlike bytecode states",
            file=sys.stderr,
        )

    metrics = end_to_end_metrics()
    failed = sum(compare(trees, w, args.pairs, args.seconds, metrics) for w in workloads)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
