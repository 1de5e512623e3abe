"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds S] [--seed N]

For every workload in BENCHMARK.json it makes one timed run (--trace 0) and
one traced run (--trace 1) and checks that:

- every metric BENCHMARK.json declares is emitted, with the declared unit;
- no repeat failed.  A traced run already fails when its two traced repeats
  disagree on any count (solver.step.calls, fieldops.d1.calls_per_rhs,
  projection.project.iters_per_call, ...), so this also checks that the
  counts repeat exactly;
- the traced shares match the roles the workloads were chosen for: the
  projector ahead of rhs and diagnostics on vortex2d and box3d, rhs ahead of
  the others on mms1d, diagnostics at or above 40% on budget2d.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARES = ("projection.project.share", "solver.rhs.share", "diagnostics.share")
# workload -> (share that must lead, minimum value of that share)
ROLES = {
    "vortex2d": ("projection.project.share", 0.0),
    "box3d": ("projection.project.share", 0.0),
    "mms1d": ("solver.rhs.share", 0.0),
    "budget2d": ("diagnostics.share", 0.40),
}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = bench(workload, args.seed, args.seconds, trace)
            metrics = result["metrics"]
            tag = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} repeats failed")
            for metric in declared:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{tag}: {metric['name']} not emitted")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{tag}: {metric['name']} in {got['unit']}, declared {metric['unit']}")
            if trace and workload in ROLES:
                lead, floor = ROLES[workload]
                shares = {n: metrics[n]["value"] for n in SHARES if n in metrics}
                line = ", ".join(f"{n} {v:.3f}" for n, v in shares.items())
                print(f"{workload}: {line}")
                if max(shares, key=shares.get) != lead or shares[lead] < floor:
                    problems.append(f"{workload}: expected {lead} to lead (>= {floor}); got {line}")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
