"""mhdlab benchmark: one workload, timed in fresh single processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mhdlab is imported from ./src.
Each repeat is a fresh ``python3 perfbench/child.py`` process with no pool
and with the BLAS/OpenMP pools held to one thread.

--trace 0 repeats the workload until the next repeat would end after S
seconds (at least once), adds set-up-only processes until there are
SETUP_SAMPLES set-up times, and reports the medians of the end-to-end
metrics.  --trace 1 runs the workload once untraced and twice traced; it reports the per-layer metrics (median of the two traced
repeats), requires their counts to agree exactly, and reports the tracing
overhead as traced minus untraced wall time.

Seed 0 runs the shipped inputs; other seeds jitter the vortex amplitudes by
at most 5% (mms1d has no free input and ignores the seed).  Every repeat's
outputs are checked, and all repeats of a run must produce identical
outputs.  A repeat that raises or fails a check counts as failed.

The last stdout line is the JSON result; the lines before it list every
metric with its unit, the machine record and any failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"
REQUIRED = (
    Path("src") / "mhdlab" / "__init__.py",
    Path("configs") / "vortex2d.ini",
    Path("tests") / "test_acceptance.py",
    Path("tests") / "data" / "tolerances.json",
)
WORKLOADS = ("vortex2d", "mms1d", "budget2d", "box3d")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from tracer import EXACT, UNITS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload: str, seed: int, outdir: Path, *, trace=False, setup_only=False) -> dict:
    """One child process; returns its result, or a failure record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--out", str(outdir)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S} s", "checks": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "error": tail[0], "checks": []}
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else float("nan")


def run_timed(workload: str, seed: int, seconds: float, outdir: Path):
    repeats = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        repeats.append(spawn(workload, seed, outdir / f"rep{len(repeats)}"))
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - rep_start) > seconds:
            break
    setups = [r["setup_s"] for r in repeats if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        probe = spawn(workload, seed, outdir / "setup", setup_only=True)
        if "setup_s" not in probe:
            break
        setups.append(probe["setup_s"])
    good = [r for r in repeats if r.get("ok") and "wall_s" in r]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in good]),
        "steps_per_s": median([r["steps"] / r["wall_s"] for r in good]),
        "node_updates_per_s": median([r["node_steps"] / r["wall_s"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
    }
    units = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "node_updates_per_s": "1/s", "peak_rss_mb": "MB"}
    return repeats, {k: (v, units[k]) for k, v in metrics.items()}


def run_traced(workload: str, seed: int, outdir: Path):
    plain = spawn(workload, seed, outdir / "plain")
    traced = [spawn(workload, seed, outdir / f"traced{i}", trace=True) for i in range(2)]
    repeats = [plain] + traced
    layers = [r["layers"] for r in traced if "layers" in r]
    if len(layers) == 2:
        for name in EXACT:
            if name in layers[0] and layers[0][name] != layers[1][name]:
                traced[1]["ok"] = False
                traced[1]["checks"].append(
                    (f"{name} repeats", False, f"{layers[0][name]} then {layers[1][name]}")
                )
    metrics = {}
    if layers:
        for name, unit in UNITS.items():
            if name in EXACT:
                metrics[name] = (layers[0][name], unit)
            elif name != "trace.overhead_s":
                metrics[name] = (median([m[name] for m in layers]), unit)
        if "wall_s" in plain:
            overhead = median([r["wall_s"] for r in traced if "wall_s" in r]) - plain["wall_s"]
            metrics["trace.overhead_s"] = (overhead, "s")
    return repeats, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not an mhdlab source checkout ({ROOT}): missing {', '.join(missing)}", file=sys.stderr)
        return 2

    outdir = SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    if args.trace:
        repeats, metrics = run_traced(args.workload, args.seed, outdir)
    else:
        repeats, metrics = run_timed(args.workload, args.seed, args.seconds, outdir)
    # the artifacts have been checked and hashed; keep only the spans
    if args.trace:
        for path in outdir.glob("*/*"):
            if path.name != "trace.npz":
                path.unlink()
    else:
        shutil.rmtree(outdir, ignore_errors=True)

    digests = {r.get("digest") for r in repeats if r.get("ok")}
    failed = 0
    for i, rep in enumerate(repeats):
        if not rep.get("ok") or len(digests) > 1:
            failed += 1
            problems = [c for c in rep.get("checks", []) if not c[1]]
            print(f"repeat {i} failed: {rep.get('error') or problems or 'outputs differ between repeats'}")
    if not metrics or any(math.isnan(value) for value, _ in metrics.values()):
        print("no repeat finished; nothing to report", file=sys.stderr)
        return 1

    machine = next((r["machine"] for r in repeats if "machine" in r), {})
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} repeats {len(repeats)} failed_fraction {failed / len(repeats):.3f}")
    for i, rep in enumerate(repeats):
        if "wall_s" in rep:
            print(f"  repeat {i}: setup_s {rep['setup_s']:.4f} wall_s {rep['wall_s']:.4f} steps {rep['steps']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
