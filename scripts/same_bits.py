#!/usr/bin/env python3
"""Whether this checkout computes the same bits as a parent checkout.

    python3 scripts/same_bits.py PARENT_DIR

PARENT_DIR is a checkout of the parent commit, for example one unpacked
from ``git archive``.  In each of the two trees, as subprocesses with
PYTHONPATH=src and OPENBLAS_NUM_THREADS=1, it runs

* the four workloads of perfbench/workloads.py at seed 0, and prints
  their digests side by side;
* ``mhdlab run --config configs/vortex2d.ini`` into a temporary directory,
  and compares the artifacts byte for byte;
* ``solver._compile_rhs`` on the vortex2d law and scheme at 257x1x1,
  65x65x1 and 17x17x17, and compares the replayed calls and the load_x0
  calls of the programs: each call's function and the types of its
  operands.

Exits 1 on any difference, or when a subprocess fails.  It imports nothing
from either tree into this process, writes nothing in either tree (no
bytecode either) and changes nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("vortex2d", "mms1d", "budget2d", "box3d")
SHAPES = ("257 1 1", "65 65 1", "17 17 17")

# argv: workload name; prints the digest of its outputs at seed 0
WORKLOAD = """
import sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
with tempfile.TemporaryDirectory() as out:
    digest, checks = WORKLOADS[sys.argv[1]](Path.cwd(), 0, Path(out))
print(digest)
"""

# argv: grid shapes; prints one line per call of each compiled program
PROGRAM = """
import sys
from mhdlab import scenario, solver

def name(f):
    return getattr(f, "__qualname__", None) or getattr(f, "__name__", None) or type(f).__name__

for shape in sys.argv[1:]:
    sc = scenario.load_scenario("configs/vortex2d.ini", (f"grid.shape={shape}",))
    p = solver._compile_rhs(sc.grid, sc.law, sc.params)
    for part, calls in (("calls", p.calls), ("load_x0", p.load_x0)):
        print(shape, part, len(calls))
        for c in calls:
            kinds = [type(a).__name__ for a in c.args] + sorted(c.keywords)
            print(" ", name(c.func), *kinds)
"""


def run(tree: Path, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tree, env=env, capture_output=True, text=True
    )
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv[:3])} failed in {tree}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def artifacts(tree: Path, out: Path) -> tuple[str, dict]:
    """The stdout of mhdlab run on vortex2d.ini in tree, and its artifacts."""
    argv = ["run", "--config", "configs/vortex2d.ini", "--out", str(out)]
    stdout = run(tree, "-m", "mhdlab.cli", *argv)
    return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="a checkout of the parent commit")
    args = ap.parse_args(argv)
    trees = (args.parent.resolve(), HERE)
    same = True

    for workload in WORKLOADS:
        old, new = (run(tree, "-c", WORKLOAD, workload).strip() for tree in trees)
        same &= old == new
        verdict = "same" if old == new else "DIFFERENT"
        print(f"{workload:9s} parent {old[:12]}  this {new[:12]}  {verdict}")

    with tempfile.TemporaryDirectory() as tmp:
        (old_out, old), (new_out, new) = (
            artifacts(tree, Path(tmp) / side) for tree, side in zip(trees, ("parent", "this"))
        )
    differ = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    steps = [line for line in new_out.splitlines() if line.startswith("steps")]
    print(f"vortex2d.ini run: {len(new)} artifacts, {' '.join(steps)}, "
          f"{'same' if not differ and old_out == new_out else 'DIFFERENT'}")
    for name in differ:
        print(f"  differs: {name}")
    same &= not differ and old_out == new_out

    old, new = (run(tree, "-c", PROGRAM, *SHAPES) for tree in trees)
    counts = [line.split()[-1] for line in new.splitlines() if not line.startswith(" ")]
    print(f"compiled rhs at {' / '.join(SHAPES)}: calls and load_x0 {' '.join(counts)}, "
          f"{'same' if old == new else 'DIFFERENT'}")
    same &= old == new
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
