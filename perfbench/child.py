"""One repeat of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --t0 T --out DIR
                               [--trace] [--setup-only]

T is the parent's ``time.monotonic()`` just before it started this process,
so ``setup_s`` covers interpreter start, the mhdlab imports and everything
up to the entry of the first ``solver.run``.  ``wall_s`` runs from there to
the end of the workload, its output checks included.  With --setup-only the
process stops at that entry.  With --trace the layer functions are wrapped
and the spans are saved to DIR/trace.npz.

The last line of stdout is one JSON object with the repeat's numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _SetupDone(Exception):
    pass


class RunProbe:
    """Timestamps the first solver.run entry and counts the steps taken."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.first_entry = None
        self.steps = 0
        self.node_steps = 0

    def wrap(self, run):
        def probed_run(grid, law, params, state0, **kwargs):
            if self.first_entry is None:
                self.first_entry = time.monotonic()
                if self.setup_only:
                    raise _SetupDone
            res = run(grid, law, params, state0, **kwargs)
            self.steps += res.steps
            self.node_steps += res.steps * math.prod(grid.shape)
            return res

        return probed_run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import mhdlab
    from mhdlab import cli, solver  # noqa: F401  (cli pulls in every layer, as `mhdlab` does)

    if Path(mhdlab.__file__).resolve().parent != ROOT / "src" / "mhdlab":
        raise SystemExit(f"mhdlab imported from {mhdlab.__file__}, not from {ROOT / 'src'}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, rebind
    from workloads import WORKLOADS

    loaded = [m for n, m in sys.modules.items() if n.startswith("mhdlab.")]
    probe = RunProbe(args.setup_only)
    rebind(loaded, solver.run, probe.wrap(solver.run))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    args.out.mkdir(parents=True, exist_ok=True)
    result = {"ok": False, "checks": [], "error": None}
    try:
        digest, checks = WORKLOADS[args.workload](ROOT, args.seed, args.out)
        end = time.monotonic()
        result["digest"] = digest
        result["checks"] = checks
        result["ok"] = all(passed for _, passed, _ in checks)
    except _SetupDone:
        end = None
        result["ok"] = True
    except Exception as exc:  # the workload failed; report it as a failed repeat
        traceback.print_exc()
        end = time.monotonic()
        result["error"] = f"{type(exc).__name__}: {exc}"

    if probe.first_entry is not None:
        result["setup_s"] = probe.first_entry - args.t0
        if end is not None:
            wall = end - probe.first_entry
            result.update(wall_s=wall, steps=probe.steps, node_steps=probe.node_steps)
            if tracer is not None:
                result["layers"] = tracer.metrics(wall)
                tracer.save(args.out / "trace.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
