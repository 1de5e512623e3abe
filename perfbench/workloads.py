"""The four benchmark workloads and the checks on their outputs.

Each workload is a function ``(root, seed, outdir) -> (digest, checks)``.
It calls mhdlab only through module attributes looked up at call time, so
the tracer's wrappers see every call.  ``digest`` fingerprints the outputs;
all repeats of one input must agree on it.  ``checks`` is a list of
``(name, passed, detail)``; the thresholds are read from the acceptance
contract (``tests/test_acceptance.py``) and from
``tests/data/tolerances.json``, never restated here.

Why these four:

- vortex2d: the paper's reference run, exactly ``mhdlab run
  configs/vortex2d.ini``; the divergence projector takes most of its time.
- mms1d: ``mhdlab mms`` (the spatial study); bound by ``rhs`` and the
  manufactured sources, no diagnostics, two of three axes suppressed.
- budget2d: the energy/entropy/thermal evidence path of acceptance 07 and
  10, with diagnostics on every step of the trajectory.
- box3d: the only 3D case, where every stencil axis is active and the
  projector stays on conjugate gradients.
"""

from __future__ import annotations

import ast
import configparser
import functools
import hashlib
import json
import math
import operator
import random
from pathlib import Path

import numpy as np

from mhdlab import constitutive, diagnostics, mms, scenario, solver

VORTEX_CONFIG = Path("configs") / "vortex2d.ini"
CONTRACT = Path("tests") / "test_acceptance.py"
TOLERANCES = Path("tests") / "data" / "tolerances.json"
ARTIFACTS = (
    "records.csv",
    "summary.txt",
    "final-rho.field",
    "final-u.field",
    "final-theta.field",
    "final-H.field",
)

# seed whose inputs are the shipped ones, byte for byte
DEFAULT_SEED = 0
AMPLITUDE_JITTER = 0.05
AMPLITUDES = ("rho_amplitude", "theta_amplitude", "velocity_amplitude", "field_amplitude")

_COMPARE = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}


@functools.cache
def _contract(root: Path) -> ast.Module:
    return ast.parse((root / CONTRACT).read_text())


def contract_bound(root: Path, test_name: str, subject: str):
    """(comparison, constant) of ``assert <subject> <op> <constant>`` in a test."""
    for func in ast.walk(_contract(root)):
        if isinstance(func, ast.FunctionDef) and func.name == test_name:
            for node in ast.walk(func):
                test = getattr(node, "test", None)
                if (
                    isinstance(node, ast.Assert)
                    and isinstance(test, ast.Compare)
                    and ast.unparse(test.left) == subject
                    and len(test.ops) == 1
                    and isinstance(test.comparators[0], ast.Constant)
                ):
                    return _COMPARE[type(test.ops[0])], float(test.comparators[0].value)
    raise LookupError(f"{CONTRACT}: no 'assert {subject} <op> <number>' in {test_name}")


def _check(root, test_name, subject, value, label=None):
    compare, bound = contract_bound(root, test_name, subject)
    return (label or subject, compare(value, bound), f"{value:.3e} vs {bound:g}")


def amplitude_overrides(root: Path, seed: int) -> tuple:
    """Scenario overrides that jitter the [initial] amplitudes by <= 5%."""
    if seed == DEFAULT_SEED:
        return ()
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    cp.read(root / VORTEX_CONFIG)
    rng = random.Random(seed)
    out = []
    for key in AMPLITUDES:
        factor = 1.0 + AMPLITUDE_JITTER * rng.uniform(-1.0, 1.0)
        out.append(f"initial.{key}={float(cp['initial'][key]) * factor!r}")
    return tuple(out)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _scenario_run(root: Path, outdir: Path, overrides: tuple):
    sc = scenario.load_scenario(root / VORTEX_CONFIG, overrides)
    summary = scenario.run_scenario(sc, outdir)
    records = diagnostics.read_records_csv(outdir / f"{sc.prefix}-records.csv")
    mass0 = records[0].mass
    test = "test_06_shipped_scenario_invariants"
    checks = [
        _check(root, test, "drift", max(abs(r.mass - mass0) for r in records), "mass_drift"),
        _check(root, test, "rho_min", min(r.rho_min for r in records)),
        _check(root, test, "theta_min", min(r.theta_min for r in records)),
        _check(root, test, "summary['div_H_rel']", summary["div_H_rel"], "div_H_rel"),
        (
            "t_final",
            math.isclose(summary["t_final"], sc.params.t_end, rel_tol=1e-6),
            f"{summary['t_final']!r} vs t_end {sc.params.t_end!r}",
        ),
    ]
    digest = _digest((outdir / f"{sc.prefix}-{name}").read_bytes() for name in ARTIFACTS)
    return digest, checks


def vortex2d(root: Path, seed: int, outdir: Path):
    return _scenario_run(root, outdir, amplitude_overrides(root, seed))


def box3d(root: Path, seed: int, outdir: Path):
    box = (
        "grid.shape=17 17 17",
        f"grid.extents={math.pi!r} {math.pi!r} {math.pi!r}",
        "scheme.t_end=1.0",
    )
    return _scenario_run(root, outdir, box + amplitude_overrides(root, seed))


def mms1d(root: Path, seed: int, outdir: Path):
    # the law and scheme of `mhdlab mms`; the manufactured case has no free input
    law = constitutive.make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = solver.SchemeParams(epsilon=0.05, delta=0.1)
    report = mms.spatial_convergence_study(law, params)
    worst = min(min(o) for o in report.orders.values())
    checks = [_check(root, "test_08_manufactured_convergence", "worst_s", worst, "worst_spatial_order")]
    digest = _digest(np.array(report.errors[b]).tobytes() for b in mms.BLOCKS)
    return digest, checks


def budget2d(root: Path, seed: int, outdir: Path):
    tol = json.loads((root / TOLERANCES).read_text())
    sc = scenario.load_scenario(
        root / VORTEX_CONFIG, ("scheme.t_end=0.1",) + amplitude_overrides(root, seed)
    )
    grid, law, params = sc.grid, sc.law, sc.params
    state0, _ = solver.mollify_initial_data(grid, law, params, *scenario.initial_fields(sc))
    records = []

    def observer(step_idx, state, incidents):
        records.append(diagnostics.record(grid, law, params, state, incidents))

    res = solver.run(grid, law, params, state0, record_every=1, observer=observer, keep_states=True)
    budget = diagnostics.energy_budget_check(records, params)
    entropy = diagnostics.entropy_balance(records)
    bank = diagnostics.thermal_weak_residual(grid, law, params, res.recorded_states)

    h = min(grid.spacing_active)
    full = float(sum(abs(w.full_residual) for w in budget.windows))
    bound = tol["budget"]["C1"] * res.dt_max + tol["budget"]["C2"] * h * h
    floor = -(tol["thermal"]["C1"] * res.dt_max + tol["thermal"]["C2"] * h * h)
    checks = [
        ("budget_full_residual", full <= bound, f"{full:.3e} vs {bound:.3e}"),
        ("thermal_min_residual", bank.min_residual >= floor, f"{bank.min_residual:.3e} vs {floor:.3e}"),
    ]
    numbers = [full, bank.min_residual, entropy.imbalance] + [v for _, v in bank.residuals]
    digest = _digest([np.array(numbers).tobytes()])
    return digest, checks


WORKLOADS = {"vortex2d": vortex2d, "mms1d": mms1d, "budget2d": budget2d, "box3d": box3d}
