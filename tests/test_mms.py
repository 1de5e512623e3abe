"""Manufactured-solution tests.

The load-bearing oracle is source consistency: plugging the exact fields
into the discrete tendency plus the symbolic sources must reproduce the
analytic time derivative of the conserved variables up to the second-order
stencil truncation, and that defect must shrink by ~4x when the grid is
halved.  It validates the symbolic algebra and the solver tendencies against
each other.
"""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mhdlab.constitutive import Const, Sum, Power, make_standard_law
from mhdlab.errors import ConfigError
from mhdlab.grid import Grid
from mhdlab.mms import (
    make_manufactured_case,
    spatial_convergence_study,
    temporal_convergence_study,
)
from mhdlab.solver import SchemeParams, rhs, run

LAW = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
PARAMS = SchemeParams(epsilon=0.05, delta=0.1)

BLOCKS = ("rho", "u", "theta", "H")


def _grid(cells):
    return Grid(shape=(cells + 1, 1, 1), extents=(np.pi, 1.0, 1.0))


@pytest.fixture(scope="module")
def case():
    return make_manufactured_case(LAW, PARAMS)


def test_exact_state_is_admissible(case):
    grid = _grid(64)
    st = case.exact_state(grid, 0.0)
    assert float(np.min(st.rho)) >= 0.69
    assert float(np.min(st.theta)) >= 0.59
    assert float(np.max(np.abs(st.u[:, 0]))) == 0.0
    assert float(np.max(np.abs(st.u[:, -1]))) == 0.0
    assert float(np.max(np.abs(st.H[:, 0]))) == 0.0
    assert float(np.max(np.abs(st.H[0]))) == 0.0  # structurally solenoidal


def test_source_consistency_second_order(case):
    t = 0.3
    defects = []
    for cells in (128, 256):
        grid = _grid(cells)
        st = case.exact_state(grid, t)
        src = case.source_callable(grid)
        got = rhs(grid, LAW, PARAMS, st.rho, st.u, st.theta, st.H, t=t, sources=src)
        want = case.exact_time_derivatives(grid, t)
        worst = 0.0
        for g, w in zip(got, want):
            # walls excluded: the stepper re-imposes them exactly
            sl = (slice(None),) * (g.ndim - 3) + (slice(1, -1),)
            worst = max(worst, float(np.max(np.abs((g - w)[sl]))))
        defects.append(worst)
    assert defects[1] <= 1e-2
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.25)


def test_rejects_nonstandard_law():
    law = make_standard_law(kappa=Sum(Const(0.3), Power(0.2, 3.0)))
    with pytest.raises(ConfigError, match="standard"):
        make_manufactured_case(law, PARAMS)


def test_spatial_smoke_orders(case):
    rep = spatial_convergence_study(LAW, PARAMS, cells=(64, 128), t_end=0.02)
    assert rep.resolutions == (64, 128)
    for block in BLOCKS:
        assert len(rep.errors[block]) == 2
        assert rep.errors[block][1] < rep.errors[block][0]
        assert rep.orders[block][-1] >= 1.5
    assert rep.worst_final_order() >= 1.5


def test_temporal_smoke_orders(case):
    rep = temporal_convergence_study(
        LAW, PARAMS, cells=64, t_end=0.08, base_dt=8e-4, refinements=2
    )
    assert len(rep.resolutions) == 2  # the dts actually compared
    for block in BLOCKS:
        assert rep.orders[block][-1] >= 1.7
    assert rep.worst_final_order() >= 1.7


def test_study_is_deterministic():
    a = spatial_convergence_study(LAW, PARAMS, cells=(32, 64), t_end=0.01)
    b = spatial_convergence_study(LAW, PARAMS, cells=(32, 64), t_end=0.01)
    assert a.errors == b.errors
    assert a.orders == b.orders


def test_sources_evaluated_once_per_stage_time():
    case = make_manufactured_case(LAW, PARAMS)
    evaluations = []
    lambdified = case.sources

    def counted(x, t):
        evaluations.append(t)
        return lambdified(x, t)

    case.sources = counted
    grid = _grid(16)
    src = case.source_callable(grid)
    calls = []

    def traced(t):
        calls.append(t)
        return src(t)

    p = replace(PARAMS, dt=1e-3, t_end=5e-3)
    res = run(grid, LAW, p, case.exact_state(grid, 0.0), record_every=10**9, sources=traced)
    # Heun: two stage times per step, the second one equal to the next first
    assert len(calls) == 2 * res.steps
    assert evaluations == sorted(set(calls))
    assert len(evaluations) == res.steps + 1
    first, again = src(0.25), src(0.25)
    assert all(a is b and not a.flags.writeable for a, b in zip(first, again))
    assert [a.shape for a in first] == [(17, 1, 1), (3, 17, 1, 1), (17, 1, 1), (3, 17, 1, 1)]


def test_source_arrays_match_broadcast_reference(case):
    grid = _grid(32)
    xs = grid.mesh()[0]
    src = case.source_callable(grid)
    for t in (0.0, 0.37, 1.25):
        v = [np.broadcast_to(np.asarray(s, dtype=float), xs.shape) for s in case.sources(xs, t)]
        want = (v[0], np.stack(v[1:4]), v[4], np.stack(v[5:8]))
        for got, ref in zip(src(t), want):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_cli_import_leaves_sympy_unloaded():
    code = "import sys, mhdlab.cli; sys.exit('sympy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
