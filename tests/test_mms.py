"""Manufactured-solution tests.

Two oracles hold the closed-form sources.  A symbolic derivation of the same
profiles with sympy (test-only) must agree with the closed-form fields, rates
and sources to rounding.  Source consistency then ties them to the solver:
plugging the exact fields into the discrete tendency plus the sources must
reproduce the analytic time derivative of the conserved variables up to the
second-order stencil truncation, and that defect must shrink by ~4x when the
grid is halved.
"""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mhdlab.constitutive import Const, Sum, Power, make_standard_law, validate_hypotheses
from mhdlab.errors import ConfigError
from mhdlab.grid import Grid
from mhdlab.mms import (
    SOURCE_BLOCK,
    SOURCE_KEYS,
    ManufacturedCase,
    make_manufactured_case,
    spatial_convergence_study,
    temporal_convergence_study,
)
from mhdlab.solver import SchemeParams, rhs, run

LAW_KW = dict(nu=0.1, mu0=0.1, kappa0=0.1)
LAW = make_standard_law(**LAW_KW)
PARAMS = SchemeParams(epsilon=0.05, delta=0.1)
# an admissible law in which every scalar differs from LAW and PARAMS
OTHER_KW = dict(
    gamma=2.2, alpha=2.5, nu=0.3, pe0=0.7, pth0=1.3, mu0=0.05, lam0=0.2, kappa0=0.4, cv0=1.5
)
OTHER_PARAMS = SchemeParams(epsilon=0.02, delta=0.2, beta=5.0)

BLOCKS = ("rho", "u", "theta", "H")


def _grid(cells):
    return Grid(shape=(cells + 1, 1, 1), extents=(np.pi, 1.0, 1.0))


@pytest.fixture(scope="module")
def case():
    return make_manufactured_case(LAW, PARAMS)


def _symbolic_case(kw, params):
    """The manufactured case derived with sympy: name -> f(x, t) per block."""
    import sympy as sp

    # the defaults of make_standard_law, overridden by kw
    c = dict(
        gamma=5.0 / 3.0, alpha=3.0, nu=1.0, pe0=1.0, pth0=1.0, mu0=1.0, lam0=0.0, kappa0=1.0, cv0=1.0
    )
    c.update(kw)
    x, t = sp.symbols("x t", real=True)

    rho = 1 + sp.Rational(3, 10) * sp.cos(x) * sp.cos(t)
    u1 = sp.Rational(1, 4) * sp.sin(x) * sp.cos(t)
    u2 = sp.Rational(3, 20) * sp.sin(2 * x) * sp.cos(t)
    u3 = sp.Rational(1, 10) * sp.sin(x) * sp.sin(t)
    theta = sp.Rational(4, 5) + sp.Rational(1, 5) * sp.cos(x) * sp.cos(t)
    H1 = sp.Integer(0)
    H2 = sp.Rational(3, 10) * sp.sin(x) * sp.cos(t)
    H3 = sp.Rational(1, 5) * sp.sin(2 * x) * sp.cos(t)

    eps, delta, beta = params.epsilon, params.delta, params.beta
    gamma, alpha = c["gamma"], c["alpha"]
    mu0, lam0, nu = c["mu0"], c["lam0"], c["nu"]

    p = (
        c["pe0"] * rho**gamma
        + theta * c["pth0"] * rho ** (gamma / 3.0)
        + delta * rho**beta
    )
    K = c["kappa0"] * (theta + theta ** (alpha + 1.0) / (alpha + 1.0))
    w = (rho + delta) * c["cv0"] * theta

    mass_rhs = -(rho * u1).diff(x) + eps * rho.diff(x, 2)
    visc = {
        1: (2 * mu0 + lam0) * u1.diff(x, 2),
        2: mu0 * u2.diff(x, 2),
        3: mu0 * u3.diff(x, 2),
    }
    lorentz = {1: -(H2 * H2.diff(x) + H3 * H3.diff(x)), 2: 0, 3: 0}
    grad_p = {1: p.diff(x), 2: 0, 3: 0}
    mom_rhs = {
        i: -(rho * ui * u1).diff(x)
        - grad_p[i]
        - eps * ui.diff(x) * rho.diff(x)
        + lorentz[i]
        + visc[i]
        for i, ui in ((1, u1), (2, u2), (3, u3))
    }
    heating = (
        nu * (H2.diff(x) ** 2 + H3.diff(x) ** 2)
        + (2 * mu0 + lam0) * u1.diff(x) ** 2
        + mu0 * (u2.diff(x) ** 2 + u3.diff(x) ** 2)
    )
    thermal_rhs = (
        -(rho * c["cv0"] * theta * u1).diff(x)
        + K.diff(x, 2)
        - delta * theta ** (alpha + 1.0)
        + (1.0 - delta) * heating
        - theta * c["pth0"] * rho ** (gamma / 3.0) * u1.diff(x)
    )
    mag_rhs = {
        2: -(u1 * H2).diff(x) + nu * H2.diff(x, 2),
        3: -(u1 * H3).diff(x) + nu * H3.diff(x, 2),
    }

    fields = dict(rho=rho, theta=theta, u1=u1, u2=u2, u3=u3, H1=H1, H2=H2, H3=H3)
    rates = {
        "rho": rho.diff(t),
        "w": w.diff(t),
        "m1": (rho * u1).diff(t),
        "m2": (rho * u2).diff(t),
        "m3": (rho * u3).diff(t),
        "H1": H1.diff(t),
        "H2": H2.diff(t),
        "H3": H3.diff(t),
    }
    sources = {
        "rho": rates["rho"] - mass_rhs,
        "m1": rates["m1"] - mom_rhs[1],
        "m2": rates["m2"] - mom_rhs[2],
        "m3": rates["m3"] - mom_rhs[3],
        "w": rates["w"] - thermal_rhs,
        "H1": sp.Integer(0),
        "H2": rates["H2"] - mag_rhs[2],
        "H3": rates["H3"] - mag_rhs[3],
    }
    lam = lambda d: {k: sp.lambdify((x, t), v, modules="numpy") for k, v in d.items()}
    return lam(fields), lam(rates), lam(sources)


@pytest.mark.parametrize(
    "kw, params", [(LAW_KW, PARAMS), (OTHER_KW, OTHER_PARAMS)], ids=["default", "other"]
)
def test_closed_form_matches_symbolic_derivation(kw, params):
    law = make_standard_law(**kw)
    assert validate_hypotheses(law).ok
    case = make_manufactured_case(law, params)
    fields, rates, sources = _symbolic_case(kw, params)
    xs = _grid(256).mesh()[0]

    def values(fn, t):
        return np.broadcast_to(np.asarray(fn(xs, t), dtype=float), xs.shape)

    for t in (0.0, 0.37, 1.25):
        got = dict(zip(SOURCE_KEYS, case.sources(xs, t), strict=True))
        pairs = [(case.fields[k], fields[k], f"field {k}") for k in fields]
        pairs += [(case.rates[k], rates[k], f"rate {k}") for k in rates]
        pairs += [(lambda x, t, k=k: got[k], sources[k], f"source {k}") for k in sources]
        assert len(pairs) == 24
        for closed, symbolic, what in pairs:
            want = values(symbolic, t)
            scale = float(np.max(np.abs(want)))
            err = float(np.max(np.abs(values(closed, t) - want)))
            assert err <= 1e-13 * scale, (what, t, err, scale)


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


def _counted_case():
    """A case whose closed form records every stage time it evaluates."""
    case = make_manufactured_case(LAW, PARAMS)
    evaluations = []
    terms = case.source_terms

    def counted(trig, t):
        evaluations.extend(np.ravel(t).tolist())
        return terms(trig, t)

    case.source_terms = counted
    return case, evaluations


def _requesting(src, calls):
    def traced(t):
        calls.append(t)
        return src(t)

    return traced


def test_sources_evaluated_once_per_stage_time():
    case, evaluations = _counted_case()
    grid = _grid(64)
    src = case.source_callable(grid)
    calls = []
    # the coarsest run of the spatial study: 83 full steps and one cut to
    # land on t_end, its times crossing six powers of two
    h = np.pi / 64
    p = replace(PARAMS, dt=0.5 * h * h, t_end=0.1)
    res = run(
        grid, LAW, p, case.exact_state(grid, 0.0), record_every=10**9, sources=_requesting(src, calls)
    )
    assert res.steps == 84 and res.dt_last < p.dt
    # Heun: two stage times per step, the second one equal to the next first
    assert len(calls) == 2 * res.steps
    requested = sorted(set(calls))
    assert len(requested) == res.steps + 1
    # each requested time comes from exactly one evaluation
    assert len(evaluations) == len(set(evaluations))
    assert set(requested) <= set(evaluations)
    # the only waste is the rest of the block cut short by the last step
    wasted = sorted(set(evaluations) - set(requested))
    assert len(wasted) < SOURCE_BLOCK
    assert all(t > p.t_end for t in wasted)
    first, again = src(0.25), src(0.25)
    assert all(a is b and not a.flags.writeable for a, b in zip(first, again))
    assert [a.shape for a in first] == [(65, 1, 1), (3, 65, 1, 1), (65, 1, 1), (3, 65, 1, 1)]


def test_sources_of_a_changing_step_are_evaluated_one_by_one():
    case, evaluations = _counted_case()
    src = case.source_callable(_grid(16))
    times = [0.0]
    for i in range(60):
        times.append(times[-1] + 1e-3 * (1.0 + 0.01 * i))
    for t in times:
        src(t)
        src(t)  # the next stage asks again
    assert len(evaluations) <= 2 * len(times)
    assert sorted(set(evaluations)) == times


def _assert_rows_are_direct_evaluations(case, served):
    for (grid, t), got in served.items():
        xs = grid.mesh()[0]
        v = [np.broadcast_to(np.asarray(s, dtype=float), xs.shape) for s in case.sources(xs, t)]
        want = (v[0], np.stack(v[1:4]), v[4], np.stack(v[5:8]))
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes(), (grid.shape, t)


def _serving(monkeypatch):
    """Record every array a source callable serves, by (grid, stage time)."""
    served = {}
    source_callable = ManufacturedCase.source_callable

    def recording(case, grid):
        src = source_callable(case, grid)

        def sources(t):
            out = src(t)
            served[grid, t] = out
            return out

        return sources

    monkeypatch.setattr(ManufacturedCase, "source_callable", recording)
    return served


@pytest.mark.parametrize("cells", [64, 128, 256])
def test_block_sources_match_direct_evaluation_in_fixed_dt_runs(case, cells, monkeypatch):
    served = _serving(monkeypatch)
    grid = _grid(cells)
    h = np.pi / cells
    p = replace(PARAMS, dt=0.5 * h * h, t_end=0.03)
    run(grid, LAW, p, case.exact_state(grid, 0.0), record_every=10**9, sources=case.source_callable(grid))
    assert len(served) > SOURCE_BLOCK
    _assert_rows_are_direct_evaluations(case, served)


def test_block_sources_match_direct_evaluation_in_temporal_study(case, monkeypatch):
    served = _serving(monkeypatch)
    temporal_convergence_study(LAW, PARAMS, cells=32, t_end=0.01, base_dt=8e-4, refinements=2)
    # the reference run and two refinements, all from t = 0
    assert len(served) > 3 * SOURCE_BLOCK
    _assert_rows_are_direct_evaluations(case, served)


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


def test_cli_import_leaves_sympy_unloaded(tmp_path):
    # sympy is a test-only oracle; `mhdlab mms` derives its sources in closed form
    code = (
        "import sys; from mhdlab.cli import main\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')\n"
        "assert not loaded(), loaded()\n"
        "assert main(['mms', '--quick', '--out', sys.argv[1]]) == 0\n"
        "assert not loaded(), loaded()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
