"""Diagnostics tests.

Closed-form oracles used here:

* unit box, rho=theta=1, defaults: E = P_e(1) + Q(1) = 0 + 1 = 1.
* rho=2, theta=0, u=H=0: E = int rho P_e(rho) = 2 * (3/2)(2^(2/3)-1)
  = 3*(2^(2/3)-1) = 1.7622031559045983 (gamma = 5/3 antiderivative).
* rest state: (1+delta) theta' = -delta theta^4 gives
  d/dt [int rho s] = d/dt ln(theta) = -(delta/(1+delta)) theta^3, which is
  exactly minus the reported entropy sink, so the corrected imbalance is
  pure record-quadrature error; the energy budget residual likewise.
"""

import dataclasses
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from mhdlab.constitutive import (
    Renormalizer,
    heat_content,
    make_standard_law,
    renormalized_conductivity_potential,
    renormalized_heat_content,
)
from mhdlab.diagnostics import (
    SpaceTimeTestFunction,
    apriori_norms,
    artificial_pressure_monitor,
    energy_budget_check,
    entropy_balance,
    make_test_bank,
    read_records_csv,
    record,
    thermal_weak_residual,
    total_energy,
    write_records_csv,
)
from mhdlab.fieldops import dissipation, gradient, table_curl, vector_gradient
from mhdlab.grid import Grid
from mhdlab.solver import SchemeParams, State, mollify_initial_data, run

LAW = make_standard_law()
PARAMS = SchemeParams(epsilon=0.05, delta=0.1, dt=1e-3, t_end=0.5)


def _uniform_state(grid, rho=1.0, theta=1.0, t=0.0):
    return State(
        grid,
        np.full(grid.shape, float(rho)),
        grid.vector_field(),
        np.full(grid.shape, float(theta)),
        grid.vector_field(),
        t,
    )


@pytest.fixture(scope="module")
def rest_run():
    """Uniform rest state integrated to t=0.5; the sink ODE is exact."""
    grid = Grid(shape=(6, 5, 1), extents=(1.0, 1.0, 1.0))
    state0 = _uniform_state(grid)
    recs = []
    res = run(
        grid,
        LAW,
        PARAMS,
        state0,
        record_every=25,
        keep_states=True,
        observer=lambda i, st, inc: recs.append(record(grid, LAW, PARAMS, st, inc)),
    )
    return grid, recs, res


@pytest.fixture(scope="module")
def moving_run():
    """Small genuinely-moving 2D run for weak-form checks."""
    grid = Grid(shape=(33, 29, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1, t_end=0.02)
    x, y, _ = grid.mesh()
    cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    rho0 = 1.0 + 0.25 * cx * cy
    theta0 = 1.0 + 0.2 * cx * cy
    u0 = np.stack([0.3 * sx * sy, -0.3 * sx * sy, np.zeros_like(sx)])
    H0 = np.stack([0.2 * sx * sy, -0.2 * sx * sy, 0.1 * sx * sy])
    state0, _ = mollify_initial_data(grid, law, params, rho0, u0, theta0, H0)
    # every-step records: the short horizon makes d(phi)/dt large, so the
    # weak-form time quadrature needs the full cadence
    res = run(grid, law, params, state0, record_every=1, keep_states=True)
    return grid, law, params, res


# ---------------------------------------------------------------------------
# total energy
# ---------------------------------------------------------------------------


def test_total_energy_unit_state():
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    st = _uniform_state(grid)
    total, kin, mag, ela, th = total_energy(grid, LAW, st)
    assert kin == 0.0
    assert mag == 0.0
    assert ela == pytest.approx(0.0, abs=1e-15)
    assert th == pytest.approx(1.0, rel=1e-14)
    assert total == pytest.approx(1.0, rel=1e-14)


def test_total_energy_cold_dense_state():
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    st = _uniform_state(grid, rho=2.0)
    st.theta[:] = 0.0
    total, kin, mag, ela, th = total_energy(grid, LAW, st)
    assert th == 0.0
    assert total == ela
    assert ela == pytest.approx(1.7622031559045983, rel=1e-13)


def test_total_energy_quadratic_in_H():
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    rng = np.random.default_rng(3)
    st = _uniform_state(grid)
    st.H[:] = rng.standard_normal(st.H.shape)
    t1, _, m1, _, _ = total_energy(grid, LAW, st)
    st2 = st.copy()
    st2.H *= 2.0
    t2, _, m2, _, _ = total_energy(grid, LAW, st2)
    assert m2 == pytest.approx(4.0 * m1, rel=1e-14)
    assert t2 - t1 == pytest.approx(3.0 * m1, rel=1e-13)


def test_total_energy_additivity_is_exact():
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    rng = np.random.default_rng(4)
    st = _uniform_state(grid, rho=1.3, theta=0.8)
    st.u[:] = 0.2 * rng.standard_normal(st.u.shape)
    st.H[:] = 0.2 * rng.standard_normal(st.H.shape)
    total, kin, mag, ela, th = total_energy(grid, LAW, st)
    assert total == kin + mag + ela + th


# ---------------------------------------------------------------------------
# a-priori norms
# ---------------------------------------------------------------------------


def test_norms_uniform_density():
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    st = _uniform_state(grid, rho=2.0)
    norms = apriori_norms(grid, LAW, st)
    assert norms["rho_lgamma"] == pytest.approx(2.0, rel=1e-14)


def test_norms_zero_temperature():
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    st = _uniform_state(grid)
    st.theta[:] = 0.0
    norms = apriori_norms(grid, LAW, st)
    assert norms["log_theta_h1"] == 0.0
    assert norms["theta_ahalf_h1"] == 0.0


def test_momentum_norm_exponent():
    # 2 gamma/(gamma+1) = 1.25 for gamma = 5/3; uniform |rho u| = c gives c
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    st = _uniform_state(grid)
    st.u[0, :] = 0.7
    norms = apriori_norms(grid, LAW, st)
    assert norms["momentum_l2g"] == pytest.approx(0.7, rel=1e-14)
    assert 2.0 * LAW.gamma / (LAW.gamma + 1.0) == pytest.approx(1.25)


def test_lp_norms_monotone_under_domination():
    grid = Grid(shape=(17, 13, 1), extents=(1.0, 1.0, 1.0))
    rng = np.random.default_rng(11)
    f = rng.uniform(0.1, 1.0, grid.shape)
    g = f + rng.uniform(0.0, 0.5, grid.shape)
    for p in (LAW.gamma, LAW.alpha + 1.0, 1.25):
        assert grid.norm_lp(f, p) <= grid.norm_lp(g, p) + 1e-15


# ---------------------------------------------------------------------------
# record + CSV round trip
# ---------------------------------------------------------------------------


def test_record_fields_finite_and_consistent(rest_run):
    _, recs, res = rest_run
    r0 = recs[0]
    assert r0.t == 0.0
    assert r0.mass == pytest.approx(1.0, rel=1e-14)
    assert r0.total_energy == (
        r0.kinetic_energy + r0.magnetic_energy + r0.elastic_energy + r0.thermal_energy
    )
    assert r0.artificial_pressure == pytest.approx(0.1, rel=1e-14)
    assert r0.viscous_dissipation == 0.0
    assert r0.magnetic_dissipation == 0.0
    assert r0.div_H_l2 == 0.0
    assert r0.theta_min == r0.theta_max == 1.0
    # thermal energy decreases monotonically on the rest state
    th = [r.thermal_energy for r in recs]
    assert all(b < a for a, b in zip(th, th[1:]))
    assert res.incidents.total() == 0


def test_csv_roundtrip_and_determinism(tmp_path, rest_run):
    _, recs, _ = rest_run
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(p1, recs)
    write_records_csv(p2, recs)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_records_csv(p1)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb, f.name


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------


def test_budget_rest_state_residual_is_quadrature_error(rest_run):
    _, recs, _ = rest_run
    rep = energy_budget_check(recs, PARAMS)
    # E_reg(t1) - E_reg(t0) + delta*int sink is exactly zero for the ODE;
    # what remains is the trapezoid error over the 25-step record interval
    # (about 3e-8 here, consistent with (dt_rec^3/12)*|sink''| per window)
    assert rep.max_signed_residual <= 5e-8
    assert rep.max_abs_full_residual <= 5e-8
    assert rep.dissipation_paid > 0.0


def test_budget_residual_shrinks_with_record_interval():
    grid = Grid(shape=(6, 5, 1), extents=(1.0, 1.0, 1.0))
    state0 = _uniform_state(grid)
    maxima = []
    for every in (50, 25):
        recs = []
        run(
            grid,
            LAW,
            PARAMS,
            state0,
            record_every=every,
            observer=lambda i, st, inc: recs.append(record(grid, LAW, PARAMS, st, inc)),
        )
        rep = energy_budget_check(recs, PARAMS)
        maxima.append(rep.max_abs_full_residual)
    # per-window trapezoid error is cubic in the record interval
    assert maxima[0] / maxima[1] == pytest.approx(8.0, rel=0.3)


def test_budget_rejects_time_reversal(rest_run):
    _, recs, _ = rest_run
    with pytest.raises(ValueError, match="increasing"):
        energy_budget_check(list(reversed(recs)), PARAMS)
    with pytest.raises(ValueError, match="two records"):
        energy_budget_check(recs[:1], PARAMS)


def test_budget_dissipative_run_signed_residual(moving_run):
    grid, law, params, res = moving_run
    recs = [record(grid, law, params, st) for st in res.recorded_states]
    rep = energy_budget_check(recs, params)
    # the one-sided contract: residual below a discretization-sized bound;
    # scale: E ~ 1, dt ~ 2e-4, h ~ 3e-2
    assert rep.max_signed_residual <= 5e-4
    assert rep.max_abs_full_residual <= 5e-4


# ---------------------------------------------------------------------------
# entropy balance
# ---------------------------------------------------------------------------


def test_entropy_rest_state_oracle(rest_run):
    _, recs, _ = rest_run
    rep = entropy_balance(recs)
    assert not rep.skipped
    # production vanishes identically at rest
    assert rep.production_paid == 0.0
    # d ln(theta)/dt = -sink exactly, so imbalance = -sink_paid up to
    # record quadrature
    assert rep.imbalance == pytest.approx(-rep.sink_paid, rel=1e-5)
    assert abs(rep.corrected_imbalance) <= 1e-6
    assert rep.sink_paid > 0.0


def test_entropy_skip_and_domain_error(rest_run):
    _, recs, _ = rest_run
    cold = [dataclasses.replace(r, theta_min=1e-9) for r in recs]
    rep = entropy_balance(cold)
    assert rep.skipped
    assert "below floor" in rep.reason
    frozen = [dataclasses.replace(r, theta_min=0.0) for r in recs]
    with pytest.raises(ValueError, match="positive temperature"):
        entropy_balance(frozen)


def test_entropy_production_nonnegative(moving_run):
    grid, law, params, res = moving_run
    recs = [record(grid, law, params, st) for st in res.recorded_states]
    for r in recs:
        assert r.entropy_production_mech >= 0.0
        assert r.entropy_production_thermal >= 0.0
    rep = entropy_balance(recs)
    assert rep.production_paid >= 0.0


# ---------------------------------------------------------------------------
# thermal weak residual
# ---------------------------------------------------------------------------


def test_weak_residual_zero_test_function(rest_run):
    grid, _, res = rest_run
    phi0 = SpaceTimeTestFunction(
        "outside", grid, res.record_times[-1], center=(5.0, 0.5, 0.5), width=0.1
    )
    rep = thermal_weak_residual(
        grid, LAW, PARAMS, res.recorded_states, bank=[phi0]
    )
    assert rep.min_residual == 0.0


def test_weak_residual_rest_state_uniform_phi(rest_run):
    grid, _, res = rest_run
    T = res.record_times[-1]
    phi = SpaceTimeTestFunction("uniform-rampdown", grid, T, profile="rampdown")
    rep = thermal_weak_residual(grid, LAW, PARAMS, res.recorded_states, bank=[phi])
    # equality case: pure record-quadrature error
    assert abs(rep.min_residual) <= 1e-5


class _Separable:
    """A bank member built from its parts: phi = r(t) S(x)."""

    def __init__(self, name, S, gradS, lapS, r, rprime):
        self.name, self.S, self.gradS, self.lapS = name, S, gradS, lapS
        self.r, self.rprime = r, rprime


def _combo_bank(grid, T):
    """Two bumps, a linear combination of them and a spatially uniform phi."""
    p1 = SpaceTimeTestFunction("a", grid, T, center=(0.5, 0.5, 0.5), width=0.4)
    p2 = SpaceTimeTestFunction("b", grid, T, center=(0.3, 0.6, 0.5), width=0.3)
    # both bumps have the rampdown profile, so their combination is S1 + 2 S2
    # with that one profile
    combo = _Separable(
        "combo",
        p1.S + 2.0 * p2.S,
        p1.gradS + 2.0 * p2.gradS,
        p1.lapS + 2.0 * p2.lapS,
        p1.r,
        p1.rprime,
    )
    return [p1, p2, combo, SpaceTimeTestFunction("uniform", grid, T)]


def _shared_part_bank(grid, T):
    """Two members that hold the same spatial part, with another between."""
    a = SpaceTimeTestFunction("a", grid, T, center=(0.5, 0.5, 0.5), width=0.4)
    b = SpaceTimeTestFunction("b", grid, T, center=(0.3, 0.6, 0.5), width=0.3)
    return [a, b, a.with_profile("a-interior", "interior")]


def test_bank_time_profiles_tabulated_once(monkeypatch):
    # members of one profile and T share one evaluated row; any other member
    # type is evaluated on its own; the tables keep their bytes
    from mhdlab.diagnostics import _tabulate_bank

    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    T = 0.4
    times = [T * k / 8 for k in range(9)]
    evaluated = []
    r_of = SpaceTimeTestFunction.r

    def counted(self, t):
        evaluated.append(self.name)
        return r_of(self, t)

    mixed = _combo_bank(grid, T)  # a, b and uniform share one profile
    combo = mixed[2]
    combo_r = combo.r
    combo.r = lambda t: evaluated.append(combo.name) or combo_r(t)
    default = make_test_bank(grid, T)  # two profiles
    for bank, rows in ((default, [p.name for p in default[:2]]), (mixed, ["a", "combo"])):
        want_r = np.array([[phi.r(t) for t in times] for phi in bank])
        want_rp = np.array([[phi.rprime(t) for t in times] for phi in bank])
        monkeypatch.setattr(SpaceTimeTestFunction, "r", counted)
        evaluated.clear()
        _, _, r, rp, *_ = _tabulate_bank(grid, bank, times)
        monkeypatch.undo()
        assert r.tobytes() == want_r.tobytes()
        assert rp.tobytes() == want_rp.tobytes()
        assert sorted(evaluated) == sorted(rows * len(times))


def test_weak_residual_linear_in_phi(rest_run):
    grid, _, res = rest_run
    p1, p2, combo, _ = _combo_bank(grid, res.record_times[-1])
    states = res.recorded_states
    r1 = thermal_weak_residual(grid, LAW, PARAMS, states, bank=[p1]).min_residual
    r2 = thermal_weak_residual(grid, LAW, PARAMS, states, bank=[p2]).min_residual
    rc = thermal_weak_residual(grid, LAW, PARAMS, states, bank=[combo]).min_residual
    assert rc == pytest.approx(r1 + 2.0 * r2, rel=1e-10, abs=1e-14)


def test_worst_name_tie_goes_to_first_bank_member():
    # mirror-image bumps narrower than the node spacing each see one node;
    # on a uniform state their residuals agree to the last bit
    grid = Grid(shape=(5, 5, 1), extents=(1.0, 1.0, 1.0))
    res = run(grid, LAW, PARAMS, _uniform_state(grid), t_end=0.05, keep_states=True)
    states, T = res.recorded_states, res.record_times[-1]
    lo = SpaceTimeTestFunction("bump-lo", grid, T, center=(0.25, 0.25, 0.5), width=0.2)
    hi = SpaceTimeTestFunction("bump-hi", grid, T, center=(0.75, 0.75, 0.5), width=0.2)
    for bank in ([lo, hi], [hi, lo]):
        rep = thermal_weak_residual(grid, LAW, PARAMS, states, bank=bank)
        values = rep.as_dict()
        assert values["bump-lo"] == values["bump-hi"] != 0.0
        assert rep.worst_name == bank[0].name
        assert rep.min_residual == values["bump-lo"]


def test_weak_residual_full_bank_on_moving_run(moving_run):
    grid, law, params, res = moving_run
    rep = thermal_weak_residual(grid, law, params, res.recorded_states)
    assert len(rep.residuals) == 50  # 8 centers x 3 widths x 2 profiles + 2 uniform
    # inequality-compatible sign down to a discretization-sized defect;
    # measured -9.2e-4 at this resolution, -1.6e-4 at twice the resolution
    assert rep.min_residual >= -2e-3


def test_weak_residual_omega_families_consistent(moving_run):
    grid, law, params, res = moving_run
    for omega in (0.5, 1.0):
        rep = thermal_weak_residual(
            grid, law, params, res.recorded_states, ren=Renormalizer(omega)
        )
        assert rep.min_residual >= -2e-3


def test_weak_residual_rejects_ill_formed(rest_run):
    grid, _, res = rest_run
    T = res.record_times[-1]
    good = SpaceTimeTestFunction("g", grid, T, center=(0.5, 0.5, 0.5), width=0.3)
    parts = (good.S, good.gradS, good.lapS)
    negative = _Separable("neg", *parts, lambda t: -good.r(t), lambda t: -good.rprime(t))
    flat = (np.ones(grid.shape), np.zeros((3,) + grid.shape), np.zeros(grid.shape))
    nonzero_end = _Separable("tail", *flat, lambda t: 1.0, lambda t: 0.0)

    # r < 0 only on (0.6 T, 0.8 T): nonnegative at t0, at T/2 and at T, but
    # negative at the record times in between
    assert any(0.6 * T < t < 0.8 * T for t in res.record_times)

    def r_dip(t):
        return -(1.0 - t / T) if 0.6 * T < t < 0.8 * T else 1.0 - t / T

    dipping = _Separable("dip", *parts, r_dip, lambda t: -1.0 / T)
    # the pairing reads only the active-axis rows of gradS
    tilted_grad = good.gradS.copy()
    tilted_grad[2] = good.S
    tilted = _Separable("tilt", good.S, tilted_grad, good.lapS, good.r, good.rprime)

    states = res.recorded_states
    for member, match in (
        (negative, "neg takes negative values"),
        (nonzero_end, "tail must vanish at the final time"),
        (dipping, "dip takes negative values"),
        (tilted, "tilt has a gradient along a suppressed axis"),
    ):
        with pytest.raises(ValueError, match=match):
            thermal_weak_residual(grid, LAW, PARAMS, states, bank=[member])


def test_weak_residual_rejects_duplicate_names(rest_run):
    grid, _, res = rest_run
    T = res.record_times[-1]
    p1 = SpaceTimeTestFunction("same", grid, T, center=(0.5, 0.5, 0.5), width=0.4)
    p2 = SpaceTimeTestFunction("same", grid, T, center=(0.3, 0.6, 0.5), width=0.3)
    with pytest.raises(ValueError, match="'same' occurs more than once"):
        thermal_weak_residual(grid, LAW, PARAMS, res.recorded_states, bank=[p1, p2])


def _reference_weak_residual(grid, law, params, states, bank, per_state_k_h=False):
    """The per-(state, phi) loop that thermal_weak_residual replaced.

    Every pair rebuilds the full-grid integrands and sums them.  K_h is read
    from one table over the whole trajectory, as in the rewrite, unless
    per_state_k_h asks for the former table per state; the two tables
    differ by their linear-interpolation error, about 1e-10 of K_h.
    """
    ren = Renormalizer(params.omega)
    times = [s.t for s in states]
    delta, eps = params.delta, params.epsilon
    w = grid.quad_weights
    k_h_all = renormalized_conductivity_potential(
        law, ren, np.stack([st.theta for st in states])
    )
    lhs_t = [[] for _ in bank]
    rhs_t = [[] for _ in bank]
    for k, st in enumerate(states):
        rho, u, theta, H = st.rho, st.u, st.theta, st.H
        h_w = ren(theta)
        q_h = renormalized_heat_content(law, ren, theta)
        if per_state_k_h:
            k_h = renormalized_conductivity_potential(law, ren, theta)
        else:
            k_h = k_h_all[k]
        du = vector_gradient(grid, u)
        divu = du[0, 0] + du[1, 1] + du[2, 2]
        curl_H = table_curl(vector_gradient(grid, H))
        heating = dissipation(law, du, theta) + law.nu * np.sum(curl_H * curl_H, axis=0)
        grad_theta = gradient(grid, theta)
        grad_theta_sq = grad_theta[0] ** 2 + grad_theta[1] ** 2 + grad_theta[2] ** 2
        grad_rho = gradient(grid, rho)
        g = q_h - heat_content(law, theta) * h_w
        dg_dtheta = -heat_content(law, theta) * ren.deriv(theta)
        source_w = (delta - 1.0) * h_w * heating + ren.deriv(theta) * law.kappa(
            theta
        ) * grad_theta_sq + h_w * theta * law.p_th(rho) * divu
        w_h = (rho + delta) * q_h
        flux = rho * q_h * u
        for j, phi in enumerate(bank):
            t = st.t
            phi_v = phi.r(t) * phi.S
            phi_grad = phi.r(t) * phi.gradS
            lhs_int = (
                w_h * (phi.rprime(t) * phi.S)
                + flux[0] * phi_grad[0]
                + flux[1] * phi_grad[1]
                + flux[2] * phi_grad[2]
                + k_h * (phi.r(t) * phi.lapS)
                - delta * h_w * np.power(theta, law.alpha + 1.0) * phi_v
            )
            eps_int = 0.0
            for a in range(3):
                eps_int = eps_int + grad_rho[a] * (
                    dg_dtheta * grad_theta[a] * phi_v + g * phi_grad[a]
                )
            rhs_int = source_w * phi_v + eps * eps_int
            lhs_t[j].append(float(np.sum(w * lhs_int)))
            rhs_t[j].append(float(np.sum(w * rhs_int)))
    st0 = states[0]
    w_h0 = (st0.rho + delta) * renormalized_heat_content(law, ren, st0.theta)
    out = {}
    for j, phi in enumerate(bank):
        lhs = sum(
            0.5 * (b - a) * (y0 + y1)
            for a, b, y0, y1 in zip(times, times[1:], lhs_t[j], lhs_t[j][1:])
        )
        rhs = sum(
            0.5 * (b - a) * (y0 + y1)
            for a, b, y0, y1 in zip(times, times[1:], rhs_t[j], rhs_t[j][1:])
        )
        rhs -= float(np.sum(w * w_h0 * (phi.r(times[0]) * phi.S)))
        out[phi.name] = rhs - lhs
    return out


@pytest.fixture(scope="module")
def box_run():
    """Small genuinely-moving 3D run: every stencil axis active."""
    grid = Grid(shape=(9, 8, 7), extents=(1.0, 1.0, 1.0))
    law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1, t_end=0.01)
    x, y, z = grid.mesh()
    cx, cy, cz = np.cos(np.pi * x), np.cos(np.pi * y), np.cos(np.pi * z)
    sx, sy, sz = np.sin(np.pi * x), np.sin(np.pi * y), np.sin(np.pi * z)
    rho0 = 1.0 + 0.25 * cx * cy * cz
    theta0 = 1.0 + 0.2 * cx * cy * cz
    u0 = np.stack([0.3 * sx * sy * sz, -0.3 * sx * sy * sz, 0.2 * sx * sy * sz])
    H0 = np.stack([0.2 * sx * sy * sz, -0.2 * sx * sy * sz, 0.1 * sx * sy * sz])
    state0, _ = mollify_initial_data(grid, law, params, rho0, u0, theta0, H0)
    res = run(grid, law, params, state0, record_every=1, keep_states=True)
    return grid, law, params, res


@pytest.mark.parametrize(
    "which", ["moving-2d", "box-3d", "combo-2d", "combo-rest", "shared-2d"]
)
def test_weak_residual_matches_reference_loop(which, request):
    if which == "combo-rest":
        grid, _, res = request.getfixturevalue("rest_run")
        law, params = LAW, PARAMS
    else:
        fixture = "box_run" if which == "box-3d" else "moving_run"
        grid, law, params, res = request.getfixturevalue(fixture)
    states = res.recorded_states
    bank = None
    if which.startswith("combo"):
        bank = _combo_bank(grid, res.record_times[-1])
    elif which == "shared-2d":
        bank = _shared_part_bank(grid, res.record_times[-1])
    rep = thermal_weak_residual(grid, law, params, states, bank=bank)
    if bank is None:
        bank = make_test_bank(grid, res.record_times[-1])
    want = _reference_weak_residual(grid, law, params, states, bank)
    assert [name for name, _ in rep.residuals] == [phi.name for phi in bank]
    for name, got in rep.residuals:
        assert got == pytest.approx(want[name], rel=1e-12, abs=1e-15), name
    assert rep.min_residual == min(v for _, v in rep.residuals)
    # same states, same bank: bitwise-equal report
    assert thermal_weak_residual(grid, law, params, states, bank=bank) == rep


def test_weak_residual_conductivity_table_spans_trajectory(moving_run):
    grid, law, params, res = moving_run
    states = res.recorded_states
    ren = Renormalizer(params.omega)
    thetas = np.stack([st.theta for st in states])
    per_state = np.stack(
        [renormalized_conductivity_potential(law, ren, th) for th in thetas]
    )
    shared = renormalized_conductivity_potential(law, ren, thetas)
    # cubic Hermite reading of a 32769-point table: rounding only
    # (measured 1.7e-14)
    assert np.max(np.abs(shared - per_state) / per_state) <= 1e-13
    rep = thermal_weak_residual(grid, law, params, states)
    bank = make_test_bank(grid, res.record_times[-1])
    want = _reference_weak_residual(grid, law, params, states, bank, per_state_k_h=True)
    scale = max(abs(v) for v in want.values())
    # measured 2.1e-14 of the largest residual
    assert max(abs(v - want[name]) for name, v in rep.residuals) <= 2e-13 * scale


def test_test_bank_is_admissible(rest_run):
    grid, _, res = rest_run
    T = res.record_times[-1]
    bank = make_test_bank(grid, T)
    assert len(bank) == 50
    # the rampdown and interior members of each of the 25 spatial parts hold
    # the same arrays
    for ramp, interior in zip(bank[::2], bank[1::2]):
        assert ramp.name.endswith("-rampdown")
        assert interior.name == ramp.name.replace("-rampdown", "-interior")
        assert interior.S is ramp.S
        assert interior.gradS is ramp.gradS
        assert interior.lapS is ramp.lapS
    assert len({id(phi.S) for phi in bank}) == 25
    for phi in bank:
        assert float(np.min(phi.r(0.0) * phi.S)) >= 0.0
        assert float(np.max(np.abs(phi.r(T) * phi.S))) == 0.0
        # outward normal derivative must be <= 0 at every wall so that the
        # dropped diffusion wall flux can only raise the residual
        g = phi.r(0.4 * T) * phi.gradS
        assert float(np.min(g[0][0, :, :])) >= -1e-14
        assert float(np.max(g[0][-1, :, :])) <= 1e-14
        assert float(np.min(g[1][:, 0, :])) >= -1e-14
        assert float(np.max(g[1][:, -1, :])) <= 1e-14


# ---------------------------------------------------------------------------
# artificial pressure monitor
# ---------------------------------------------------------------------------


def test_pressure_monitor_uniform_value(rest_run):
    _, recs, _ = rest_run
    series = artificial_pressure_monitor(recs, PARAMS)
    assert series.instantaneous[0] == pytest.approx(0.1, rel=1e-14)
    assert series.time_average == pytest.approx(0.1, rel=1e-12)
    assert list(series.cumulative) == sorted(series.cumulative)
    assert series.cumulative[0] == 0.0


def test_pressure_monitor_rejects_zero_delta(rest_run):
    _, recs, _ = rest_run
    with pytest.raises(ValueError, match="delta"):
        artificial_pressure_monitor(recs, types.SimpleNamespace(delta=0.0))


_THREADED_RESIDUAL = """
import numpy as np
from mhdlab.constitutive import make_standard_law
from mhdlab.diagnostics import thermal_weak_residual
from mhdlab.grid import Grid
from mhdlab.solver import SchemeParams, mollify_initial_data, run

grid = Grid(shape=(65, 65, 1), extents=(1.0, 1.0, 1.0))
law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
params = SchemeParams(epsilon=0.05, delta=0.1, t_end=0.004)
x, y, _ = grid.mesh()
c, s = np.cos(np.pi * x) * np.cos(np.pi * y), np.sin(np.pi * x) * np.sin(np.pi * y)
u0 = np.stack([0.3 * s, -0.3 * s, np.zeros_like(s)])
H0 = np.stack([0.2 * s, -0.2 * s, 0.1 * s])
state0, _ = mollify_initial_data(grid, law, params, 1.0 + 0.25 * c, u0, 1.0 + 0.2 * c, H0)
res = run(grid, law, params, state0, record_every=1, keep_states=True)
rep = thermal_weak_residual(grid, law, params, res.recorded_states)
print(len(res.recorded_states), rep.worst_name)
print(" ".join(float(v).hex() for _, v in rep.residuals))
"""


def test_weak_residual_bits_do_not_depend_on_blas_threads():
    # the pairing is matrix products; on the budget2d grid size the report
    # must not change with the number of BLAS threads
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _THREADED_RESIDUAL], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(proc.stdout)
    assert int(reports[0].split()[0]) >= 3
    assert reports[0] == reports[1]
