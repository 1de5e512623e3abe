"""Monitored quantities, budget checks, and weak-form thermal residuals.

Everything here is a pure function of recorded states; nothing mutates the
trajectory.  The record layout keeps the primary monitors first (mass, the
four energy parts and their sum, the a-priori norms, dissipation integrals,
incident counts) and appends the budget-closure integrands (heat content,
epsilon-gradient terms, sink and entropy-production integrals) plus min/max
field monitors after them.

Sign conventions.  The semi-discrete scheme satisfies, up to time and space
discretization error,

    d/dt E_reg = -delta*(visc + mag + sink) - eps*(elastic-gradient term)
                 - eps*delta*(artificial-gradient term)

with E_reg = E + delta*int Q(theta) + delta/(beta-1)*int rho^beta, where E
is the plain four-part total energy.  energy_budget_check reports the
one-sided residual with only the delta-dissipation charged (this is the
inequality-shaped check: the dropped eps terms are negative, so the
residual should be <= tol) and the full residual with the eps terms
restored (pure discretization error, checked in absolute value).

The temperature equation holds only as a renormalized, one-sided weak
inequality against nonnegative test functions.  thermal_weak_residual
measures it against one fixed bank of 50 such functions phi = r(t) S(x):
25 spatial parts (quintic bumps at 8 centers and 3 widths, and S = 1),
each under two time profiles that vanish at the final time.  The bank
exists only as tables, built per call from the grid and the record times
(_bank_tables): S, grad S and lap S of each part as matrix rows, and the
two profiles and their slopes at the record times.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .constitutive import (
    ConstitutiveLaw,
    Renormalizer,
    elastic_potential,
    entropy,
    heat_content,
    pressure,
    renormalized_conductivity_potential,
    renormalized_heat_content,
)
from .fieldops import dissipation, gradient, table_curl, vector_gradient
from .grid import Grid
from .solver import IncidentLog, SchemeParams, State

__all__ = [
    "DiagnosticsRecord",
    "record",
    "total_energy",
    "apriori_norms",
    "write_records_csv",
    "read_records_csv",
    "energy_budget_check",
    "BudgetReport",
    "entropy_balance",
    "EntropyReport",
    "thermal_weak_residual",
    "WeakResidualReport",
    "artificial_pressure_monitor",
    "PressureMonitorSeries",
]

THETA_ENTROPY_FLOOR = 1e-8


def _trapz(values, times) -> float:
    out = 0.0
    for i in range(1, len(times)):
        out += 0.5 * (times[i] - times[i - 1]) * (values[i] + values[i - 1])
    return out


# ---------------------------------------------------------------------------
# per-state record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    kinetic_energy: float
    magnetic_energy: float
    elastic_energy: float
    thermal_energy: float
    total_energy: float
    rho_lgamma: float
    momentum_l2g: float
    u_h1: float
    H_h1: float
    log_theta_h1: float
    theta_ahalf_h1: float
    theta_lalpha1: float
    artificial_pressure: float
    pressure_log_density: float
    entropy_total: float
    viscous_dissipation: float
    magnetic_dissipation: float
    div_H_l2: float
    velocity_clamp_nodes: int
    heat_floor_nodes: int
    heat_content_total: float
    artificial_pressure_log_density: float
    eps_elastic_gradient: float
    eps_artificial_gradient: float
    sink_integral: float
    entropy_production_mech: float
    entropy_production_thermal: float
    entropy_sink: float
    rho_min: float
    rho_max: float
    theta_min: float
    theta_max: float
    speed_max: float


_INT_FIELDS = {"velocity_clamp_nodes", "heat_floor_nodes"}


def total_energy(grid: Grid, law: ConstitutiveLaw, state: State):
    """E and its four parts: kinetic, magnetic, elastic, thermal.

    E = int( rho(P_e(rho) + Q(theta) + |u|^2/2) + |H|^2/2 ); the sum is
    formed from the four separately returned parts, so additivity is exact.
    """
    rho, u, theta, H = state.rho, state.u, state.theta, state.H
    kinetic = grid.integrate(0.5 * rho * np.sum(u * u, axis=0))
    magnetic = grid.integrate(0.5 * np.sum(H * H, axis=0))
    elastic = grid.integrate(rho * elastic_potential(law, rho))
    thermal = grid.integrate(rho * heat_content(law, theta))
    return kinetic + magnetic + elastic + thermal, kinetic, magnetic, elastic, thermal


def _h1_norm(grid: Grid, f: np.ndarray, grad: np.ndarray) -> float:
    """H1 norm of a scalar or vector field f from its gradient table."""
    comps = f.reshape((-1,) + grid.shape)
    sq = 0.0
    for c, grad_c in zip(comps, grad.reshape((len(comps), 3) + grid.shape)):
        sq += np.sum(grid.quad_weights * c * c)
        for a in grid.active_axes:
            sq += np.sum(grid.quad_weights * grad_c[a] * grad_c[a])
    return float(np.sqrt(sq))


def _apriori_norms(grid: Grid, law: ConstitutiveLaw, state: State, du, dH) -> dict:
    rho, u, theta, H = state.rho, state.u, state.theta, state.H
    gamma, alpha = law.gamma, law.alpha
    mom = np.sqrt(np.sum((rho * u) ** 2, axis=0))
    log_theta = np.log1p(theta)
    theta_ahalf = np.power(theta, 0.5 * alpha)
    return {
        "rho_lgamma": grid.norm_lp(rho, gamma),
        "momentum_l2g": grid.norm_lp(mom, 2.0 * gamma / (gamma + 1.0)),
        "u_h1": _h1_norm(grid, u, du),
        "H_h1": _h1_norm(grid, H, dH),
        "log_theta_h1": _h1_norm(grid, log_theta, gradient(grid, log_theta)),
        "theta_ahalf_h1": _h1_norm(grid, theta_ahalf, gradient(grid, theta_ahalf)),
        "theta_lalpha1": grid.norm_lp(theta, alpha + 1.0),
    }


def apriori_norms(grid: Grid, law: ConstitutiveLaw, state: State) -> dict:
    """The norm family tracked by the estimate ledger."""
    du = vector_gradient(grid, state.u)
    dH = vector_gradient(grid, state.H)
    return _apriori_norms(grid, law, state, du, dH)


def record(
    grid: Grid,
    law: ConstitutiveLaw,
    params: SchemeParams,
    state: State,
    incidents: IncidentLog | None = None,
) -> DiagnosticsRecord:
    rho, u, theta, H = state.rho, state.u, state.theta, state.H
    delta, beta, eps = params.delta, params.beta, params.epsilon

    total, kinetic, magnetic, elastic, thermal = total_energy(grid, law, state)
    du = vector_gradient(grid, u)
    dH = vector_gradient(grid, H)
    norms = _apriori_norms(grid, law, state, du, dH)

    p_phys = pressure(law, rho, theta)
    log_rho = np.log1p(rho)
    rho_beta = np.power(rho, beta)

    diss = dissipation(law, du, theta)
    visc = grid.integrate(diss)
    curl_H = table_curl(dH)
    mag_diss = law.nu * grid.integrate(np.sum(curl_H * curl_H, axis=0))
    div_H = grid.norm_l2(dH[0, 0] + dH[1, 1] + dH[2, 2])

    grad_rho_sq = sum(g**2 for g in gradient(grid, rho))
    grad_theta_sq = sum(g**2 for g in gradient(grid, theta))

    theta_min = float(np.min(theta))
    if theta_min < THETA_ENTROPY_FLOOR:
        entropy_total = math.nan
        prod_mech = math.nan
        prod_thermal = math.nan
        entropy_sink = math.nan
    else:
        entropy_total = grid.integrate(rho * entropy(law, rho, theta))
        heating = diss + law.nu * np.sum(curl_H * curl_H, axis=0)
        prod_mech = grid.integrate(heating / theta)
        prod_thermal = grid.integrate(law.kappa(theta) * grad_theta_sq / theta**2)
        entropy_sink = grid.integrate(
            delta * rho * np.power(theta, law.alpha) / (rho + delta)
        )

    return DiagnosticsRecord(
        t=state.t,
        mass=grid.integrate(rho),
        kinetic_energy=kinetic,
        magnetic_energy=magnetic,
        elastic_energy=elastic,
        thermal_energy=thermal,
        total_energy=total,
        artificial_pressure=delta * grid.integrate(rho_beta),
        pressure_log_density=grid.integrate(p_phys * log_rho),
        entropy_total=entropy_total,
        viscous_dissipation=visc,
        magnetic_dissipation=mag_diss,
        div_H_l2=div_H,
        velocity_clamp_nodes=incidents.velocity_clamp_nodes if incidents else 0,
        heat_floor_nodes=incidents.heat_floor_nodes if incidents else 0,
        heat_content_total=grid.integrate(heat_content(law, theta)),
        artificial_pressure_log_density=delta * grid.integrate(rho_beta * log_rho),
        eps_elastic_gradient=grid.integrate(
            law.p_e.deriv(rho) / rho * grad_rho_sq
        ),
        eps_artificial_gradient=beta
        * grid.integrate(np.power(rho, beta - 2.0) * grad_rho_sq),
        sink_integral=grid.integrate(np.power(theta, law.alpha + 1.0)),
        entropy_production_mech=prod_mech,
        entropy_production_thermal=prod_thermal,
        entropy_sink=entropy_sink,
        rho_min=float(np.min(rho)),
        rho_max=float(np.max(rho)),
        theta_min=theta_min,
        theta_max=float(np.max(theta)),
        speed_max=float(np.max(np.sum(u * u, axis=0))) ** 0.5,
        **norms,
    )


# ---------------------------------------------------------------------------
# CSV io
# ---------------------------------------------------------------------------


def write_records_csv(path, records) -> None:
    """Deterministic CSV: fixed column order, 17 significant digits, LF."""
    names = [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    lines = [",".join(names)]
    for r in records:
        row = []
        for n in names:
            v = getattr(r, n)
            row.append(str(v) if n in _INT_FIELDS else format(float(v), ".17g"))
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_records_csv(path):
    with open(path, "r", newline="") as f:
        rows = [line.rstrip("\n") for line in f if line.strip()]
    names = rows[0].split(",")
    expected = [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    if names != expected:
        raise ValueError(f"{path}: unexpected record columns {names[:3]}...")
    out = []
    for row in rows[1:]:
        vals = row.split(",")
        kwargs = {
            n: (int(v) if n in _INT_FIELDS else float(v))
            for n, v in zip(names, vals)
        }
        out.append(DiagnosticsRecord(**kwargs))
    return out


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetWindow:
    t0: float
    t1: float
    signed_residual: float
    full_residual: float


@dataclass(frozen=True)
class BudgetReport:
    windows: tuple
    max_signed_residual: float
    max_abs_full_residual: float
    dissipation_paid: float


def _check_monotone_times(records) -> None:
    ts = [r.t for r in records]
    if len(ts) < 2:
        raise ValueError("need at least two records for a budget window")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("record times must be strictly increasing")


def energy_budget_check(records, params: SchemeParams) -> BudgetReport:
    """Windowed residuals of the regularized energy balance.

    signed_residual charges only the delta-weighted dissipation and sink;
    it should be <= C1*dt + C2*h^2, and on well-resolved runs <= 0 because
    the neglected eps-gradient terms only remove energy.  full_residual
    adds those terms back and should vanish to discretization error.
    """
    _check_monotone_times(records)
    delta, beta, eps = params.delta, params.beta, params.epsilon
    windows = []
    paid = 0.0
    for a, b in zip(records, records[1:]):
        dt = b.t - a.t
        e_a = a.total_energy + delta * a.heat_content_total + a.artificial_pressure / (
            beta - 1.0
        )
        e_b = b.total_energy + delta * b.heat_content_total + b.artificial_pressure / (
            beta - 1.0
        )
        diss_a = delta * (a.viscous_dissipation + a.magnetic_dissipation + a.sink_integral)
        diss_b = delta * (b.viscous_dissipation + b.magnetic_dissipation + b.sink_integral)
        diss = 0.5 * dt * (diss_a + diss_b)
        grad_a = eps * (a.eps_elastic_gradient + delta * a.eps_artificial_gradient)
        grad_b = eps * (b.eps_elastic_gradient + delta * b.eps_artificial_gradient)
        grad = 0.5 * dt * (grad_a + grad_b)
        signed = e_b - e_a + diss
        windows.append(
            BudgetWindow(
                t0=a.t, t1=b.t, signed_residual=signed, full_residual=signed + grad
            )
        )
        paid += diss
    return BudgetReport(
        windows=tuple(windows),
        max_signed_residual=max(w.signed_residual for w in windows),
        max_abs_full_residual=max(abs(w.full_residual) for w in windows),
        dissipation_paid=paid,
    )


# ---------------------------------------------------------------------------
# entropy balance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyReport:
    skipped: bool
    reason: str
    imbalance: float
    sink_paid: float
    corrected_imbalance: float
    production_paid: float


def entropy_balance(records) -> EntropyReport:
    """Entropy change minus integrated production over the whole window.

    imbalance = [int rho s](end) - [int rho s](start) - int production dt;
    the delta-sink removes entropy and is reported separately, so
    corrected_imbalance = imbalance + sink_paid is the discretization-level
    defect on smooth runs with small eps and delta.
    """
    _check_monotone_times(records)
    theta_min = min(r.theta_min for r in records)
    if theta_min <= 0.0:
        raise ValueError(
            f"entropy balance needs strictly positive temperature, min = {theta_min:.6g}"
        )
    if theta_min < THETA_ENTROPY_FLOOR:
        return EntropyReport(
            skipped=True,
            reason=f"min theta {theta_min:.3e} below floor {THETA_ENTROPY_FLOOR:.0e}",
            imbalance=math.nan,
            sink_paid=math.nan,
            corrected_imbalance=math.nan,
            production_paid=math.nan,
        )
    prod = 0.0
    sink = 0.0
    for a, b in zip(records, records[1:]):
        dt = b.t - a.t
        prod += 0.5 * dt * (
            a.entropy_production_mech
            + a.entropy_production_thermal
            + b.entropy_production_mech
            + b.entropy_production_thermal
        )
        sink += 0.5 * dt * (a.entropy_sink + b.entropy_sink)
    imbalance = records[-1].entropy_total - records[0].entropy_total - prod
    return EntropyReport(
        skipped=False,
        reason="",
        imbalance=imbalance,
        sink_paid=sink,
        corrected_imbalance=imbalance + sink,
        production_paid=prod,
    )


# ---------------------------------------------------------------------------
# renormalized weak thermal residual
# ---------------------------------------------------------------------------


def _quintic_bump(s: np.ndarray) -> np.ndarray:
    """C^2 compact bump on [-1,1]: 1 - 10|s|^3 + 15 s^4 - 6|s|^5."""
    a = np.abs(s)
    out = 1.0 - 10.0 * a**3 + 15.0 * a**4 - 6.0 * a**5
    return np.where(a < 1.0, out, 0.0)


def _quintic_bump_d1(s: np.ndarray) -> np.ndarray:
    a = np.abs(s)
    mag = -30.0 * a**2 + 60.0 * a**3 - 30.0 * a**4
    return np.where(a < 1.0, np.sign(s) * mag, 0.0)


def _quintic_bump_d2(s: np.ndarray) -> np.ndarray:
    a = np.abs(s)
    out = -60.0 * a + 180.0 * a**2 - 120.0 * a**3
    return np.where(a < 1.0, out, 0.0)


_BANK_CENTERS = (
    (0.5, 0.5, 0.5),
    (0.3, 0.6, 0.5),
    (0.7, 0.4, 0.5),
    (0.25, 0.25, 0.5),
    (0.75, 0.75, 0.5),
    (0.5, 0.25, 0.5),
    (0.0, 0.5, 0.5),  # wall-centered: bump peak on the wall, grad = 0 there
    (1.0, 1.0, 0.5),  # corner-centered
)
_BANK_WIDTHS = (0.2, 0.35, 0.5)
_BANK_PROFILES = ("rampdown", "interior")


def _bank_tables(grid: Grid, T: float, times):
    """The fixed test bank as tables.

    The bank has 50 separable members phi = r(t) S(x), the 25 spatial parts
    (8 centers x 3 widths of a tensor product of quintic bumps, then the
    uniform S = 1) each under the 2 time profiles of _BANK_PROFILES; member
    j = 2p + q is part p under profile q, named f"{part}-{profile}".  Bumps
    may overlap the walls: each decreases outward, so any wall flux the
    diffusion pairing drops has the sign that raises the residual, and the
    check stays one-sided.  Both profiles vanish at T and are nonnegative.

    Returns the names; S_mat, G_mat (the active-axis components of grad S,
    flattened) and L_mat (lap S), one row per part, from the analytic
    derivatives of the bumps; and r[q, k] and rp[q, k], profile q and its
    slope at times[k].
    """
    shape = grid.shape

    def outer3(f0, f1, f2):
        return f0[:, None, None] * f1[None, :, None] * f2[None, None, :]

    parts = [
        (f"bump-c{ci}-w{w:g}", c, w) for ci, c in enumerate(_BANK_CENTERS) for w in _BANK_WIDTHS
    ]
    parts.append(("uniform", None, None))
    active = list(grid.active_axes)
    # one row per part: a product with a row-major part matrix sums each
    # pairing in the order of a dot product (gemv with the parts as columns
    # sums them axpy-wise, with about eight times the rounding error)
    n = math.prod(shape)
    S_mat, G_mat, L_mat = (np.empty((len(parts), m * n)) for m in (1, len(active), 1))
    for p, (_, center, width) in enumerate(parts):
        # f[a], df[a], d2f[a]: the factor of S along axis a and its
        # derivatives, identically one along a suppressed axis and for the
        # uniform part
        f, df, d2f = [], [], []
        for a in range(3):
            if center is None or shape[a] == 1:
                f.append(np.ones(shape[a]))
                df.append(np.zeros(shape[a]))
                d2f.append(np.zeros(shape[a]))
                continue
            L = grid.extents[a]
            w = width * L
            s = (grid.coords(a) - center[a] * L) / w
            f.append(_quintic_bump(s))
            df.append(_quintic_bump_d1(s) / w)
            d2f.append(_quintic_bump_d2(s) / w**2)
        S_mat[p] = outer3(*f).reshape(-1)
        G_p = G_mat[p].reshape((len(active),) + shape)
        for i, a in enumerate(active):
            G_p[i] = outer3(*(df[b] if b == a else f[b] for b in range(3)))
        L_mat[p] = (
            outer3(d2f[0], f[1], f[2]) + outer3(f[0], d2f[1], f[2]) + outer3(f[0], f[1], d2f[2])
        ).reshape(-1)

    # rampdown: the bump's right half over [0, T]; interior: a bump
    # centered at 0.4 T of half-width 0.35 T.  Evaluated one time at a
    # time: on a 0-d argument the bump computes with numpy scalars, whose
    # powers can differ in the last bit from numpy's array loop, and the
    # reports' bits rest on the scalar ones
    T = float(T)
    args = ([t / T for t in times], [(t / T - 0.4) / 0.35 for t in times])
    r = np.array([[float(_quintic_bump(np.asarray(x))) for x in row] for row in args])
    rp = np.array([[float(_quintic_bump_d1(np.asarray(x))) for x in row] for row in args])
    rp[0] /= T
    rp[1] /= 0.35 * T
    names = [f"{part}-{profile}" for part, _, _ in parts for profile in _BANK_PROFILES]
    return names, S_mat, G_mat, L_mat, r, rp


@dataclass(frozen=True)
class WeakResidualReport:
    residuals: tuple  # (name, value) pairs
    min_residual: float
    worst_name: str

    def as_dict(self):
        return dict(self.residuals)


def thermal_weak_residual(
    grid: Grid, law: ConstitutiveLaw, params: SchemeParams, states
) -> WeakResidualReport:
    """Right-minus-left of the renormalized weak thermal balance for each
    member of the fixed test bank (see _bank_tables), with the
    renormalizing weight of exponent params.omega.

    For the smooth regularized system the two sides agree exactly, so each
    residual is pure discretization error; the inequality-shaped contract
    is residual >= -tol(dt, h).  States must be the recorded trajectory
    (with the initial state first); time integrals use the trapezoid rule
    over the record times.  The report lists the members in bank order.

    Both sides are linear in phi, so the field work is done once per state:
    six integrands, folded with the quadrature weights, pair with phi_t,
    grad phi, lap phi and phi (four on the left, two on the right).  Every
    member is separable, phi = r(t) S(x), so the pairing is three matrix
    products per state against the bank's 25 spatial parts: the three
    integrands that pair with phi or phi_t against S, the two that pair
    with grad phi against the active-axis components of grad S, and w K_h
    against lap S.  Each member then scales its part's products by its
    profile's r(t) or r'(t).  K_h comes from one table built for the whole
    trajectory.
    """
    if len(states) < 2:
        raise ValueError("need at least two recorded states")
    times = [s.t for s in states]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("state times must be strictly increasing")
    names, S_mat, G_mat, L_mat, r, rp = _bank_tables(grid, times[-1], times)
    ren = Renormalizer(params.omega)

    delta, eps = params.delta, params.epsilon
    w = grid.quad_weights
    k_h_all = renormalized_conductivity_potential(
        law, ren, np.stack([st.theta for st in states])
    )

    # pairs[:, p, k]: the integrands of states[k] against the p-th part, in the
    # order phi_t, sink, source (with S), flux, eps (with grad S), lap
    active = list(grid.active_axes)
    pairs = np.empty((6, len(S_mat), len(states)))
    for k, (st, k_h) in enumerate(zip(states, k_h_all)):
        rho, u, theta, H = st.rho, st.u, st.theta, st.H
        h_w = ren(theta)
        dh_w = ren.deriv(theta)
        q_h = renormalized_heat_content(law, ren, theta)
        q = heat_content(law, theta)
        du = vector_gradient(grid, u)
        divu = du[0, 0] + du[1, 1] + du[2, 2]
        curl_H = table_curl(vector_gradient(grid, H))
        heating = dissipation(law, du, theta) + law.nu * np.sum(curl_H * curl_H, axis=0)
        grad_theta = gradient(grid, theta)
        grad_theta_sq = grad_theta[0] ** 2 + grad_theta[1] ** 2 + grad_theta[2] ** 2
        grad_rho = gradient(grid, rho)
        # g = Q_h - Q h; its theta-derivative collapses to -Q h' because the
        # c_v h pieces cancel
        g = q_h - q * h_w
        dg_dtheta = -q * dh_w
        source_w = (delta - 1.0) * h_w * heating + dh_w * law.kappa(
            theta
        ) * grad_theta_sq + h_w * theta * law.p_th(rho) * divu
        grad_rho_theta = sum(grad_rho[a] * grad_theta[a] for a in range(3))

        # left: (rho+delta) Q_h phi_t + rho Q_h u.grad phi + K_h lap phi
        #       - delta h theta^(alpha+1) phi
        w_phi_t = w * ((rho + delta) * q_h)
        w_flux = w * (rho * q_h * u)
        w_lap = w * k_h
        w_sink = w * (-delta * h_w * np.power(theta, law.alpha + 1.0))
        # right: source phi + eps grad rho.grad(g phi)
        w_source = w * (source_w + eps * dg_dtheta * grad_rho_theta)
        w_eps = w * (eps * g * grad_rho)

        with_s = np.stack([w_phi_t.reshape(-1), w_sink.reshape(-1), w_source.reshape(-1)])
        with_g = np.stack([w_flux[active].reshape(-1), w_eps[active].reshape(-1)])
        pairs[0:3, :, k] = with_s @ S_mat.T
        pairs[3:5, :, k] = with_g @ G_mat.T
        pairs[5, :, k] = L_mat @ w_lap.reshape(-1)

    # lhs_t[j, k], rhs_t[j, k]: the two sides for member j = 2p + q at
    # states[k], from the pairings of part p, (P, 1, K), and the rows of
    # profile q, (2, K)
    p_t, p_sink, p_source, p_flux, p_eps, p_lap = pairs[:, :, None, :]
    lhs_t = (rp * p_t + r * (p_flux + p_lap + p_sink)).reshape(len(names), -1)
    rhs_t = (r * (p_source + p_eps)).reshape(len(names), -1)

    # initial-data term of the right side, r(t0) <w w_h0, S>.  It is not
    # averaged over records as the other terms are, so each pairing takes
    # numpy's pairwise sum: its dot-product error reached 4 ulps of a term
    # that nearly cancels the two time integrals
    st0 = states[0]
    w_h0 = w * ((st0.rho + delta) * renormalized_heat_content(law, ren, st0.theta))
    initial = (np.array([np.sum(w_h0.reshape(-1) * S) for S in S_mat])[:, None] * r[:, 0]).reshape(-1)

    residuals = []
    for name, lhs_phi, rhs_phi, init in zip(names, lhs_t, rhs_t, initial):
        lhs = _trapz(lhs_phi, times)
        rhs = _trapz(rhs_phi, times)
        rhs -= float(init)
        residuals.append((name, float(rhs - lhs)))
    # the lowest residual; a tie (mirror-image members can agree to the last
    # bit) goes to the member that comes first in the bank
    worst_name, min_residual = residuals[
        min(range(len(residuals)), key=lambda j: (residuals[j][1], j))
    ]
    return WeakResidualReport(
        residuals=tuple(residuals), min_residual=min_residual, worst_name=worst_name
    )


# ---------------------------------------------------------------------------
# artificial pressure monitor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureMonitorSeries:
    times: tuple
    instantaneous: tuple  # delta * int rho^beta at each record
    cumulative: tuple  # delta * int int (rho^beta + theta^(alpha+1)) up to t
    time_average: float


def artificial_pressure_monitor(records, params: SchemeParams) -> PressureMonitorSeries:
    if not params.delta > 0.0:
        raise ValueError("artificial pressure monitor needs delta > 0")
    _check_monotone_times(records)
    times = [r.t for r in records]
    inst = [r.artificial_pressure for r in records]
    combined = [
        r.artificial_pressure + params.delta * r.sink_integral for r in records
    ]
    cum = [0.0]
    for i in range(1, len(records)):
        dt = times[i] - times[i - 1]
        cum.append(cum[-1] + 0.5 * dt * (combined[i - 1] + combined[i]))
    avg = float(_trapz(inst, times) / (times[-1] - times[0]))
    return PressureMonitorSeries(
        times=tuple(times),
        instantaneous=tuple(inst),
        cumulative=tuple(cum),
        time_average=avg,
    )
