"""Explicit time integration of the regularized viscous MHD system.

The integrator advances the conserved tuple

    (rho, rho*u, (rho + delta)*Q(theta), H)

with a two-stage Runge-Kutta step (Heun).  Every spatial term is assembled
from the parity-aware stencils in fieldops, so the no-slip / perfectly
conducting / insulating wall conditions are encoded in the ghost handling
and re-imposed exactly after each stage.  H is re-projected divergence-free
after every full step.

rhs is assembled in two stacked stencil phases.  Each makes one ODD and one
EVEN fieldops.d1 call per active axis on a stack of operands that share the
parity: phase 1 differentiates the state-level operands (u, H, the mass and
heat fluxes; u x H, rho and the total pressure), phase 2 the table-level ones
(the columns and rows of the gradient tables of H and mu*u, rho u u_j and the
lam terms).  One d2 call per axis on [rho, K] gives both Laplacians.  The
gradient tables are kept by column: column j holds d_j of every operand of a
stack, and a suppressed axis has an exact zero column.  The arithmetic is
that of the fieldops operators (gradient, divergence, laplacian,
stress_divergence, dissipation, induction_rhs), term for term, so the result
is the same to the last bit; only + - * / are restacked, and pow is taken on
the same arrays as there.  Operands are written straight into the stack
slots, and the stacks and tables live in scratch buffers kept per grid shape
and thread, so no call allocates one of them.

Regularization knobs: epsilon adds mass diffusion (with its compensating
velocity-gradient force in the momentum equation), delta carries the
artificial pressure delta*rho^beta, the thermal sink delta*theta^(alpha+1),
the (1-delta) damping of the heating terms, and the heat-capacity padding
(rho + delta).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .constitutive import ConstitutiveLaw, heat_content, conductivity_potential, pressure, temperature_from_heat
from .errors import ConfigError, InvariantViolation, NumericalAbort
from .fieldops import EVEN, ODD, _is_zero_coeff, coefficient, cross, d1, d2, divergence
from .grid import Grid
from .projection import DivFreeProjector, projector_for

__all__ = [
    "SchemeParams",
    "IncidentLog",
    "State",
    "MollificationReport",
    "mollify_initial_data",
    "rhs",
    "stable_dt",
    "step",
    "run",
    "RunResult",
    "ensure_compatible",
]


@dataclass(frozen=True)
class SchemeParams:
    """Regularization weights and time-stepping policy.

    dt=None means adaptive stepping at the stability limit; a positive dt
    fixes the step (still checked against the limit every step).  omega is
    the renormalizing-weight exponent picked up by the diagnostics layer.
    """

    epsilon: float
    delta: float
    beta: float = 4.0
    omega: float = 0.5
    dt: float | None = None
    safety: float = 0.4
    t_end: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if not self.beta > 1.0:
            raise ValueError(f"beta must exceed 1, got {self.beta}")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must lie in (0,1], got {self.omega}")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"fixed dt must be positive, got {self.dt}")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError(f"safety must lie in (0,1], got {self.safety}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")


def ensure_compatible(law: ConstitutiveLaw, params: SchemeParams) -> None:
    """Cross-check law/params: the artificial pressure must dominate p_e."""
    if not params.beta > law.gamma:
        raise ConfigError(
            f"beta={params.beta} must exceed gamma={law.gamma} "
            "(artificial pressure must dominate the elastic pressure)"
        )


@dataclass
class IncidentLog:
    """Counts of guarded recoveries; nonzero values flag marginal steps."""

    velocity_clamp_nodes: int = 0
    heat_floor_nodes: int = 0

    def total(self) -> int:
        return self.velocity_clamp_nodes + self.heat_floor_nodes


@dataclass
class State:
    """Primitive fields on grid nodes at one instant."""

    grid: Grid
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    H: np.ndarray
    t: float = 0.0

    def copy(self) -> "State":
        return State(
            self.grid,
            self.rho.copy(),
            self.u.copy(),
            self.theta.copy(),
            self.H.copy(),
            self.t,
        )


# ---------------------------------------------------------------------------
# initial data mollification
# ---------------------------------------------------------------------------


@dataclass
class MollificationReport:
    """What the initial-data clamps actually touched."""

    rho_floor: float
    rho_cap: float
    rho_raised_nodes: int
    rho_lowered_nodes: int
    momentum_zero_mask: np.ndarray
    theta_raised_nodes: int
    theta_lowered_nodes: int
    wall_speed_cleaned: float
    wall_field_cleaned: float
    div_defect_before: float
    div_defect_after: float


def mollify_initial_data(
    grid: Grid,
    law: ConstitutiveLaw,
    params: SchemeParams,
    rho0,
    u0,
    theta0,
    H0,
    *,
    theta_lo: float = 1e-3,
    theta_hi: float | None = None,
    projector: DivFreeProjector | None = None,
):
    """Clamp and project raw initial fields into the scheme's admissible set.

    rho is clamped into [delta, delta^(-1/(2 beta))] and the velocity is
    zeroed wherever the clamp lowered rho (so no kinetic energy is invented
    at capped nodes); theta is clamped into [theta_lo, theta_hi]; u and H
    walls are zeroed; H is projected divergence-free.  Returns the admissible
    State at t=0 plus a report of everything that was altered.
    """
    ensure_compatible(law, params)
    rho0 = np.asarray(rho0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    H0 = np.asarray(H0, dtype=float)
    if not float(np.min(theta0)) > 0.0:
        raise ConfigError(
            f"initial temperature must be strictly positive, min = {float(np.min(theta0)):.6g}"
        )
    if float(np.min(rho0)) < 0.0:
        raise ConfigError(
            f"initial density must be non-negative, min = {float(np.min(rho0)):.6g}"
        )
    if not theta_lo > 0.0:
        raise ConfigError(f"theta_lo must be positive, got {theta_lo}")
    if theta_hi is not None and not theta_hi >= theta_lo:
        raise ConfigError(f"theta_hi={theta_hi} must be >= theta_lo={theta_lo}")

    floor = params.delta
    cap = params.delta ** (-1.0 / (2.0 * params.beta))
    rho = np.clip(rho0, floor, cap)
    raised = rho > rho0
    lowered = rho < rho0

    u = u0.copy()
    wall_speed = grid.wall_max(u)
    grid.zero_walls(u)
    u[:, lowered] = 0.0

    theta = np.clip(theta0, theta_lo, np.inf if theta_hi is None else theta_hi)

    H = H0.copy()
    wall_field = grid.wall_max(H)
    grid.zero_walls(H)
    div_before = grid.norm_l2(divergence(grid, H))
    if projector is None:
        projector = projector_for(grid)
    H = projector.project(H)
    div_after = grid.norm_l2(divergence(grid, H))

    report = MollificationReport(
        rho_floor=floor,
        rho_cap=cap,
        rho_raised_nodes=int(np.count_nonzero(raised)),
        rho_lowered_nodes=int(np.count_nonzero(lowered)),
        momentum_zero_mask=lowered,
        theta_raised_nodes=int(np.count_nonzero(theta > theta0)),
        theta_lowered_nodes=int(np.count_nonzero(theta < theta0)),
        wall_speed_cleaned=wall_speed,
        wall_field_cleaned=wall_field,
        div_defect_before=div_before,
        div_defect_after=div_after,
    )
    return State(grid, rho, u, theta, H, 0.0), report


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _workspace(shape: tuple, thread: int) -> SimpleNamespace:
    """Scratch buffers of rhs for one grid shape and thread.

    They are kept from call to call because allocating and freeing stacks
    this large on every call makes malloc return them to the system and
    fault them back in: so allocated, the stacked rhs measured slower on
    65x65 and 17^3 than the term-by-term assembly it replaced.  No value
    carries over: each call writes every slot it reads, and the rows of
    suppressed axes in the column tables, never written, stay zero.
    """

    def buf(*lead):
        return np.zeros(lead + shape)

    return SimpleNamespace(
        even=buf(10),  # EVEN d1 operands (phase 1 also keeps K for d2)
        odd=buf(8),  # ODD d1 operands
        odd_col=buf(3, 8),
        even_col=buf(3, 5),
        along=buf(3, 10),
        across=buf(3, 8),
    )


def _sum(terms, pad: bool = True) -> np.ndarray:
    """Add terms left to right into a new array.

    pad=True also adds +0.0, which turns a -0.0 result into +0.0 and so
    reproduces bit for bit a sum that had exact +0.0 terms anywhere in it:
    a zero-filled accumulator, or the column of a suppressed axis.
    """
    first, *rest = terms
    acc = first + 0.0 if pad else first + rest.pop(0)
    for term in rest:
        acc += term
    return acc


def rhs(
    grid: Grid,
    law: ConstitutiveLaw,
    params: SchemeParams,
    rho: np.ndarray,
    u: np.ndarray,
    theta: np.ndarray,
    H: np.ndarray,
    *,
    t: float = 0.0,
    sources=None,
):
    """Time derivatives of (rho, rho u, (rho+delta)Q(theta), H).

    sources, if given, is called with the stage time and must return a
    4-tuple of arrays (or None entries) added to the respective blocks;
    manufactured-solution runs use it.
    """
    eps = params.epsilon
    delta = params.delta
    axes = grid.active_axes
    shape = grid.shape
    # a sum over all three axes meets the exact zero column of a suppressed one
    padded = len(axes) < 3
    ws = _workspace(shape, threading.get_ident())
    mu = coefficient(law.mu, theta)
    lam = None if _is_zero_coeff(law.lam) else coefficient(law.lam, theta)
    rho_u = rho * u
    rho_q = rho * heat_content(law, theta)

    # phase 1: one ODD and one EVEN d1 per axis on the state-level operands,
    # and one d2 per axis on [rho, K].  Column j of a table holds d_j of
    # every operand: du[i, j] = odd_col[j, i], dH[i, j] = odd_col[j, 3 + i],
    # d_j (u x H)_i = even_col[j, i], d_j ptot = even_col[j, 3] and
    # d_j rho = even_col[j, 4].
    odd = ws.odd  # u, H, rho u_j, rho Q u_j
    even = ws.even[:6]  # u x H, ptot, rho, K
    odd_col, even_col = ws.odd_col, ws.even_col
    odd[0:3] = u
    odd[3:6] = H
    cross(u, H, out=even[0:3])
    np.add(pressure(law, rho, theta), delta * np.power(rho, params.beta), out=even[3])
    even[4] = rho
    even[5] = conductivity_potential(law, theta)
    for j in axes:
        np.copyto(odd[6], rho_u[j])
        np.multiply(rho_q, u[j], out=odd[7])
        d1(grid, odd, j, ODD, out=odd_col[j])
        d1(grid, even[:5], j, EVEN, out=even_col[j])
    lap = _sum([d2(grid, even[4:], j, EVEN) for j in axes])  # lap rho, lap K
    flux_div = _sum([odd_col[j, 6:8] for j in axes])  # div(rho u), div(rho Q u)
    divu = _sum([odd_col[j, j] for j in axes], padded)

    induction = np.empty((3,) + shape)
    curl_H = np.empty((3,) + shape)
    for c, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(odd_col[i, 3 + j], odd_col[j, 3 + i], out=curl_H[c])
        np.subtract(even_col[i, j], even_col[j, i], out=induction[c])

    # phase 2: one EVEN and one ODD d1 per axis on the table-level operands.
    # Along axis j, d_j F_i is EVEN and d_i F_j is ODD (i != j) for F = u, H;
    # rho u_i u_j is EVEN; lam du[k, k] is EVEN along k and ODD across it.
    # along[j] = d_j [dH[:, j], mu du[:, j], rho u u_j, lam du[j, j]] and
    # across[j] = d_j [dH[j, :], mu du[j, :], lam du[k, k] for k != j].
    n_even = 9 if lam is None else 10
    n_odd = 6 if lam is None else 5 + len(axes)
    even, odd = ws.even[:n_even], ws.odd[:n_odd]
    along, across = ws.along, ws.across
    for j in axes:
        even[0:3] = odd_col[j, 3:6]
        np.multiply(mu, odd_col[j, 0:3], out=even[3:6])
        np.multiply(rho_u, u[j], out=even[6:9])
        for k in range(3):
            odd[k] = odd_col[k, 3 + j]
            np.multiply(mu, odd_col[k, j], out=odd[3 + k])
        if lam is not None:
            np.multiply(lam, odd_col[j, j], out=even[9])
            for slot, k in enumerate((k for k in axes if k != j), 6):
                np.multiply(lam, odd_col[k, k], out=odd[slot])
        d1(grid, even, j, EVEN, out=along[j, :n_even])
        d1(grid, odd, j, ODD, out=across[j, :n_odd])

    # magnetic: curl(u x H) - nu curl(curl H)
    curl_curl = np.empty((3,) + shape)
    for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(across[a, c], along[a, c], out=curl_curl[c])
        curl_curl[c] -= along[b, c]
        curl_curl[c] += across[b, c]
    curl_curl *= law.nu
    induction -= curl_curl

    # mass: -div(rho u) + eps lap(rho)
    drho = lap[0] * eps
    drho -= flux_div[0]

    # momentum: -div(rho u x u) - grad(p + delta rho^beta)
    #           - eps (grad u) grad rho + (curl H) x H + div psi
    # div psi: d_j [mu d_j u_i] is EVEN along j and d_j [mu d_i u_j] ODD for
    # i != j, so the i = j entry comes from the EVEN pass
    for j in axes:
        across[j, 3 + j] = along[j, 3 + j]
    stress = _sum([col[j, 3:6] for j in axes for col in (along, across)])
    if lam is not None:
        for i in axes:
            slots = iter(across[i, 6:n_odd])
            for k in axes:
                stress[i] += along[i, 9] if k == i else next(slots)
    dm = _sum([along[j, 6:9] for j in axes])
    np.negative(dm, out=dm)
    for j in axes:
        dm[j] -= even_col[j, 3]
    eps_force = _sum([odd_col[j, 0:3] * even_col[j, 4] for j in axes], padded)
    eps_force *= eps
    dm -= eps_force
    dm += cross(curl_H, H)
    dm += stress

    # thermal: -div(rho Q u) + lap K - delta theta^(alpha+1)
    #          + (1-delta)(nu |curl H|^2 + psi:grad u) - theta p_th div u
    # psi:grad u = (mu/2) sum_ij (d_i u_j + d_j u_i)^2 + lam (div u)^2; the
    # squares are never -0.0, so the exact zeros of pairs of suppressed axes
    # are left out without changing a bit
    sym2 = {}
    for i in range(3):
        for j in range(i, 3):
            if i in axes or j in axes:
                s = odd_col[j, i] + odd_col[i, j]
                sym2[i, j] = sym2[j, i] = s * s
    diss = _sum([sym2[ij] for ij in sorted(sym2)], pad=False)
    diss *= 0.5 * mu
    if lam is not None:
        diss += lam * divu * divu
    sq = curl_H * curl_H
    heating = sq[0] + sq[1]
    heating += sq[2]
    heating *= law.nu
    heating += diss
    heating *= 1.0 - delta
    dw = lap[1] - flux_div[1]
    dw -= delta * np.power(theta, law.alpha + 1.0)
    dw += heating
    dw -= theta * law.p_th(rho) * divu

    if sources is not None:
        for block, source in zip((drho, dm, dw, induction), sources(t)):
            if source is not None:
                block += source
    return drho, dm, dw, induction


# ---------------------------------------------------------------------------
# stability limit
# ---------------------------------------------------------------------------


def stable_dt(grid: Grid, law: ConstitutiveLaw, params: SchemeParams, state: State) -> float:
    """safety * min(advective, diffusive, sink) step limits.

    Diffusive coefficients considered: eps, nu, mu_hi/rho_min and
    kappa(theta_max)/((rho_min+delta) cv_lo); the sink limit keeps the
    explicit theta update in the contraction region of the delta-sink.
    """
    h = min(grid.spacing_active)
    d = grid.ndim_active
    speed = float(np.max(np.sum(state.u * state.u, axis=0))) ** 0.5
    rho_min = float(np.min(state.rho))
    theta_max = float(np.max(state.theta))
    if not rho_min > 0.0:
        raise InvariantViolation(f"density positivity lost: min rho = {rho_min:.6g}")
    cv_lo = law.bounds.cv_lo
    kappa_max = float(np.max(law.kappa(theta_max)))
    diff = max(
        params.epsilon,
        law.nu,
        law.bounds.mu_hi / rho_min,
        kappa_max / ((rho_min + params.delta) * cv_lo),
    )
    limits = [h * h / (2.0 * d * diff)]
    if speed > 0.0:
        limits.append(h / speed)
    if theta_max > 0.0:
        limits.append(
            ((rho_min + params.delta) * cv_lo)
            / (params.delta * (law.alpha + 1.0) * theta_max**law.alpha)
        )
    return params.safety * min(limits)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _recover(grid, law, params, rho, m, w, incidents: IncidentLog, stage: str, t: float):
    """Primitives from conserved blocks, with guarded division and floors."""
    rho_min = float(np.min(rho))
    if not rho_min > 0.0:
        raise InvariantViolation(
            f"density positivity lost ({stage}, t={t:.6g}): min rho = {rho_min:.6g}"
        )
    floor = 0.5 * params.delta
    hits = int(np.count_nonzero(rho < floor))
    if hits:
        incidents.velocity_clamp_nodes += hits
    u = m / np.maximum(rho, floor)

    q = w / (rho + params.delta)
    q_min = float(np.min(q))
    if q_min < 0.0:
        scale = max(float(np.max(np.abs(q))), 1e-300)
        if q_min < -1e-12 * scale:
            raise InvariantViolation(
                f"thermal content went negative ({stage}, t={t:.6g}): min = {q_min:.6g}"
            )
        incidents.heat_floor_nodes += int(np.count_nonzero(q < 0.0))
        q = np.maximum(q, 0.0)
    theta = temperature_from_heat(law, q)
    return u, theta


_BLOCKS = ("mass", "momentum", "thermal", "magnetic")


def _check_finite(arrays, t: float) -> None:
    for name, arr in zip(_BLOCKS, arrays):
        if not np.all(np.isfinite(arr)):
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            raise NumericalAbort(
                f"non-finite values in the {name} block at t={t:.6g} ({bad} nodes)"
            )


def step(
    grid: Grid,
    law: ConstitutiveLaw,
    params: SchemeParams,
    state: State,
    dt: float,
    *,
    projector: DivFreeProjector,
    sources=None,
    incidents: IncidentLog | None = None,
    dt_limit: float | None = None,
) -> State:
    """One Heun step of the conserved tuple; walls re-imposed each stage."""
    if incidents is None:
        incidents = IncidentLog()
    if dt_limit is None:
        dt_limit = stable_dt(grid, law, params, state)
    if dt > dt_limit * (1.0 + 1e-12):
        raise InvariantViolation(
            f"dt={dt:.6g} exceeds the stability limit {dt_limit:.6g} at t={state.t:.6g}"
        )

    rho0, u0, th0, H0 = state.rho, state.u, state.theta, state.H
    m0 = rho0 * u0
    w0 = (rho0 + params.delta) * heat_content(law, th0)

    k1 = rhs(grid, law, params, rho0, u0, th0, H0, t=state.t, sources=sources)
    rho1 = rho0 + dt * k1[0]
    m1 = m0 + dt * k1[1]
    w1 = w0 + dt * k1[2]
    H1 = H0 + dt * k1[3]
    grid.zero_walls(m1)
    grid.zero_walls(H1)
    _check_finite((rho1, m1, w1, H1), state.t)
    u1, th1 = _recover(grid, law, params, rho1, m1, w1, incidents, "stage 1", state.t)

    k2 = rhs(grid, law, params, rho1, u1, th1, H1, t=state.t + dt, sources=sources)
    rho2 = rho0 + 0.5 * dt * (k1[0] + k2[0])
    m2 = m0 + 0.5 * dt * (k1[1] + k2[1])
    w2 = w0 + 0.5 * dt * (k1[2] + k2[2])
    H2 = H0 + 0.5 * dt * (k1[3] + k2[3])
    grid.zero_walls(m2)
    grid.zero_walls(H2)
    _check_finite((rho2, m2, w2, H2), state.t + dt)
    u2, th2 = _recover(grid, law, params, rho2, m2, w2, incidents, "stage 2", state.t)
    H2 = projector.project(H2)
    return State(grid, rho2, u2, th2, H2, state.t + dt)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    final_state: State
    steps: int
    incidents: IncidentLog
    record_steps: list = field(default_factory=list)
    record_times: list = field(default_factory=list)
    recorded_states: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    # dt_min leaves out a final step shortened to land on t_end, which
    # dt_last reports; a run whose only step was shortened reports it in both
    dt_min: float = math.inf
    dt_max: float = 0.0
    dt_last: float = 0.0


def run(
    grid: Grid,
    law: ConstitutiveLaw,
    params: SchemeParams,
    state0: State,
    *,
    t_end: float | None = None,
    record_every: int = 50,
    observer=None,
    keep_states: bool = False,
    sources=None,
    projector: DivFreeProjector | None = None,
    snapshot_times=(),
    max_steps: int = 2_000_000,
) -> RunResult:
    """Integrate to t_end, emitting records every record_every steps.

    observer(step_index, state, incidents) is called at each record point
    (including step 0 and the final step); keep_states additionally retains
    deep copies of the recorded states.  snapshot_times collects state
    copies at the first step crossing each requested time.
    """
    ensure_compatible(law, params)
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    T = params.t_end if t_end is None else t_end
    if not T > state0.t:
        raise ValueError(f"t_end={T} must exceed the initial time {state0.t}")
    if projector is None:
        projector = projector_for(grid)

    incidents = IncidentLog()
    state = state0.copy()
    result = RunResult(final_state=state, steps=0, incidents=incidents)
    pending_snaps = sorted(float(s) for s in snapshot_times)

    def emit(step_idx: int) -> None:
        result.record_steps.append(step_idx)
        result.record_times.append(state.t)
        if keep_states:
            result.recorded_states.append(state.copy())
        if observer is not None:
            observer(step_idx, state, incidents)

    emit(0)
    last_emitted = 0
    steps = 0
    t_stop = T - 1e-12 * max(abs(T), 1.0)
    while state.t < t_stop:
        limit = stable_dt(grid, law, params, state)
        dt = limit if params.dt is None else params.dt
        cut = T - state.t < dt
        dt = min(dt, T - state.t)
        state = step(
            grid,
            law,
            params,
            state,
            dt,
            projector=projector,
            sources=sources,
            incidents=incidents,
            dt_limit=limit,
        )
        steps += 1
        if not cut:
            result.dt_min = min(result.dt_min, dt)
        result.dt_max = max(result.dt_max, dt)
        result.dt_last = dt
        while pending_snaps and state.t >= pending_snaps[0] - 1e-12:
            result.snapshots.append(state.copy())
            pending_snaps.pop(0)
        if steps % record_every == 0 or state.t >= t_stop:
            emit(steps)
            last_emitted = steps
        if steps >= max_steps:
            raise NumericalAbort(
                f"step budget exhausted after {steps} steps at t={state.t:.6g} < {T}"
            )
    if last_emitted != steps:
        emit(steps)
    if result.dt_min == math.inf:
        result.dt_min = result.dt_last
    result.final_state = state
    result.steps = steps
    return result
