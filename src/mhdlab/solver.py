"""Explicit time integration of the regularized viscous MHD system.

The integrator advances the conserved tuple

    (rho, rho*u, (rho + delta)*Q(theta), H)

with a two-stage Runge-Kutta step (Heun).  Every spatial term is assembled
from the parity-aware stencils in fieldops, so the no-slip / perfectly
conducting / insulating wall conditions are encoded in the ghost handling
and re-imposed exactly after each stage.  H is re-projected divergence-free
after every full step.

rhs is assembled in two stacked stencil phases, each a stack of operands
that share a parity per fieldops.d1 call.  Phase 1 makes one ODD and one
EVEN call per active axis on the state-level operands (u, H, the mass and
heat fluxes; u x H, rho and the total pressure), and one d2 call per axis
on [rho, K] gives both Laplacians.  Phase 2 differentiates the table-level
operands (the gradient tables of H and mu*u, rho u u_j and the lam terms),
and only those that feed a term: along axis j its EVEN call leaves out
d_j H_j, and its ODD call carries d_k only for the active axes k != j.  So
a 1D grid makes no phase-2 ODD call, and 2D and 3D grids pass it 2 and 4
operands (3 and 6 with lam), where a full table would take 6.  The gradient
tables are kept by column: column j holds d_j of every operand of a stack,
and a suppressed axis has an exact zero column.

The arithmetic is that of the term-by-term oracle _reference_rhs in
tests/test_solver.py, built from the fieldops operators (gradient,
divergence, dissipation) and the test-only ones of tests/test_rhs_oracle.py
(laplacian, stress_divergence, induction_rhs), so the result is the same to
the last bit; only + - * / are restacked, and pow is taken on the same
arrays as there.  A term that is an exact zero is left out of a sum only
where that cannot move a bit: where the sum is padded with +0.0, which
already fixes the sign of a zero result, or where it is a +0.0 being
subtracted.

rhs is compiled.  _compile_rhs resolves everything that depends only on
(grid, law, params): every buffer and view, the row lists, the loops over
the active axes, the lam branch, the curl curl and stress assembly and the
folded sums.  It emits the body as a flat list of functools.partial calls
on the buffers it allocated, with every scalar taken from the key objects.
A call copies into the bound input buffers those of rho, u, theta and H
that are not already there, replays the list and copies the bound output
stack into out; sources are added after.  Each stencil enters the list as
its steps: fieldops.d1_steps or d2_steps, looked up in fieldops when the
program compiles, emit the numpy calls of that d1 or d2 bound to the
program's buffers.  The law enters it the same way: value_steps and
integral_steps of constitutive emit the calls of the closed form of a
Const, Power or Sum piece (mu, lam, p_e, p_th, and c_v and kappa for Q and
K), the steps the law's own functions make at once.  A Const coefficient
is its float; a piece with no closed form, a Tabulated mu or lam, stays
one call of its own function, copied into a buffer.  Each distinct power
(operand, exponent) is taken once, so one theta^(alpha+1) serves K and the
delta-sink.  A replay therefore calls neither fieldops.d1 nor d2 nor into
constitutive, and a wrapper of a step builder sees each stencil once per
compile.  The key holds the grid, not only its shape, because two grids of
one shape can differ in spacing.

Each thread keeps one program, that of its last key, and compiles anew
when the key changes; run() drops it when it returns or raises.  The
program also holds the stacks of step, which holds the conserved tuple,
and each of its two stage rates, as one stack of 8 rows (rho, w, m, H)
that rhs fills through its out= argument.  Each stage update and
finiteness check is then one call over the stack, and each wall reset one
fill per active axis.  step builds the conserved tuple after the first
replay, from that replay's inputs and its rho u and Q(theta), and recovers
the stage-1 primitives straight into the program's input buffers, so the
second rhs copies none of them; the stage-2 primitives go to new arrays,
which the returned State owns.  _recover and stable_dt read their minima
and maxima by ufunc reductions into the program's scratch, and stable_dt
takes kappa(theta_max) by kappa's steps on a 0-d buffer of the program, so
a step calls into constitutive neither.  The program holds the grid's
divergence projector too, which step and mollify_initial_data take from
it: a run and the mollification of its initial data share one build, and
two threads on their own grids build one each.

Regularization knobs: epsilon adds mass diffusion (with its compensating
velocity-gradient force in the momentum equation), delta carries the
artificial pressure delta*rho^beta, the thermal sink delta*theta^(alpha+1),
the (1-delta) damping of the heating terms, and the heat-capacity padding
(rho + delta).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import fieldops
from .constitutive import ConstitutiveLaw, integral_steps, value_steps
from .errors import ConfigError, InvariantViolation, NumericalAbort
from .fieldops import EVEN, ODD, _is_zero_coeff
from .grid import Grid
from .projection import DivFreeProjector

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

    rho_cap: float
    rho_raised_nodes: int
    rho_lowered_nodes: int
    momentum_zero_mask: np.ndarray
    theta_raised_nodes: int
    wall_speed_cleaned: float


def mollify_initial_data(
    grid: Grid,
    law: ConstitutiveLaw,
    params: SchemeParams,
    rho0,
    u0,
    theta0,
    H0,
):
    """Clamp and project raw initial fields into the scheme's admissible set.

    rho is clamped into [delta, delta^(-1/(2 beta))] and the velocity is
    zeroed wherever the clamp lowered rho (so no kinetic energy is invented
    at capped nodes); theta is raised to at least 1e-3; u and H walls are
    zeroed; H is projected divergence-free.  Returns the admissible State at
    t=0 plus a report of everything that was altered.
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

    floor = params.delta
    cap = params.delta ** (-1.0 / (2.0 * params.beta))
    rho = np.clip(rho0, floor, cap)
    raised = rho > rho0
    lowered = rho < rho0

    u = u0.copy()
    wall_speed = grid.wall_max(u)
    grid.zero_walls(u)
    u[:, lowered] = 0.0

    theta = np.maximum(theta0, 1e-3)

    H = grid.zero_walls(H0.copy())
    # the projector a run of this grid, law and params steps with
    H = _program(grid, law, params).projector.project(H)

    report = MollificationReport(
        rho_cap=cap,
        rho_raised_nodes=int(np.count_nonzero(raised)),
        rho_lowered_nodes=int(np.count_nonzero(lowered)),
        momentum_zero_mask=lowered,
        theta_raised_nodes=int(np.count_nonzero(theta > theta0)),
        wall_speed_cleaned=wall_speed,
    )
    return State(grid, rho, u, theta, H, 0.0), report


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

# rows of a conserved stack (8, *grid.shape): rho, w, m (3), H (3).  m and H,
# which vanish on the walls, are adjacent, so one call resets their walls.
_RHO, _W, _M, _H = 0, 1, slice(2, 5), slice(5, 8)
_WALLED = slice(2, 8)
_BLOCKS = (("mass", _RHO), ("momentum", _M), ("thermal", _W), ("magnetic", _H))
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# ufunc reductions, which have no Python-level wrapper as ndarray.min has
_min, _max, _all = np.minimum.reduce, np.maximum.reduce, np.logical_and.reduce


class _Slot(threading.local):
    """The compiled rhs program of this thread's last (grid, law, params).

    A thread keeps one program, whose buffers are freed with the thread or
    when run() returns.  They are kept from call to call because
    allocating and freeing stacks this large on every call makes malloc
    return them to the system and fault them back in: so allocated, the
    stacked rhs measured slower on 65x65 and 17^3 than the term-by-term
    assembly it replaced.
    """

    key = None
    program = None


_slot = _Slot()


def _program(grid: Grid, law: ConstitutiveLaw, params: SchemeParams) -> SimpleNamespace:
    """This thread's program for the key, compiled when the key changes."""
    key = (grid, law, params)
    if key != _slot.key:
        _slot.key, _slot.program = key, _compile_rhs(grid, law, params)
    return _slot.program


def _rows(idx) -> slice:
    """Rows idx as a slice; every subset of the three axes is an arithmetic
    progression."""
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    return slice(idx[0], idx[-1] + 1, step)


def _builder(calls: list, shape: tuple) -> SimpleNamespace:
    """What the steps of a stencil or a law piece are emitted to: emit binds
    a call and appends it to calls, buf allocates a zeroed array of the
    shape, and power(x, e) is an array holding x**e, taken once for each
    operand and exponent."""
    powers = {}

    def emit(fn, *args, **kwargs):
        # a float operand as a 0-d array, which numpy takes faster to the
        # same bits
        args = [np.asarray(a) if type(a) is float else a for a in args]
        calls.append(partial(fn, *args, **kwargs))

    def buf(*lead):
        return np.zeros(lead + shape)

    def power(x, e):
        key = (id(x), e)
        if key not in powers:
            powers[key] = x, buf()  # x is kept, so its id stays its own
            emit(np.power, x, e, powers[key][1])
        return powers[key][1]

    return SimpleNamespace(emit=emit, buf=buf, power=power)


def _compile_rhs(grid: Grid, law: ConstitutiveLaw, params: SchemeParams) -> SimpleNamespace:
    """The program of rhs and step for one grid, law and scheme: the body of
    rhs as a list of calls, every view, row list, loop and branch resolved,
    and the buffers they bind.

    No value carries over between replays: the calls write every buffer
    they read, except the inputs rho, u, theta and H, which rhs copies in
    when they are not already there, and the columns of suppressed axes in
    odd_col and even_col, never written, which stay zero.  The result is in
    out.
    """
    if not grid.active_axes:
        raise ConfigError(f"rhs needs an active axis; the grid {grid.shape} has none")
    calls = []
    shape = grid.shape
    b = _builder(calls, shape)
    emit, buf, power = b.emit, b.buf, b.power

    def stencil(name, f, axis, parity, out):
        # the steps of fieldops.d1 or d2, bound to these operands
        getattr(fieldops, f"{name}_steps")(grid, f, axis, parity, out, emit)

    def fold(out, terms, pad=True):
        # out = terms added left to right.  pad=True also adds +0.0, which
        # turns a -0.0 result into +0.0 and so reproduces bit for bit a sum
        # that had exact +0.0 terms anywhere in it: a zero-filled
        # accumulator, or the column of a suppressed axis.  Such a sum is
        # never -0.0, so any other exactly zero term can be left out of it.
        first, *rest = terms
        emit(np.add, first, 0.0 if pad else rest.pop(0), out)
        for term in rest:
            emit(np.add, out, term, out)

    def cross(a, b, out, rows=(0, 1, 2)):
        # fieldops.cross, component by component, of the given rows
        for c, i, j in _CYCLIC:
            if c not in rows:
                continue
            emit(np.multiply, a[i], b[j], out[c])
            emit(np.multiply, a[j], b[i], tmp)
            emit(np.subtract, out[c], tmp, out[c])

    eps = params.epsilon
    delta = params.delta
    axes = grid.active_axes
    # a sum over all three axes meets the exact zero column of a suppressed one
    padded = len(axes) < 3
    out = buf(8)
    drho, dw, dm, induction = out[_RHO], out[_W], out[_M], out[_H]
    tmp, tmp3 = buf(), buf(3)
    odd = buf(8)  # phase 1 ODD operands: u, H, rho u_j, rho Q u_j
    even = buf(6)  # phase 1 EVEN operands: u x H, ptot, rho, K
    rho, u, theta, H = even[4], odd[0:3], buf(), odd[3:6]

    # the law's pieces by their closed forms: a Const coefficient is its
    # float, which scales an array to the same bits as a filled array would
    mu = value_steps(law.mu, theta, b)
    lam = None if _is_zero_coeff(law.lam) else value_steps(law.lam, theta, b)
    rho_u = buf(3)
    emit(np.multiply, rho, u, rho_u)
    q = integral_steps(law.c_v, theta, b)  # Q(theta)
    rho_q = buf()
    emit(np.multiply, rho, q, rho_q)
    # theta p_th(rho): in the pressure and in the thermal block
    theta_pth = buf()
    emit(np.multiply, theta, value_steps(law.p_th, rho, b), theta_pth)

    # phase 1: one ODD and one EVEN d1 per axis on the state-level operands,
    # and one d2 per axis on [rho, K].  Column j of a table holds d_j of
    # every operand: du[i, j] = odd_col[j, i], dH[i, j] = odd_col[j, 3 + i],
    # d_j (u x H)_i = even_col[j, i], d_j ptot = even_col[j, 3] and
    # d_j rho = even_col[j, 4].
    # a row c of curl H and of the induction whose axes i, j are both
    # suppressed, as the active axis of a 1D grid, is +0.0 - +0.0: it is
    # left as the +0.0 of its zeroed buffer.  (u x H)_c then feeds only
    # d_c (u x H)_c, which no term reads, and is not formed either.
    curl_rows = [c for c, i, j in _CYCLIC if i in axes or j in axes]
    cross(u, H, even[0:3], curl_rows)
    # ptot = pressure(law, rho, theta) + delta rho^beta
    emit(np.add, value_steps(law.p_e, rho, b), theta_pth, even[3])
    emit(np.multiply, power(rho, params.beta), delta, tmp)
    emit(np.add, even[3], tmp, even[3])
    integral_steps(law.kappa, theta, b, even[5])  # K(theta)
    odd_col, even_col = buf(3, 8), buf(3, 5)
    for j in axes:
        emit(np.copyto, odd[6], rho_u[j])
        emit(np.multiply, rho_q, u[j], odd[7])
        stencil("d1", odd, j, ODD, odd_col[j])
        stencil("d1", even[:5], j, EVEN, even_col[j])
    lap = buf(2)  # lap rho, lap K
    for n, j in enumerate(axes):
        if n:
            stencil("d2", even[4:], j, EVEN, tmp3[:2])
            emit(np.add, lap, tmp3[:2], lap)
        else:
            stencil("d2", even[4:], j, EVEN, lap)
            emit(np.add, lap, 0.0, lap)
    flux_div = buf(2)  # div(rho u), div(rho Q u)
    fold(flux_div, [odd_col[j, 6:8] for j in axes])
    divu = buf()
    fold(divu, [odd_col[j, j] for j in axes], padded)

    curl_H = buf(3)
    for c, i, j in _CYCLIC:
        if c not in curl_rows:
            continue
        emit(np.subtract, odd_col[i, 3 + j], odd_col[j, 3 + i], curl_H[c])
        emit(np.subtract, even_col[i, j], even_col[j, i], induction[c])

    # phase 2: one EVEN and one ODD d1 per axis on the table-level operands
    # that feed a term.  Along axis j, d_j F_i is EVEN and d_k F_j is ODD
    # (k != j) for F = u, H; rho u_i u_j is EVEN; lam du[k, k] is EVEN along
    # k and ODD across it.  With the H rows i != j and the active k != j:
    #   along[j]  = d_j [dH[i, j], mu du[:, j], rho u u_j, lam du[j, j]]
    #   across[j] = d_j [dH[j, k], mu du[j, k], lam du[k, k]]
    # d_j d_j H_j, and d_j of the exact zeros d_k F for a suppressed k, feed
    # no term and are not taken; a 1D grid has no ODD pass.
    others = {j: [k for k in axes if k != j] for j in axes}
    h_slot = {j: [i for i in range(3) if i != j] for j in axes}
    n_other = len(axes) - 1
    n_even = 8 if lam is None else 9
    n_odd = (2 if lam is None else 3) * n_other
    even2, odd2 = buf(n_even), buf(n_odd)
    along, across = buf(3, n_even), buf(3, n_odd)
    for j in axes:
        emit(np.copyto, even2[0:2], odd_col[j, 3:][_rows(h_slot[j])])
        emit(np.multiply, mu, odd_col[j, 0:3], even2[2:5])
        emit(np.multiply, rho_u, u[j], even2[5:8])
        if lam is not None:
            emit(np.multiply, lam, odd_col[j, j], even2[8])
        stencil("d1", even2, j, EVEN, along[j])
        if n_other:
            for s, k in enumerate(others[j]):
                emit(np.copyto, odd2[s], odd_col[k, 3 + j])
                emit(np.multiply, mu, odd_col[k, j], odd2[n_other + s])
                if lam is not None:
                    emit(np.multiply, lam, odd_col[k, k], odd2[2 * n_other + s])
            stencil("d1", odd2, j, ODD, across[j])

    def dd_along(a, c):  # d_a d_a H_c, None for a suppressed a
        return along[a, h_slot[a].index(c)] if a in axes else None

    def dd_across(a, c):  # d_a d_c H_a, None for a suppressed a or c
        if c not in others.get(a, ()):
            return None
        return across[a, others[a].index(c)]

    # magnetic: curl(u x H) - nu curl(curl H), where (curl curl H)_c =
    # d_a d_c H_a - d_a d_a H_c - d_b d_b H_c + d_b d_c H_b.  The terms of a
    # suppressed axis are exact zeros: subtracted, a +0.0 changes nothing;
    # added, it turns -0.0 into +0.0, which is kept below where it can occur.
    # d_a d_c H_a of a suppressed c is -0.0 on the high wall of a, so a 2D
    # sum without it reads +0.0 for -0.0 on one corner, where induction is
    # +0.0 minus it: +0.0 either way.
    curl_curl = tmp3
    rows = []
    for c, a, b in _CYCLIC:
        ta, tb = dd_across(a, c), dd_across(b, c)
        subtracted = [t for t in (dd_along(a, c), dd_along(b, c)) if t is not None]
        if not subtracted:
            continue  # all four terms are +0.0
        emit(np.subtract, 0.0 if ta is None else ta, subtracted[0], curl_curl[c])
        for term in subtracted[1:]:
            emit(np.subtract, curl_curl[c], term, curl_curl[c])
        if tb is not None:
            emit(np.add, curl_curl[c], tb, curl_curl[c])
        elif ta is not None:
            emit(np.add, curl_curl[c], 0.0, curl_curl[c])
        rows.append(c)
    rows = _rows(rows)
    emit(np.multiply, curl_curl[rows], law.nu, curl_curl[rows])
    emit(np.subtract, induction[rows], curl_curl[rows], induction[rows])

    # momentum: -div(rho u x u) - grad(p + delta rho^beta)
    #           - eps (grad u) grad rho + (curl H) x H + div psi
    # div psi: d_j [mu d_j u_i] is EVEN along j and d_j [mu d_i u_j] ODD for
    # i != j, so the i = j entry comes from the EVEN pass; the entries of a
    # suppressed i are exact zeros, left out of the padded sum
    stress = buf(3)
    for n, j in enumerate(axes):
        if n:
            emit(np.add, stress, along[j, 2:5], stress)
        else:
            emit(np.add, along[j, 2:5], 0.0, stress)
        emit(np.add, stress[j], along[j, 2 + j], stress[j])
        for s, k in enumerate(others[j]):
            emit(np.add, stress[k], across[j, n_other + s], stress[k])
    if lam is not None:
        for i in axes:
            for k in axes:
                if k == i:
                    term = along[i, 8]
                else:
                    term = across[i, 2 * n_other + others[i].index(k)]
                emit(np.add, stress[i], term, stress[i])
    fold(dm, [along[j, 5:8] for j in axes])
    emit(np.negative, dm, dm)
    for j in axes:
        emit(np.subtract, dm[j], even_col[j, 3], dm[j])
    eps_force = buf(3)
    for n, j in enumerate(axes):
        if n:
            emit(np.multiply, odd_col[j, 0:3], even_col[j, 4], tmp3)
            emit(np.add, eps_force, tmp3, eps_force)
        else:
            emit(np.multiply, odd_col[j, 0:3], even_col[j, 4], eps_force)
            if padded:
                emit(np.add, eps_force, 0.0, eps_force)
    emit(np.multiply, eps_force, eps, eps_force)
    emit(np.subtract, dm, eps_force, dm)
    cross(curl_H, H, tmp3)
    emit(np.add, dm, tmp3, dm)
    emit(np.add, dm, stress, dm)

    # thermal: -div(rho Q u) + lap K - delta theta^(alpha+1)
    #          + (1-delta)(nu |curl H|^2 + psi:grad u) - theta p_th div u
    # psi:grad u = (mu/2) sum_ij (d_i u_j + d_j u_i)^2 + lam (div u)^2.  The
    # squares are never -0.0, so the exact zeros of pairs of suppressed axes
    # change no bit of the sum.  A reduction over the leading axis of a
    # C-contiguous stack adds its rows in order, as a loop would.
    diss = buf()
    if len(axes) > 1:
        sym = buf(3, 3)
        emit(np.add, odd_col[:, 0:3], odd_col[:, 0:3].swapaxes(0, 1), sym)
        emit(np.multiply, sym, sym, sym)
        emit(np.add.reduce, sym.reshape((9,) + shape), axis=0, out=diss)
    else:
        # on a 1D grid with active axis a only row a and column a are not
        # exact zeros, and sym[j, a] = sym[a, j]: the sum takes the squares
        # of row a in the order of that reduction
        (a,) = axes
        sym_a = buf(3)
        emit(np.add, odd_col[a, 0:3], odd_col[0:3, a], sym_a)
        emit(np.multiply, sym_a, sym_a, sym_a)
        squares = [sym_a[j if i == a else i] for i in range(3) for j in range(3) if a in (i, j)]
        fold(diss, squares, pad=False)
    if isinstance(mu, float):
        emit(np.multiply, diss, 0.5 * mu, diss)
    else:
        half_mu = buf()
        emit(np.multiply, mu, 0.5, half_mu)
        emit(np.multiply, diss, half_mu, diss)
    if lam is not None:
        emit(np.multiply, lam, divu, tmp)
        emit(np.multiply, tmp, divu, tmp)
        emit(np.add, diss, tmp, diss)
    emit(np.multiply, curl_H, curl_H, tmp3)
    heating = buf()
    emit(np.add.reduce, tmp3, axis=0, out=heating)
    emit(np.multiply, heating, law.nu, heating)
    emit(np.add, heating, diss, heating)
    emit(np.multiply, heating, 1.0 - delta, heating)
    emit(np.subtract, lap[1], flux_div[1], dw)
    # kappa's Power(k, alpha) term integrates to the same power
    emit(np.multiply, power(theta, law.alpha + 1.0), delta, tmp)
    emit(np.subtract, dw, tmp, dw)
    emit(np.add, dw, heating, dw)
    emit(np.multiply, theta_pth, divu, tmp)
    emit(np.subtract, dw, tmp, dw)

    # mass: -div(rho u) + eps lap(rho)
    emit(np.multiply, lap[0], eps, drho)
    emit(np.subtract, drho, flux_div[0], drho)

    # step's conserved stacks: the state x0, the stage-1 state x1 and the
    # two stage rates; the stage-2 state is built in k2.  load_x0 builds x0
    # after a replay from its inputs and its rho u and Q(theta).
    x0, x1, k1, k2 = (np.empty((8,) + shape) for _ in range(4))
    load_x0 = []
    emit0 = _builder(load_x0, shape).emit
    emit0(np.copyto, x0[_RHO], rho)
    emit0(np.copyto, x0[_M], rho_u)
    emit0(np.add, rho, delta, x0[_W])
    emit0(np.multiply, x0[_W], q, x0[_W])
    emit0(np.copyto, x0[_H], H)

    def wall_reset(x):
        # one fill per active axis, on a view of both walls of the walled rows
        rows = x[_WALLED]
        return [partial(rows.reshape(ax.lines)[ax.walls].fill, 0.0) for ax in grid.stencil_axes if ax]

    # stable_dt's scratch, and kappa at the 0-d theta_max by its steps
    kappa_calls = []
    theta_max = np.zeros(())
    kappa_max = value_steps(law.kappa, theta_max, _builder(kappa_calls, ()))
    return SimpleNamespace(
        calls=calls, rho=rho, u=u, theta=theta, H=H, out=out, x0=x0, x1=x1, k1=k1, k2=k2,
        load_x0=load_x0, zero_x1_walls=wall_reset(x1), zero_k2_walls=wall_reset(k2),
        finite=np.empty((8,) + shape, bool), delta=np.asarray(delta), c_v=np.asarray(law.c_v.c),
        u_sq=buf(3), speed_sq=buf(), theta_max=theta_max, kappa_calls=kappa_calls,
        kappa_max=kappa_max, h=min(grid.spacing_active), d=len(axes),
        projector=DivFreeProjector(grid),
    )


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
    out: np.ndarray | None = None,
):
    """Time derivatives of (rho, rho u, (rho+delta)Q(theta), H).

    sources, if given, is called with the stage time and must return a
    4-tuple of arrays (or None entries) added to the respective blocks;
    manufactured-solution runs use it.  out, if given, is a conserved stack
    (8, *grid.shape) with rows rho, w, m, H, into which the blocks are
    written; the returned blocks are views of it.
    """
    program = _program(grid, law, params)
    if rho is not program.rho:
        np.copyto(program.rho, rho)
    if u is not program.u:
        np.copyto(program.u, u)
    if theta is not program.theta:
        np.copyto(program.theta, theta)
    if H is not program.H:
        np.copyto(program.H, H)
    for call in program.calls:
        call()
    if out is None:
        out = program.out.copy()
    else:
        np.copyto(out, program.out)
    blocks = out[_RHO], out[_M], out[_W], out[_H]
    if sources is not None:
        for block, source in zip(blocks, sources(t)):
            if source is not None:
                block += source
    return blocks


# ---------------------------------------------------------------------------
# stability limit
# ---------------------------------------------------------------------------


def stable_dt(grid: Grid, law: ConstitutiveLaw, params: SchemeParams, state: State) -> float:
    """safety * min(advective, diffusive, sink) step limits.

    Diffusive coefficients considered: eps, nu, mu_hi/rho_min and
    kappa(theta_max)/((rho_min+delta) cv_lo); the sink limit keeps the
    explicit theta update in the contraction region of the delta-sink.
    """
    program = _program(grid, law, params)
    h, d = program.h, program.d
    # max |u|^2, min rho and max theta by ufunc reductions into the
    # program's scratch; the sum adds the rows in order, as .sum(axis=0)
    np.multiply(state.u, state.u, program.u_sq)
    np.add.reduce(program.u_sq, 0, None, program.speed_sq)
    speed = float(_max(program.speed_sq, None)) ** 0.5
    rho_min = float(_min(state.rho, None))
    theta_max = float(_max(state.theta, None, None, program.theta_max))
    if not rho_min > 0.0:
        raise InvariantViolation(f"density positivity lost: min rho = {rho_min:.6g}")
    cv_lo = law.bounds.cv_lo
    for call in program.kappa_calls:
        call()
    kappa_max = float(program.kappa_max)
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


def _recover(program, x, incidents: IncidentLog, stage: str, t: float, u, theta) -> None:
    """The primitives u and theta of a conserved stack, written into u and
    theta, with guarded division and floors."""
    rho, m, w = x[_RHO], x[_M], x[_W]
    rho_min = float(_min(rho, None))
    if not rho_min > 0.0:
        raise InvariantViolation(
            f"density positivity lost ({stage}, t={t:.6g}): min rho = {rho_min:.6g}"
        )
    floor = 0.5 * float(program.delta)
    if rho_min < floor:
        incidents.velocity_clamp_nodes += int(np.count_nonzero(rho < floor))
        np.divide(m, np.maximum(rho, floor), u)
    else:
        np.divide(m, rho, u)

    # q = w / (rho + delta), in theta
    q = theta
    np.add(rho, program.delta, q)
    np.divide(w, q, q)
    q_min = float(_min(q, None))
    if q_min < 0.0:
        scale = max(float(np.max(np.abs(q))), 1e-300)
        if q_min < -1e-12 * scale:
            raise InvariantViolation(
                f"thermal content went negative ({stage}, t={t:.6g}): min = {q_min:.6g}"
            )
        incidents.heat_floor_nodes += int(np.count_nonzero(q < 0.0))
        np.maximum(q, 0.0, q)
    # theta = temperature_from_heat(law, q); q >= 0 needs no second scan
    np.divide(q, program.c_v, theta)


def _check_finite(x: np.ndarray, finite: np.ndarray, t: float) -> None:
    if not _all(np.isfinite(x, finite), None):
        for name, rows in _BLOCKS:
            bad = int(np.count_nonzero(~finite[rows]))
            if bad:
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
    sources=None,
    incidents: IncidentLog | None = None,
    dt_limit: float | None = None,
) -> State:
    """One Heun step of the conserved tuple; walls re-imposed each stage.

    Each stage names in its errors the time of its rhs: t, then t + dt.
    The returned state owns its arrays.
    """
    if incidents is None:
        incidents = IncidentLog()
    if dt_limit is None:
        dt_limit = stable_dt(grid, law, params, state)
    t = state.t
    if dt > dt_limit * (1.0 + 1e-12):
        raise InvariantViolation(
            f"dt={dt:.6g} exceeds the stability limit {dt_limit:.6g} at t={t:.6g}"
        )

    program = _program(grid, law, params)
    x0, x1, k1, k2 = program.x0, program.x1, program.k1, program.k2
    rhs(grid, law, params, state.rho, state.u, state.theta, state.H, t=t, sources=sources, out=k1)
    for call in program.load_x0:
        call()
    np.multiply(k1, dt, x1)
    np.add(x1, x0, x1)
    for call in program.zero_x1_walls:
        call()
    _check_finite(x1, program.finite, t)
    # the stage-1 state goes straight into the program's inputs
    _recover(program, x1, incidents, "stage 1", t, program.u, program.theta)
    np.copyto(program.rho, x1[_RHO])
    np.copyto(program.H, x1[_H])

    t2 = t + dt
    rhs(grid, law, params, program.rho, program.u, program.theta, program.H, t=t2, sources=sources, out=k2)
    x2 = k2
    np.add(x2, k1, x2)
    np.multiply(x2, 0.5 * dt, x2)
    np.add(x2, x0, x2)
    for call in program.zero_k2_walls:
        call()
    _check_finite(x2, program.finite, t2)
    u2, th2 = np.empty(x2[_M].shape), np.empty(x2[_W].shape)
    _recover(program, x2, incidents, "stage 2", t2, u2, th2)
    # project returns a new array
    return State(grid, x2[_RHO].copy(), u2, th2, program.projector.project(x2[_H]), t2)


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
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    T = params.t_end if t_end is None else t_end
    if not T > state0.t:
        raise ValueError(f"t_end={T} must exceed the initial time {state0.t}")

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

    try:
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
    finally:
        # the thread's program and its buffers
        _slot.key = _slot.program = None
