"""Manufactured 1D solutions with closed-form sources.

A fixed family of smooth profiles on [0, pi] (density and temperature with
flat-ended cosines, velocity and transverse field from sine modes, zero
longitudinal field so the solenoidal constraint holds identically) is pushed
through the regularized equations.  Each profile is a constant plus
amplitude * X(x) * T(t), so every derivative the equations need has a short
closed form, and the sources are built from those by the product and chain
rules in numpy; the tests check them against a sympy derivation.  Whatever
tendency the exact fields fail to satisfy becomes a source term, handed to
the stepper through its per-block source hook.  Comparing computed and exact
fields then turns the solver into its own convergence experiment.

The stepper asks for the sources at every stage time.  A fixed-dt run asks
for t, t + dt, (t + dt) + dt, ...: once a request advances from the one
before by the same step d as that one did, the source callable evaluates
the next SOURCE_BLOCK stage times t, t + d, (t + d) + d, ... in one batched
pass of the same closed form, whose time axis is just one more array axis.
A time is served from a block only if it is one of the block's times
exactly; any other time is evaluated on its own.  Every served array is
therefore the one a direct evaluation at that time gives, byte for byte.

The closed form covers the standard power-family closure only; laws with
other coefficient shapes are rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .constitutive import ConstitutiveLaw
from .errors import ConfigError
from .grid import Grid
from .solver import SchemeParams, State, run

__all__ = [
    "BLOCKS",
    "ManufacturedCase",
    "ConvergenceReport",
    "make_manufactured_case",
    "spatial_convergence_study",
    "temporal_convergence_study",
]

BLOCKS = ("rho", "u", "theta", "H")
# order of the values returned by ManufacturedCase.sources
SOURCE_KEYS = ("rho", "m1", "m2", "m3", "w", "H1", "H2", "H3")
# stage times evaluated together once the requests advance by a fixed step
SOURCE_BLOCK = 16

_SAMPLE_RHO = (0.5, 1.0, 1.7)
_SAMPLE_THETA = (0.3, 1.0, 2.2)


def _family_scalars(law: ConstitutiveLaw) -> dict:
    """Read the power-family knobs off a law, verifying the shapes match."""
    vals = {
        "gamma": law.gamma,
        "alpha": law.alpha,
        "nu": law.nu,
        "pe0": float(law.p_e(1.0)),
        "pth0": float(law.p_th(1.0)),
        "mu0": float(law.mu(1.0)),
        "lam0": float(law.lam(1.0)),
        "kappa0": float(law.kappa(0.0)),
        "cv0": float(law.c_v(1.0)),
    }

    def bad(name, got, want):
        raise ConfigError(
            f"manufactured sources cover the standard power-family closure "
            f"only; {name} deviates ({got:.6g} vs {want:.6g})"
        )

    for r in _SAMPLE_RHO:
        want = vals["pth0"] * r ** (vals["gamma"] / 3.0)
        if not math.isclose(float(law.p_th(r)), want, rel_tol=1e-9):
            bad("p_th", float(law.p_th(r)), want)
    for th in _SAMPLE_THETA:
        if not math.isclose(float(law.mu(th)), vals["mu0"], rel_tol=1e-9):
            bad("mu", float(law.mu(th)), vals["mu0"])
        if not math.isclose(
            float(law.lam(th)), vals["lam0"], rel_tol=1e-9, abs_tol=1e-12
        ):
            bad("lam", float(law.lam(th)), vals["lam0"])
        want = vals["kappa0"] * (1.0 + th ** vals["alpha"])
        if not math.isclose(float(law.kappa(th)), want, rel_tol=1e-9):
            bad("kappa", float(law.kappa(th)), want)
    return vals


@dataclass
class ManufacturedCase:
    """Closed-form exact fields, conserved-variable rates and sources.

    fields and rates map a name to a function of (x, t).  source_terms is
    one function of (trig, t), trig being _trig_table(x), that returns the
    eight sources in SOURCE_KEYS order; t is a float, or an array of times
    whose trailing axes broadcast against x, which adds a leading time axis
    to every array it returns.
    """

    law: ConstitutiveLaw
    params: SchemeParams
    fields: dict
    rates: dict
    source_terms: Callable

    def sources(self, x, t):
        """The eight sources at (x, t), in SOURCE_KEYS order."""
        return self.source_terms(_trig_table(x), t)

    def _eval(self, fn, xs, t):
        out = np.asarray(fn(xs, float(t)), dtype=float)
        return np.broadcast_to(out, xs.shape).copy()

    def exact_state(self, grid: Grid, t: float) -> State:
        xs = grid.mesh()[0]
        rho = self._eval(self.fields["rho"], xs, t)
        theta = self._eval(self.fields["theta"], xs, t)
        u = np.stack([self._eval(self.fields[f"u{i}"], xs, t) for i in (1, 2, 3)])
        H = np.stack([self._eval(self.fields[f"H{i}"], xs, t) for i in (1, 2, 3)])
        # the profiles vanish at the walls analytically; make it exact
        for F in (u, H):
            F[:, 0] = 0.0
            F[:, -1] = 0.0
        return State(grid, rho, u, theta, H, float(t))

    def exact_time_derivatives(self, grid: Grid, t: float):
        xs = grid.mesh()[0]
        drho = self._eval(self.rates["rho"], xs, t)
        dm = np.stack([self._eval(self.rates[f"m{i}"], xs, t) for i in (1, 2, 3)])
        dw = self._eval(self.rates["w"], xs, t)
        dH = np.stack([self._eval(self.rates[f"H{i}"], xs, t) for i in (1, 2, 3)])
        return drho, dm, dw, dH

    def source_callable(self, grid: Grid):
        """sources(t) -> (s_rho, s_m, s_w, s_H), read-only arrays on the grid.

        The grid's trig table is built once.  A request that no block
        holds is evaluated directly, and d becomes its difference from the
        last distinct request.  When a request t is instead the previous
        one plus d, in float arithmetic as the stepper adds its dt, the
        step has repeated: the SOURCE_BLOCK times t, t + d, (t + d) + d,
        ... are evaluated in one batched pass, and d stays the block's step
        while the block serves.  A request is served from a block only if
        it equals one of its times exactly.  A repeated request returns the
        arrays it returned before, so Heun's second stage of one step and
        the first stage of the next share them.
        """
        xs = grid.mesh()[0]
        # flat nodes, so that a block broadcasts (times, 1) against (nodes,)
        trig = _trig_table(xs.ravel())
        block = {}  # stage time -> its arrays, for the times of the last block
        last_t = step = last = None

        def split(table):
            # rows: s_rho, s_m (3), s_w, s_H (3)
            return table[0], table[1:4], table[4], table[5:8]

        def evaluate(times):
            """Source tables of the given stage times, one per time."""
            t = np.array(times)[:, None] if len(times) > 1 else times[0]
            table = np.empty((len(times), 8, xs.size))
            for r, v in enumerate(self.source_terms(trig, t)):
                table[:, r] = v
            table.flags.writeable = False
            return table.reshape((len(times), 8) + xs.shape)

        def sources(t: float):
            nonlocal last_t, step, last
            t = float(t)
            if t == last_t:
                return last
            if t in block:
                # the block's times advance by its step, which stays
                last = block[t]
            elif step is not None and t == last_t + step:
                times = [t]
                for _ in range(SOURCE_BLOCK - 1):
                    times.append(times[-1] + step)
                block.clear()
                block.update(zip(times, map(split, evaluate(times))))
                last = block[t]
            else:
                last = split(evaluate([t])[0])
                step = None if last_t is None else t - last_t
            last_t = t
            return last

        return sources


# each profile is offset + amplitude * X(x) * T(t)
_PROFILES = {
    "rho": (1.0, 0.3, "cos x", "cos t"),
    "u1": (0.0, 0.25, "sin x", "cos t"),
    "u2": (0.0, 0.15, "sin 2x", "cos t"),
    "u3": (0.0, 0.1, "sin x", "sin t"),
    "theta": (0.8, 0.2, "cos x", "cos t"),
    "H2": (0.0, 0.3, "sin x", "cos t"),
    "H3": (0.0, 0.2, "sin 2x", "cos t"),
}
# X, X' and X'' of each spatial mode, as (factor, trig array key)
_X_MODES = {
    "sin x": ((1.0, "sin x"), (1.0, "cos x"), (-1.0, "sin x")),
    "cos x": ((1.0, "cos x"), (-1.0, "sin x"), (-1.0, "cos x")),
    "sin 2x": ((1.0, "sin 2x"), (2.0, "cos 2x"), (-4.0, "sin 2x")),
}


def _trig_table(x) -> dict:
    """The spatial modes of the profiles, evaluated at x."""
    return {
        "sin x": np.sin(x),
        "cos x": np.cos(x),
        "sin 2x": np.sin(2.0 * x),
        "cos 2x": np.cos(2.0 * x),
    }


def _cos_sin(t):
    """(cos t, sin t) by the math module: floats for a float t, arrays of
    the same shape for an array of times."""
    if not isinstance(t, np.ndarray):
        return math.cos(t), math.sin(t)
    flat = t.ravel().tolist()
    ct = np.array([math.cos(v) for v in flat]).reshape(t.shape)
    st = np.array([math.sin(v) for v in flat]).reshape(t.shape)
    return ct, st


def _jets(trig: dict, t) -> dict:
    """name -> (f, f_x, f_xx, f_t) of every profile at (x, t), trig being
    the trig table of x.

    The scalar factors are folded before an array is touched, so each
    value or derivative costs one array multiply.  For an array of times
    the factors are arrays that broadcast against x, and every entry is
    the product the float factor of its time would give.
    """
    ct, st = _cos_sin(t)
    # T and T' of each temporal mode
    time_modes = {"cos t": (ct, -st), "sin t": (st, ct)}
    out = {}
    for name, (offset, amp, xmode, tmode) in _PROFILES.items():
        T, T_t = time_modes[tmode]
        (k0, b0), (k1, b1), (k2, b2) = _X_MODES[xmode]
        f = (amp * T * k0) * trig[b0]
        if offset:
            f += offset
        out[name] = (
            f,
            (amp * T * k1) * trig[b1],
            (amp * T * k2) * trig[b2],
            (amp * T_t * k0) * trig[b0],
        )
    return out


def make_manufactured_case(law: ConstitutiveLaw, params: SchemeParams) -> ManufacturedCase:
    c = _family_scalars(law)
    eps, delta, beta = params.epsilon, params.delta, params.beta
    gamma, alpha, nu = c["gamma"], c["alpha"], c["nu"]
    mu0, cv0, kappa0, pth0 = c["mu0"], c["cv0"], c["kappa0"], c["pth0"]
    mu_long = 2.0 * mu0 + c["lam0"]
    g3 = gamma / 3.0

    def rates(x, t):
        j = _jets(_trig_table(x), t)
        rho, _, _, rho_t = j["rho"]
        theta, _, _, theta_t = j["theta"]
        out = {"rho": rho_t, "w": cv0 * (rho_t * theta + (rho + delta) * theta_t)}
        for i in ("1", "2", "3"):
            ui, _, _, ui_t = j["u" + i]
            out["m" + i] = rho_t * ui + rho * ui_t
        out["H1"] = 0.0
        out["H2"], out["H3"] = j["H2"][3], j["H3"][3]
        return out

    def source_terms(trig, t):
        j = _jets(trig, t)
        rho, rho_x, rho_xx, rho_t = j["rho"]
        u1, u1_x, u1_xx, _ = j["u1"]
        theta, theta_x, theta_xx, theta_t = j["theta"]
        H2, H2_x, H2_xx, H2_t = j["H2"]
        H3, H3_x, H3_xx, H3_t = j["H3"]

        # mass: rho_t + (rho u1)_x - eps rho_xx
        flux = rho * u1
        flux_x = rho_x * u1 + rho * u1_x
        s_rho = rho_t + flux_x - eps * rho_xx

        # momentum: (rho u_i)_t + (rho u_i u1)_x + eps u_i,x rho_x - viscous,
        # plus p_x minus the Lorentz force on the first component
        rho_g = rho**gamma
        p_th = pth0 * rho**g3
        q = rho_x / rho
        p_x = (
            q * (c["pe0"] * gamma * rho_g + delta * beta * rho**beta)
            + p_th * (theta_x + g3 * theta * q)
        )
        lorentz = -(H2 * H2_x + H3 * H3_x)
        s_m = []
        for i, visc in (("1", mu_long), ("2", mu0), ("3", mu0)):
            ui, ui_x, ui_xx, ui_t = j["u" + i]
            s = (
                rho_t * ui
                + rho * ui_t
                + flux_x * ui
                + flux * ui_x
                + eps * ui_x * rho_x
                - visc * ui_xx
            )
            if i == "1":
                s += p_x - lorentz
            s_m.append(s)

        # thermal: w_t + (rho c_v theta u1)_x - K_xx + delta theta^(alpha+1)
        # - (1 - delta) heating + p_th theta u1_x
        theta_a = theta**alpha
        K_xx = kappa0 * ((1.0 + theta_a) * theta_xx + alpha * (theta_a / theta) * theta_x**2)
        heating = (
            nu * (H2_x**2 + H3_x**2)
            + mu_long * u1_x**2
            + mu0 * (j["u2"][1] ** 2 + j["u3"][1] ** 2)
        )
        s_w = (
            cv0 * (rho_t * theta + (rho + delta) * theta_t + flux_x * theta + flux * theta_x)
            - K_xx
            + delta * theta_a * theta
            - (1.0 - delta) * heating
            + p_th * theta * u1_x
        )

        # magnetic: H_t + (u1 H)_x - nu H_xx, the longitudinal field stays 0
        s_H = [
            H_t + u1_x * H + u1 * H_x - nu * H_xx
            for H, H_x, H_xx, H_t in ((H2, H2_x, H2_xx, H2_t), (H3, H3_x, H3_xx, H3_t))
        ]
        return [s_rho, *s_m, s_w, 0.0, *s_H]

    def field(name):
        if name == "H1":
            return lambda x, t: 0.0
        return lambda x, t: _jets(_trig_table(x), t)[name][0]

    def rate(name):
        return lambda x, t: rates(x, t)[name]

    return ManufacturedCase(
        law=law,
        params=params,
        fields={k: field(k) for k in ("rho", "theta", "u1", "u2", "u3", "H1", "H2", "H3")},
        rates={k: rate(k) for k in ("rho", "w", "m1", "m2", "m3", "H1", "H2", "H3")},
        source_terms=source_terms,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    resolutions: tuple
    errors: dict
    orders: dict

    def worst_final_order(self) -> float:
        return min(v[-1] for v in self.orders.values())


def _block_errors(grid: Grid, state: State, exact: State) -> dict:
    return {
        "rho": grid.norm_l2(state.rho - exact.rho),
        "u": grid.norm_l2(state.u - exact.u),
        "theta": grid.norm_l2(state.theta - exact.theta),
        "H": grid.norm_l2(state.H - exact.H),
    }


def _orders_from(errors: dict, ratios) -> dict:
    out = {}
    for block, errs in errors.items():
        out[block] = tuple(
            math.log(errs[i] / errs[i + 1]) / math.log(r)
            for i, r in enumerate(ratios)
        )
    return out


def spatial_convergence_study(
    law: ConstitutiveLaw,
    params: SchemeParams,
    *,
    cells=(64, 128, 256),
    t_end: float = 0.1,
) -> ConvergenceReport:
    """Errors against the exact fields at t_end with dt locked to h^2 / 2."""
    case = make_manufactured_case(law, params)
    errors = {b: [] for b in BLOCKS}
    for n in cells:
        grid = Grid(shape=(n + 1, 1, 1), extents=(np.pi, 1.0, 1.0))
        h = np.pi / n
        p = replace(params, dt=0.5 * h * h, t_end=t_end)
        st0 = case.exact_state(grid, 0.0)
        res = run(
            grid,
            law,
            p,
            st0,
            record_every=10**9,
            sources=case.source_callable(grid),
        )
        ex = case.exact_state(grid, t_end)
        for b, e in _block_errors(grid, res.final_state, ex).items():
            errors[b].append(e)
    errors = {b: tuple(v) for b, v in errors.items()}
    ratios = [cells[i + 1] / cells[i] for i in range(len(cells) - 1)]
    return ConvergenceReport("spatial", tuple(cells), errors, _orders_from(errors, ratios))


def temporal_convergence_study(
    law: ConstitutiveLaw,
    params: SchemeParams,
    *,
    cells: int = 64,
    t_end: float = 0.08,
    base_dt: float = 8e-4,
    refinements: int = 3,
) -> ConvergenceReport:
    """Self-convergence on one grid against a dt/16 reference run."""
    case = make_manufactured_case(law, params)
    grid = Grid(shape=(cells + 1, 1, 1), extents=(np.pi, 1.0, 1.0))
    st0 = case.exact_state(grid, 0.0)
    src = case.source_callable(grid)

    def solve(dt):
        p = replace(params, dt=dt, t_end=t_end)
        return run(grid, law, p, st0, record_every=10**9, sources=src).final_state

    ref = solve(base_dt / 16.0)
    dts = tuple(base_dt / 2**k for k in range(refinements))
    errors = {b: [] for b in BLOCKS}
    for dt in dts:
        st = solve(dt)
        for b, e in _block_errors(grid, st, ref).items():
            errors[b].append(e)
    errors = {b: tuple(v) for b, v in errors.items()}
    ratios = [2.0] * (len(dts) - 1)
    return ConvergenceReport("temporal", dts, errors, _orders_from(errors, ratios))
