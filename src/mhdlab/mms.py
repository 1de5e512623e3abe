"""Manufactured 1D solutions with symbolically derived sources.

A fixed family of smooth profiles on [0, pi] (density and temperature with
flat-ended cosines, velocity and transverse field from sine modes, zero
longitudinal field so the solenoidal constraint holds identically) is pushed
through the regularized equations with sympy.  Whatever tendency the exact
fields fail to satisfy becomes a source term, handed to the stepper through
its per-block source hook.  Comparing computed and exact fields then turns
the solver into its own convergence experiment.

The symbolic mirror covers the standard power-family closure only; laws
with other coefficient shapes are rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .constitutive import ConstitutiveLaw
from .errors import ConfigError
from .grid import Grid
from .projection import projector_for
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
    """Lambdified exact fields, conserved-variable rates and sources.

    fields and rates map a name to a function of (x, t); sources is one
    function of (x, t) that returns the eight sources in SOURCE_KEYS order.
    """

    law: ConstitutiveLaw
    params: SchemeParams
    fields: dict
    rates: dict
    sources: Callable

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

        The arrays of the last t are kept: Heun's second stage of one step
        and the first stage of the next are evaluated at the same float.
        """
        xs = grid.mesh()[0]
        last_t, last = None, None

        def sources(t: float):
            nonlocal last_t, last
            t = float(t)
            if t != last_t:
                # rows: s_rho, s_m (3), s_w, s_H (3)
                table = np.empty((8,) + xs.shape)
                for row, v in zip(table, self.sources(xs, t), strict=True):
                    row[...] = v
                table.flags.writeable = False
                last = (table[0], table[1:4], table[4], table[5:8])
                last_t = t
            return last

        return sources


def make_manufactured_case(law: ConstitutiveLaw, params: SchemeParams) -> ManufacturedCase:
    import sympy as sp

    c = _family_scalars(law)
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
    lorentz = {1: -(H2 * H2.diff(x) + H3 * H3.diff(x)), 2: sp.Integer(0), 3: sp.Integer(0)}
    grad_p = {1: p.diff(x), 2: sp.Integer(0), 3: sp.Integer(0)}
    mom_rhs = {}
    for i, ui in ((1, u1), (2, u2), (3, u3)):
        mom_rhs[i] = (
            -(rho * ui * u1).diff(x)
            - grad_p[i]
            - eps * ui.diff(x) * rho.diff(x)
            + lorentz[i]
            + visc[i]
        )

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
        1: sp.Integer(0),
        2: -(u1 * H2).diff(x) + nu * H2.diff(x, 2),
        3: -(u1 * H3).diff(x) + nu * H3.diff(x, 2),
    }

    exprs_fields = {
        "rho": rho,
        "theta": theta,
        "u1": u1,
        "u2": u2,
        "u3": u3,
        "H1": H1,
        "H2": H2,
        "H3": H3,
    }
    exprs_rates = {
        "rho": rho.diff(t),
        "w": w.diff(t),
        "m1": (rho * u1).diff(t),
        "m2": (rho * u2).diff(t),
        "m3": (rho * u3).diff(t),
        "H1": H1.diff(t),
        "H2": H2.diff(t),
        "H3": H3.diff(t),
    }
    exprs_sources = {
        "rho": rho.diff(t) - mass_rhs,
        "w": w.diff(t) - thermal_rhs,
        "m1": (rho * u1).diff(t) - mom_rhs[1],
        "m2": (rho * u2).diff(t) - mom_rhs[2],
        "m3": (rho * u3).diff(t) - mom_rhs[3],
        "H1": sp.Integer(0),
        "H2": H2.diff(t) - mag_rhs[2],
        "H3": H3.diff(t) - mag_rhs[3],
    }

    lam = lambda d: {k: sp.lambdify((x, t), v, modules="numpy") for k, v in d.items()}
    return ManufacturedCase(
        law=law,
        params=params,
        fields=lam(exprs_fields),
        rates=lam(exprs_rates),
        sources=sp.lambdify(
            (x, t), [exprs_sources[k] for k in SOURCE_KEYS], modules="numpy", cse=True
        ),
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
    dt_factor: float = 0.5,
) -> ConvergenceReport:
    """Errors against the exact fields at t_end with dt locked to h^2."""
    case = make_manufactured_case(law, params)
    errors = {b: [] for b in BLOCKS}
    for n in cells:
        grid = Grid(shape=(n + 1, 1, 1), extents=(np.pi, 1.0, 1.0))
        h = np.pi / n
        p = replace(params, dt=dt_factor * h * h, t_end=t_end)
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
    projector = projector_for(grid)

    def solve(dt):
        p = replace(params, dt=dt, t_end=t_end)
        return run(
            grid, law, p, st0, record_every=10**9, sources=src, projector=projector
        ).final_state

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
