"""A linearized-spectrum oracle for the step limit.

The oracle linearizes the semi-discrete system about a state: it builds the
Jacobian of solver.rhs in the conserved variables (rho, w, m, H) on the
free entries by central differences, leaving out the rows of m and H on
the walls, which the scheme holds at zero.  It takes the eigenvalues by
numpy.linalg.eigvals and returns the largest dt at which Heun, whose
amplification is R(z) = 1 + z + z^2/2, passes its criterion.

The criterion is bounded growth over the horizon T of the run: for every
eigenvalue lam,

    |R(dt lam)|^(T/dt) <= GROWTH * exp(T max(Re lam, 0)).

The strict |R| <= 1 would reject every nearly imaginary eigenvalue, since
|R(iy)|^2 = 1 + y^4/4, and a centred d1 makes many; it gives dt ~ 5e-9 on
the low-transport corner below.  Bounded growth instead allows a mode to
outgrow the exact flow by at most GROWTH over the run, so an eigenvalue
with a positive real part, which the exact flow grows too, is not held
against the scheme.

The tests hold safety * min(StepLimits) to the oracle on the shipped
configs, on lam much larger than mu, and on a low-transport corner, where
the limit must bound the sound and Alfven speeds.
"""

from pathlib import Path

import numpy as np
import pytest

from mhdlab import scenario as scenario_mod
from mhdlab.solver import mollify_initial_data, rhs, stable_dt

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# how far a mode may outgrow the exact flow over the horizon
GROWTH = 10.0


def _free_mask(grid):
    """The free entries of a conserved stack (8, *shape): rows rho, w, m,
    H, with m and H left out on the walls."""
    mask = np.ones((8,) + grid.shape, bool)
    grid.zero_walls(mask[2:8])
    return mask


def jacobian(grid, law, params, state, rel=1e-6):
    """d rhs / d x in the conserved x = (rho, w, m, H) on the free entries,
    by central differences."""
    mask = _free_mask(grid)
    x0 = np.empty((8,) + grid.shape)
    x0[0] = state.rho
    x0[1] = (state.rho + params.delta) * law.c_v * state.theta
    x0[2:5] = state.rho * state.u
    x0[5:8] = state.H
    out = np.empty_like(x0)

    def rate(x):
        rho = x[0]
        theta = x[1] / ((rho + params.delta) * law.c_v)
        drho, dm, dw, dH = rhs(grid, law, params, rho, x[2:5] / rho, theta, x[5:8])
        out[0], out[1], out[2:5], out[5:8] = drho, dw, dm, dH
        return out[mask]

    free = np.flatnonzero(mask)
    J = np.empty((free.size, free.size))
    x = x0.copy()
    flat = x.reshape(-1)
    for col, i in enumerate(free):
        h = rel * max(1.0, abs(flat[i]))
        flat[i] = x0.flat[i] + h
        up = rate(x)
        flat[i] = x0.flat[i] - h
        J[:, col] = (up - rate(x)) / (2.0 * h)
        flat[i] = x0.flat[i]
    return J


def heun_growth(eigs, dt, horizon):
    """The largest log of a mode's Heun growth over the horizon, beyond its
    exact growth."""
    z = dt * eigs
    amp = np.abs(1.0 + z + 0.5 * z * z)
    return float(np.max(horizon / dt * np.log(amp) - horizon * np.maximum(eigs.real, 0.0)))


def heun_limit(eigs, horizon, growth=GROWTH):
    """The largest dt that passes the criterion, going up in steps of 1%
    from far below the scale of the spectrum to the first that fails."""
    bound = np.log(growth)
    dt = 1e-3 / np.max(np.abs(eigs))
    while dt < horizon and heun_growth(eigs, 1.01 * dt, horizon) <= bound:
        dt *= 1.01
    return dt


def oracle_limit(grid, law, params, state, horizon):
    return heun_limit(np.linalg.eigvals(jacobian(grid, law, params, state)), horizon)


def _case(config, *overrides):
    sc = scenario_mod.load_scenario(CONFIGS / config, overrides)
    state, _ = mollify_initial_data(sc.grid, sc.law, sc.params, *scenario_mod.initial_fields(sc))
    return sc, state


def _ratio(sc, state):
    """The oracle's dt over the step the run takes."""
    dt = stable_dt(sc.grid, sc.law, sc.params, state)
    return oracle_limit(sc.grid, sc.law, sc.params, state, sc.params.t_end) / dt


def test_heun_limit_on_the_real_and_imaginary_axes():
    # a real eigenvalue -a: |R| <= 1 up to dt = 2/a, and past it the growth
    # over a long horizon passes any bound within a few percent
    assert heun_limit(np.array([-100.0]), 1e3) == pytest.approx(0.02, rel=0.02)
    # an imaginary one, i y: |R|^(T/dt) = (1 + (dt y)^4/4)^(T/2dt), which
    # reaches GROWTH where (T/2dt) log(1 + (dt y)^4/4) = log(GROWTH)
    dt = heun_limit(np.array([10j, -10j]), 5.0)
    assert 2.5 / dt * np.log1p((10 * dt) ** 4 / 4) == pytest.approx(np.log(GROWTH), rel=0.05)
    # the exact flow's own growth is not held against the scheme
    assert heun_limit(np.array([0.5, -100.0]), 1e3) == pytest.approx(0.02, rel=0.02)


CUBE = f"grid.extents={np.pi!r} {np.pi!r} {np.pi!r}"


@pytest.mark.parametrize("grid", [("grid.shape=9 9 1",), ("grid.shape=5 5 5", CUBE)], ids=["9x9", "5x5x5"])
@pytest.mark.parametrize("config", ["vortex2d.ini", "sweep_delta.ini"])
def test_shipped_configs_pass_the_oracle(config, grid):
    assert _ratio(*_case(config, *grid)) >= 1.0


@pytest.mark.parametrize("lam0", [4, 10, 50])
def test_lam_much_larger_than_mu_passes_the_oracle_at_safety_1(lam0):
    # rhs takes the stress as d1 of d1, of radius (2 mu + lam) d/(rho h^2).
    # A limit that charged mu alone against 4 d/h^2 gave 0.85, 0.41 and
    # 0.094 of the oracle's dt here.
    sc, state = _case(
        "sweep_delta.ini", "grid.shape=9 9 1", "law.mu0=1", f"law.lam0={lam0}",
        "scheme.t_end=1", "scheme.safety=1",
    )
    assert _ratio(sc, state) >= 1.0


def test_low_transport_corner_passes_the_oracle():
    # with little diffusion the sound and Alfven speeds bind; a limit that
    # left them out gave 0.41 of the oracle's dt here
    sc, state = _case(
        "sweep_delta.ini", "grid.shape=9 9 1", "law.mu0=0.005", "law.nu=0.005",
        "law.kappa0=0.005", "scheme.epsilon=0.003125", "scheme.t_end=5",
    )
    assert _ratio(sc, state) >= 1.0
