"""Solver tests built around closed-form oracles.

The central one: on a spatially uniform state with constant heat capacity
the whole system collapses to the sink ODE

    (rho_bar + delta) c_v theta' = -delta theta^(alpha+1),

whose exact solution for rho_bar=1, c_v=1, delta=0.1, alpha=3, theta0=1 is
theta(t) = (1 + (0.3/1.1) t)^(-1/3) by separation of variables.  Everything
else (clamp bounds, stability limits) is frozen from hand arithmetic.
"""

import gc
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mhdlab import fieldops, scenario, solver
from mhdlab.constitutive import (
    Const,
    Power,
    PowerSum,
    Sum,
    Tabulated,
    conductivity_potential,
    entropy,
    heat_content,
    make_standard_law,
    pressure,
    thermal_pressure_potential,
)
from mhdlab.errors import ConfigError, InvariantViolation
from mhdlab.fieldops import (
    EVEN,
    ODD,
    d1,
    dissipation,
    divergence,
    gradient,
    table_curl,
    vector_gradient,
)
from mhdlab.grid import Grid
from mhdlab.solver import (
    IncidentLog,
    SchemeParams,
    State,
    ensure_compatible,
    mollify_initial_data,
    rhs,
    run,
    stable_dt,
    step,
    step_limits,
)
from test_rhs_oracle import induction_rhs, laplacian, stress_divergence

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _uniform_state(grid, rho=1.0, theta=1.0):
    return State(
        grid,
        np.full(grid.shape, float(rho)),
        grid.vector_field(),
        np.full(grid.shape, float(theta)),
        grid.vector_field(),
        0.0,
    )


def _smooth_2d_fields(grid, rho_amp=0.25, u_amp=0.3, h_amp=0.2):
    x, y, _ = grid.mesh()
    Lx, Ly = grid.extents[0], grid.extents[1]
    sx, sy = np.sin(np.pi * x / Lx), np.sin(np.pi * y / Ly)
    cx, cy = np.cos(np.pi * x / Lx), np.cos(np.pi * y / Ly)
    rho0 = 1.0 + rho_amp * cx * cy
    theta0 = 1.0 + 0.2 * cx * cy
    u0 = np.stack([u_amp * sx * sy, -u_amp * sx * sy, np.zeros_like(sx)])
    H0 = np.stack([h_amp * sx * sy, -h_amp * sx * sy, 0.5 * h_amp * sx * sy])
    return rho0, u0, theta0, H0


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_scheme_params_validation():
    SchemeParams(epsilon=0.05, delta=0.1)
    with pytest.raises(ValueError, match="epsilon"):
        SchemeParams(epsilon=0.0, delta=0.1)
    with pytest.raises(ValueError, match="delta"):
        SchemeParams(epsilon=0.1, delta=1.0)
    with pytest.raises(ValueError, match="beta"):
        SchemeParams(epsilon=0.1, delta=0.1, beta=0.5)
    with pytest.raises(ValueError, match="omega"):
        SchemeParams(epsilon=0.1, delta=0.1, omega=1.5)
    with pytest.raises(ValueError, match="dt"):
        SchemeParams(epsilon=0.1, delta=0.1, dt=-1e-3)
    with pytest.raises(ValueError, match="safety"):
        SchemeParams(epsilon=0.1, delta=0.1, safety=0.0)
    with pytest.raises(ValueError, match="t_end"):
        SchemeParams(epsilon=0.1, delta=0.1, t_end=0.0)


def test_beta_must_dominate_gamma():
    law = make_standard_law(gamma=5.0 / 3.0)
    ensure_compatible(law, SchemeParams(epsilon=0.1, delta=0.1, beta=4.0))
    with pytest.raises(ConfigError, match="gamma"):
        ensure_compatible(law, SchemeParams(epsilon=0.1, delta=0.1, beta=1.6))


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def test_mollify_clamp_branches():
    grid = Grid(shape=(4, 3, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.01, beta=4.0)
    rho0 = np.ones(grid.shape)
    rho0[1, 1, 0] = 1e6  # interior node, clamp-down branch
    rho0[2, 1, 0] = 0.0  # interior node, clamp-up branch
    u0 = np.full((3,) + grid.shape, 0.3)
    theta0 = np.ones(grid.shape)
    theta0[1, 1, 0] = 1e-6
    H0 = np.zeros((3,) + grid.shape)

    state, rep = mollify_initial_data(grid, law, params, rho0, u0, theta0, H0)
    # cap = delta^(-1/(2 beta)) = 0.01^(-1/8) = 10^(1/4)
    assert rep.rho_cap == pytest.approx(1.7782794100389228, rel=1e-14)
    assert state.rho[1, 1, 0] == pytest.approx(1.7782794100389228, rel=1e-14)
    assert state.rho[2, 1, 0] == 0.01
    # momentum zeroed only where the clamp lowered rho
    assert np.all(state.u[:, 1, 1, 0] == 0.0)
    assert np.all(state.u[:, 2, 1, 0] == 0.3)
    assert rep.rho_lowered_nodes == 1
    assert rep.rho_raised_nodes == 1
    assert bool(rep.momentum_zero_mask[1, 1, 0]) is True
    assert bool(rep.momentum_zero_mask[2, 1, 0]) is False
    # theta floor applied
    assert state.theta[1, 1, 0] == 1e-3
    assert rep.theta_raised_nodes == 1
    # walls of u were cleaned
    assert rep.wall_speed_cleaned == pytest.approx(0.3)
    assert np.all(state.u[:, 0, :, :] == 0.0)
    assert np.all(state.u[:, -1, :, :] == 0.0)


def test_mollify_rejects_bad_data():
    grid = Grid(shape=(4, 3, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    good = np.ones(grid.shape)
    zeros = np.zeros((3,) + grid.shape)
    bad_theta = good.copy()
    bad_theta[1, 1, 0] = 0.0
    with pytest.raises(ConfigError, match="temperature"):
        mollify_initial_data(grid, law, params, good, zeros, bad_theta, zeros)
    bad_rho = good.copy()
    bad_rho[1, 1, 0] = -1.0
    with pytest.raises(ConfigError, match="density"):
        mollify_initial_data(grid, law, params, bad_rho, zeros, good, zeros)


def test_mollify_clamped_down_set_shrinks_with_delta():
    grid = Grid(shape=(33, 1, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    x = grid.coords(0)
    rho0 = np.exp(6.0 * x).reshape(grid.shape)
    u0 = np.zeros((3,) + grid.shape)
    theta0 = np.ones(grid.shape)
    H0 = np.zeros((3,) + grid.shape)
    counts = []
    for delta in (1e-1, 1e-2, 1e-3):
        params = SchemeParams(epsilon=0.05, delta=delta, beta=4.0)
        _, rep = mollify_initial_data(grid, law, params, rho0, u0, theta0, H0)
        counts.append(rep.rho_lowered_nodes)
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[0] > counts[2]
    assert counts[0] > 0


# ---------------------------------------------------------------------------
# rhs structure on degenerate states
# ---------------------------------------------------------------------------


def test_rhs_uniform_state_only_sink_survives():
    grid = Grid(shape=(7, 6, 1), extents=(1.0, 1.3, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    rho = np.full(grid.shape, 1.2)
    theta = np.full(grid.shape, 0.7)
    u = grid.vector_field()
    H = grid.vector_field()
    drho, dm, dw, dH = rhs(grid, law, params, rho, u, theta, H)
    assert np.all(drho == 0.0)
    assert np.all(dm == 0.0)
    assert np.all(dH == 0.0)
    np.testing.assert_allclose(dw, -0.1 * 0.7**4, rtol=1e-14)


def test_rhs_density_bump_at_rest():
    # with u=0, theta uniform, H=0 the mass block is pure eps-diffusion and
    # the momentum block is the pressure force alone
    grid = Grid(shape=(33, 29, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.07, delta=0.1, beta=4.0)
    x, y, _ = grid.mesh()
    rho = 1.0 + 0.5 * np.exp(-30.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
    theta = np.full(grid.shape, 0.9)
    u = grid.vector_field()
    H = grid.vector_field()
    drho, dm, dw, dH = rhs(grid, law, params, rho, u, theta, H)
    assert np.array_equal(drho, 0.07 * laplacian(grid, rho))
    ptot = pressure(law, rho, theta) + 0.1 * rho**4.0
    for i in range(3):
        assert np.array_equal(dm[i], -d1(grid, ptot, i, EVEN))
    assert np.all(dH == 0.0)


# ---------------------------------------------------------------------------
# rhs against the operator-by-operator assembly
# ---------------------------------------------------------------------------


def _reference_rhs(grid, law, params, rho, u, theta, H, *, t=0.0, sources=None):
    """rhs assembled term by term from the public fieldops operators, each
    computing its own stencils; the stacked rhs must match it bit for bit."""
    eps = params.epsilon
    delta = params.delta
    dH = vector_gradient(grid, H)
    curl_H = table_curl(dH)
    induction = induction_rhs(grid, law, u, H, dH)
    du = vector_gradient(grid, u)
    divu = du[0, 0] + du[1, 1] + du[2, 2]
    grad_rho = gradient(grid, rho)
    drho = -divergence(grid, rho * u) + eps * laplacian(grid, rho)
    ptot = pressure(law, rho, theta) + delta * np.power(rho, params.beta)
    conv = divergence(grid, (rho * u)[:, None] * u[None], EVEN)
    eps_force = du[:, 0] * grad_rho[0] + du[:, 1] * grad_rho[1] + du[:, 2] * grad_rho[2]
    dm = (
        -conv
        - gradient(grid, ptot)
        - eps * eps_force
        + np.cross(curl_H, H, axis=0)
        + stress_divergence(grid, law, du, theta)
    )
    q_heat = heat_content(law, theta)
    k_pot = conductivity_potential(law, theta)
    heating = law.nu * np.sum(curl_H * curl_H, axis=0) + dissipation(law, du, theta)
    dw = (
        -divergence(grid, rho * q_heat * u)
        + laplacian(grid, k_pot)
        - delta * np.power(theta, law.alpha + 1.0)
        + (1.0 - delta) * heating
        - theta * law.p_th(rho) * divu
    )
    if sources is not None:
        s_rho, s_m, s_w, s_H = sources(t)
        drho, dm, dw, induction = drho + s_rho, dm + s_m, dw + s_w, induction + s_H
    return drho, dm, dw, induction


_TAB_MU = Tabulated([0.5, 1.0, 1.5, 3.0], [0.1, 0.3, 0.2, 0.5])
_RHS_CASES = {
    # name: (shape, law, zero components)
    "1d-lam-tabulated-mu": ((17, 1, 1), make_standard_law(mu=_TAB_MU, lam0=0.2), False),
    "2d": ((9, 7, 1), make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1), True),
    "2d-lam": ((9, 7, 1), make_standard_law(lam0=0.3), True),
    "2d-xz-tabulated-mu-lam": (
        (8, 1, 6),
        make_standard_law(mu=_TAB_MU, lam=Tabulated([0.5, 2.0], [0.01, 0.2])),
        False,
    ),
    "3d-lam": ((7, 6, 5), make_standard_law(lam0=0.05), False),
    "3d-tabulated-mu": ((7, 6, 5), make_standard_law(mu=_TAB_MU), False),
}


def _random_state(grid, seed, zeros):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.3 * rng.random(grid.shape)
    theta = 0.5 + rng.random(grid.shape)
    u = grid.zero_walls(rng.standard_normal((3,) + grid.shape))
    H = grid.zero_walls(rng.standard_normal((3,) + grid.shape))
    if zeros:
        # a planar state, as vortex2d's: the exact zeros make signed zeros
        u[2] = 0.0
        H[2] = 0.0
    sources = [
        rng.standard_normal(grid.shape),
        rng.standard_normal((3,) + grid.shape),
        rng.standard_normal(grid.shape),
        rng.standard_normal((3,) + grid.shape),
    ]
    return (rho, u, theta, H), sources


def _assert_bitwise(got, want):
    for block, g, w in zip(("mass", "momentum", "thermal", "magnetic"), got, want):
        assert g.shape == w.shape and g.dtype == w.dtype, block
        assert g.tobytes() == w.tobytes(), block


@pytest.mark.parametrize("name", sorted(_RHS_CASES))
def test_rhs_bitwise_matches_reference(name):
    shape, law, zeros = _RHS_CASES[name]
    grid = Grid(shape=shape, extents=(1.0, 1.3, 0.9))
    params = SchemeParams(epsilon=0.05, delta=0.1)
    fields, srcs = _random_state(grid, len(name), zeros)
    want = _reference_rhs(grid, law, params, *fields)
    _assert_bitwise(rhs(grid, law, params, *fields), want)
    # the scratch buffers are reused: a call with other fields in between
    # must not leak into the next one
    other, _ = _random_state(grid, 99, not zeros)
    rhs(grid, make_standard_law(lam0=0.7), params, *other)
    _assert_bitwise(rhs(grid, law, params, *fields), want)
    sources = lambda t: srcs  # noqa: E731
    _assert_bitwise(
        rhs(grid, law, params, *fields, t=0.3, sources=sources),
        _reference_rhs(grid, law, params, *fields, t=0.3, sources=sources),
    )


def test_rhs_bitwise_matches_reference_with_mms_sources():
    from mhdlab.mms import make_manufactured_case

    law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1)
    grid = Grid(shape=(65, 1, 1), extents=(np.pi, 1.0, 1.0))
    case = make_manufactured_case(law, params)
    sources = case.source_callable(grid)
    for t in (0.0, 0.37):
        st = case.exact_state(grid, t)
        fields = (st.rho, st.u, st.theta, st.H)
        _assert_bitwise(
            rhs(grid, law, params, *fields, t=t, sources=sources),
            _reference_rhs(grid, law, params, *fields, t=t, sources=sources),
        )


def test_compiled_rhs_follows_its_key():
    # a thread keeps the program of its last (grid, law, params): a change
    # of spacing, of a scheme weight or of the law must recompile and give
    # the reference bits.  The keys are run twice over, interleaved, so
    # every call recompiles.
    shape = (9, 7, 1)
    grids = [Grid(shape=shape, extents=(1.0, 1.3, 1.0)), Grid(shape=shape, extents=(2.0, 0.7, 1.0))]
    params = [SchemeParams(epsilon=0.05, delta=0.1), SchemeParams(epsilon=0.2, delta=0.1)]
    laws = [
        make_standard_law(lam0=0.3, p_th=lambda rho: 0.5 * rho),
        replace(
            make_standard_law(),
            mu=Sum(Const(0.2), Power(0.1, 1.5)),
            lam=Power(0.05, 2.0),
            p_th=Const(0.7),
            kappa=Sum(Const(0.3), Power(0.2, 3.0), Const(0.1)),
        ),
    ]
    fields, _ = _random_state(grids[0], 7, True)
    keys = [(grid, law, p) for grid in grids for law in laws for p in params]
    wants = [_reference_rhs(*key, *fields) for key in keys]
    programs = []
    for _ in range(2):
        for key, want in zip(keys, wants):
            _assert_bitwise(rhs(*key, *fields), want)
            programs.append(solver._slot.program)
    assert len({id(p) for p in programs}) == len(programs)


def _in_threads(work, n):
    """Run work(i) for i < n in n threads, switching between them often."""
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


def test_rhs_threads_keep_their_own_scratch_buffers():
    # rhs reuses scratch buffers between calls; each thread has its own, so
    # concurrent calls on one grid shape give the serial results
    grid = Grid(shape=(41, 37, 1), extents=(1.0, 1.3, 1.0))
    law = make_standard_law(lam0=0.2)
    params = SchemeParams(epsilon=0.05, delta=0.1)
    states = [_random_state(grid, seed, False)[0] for seed in range(6)]
    want = [rhs(grid, law, params, *fields) for fields in states]
    got = [None] * len(states)

    def work(i):
        for _ in range(20):
            got[i] = rhs(grid, law, params, *states[i])

    _in_threads(work, len(states))
    for g, w in zip(got, want):
        _assert_bitwise(g, w)


def _state_bytes(state):
    return [a.tobytes() for a in (state.rho, state.u, state.theta, state.H)] + [state.t]


def _smooth_state(grid, law, params, amp=1.0):
    fields = _smooth_2d_fields(grid, 0.25 * amp, 0.3 * amp, 0.2 * amp)
    return mollify_initial_data(grid, law, params, *fields)[0]


def test_step_threads_keep_their_own_scratch_buffers():
    # step, like rhs, keeps its stacks per thread
    grid = Grid(shape=(17, 15, 1), extents=(1.0, 1.3, 1.0))
    law = make_standard_law(lam0=0.2)
    params = SchemeParams(epsilon=0.05, delta=0.1)
    starts = [_smooth_state(grid, law, params, 1.0 + 0.1 * i) for i in range(6)]

    def advance(state):
        for _ in range(5):
            state = step(grid, law, params, state, 1e-4)
        return _state_bytes(state)

    want = [advance(s) for s in starts]
    got = [None] * len(starts)

    def work(i):
        got[i] = advance(starts[i])

    _in_threads(work, len(starts))
    assert got == want


def test_scratch_buffers_are_kept_per_live_thread_and_freed_with_it():
    import threading
    import weakref

    from mhdlab import solver

    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    state = _smooth_state(grid, law, params)
    n = 6
    barrier = threading.Barrier(n)
    kept, refs = [False] * n, []

    def work(i):
        step(grid, law, params, state, 1e-4)
        first = solver._slot.program
        barrier.wait()  # every thread holds its buffers now
        step(grid, law, params, state, 1e-4)
        kept[i] = solver._slot.program is first
        refs.extend((weakref.ref(first.out), weakref.ref(first.x0)))

    _in_threads(work, n)
    assert all(kept)
    gc.collect()
    assert len(refs) == 2 * n and all(r() is None for r in refs)


def test_step_results_own_their_arrays():
    from mhdlab import solver

    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    s0 = _smooth_state(grid, law, params)
    s1 = step(grid, law, params, s0, 1e-4)
    s2 = step(grid, law, params, s1, 1e-4)
    # the program's stacks, and every buffer its calls bind
    program = solver._slot.program
    scratch = [a for a in vars(program).values() if isinstance(a, np.ndarray)]
    scratch += [a for call in program.calls for a in call.args if isinstance(a, np.ndarray)]
    arrays = [a for s in (s0, s1, s2) for a in (s.rho, s.u, s.theta, s.H)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
        assert not any(np.shares_memory(a, w) for w in scratch)
    # a caller may change a returned state; the states before and after keep theirs
    want1, want2 = _state_bytes(s1), _state_bytes(s2)
    for a in (s1.rho, s1.u, s1.theta, s1.H):
        a[...] = np.nan
    assert _state_bytes(s2) == want2
    s1 = step(grid, law, params, s0, 1e-4)
    assert _state_bytes(s1) == want1
    assert _state_bytes(step(grid, law, params, s1, 1e-4)) == want2


def test_stage_two_failure_names_the_stage_two_time():
    grid = Grid(shape=(17, 1, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    state = _uniform_state(grid)
    state.t = 0.25
    sink = np.full(grid.shape, -1e5)

    def sources(t):  # drains the mass at the second stage only
        return (sink if t > state.t else None, None, None, None)

    with pytest.raises(InvariantViolation, match=r"density positivity lost \(stage 2, t=0\.2501\)"):
        step(grid, law, params, state, 1e-4, sources=sources)


@pytest.mark.parametrize("shape", [(17, 1, 1), (9, 7, 1), (7, 6, 5), (8, 1, 6)])
@pytest.mark.parametrize("lam0", [0.0, 0.3])
def test_rhs_stencil_calls_per_axis(shape, lam0, monkeypatch):
    # phase 1: one ODD and one EVEN d1 per active axis, then one d2 per axis
    # on [rho, K]; phase 2: one EVEN d1 per axis and, where other axes are
    # active, one ODD d1 on their operands alone.  The program binds the
    # steps of each stencil when it compiles, so the step builders are hooked
    # and see each stencil once per compile.
    grid = Grid(shape=shape, extents=(1.0, 1.0, 1.0))
    fields, _ = _random_state(grid, 3, False)
    law, params = make_standard_law(lam0=lam0), SchemeParams(epsilon=0.05, delta=0.1)
    want = _reference_rhs(grid, law, params, *fields)
    # compiled before the builders are hooked
    compiled = SchemeParams(epsilon=0.06, delta=0.1)
    want_compiled = _reference_rhs(grid, law, compiled, *fields)
    rhs(grid, law, compiled, *fields)
    calls = []
    for name in ("d1", "d2"):
        build = getattr(fieldops, f"{name}_steps")

        def counted(grid, f, axis, parity, out, emit, _build=build, _name=name):
            calls.append((_name, parity, f.shape[0]))
            _build(grid, f, axis, parity, out, emit)

        monkeypatch.setattr(fieldops, f"{name}_steps", counted)
    # a replay of the program compiled before the hook builds no step
    for _ in range(2):
        _assert_bitwise(rhs(grid, law, compiled, *fields), want_compiled)
    assert calls == []
    _assert_bitwise(rhs(grid, law, params, *fields), want)
    n = grid.ndim_active
    lam = lam0 > 0.0
    phase1 = [("d1", ODD, 8), ("d1", EVEN, 5)] * n + [("d2", EVEN, 2)] * n
    phase2 = [("d1", EVEN, 9 if lam else 8)]
    if n > 1:
        phase2.append(("d1", ODD, (3 if lam else 2) * (n - 1)))
    assert calls == phase1 + phase2 * n
    assert [c[0] for c in calls].count("d1") == {1: 3, 2: 8, 3: 12}[n]
    # nor does a replay of the program compiled under it
    first = calls[:]
    for _ in range(2):
        _assert_bitwise(rhs(grid, law, params, *fields), want)
    assert calls == first


_LAW_SHAPES = {
    # kappa's Power(0.4, alpha) term shares theta^(alpha+1) with the sink
    "kappa-two-powers": make_standard_law(kappa=Sum(Power(0.4, 3.0), Power(0.3, 2.5))),
    "kappa-power": make_standard_law(kappa=Power(0.5, 3.0)),
    "p_th-exponent": make_standard_law(p_th=Power(0.8, 0.3), lam0=0.1),
}


@pytest.mark.parametrize("shape", [(17, 1, 1), (1, 11, 1), (1, 1, 13), (9, 7, 1), (7, 6, 5)])
@pytest.mark.parametrize("name", sorted(_LAW_SHAPES))
def test_rhs_bitwise_matches_reference_for_law_shapes(shape, name):
    law = _LAW_SHAPES[name]
    grid = Grid(shape=shape, extents=(1.0, 1.3, 0.9))
    params = SchemeParams(epsilon=0.05, delta=0.1)
    fields, _ = _random_state(grid, 5, shape[2] == 1)
    _assert_bitwise(rhs(grid, law, params, *fields), _reference_rhs(grid, law, params, *fields))


def test_standard_law_program_takes_each_power_once():
    # rho^gamma (p_e), rho^(gamma/3) (p_th), rho^beta (artificial pressure)
    # and theta^(alpha+1), which K and the delta-sink share
    grid = Grid(shape=(17, 1, 1), extents=(1.0, 1.0, 1.0))
    law, params = make_standard_law(), SchemeParams(epsilon=0.05, delta=0.1, beta=4.5)
    program = solver._compile_rhs(grid, law, params)
    operand = {id(program.rho): "rho", id(program.theta): "theta"}
    taken = [(operand[id(c.args[0])], float(c.args[1])) for c in program.calls if c.func is np.power]
    assert sorted(taken) == sorted(
        [("rho", law.gamma), ("rho", law.gamma / 3.0), ("rho", 4.5), ("theta", law.alpha + 1.0)]
    )


@pytest.mark.parametrize(
    "law",
    [
        make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1),
        replace(make_standard_law(), mu=Sum(Const(0.2), Power(0.1, 1.5)), lam=Power(0.05, 2.0)),
    ],
    ids=["standard", "power-mu-lam"],
)
def test_compiled_step_makes_no_call_into_the_law(law, monkeypatch):
    # once compiled, neither a replay of rhs nor a whole step, stability
    # limit included, evaluates a law piece or potential by its own function
    from mhdlab import constitutive

    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    params = SchemeParams(epsilon=0.05, delta=0.1)
    state = _smooth_state(grid, law, params)
    fields, _ = _random_state(grid, 11, True)
    want_rhs = [a.tobytes() for a in rhs(grid, law, params, *fields)]
    want_step = _state_bytes(step(grid, law, params, state, 1e-4))

    def refuse(*args, **kwargs):
        raise AssertionError("a call into constitutive")

    for cls in (PowerSum,):
        for name in ("__call__", "steps", "integral_steps"):
            monkeypatch.setattr(cls, name, refuse)
    for name in ("heat_content", "conductivity_potential", "value_steps", "integral_steps"):
        monkeypatch.setattr(constitutive, name, refuse)
    assert [a.tobytes() for a in rhs(grid, law, params, *fields)] == want_rhs
    assert _state_bytes(step(grid, law, params, state, 1e-4)) == want_step


def test_rhs_rejects_a_grid_with_no_active_axis():
    grid = Grid(shape=(1, 1, 1), extents=(1.0, 1.0, 1.0))
    law, params = make_standard_law(), SchemeParams(epsilon=0.05, delta=0.1)
    fields = (np.ones(grid.shape), grid.vector_field(), np.ones(grid.shape), grid.vector_field())
    with pytest.raises(ConfigError, match=r"rhs needs an active axis; the grid \(1, 1, 1\) has none"):
        rhs(grid, law, params, *fields)


# ---------------------------------------------------------------------------
# stability limit
# ---------------------------------------------------------------------------


def test_stable_dt_epsilon_dominant_closed_form():
    grid = Grid(shape=(65, 1, 1), extents=(np.pi, 1.0, 1.0))
    law = make_standard_law(nu=1e-3, mu0=1e-3, kappa0=1e-3)
    params = SchemeParams(epsilon=2.0, delta=0.1)
    state = _uniform_state(grid)
    h = np.pi / 64.0
    # all other diffusivities are ~1e-3, sink limit is ~2.75, so the
    # epsilon term h^2/(2 d eps) with d=1 wins outright
    assert stable_dt(grid, law, params, state) == pytest.approx(
        0.4 * h * h / (2.0 * 1.0 * 2.0), rel=1e-12
    )


def test_stable_dt_default_config_frozen_value():
    # defaults: eps=0.05, delta=0.1, nu=1, mu=1, kappa(1)=2, cv=1, d=1
    # diff = max(0.05, 1, 1/1, 2/((1+0.1)*1)) = 2/1.1
    # dt = 0.4 * (pi/64)^2 / (2 * 2/1.1) = 2.65053e-4 (hand arithmetic)
    grid = Grid(shape=(65, 1, 1), extents=(np.pi, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    state = _uniform_state(grid)
    assert stable_dt(grid, law, params, state) == pytest.approx(2.65053e-4, rel=1e-3)


def test_stable_dt_halves_h_quarters_dt():
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    g1 = Grid(shape=(33, 33, 1), extents=(1.0, 1.0, 1.0))
    g2 = Grid(shape=(65, 65, 1), extents=(1.0, 1.0, 1.0))
    dt1 = stable_dt(g1, law, params, _uniform_state(g1))
    dt2 = stable_dt(g2, law, params, _uniform_state(g2))
    assert dt1 / dt2 == pytest.approx(4.0, rel=1e-12)


def test_stable_dt_monotone_in_epsilon():
    grid = Grid(shape=(33, 1, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    state = _uniform_state(grid)
    dts = [
        stable_dt(grid, law, SchemeParams(epsilon=e, delta=0.1), state)
        for e in (0.05, 0.5, 5.0, 50.0)
    ]
    assert all(a >= b for a, b in zip(dts, dts[1:]))
    assert dts[0] > dts[-1]


def test_stable_dt_sink_limited():
    grid = Grid(shape=(65, 1, 1), extents=(np.pi, 1.0, 1.0))
    law = make_standard_law(nu=1e-3, mu0=1e-3, kappa0=1e-3)
    params = SchemeParams(epsilon=1e-3, delta=0.5)
    state = _uniform_state(grid, theta=10.0)
    # sink: (1+0.5)/(0.5*4*10^3) = 7.5e-4; diffusive limit is larger
    assert stable_dt(grid, law, params, state) == pytest.approx(
        0.4 * 7.5e-4, rel=1e-6
    )


def test_step_limits_take_kappa_node_by_node():
    # theta_max = 2 sits where rho = 1, and min rho = 0.5 where theta = 1.
    # With kappa = 1 + theta^3, delta = 0.1 and c_v = 1, the node-wise
    # maximum of kappa/((rho + delta) c_v) is max(2/0.6, 9/1.1) = 9/1.1, not
    # the 9/0.6 that pairs kappa(theta_max) with min rho.  Compact d2 has
    # radius 4/h^2, so the entry is 2 h^2/(4 * 9/1.1).
    grid = Grid(shape=(9, 1, 1), extents=(1.0, 1.0, 1.0))
    law, params = make_standard_law(), SchemeParams(epsilon=0.05, delta=0.1)
    state = _uniform_state(grid)
    state.rho[::2] = 0.5
    state.theta[1::2] = 2.0
    h = 1.0 / 8.0
    assert step_limits(grid, law, params, state).kappa == pytest.approx(
        2.0 * h * h / (4.0 * 9.0 / 1.1), rel=1e-12
    )


@pytest.mark.parametrize("pieces", ["const", "power"])
def test_step_limits_charge_lam_to_the_momentum_entry(pieces):
    # rhs takes the stress as d1 of d1, of radius 1/h_j^2 per active axis, on
    # the coefficient (2 mu + lam)/rho; lam cuts the entry by (2 mu + lam)/(2 mu)
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.3, 1.0))
    params = SchemeParams(epsilon=0.05, delta=0.1)
    radius = 8.0**2 + (6.0 / 1.3) ** 2
    state = _smooth_state(grid, make_standard_law(), params)
    if pieces == "const":
        laws = [make_standard_law(mu0=0.5, lam0=lam) for lam in (0.0, 3.0)]
        coeff = [1.0 / np.min(state.rho), 4.0 / np.min(state.rho)]
    else:
        base = replace(make_standard_law(), mu=Power(0.5, 1.0))
        laws = [base, replace(base, lam=Sum(Const(0.1), Power(0.25, 2.0)))]
        theta, rho = state.theta, state.rho
        coeff = [np.max(theta / rho), np.max((theta + 0.1 + 0.25 * theta**2) / rho)]
    limits = [step_limits(grid, law, params, state).momentum for law in laws]
    assert limits == pytest.approx([2.0 / (radius * c) for c in coeff], rel=1e-12)
    if pieces == "const":
        assert limits[0] / limits[1] == pytest.approx(4.0, rel=1e-12)


def test_step_limits_charge_nu_to_d1_of_d1():
    # curl curl is d1 of d1: 2/(nu * 2/h^2) on a square 2D grid, 4 times the
    # h^2/(4 nu) of the compact d2
    grid = Grid(shape=(9, 9, 1), extents=(1.0, 1.0, 1.0))
    law, params = make_standard_law(nu=0.3), SchemeParams(epsilon=0.05, delta=0.1)
    h = 1.0 / 8.0
    assert step_limits(grid, law, params, _uniform_state(grid)).nu == pytest.approx(
        h * h / 0.3, rel=1e-12
    )


def test_step_limits_wave_entry_at_rest_is_h_over_c():
    # c^2 = dp/drho along the isentrope through the state, of the total
    # pressure p(rho, theta) + delta rho^beta, by a central difference
    grid = Grid(shape=(17, 1, 1), extents=(1.0, 1.0, 1.0))
    law, params = make_standard_law(), SchemeParams(epsilon=0.05, delta=0.1)
    rho0, theta0 = 1.3, 0.7
    s0 = entropy(law, rho0, theta0)

    def p_total(rho):
        theta = np.exp((s0 + thermal_pressure_potential(law, rho)) / law.c_v)
        return float(pressure(law, rho, theta)) + params.delta * rho**params.beta

    step_ = 1e-5
    c = ((p_total(rho0 + step_) - p_total(rho0 - step_)) / (2.0 * step_)) ** 0.5
    limits = step_limits(grid, law, params, _uniform_state(grid, rho0, theta0))
    assert limits.wave == pytest.approx((1.0 / 16.0) / c, rel=1e-8)


def test_step_limits_name_the_binding_entry():
    line = Grid(shape=(65, 1, 1), extents=(np.pi, 1.0, 1.0))
    square = Grid(shape=(9, 9, 1), extents=(1.0, 1.0, 1.0))
    weak = make_standard_law(nu=1e-3, mu0=1e-3, kappa0=1e-3)
    cases = [
        # the cases of the closed-form tests above
        (line, weak, SchemeParams(epsilon=2.0, delta=0.1), _uniform_state(line), "eps"),
        (line, weak, SchemeParams(epsilon=1e-3, delta=0.5), _uniform_state(line, theta=10.0), "sink"),
        (line, make_standard_law(), SchemeParams(epsilon=0.05, delta=0.1), _uniform_state(line), "kappa"),
        (line, make_standard_law(lam0=20.0), SchemeParams(epsilon=0.05, delta=0.1), _uniform_state(line),
         "momentum"),
        (line, make_standard_law(nu=10.0), SchemeParams(epsilon=0.05, delta=0.1), _uniform_state(line), "nu"),
        (square, weak, SchemeParams(epsilon=1e-3, delta=0.1), _uniform_state(square), "wave"),
    ]
    for grid, law, params, state, name in cases:
        limits = step_limits(grid, law, params, state)
        assert limits.binding == name
        assert stable_dt(grid, law, params, state) == params.safety * getattr(limits, name)


def test_step_limits_need_closed_forms_of_the_pressures():
    # rhs runs on any p_th, but no wave speed is bounded without its closed form
    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    law, params = make_standard_law(p_th=lambda rho: 0.5 * rho), SchemeParams(epsilon=0.05, delta=0.1)
    state = _uniform_state(grid)
    rhs(grid, law, params, state.rho, state.u, state.theta, state.H)
    with pytest.raises(TypeError, match="no sound speed bound: no closed form for"):
        step_limits(grid, law, params, state)


def test_large_lam_reproducer_tracks_the_small_step_run():
    # ROADMAP item 1's reproducer.  The limit that left lam out reached max
    # theta 12.7 and 43.0 at safety 0.4 and 1.0, against 1.05 at 0.05.
    sc = scenario.load_scenario(
        CONFIGS / "sweep_delta.ini",
        ("law.lam0=50", "law.mu0=1", "grid.shape=17 17 1", "scheme.t_end=0.05"),
    )

    def max_theta(safety):
        params = replace(sc.params, safety=safety)
        state0, _ = mollify_initial_data(sc.grid, sc.law, params, *scenario.initial_fields(sc))
        peaks = []
        run(sc.grid, sc.law, params, state0, record_every=1,
            observer=lambda i, state, incidents: peaks.append(float(np.max(state.theta))))
        return max(peaks)

    reference = max_theta(0.05)
    assert [max_theta(0.4), max_theta(1.0)] == pytest.approx([reference] * 2, rel=0.05)


def test_step_rejects_oversized_dt():
    grid = Grid(shape=(17, 1, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    state = _uniform_state(grid)
    limit = stable_dt(grid, law, params, state)
    with pytest.raises(InvariantViolation, match="stability limit"):
        step(grid, law, params, state, 10.0 * limit)


# ---------------------------------------------------------------------------
# uniform-state sink ODE oracle
# ---------------------------------------------------------------------------


def test_uniform_state_matches_sink_ode():
    grid = Grid(shape=(6, 5, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()  # c_v = 1, alpha = 3
    params = SchemeParams(epsilon=0.05, delta=0.1, dt=1e-3, t_end=1.0)
    state0 = _uniform_state(grid)
    res = run(grid, law, params, state0, record_every=200)
    # exact solution of (1+delta) theta' = -delta theta^4
    theta_exact = (1.0 + (0.3 / 1.1) * 1.0) ** (-1.0 / 3.0)
    theta_num = res.final_state.theta
    assert np.max(np.abs(theta_num - theta_exact)) / theta_exact <= 1e-6
    # the other fields must not move at all
    assert np.max(np.abs(res.final_state.rho - 1.0)) <= 1e-12
    assert np.max(np.abs(res.final_state.u)) <= 1e-12
    assert np.max(np.abs(res.final_state.H)) <= 1e-12
    assert res.steps == 1000
    assert res.incidents.velocity_clamp_nodes + res.incidents.heat_floor_nodes == 0


def test_uniform_state_single_step_order():
    # one Heun step against the exact ODE flow: error must be O(dt^3)
    grid = Grid(shape=(4, 3, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        state = _uniform_state(grid)
        out = step(grid, law, params, state, dt)
        exact = (1.0 + (0.3 / 1.1) * dt) ** (-1.0 / 3.0)
        errs.append(abs(float(out.theta[1, 1, 0]) - exact))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.2)


# ---------------------------------------------------------------------------
# conservation, positivity, walls on a genuinely moving 2D state
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_2d_run():
    grid = Grid(shape=(48, 40, 1), extents=(1.2, 1.0, 1.0))
    law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1, t_end=0.02)
    state0, _ = mollify_initial_data(grid, law, params, *_smooth_2d_fields(grid))
    res = run(grid, law, params, state0, record_every=20, keep_states=True)
    return grid, law, params, state0, res


def test_mass_conserved_to_rounding(small_2d_run):
    grid, _, _, state0, res = small_2d_run
    mass0 = grid.integrate(state0.rho)
    for st in res.recorded_states:
        assert abs(grid.integrate(st.rho) - mass0) <= 1e-12 * mass0


def test_positivity_maintained(small_2d_run):
    _, _, _, _, res = small_2d_run
    for st in res.recorded_states:
        assert float(np.min(st.rho)) > 0.0
        assert float(np.min(st.theta)) >= 0.0


def test_div_H_cleaned_every_record(small_2d_run):
    grid, _, _, _, res = small_2d_run
    for st in res.recorded_states[1:]:
        hnorm = grid.norm_l2(st.H)
        assert grid.norm_l2(divergence(grid, st.H)) <= 1e-10 * hnorm


def test_walls_stay_zero(small_2d_run):
    _, _, _, _, res = small_2d_run
    st = res.final_state
    for F in (st.u, st.H):
        assert np.all(F[:, 0, :, :] == 0.0)
        assert np.all(F[:, -1, :, :] == 0.0)
        assert np.all(F[:, :, 0, :] == 0.0)
        assert np.all(F[:, :, -1, :] == 0.0)


def test_kinetic_energy_emerges(small_2d_run):
    # sanity: the run actually moves (not a frozen state)
    grid, _, _, state0, res = small_2d_run
    diff = float(np.max(np.abs(res.final_state.rho - state0.rho)))
    assert diff > 1e-8


def test_run_is_deterministic(small_2d_run):
    grid, law, params, state0, res = small_2d_run
    res2 = run(grid, law, params, state0, record_every=20, keep_states=True)
    assert np.array_equal(res2.final_state.rho, res.final_state.rho)
    assert np.array_equal(res2.final_state.u, res.final_state.u)
    assert np.array_equal(res2.final_state.theta, res.final_state.theta)
    assert np.array_equal(res2.final_state.H, res.final_state.H)
    assert res2.record_times == res.record_times


# ---------------------------------------------------------------------------
# induction wiring: resistive decay of a single mode
# ---------------------------------------------------------------------------


def test_resistive_decay_rate():
    grid = Grid(shape=(129, 1, 1), extents=(np.pi, 1.0, 1.0))
    law = make_standard_law(nu=1.0, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1, t_end=0.05)
    x = grid.coords(0).reshape(grid.shape)
    H0 = np.zeros((3,) + grid.shape)
    H0[2] = 1e-3 * np.sin(x)
    H0[2, 0], H0[2, -1] = 0.0, 0.0
    state0 = State(
        grid,
        np.ones(grid.shape),
        np.zeros((3,) + grid.shape),
        np.ones(grid.shape),
        H0,
        0.0,
    )
    res = run(grid, law, params, state0, record_every=1000)
    # mode k=1 decays like exp(-nu t) (up to the O(h^2) symbol deficit of
    # the wide curl-curl stencil, ~1e-5 here); feedback through the Lorentz
    # force is O(|H|^2) and invisible at this amplitude
    expected = 1e-3 * np.exp(-0.05)
    got = float(np.max(np.abs(res.final_state.H[2])))
    assert got == pytest.approx(expected, rel=1e-3)
    # sign check: the field must decay, not grow
    assert got < 1e-3


# ---------------------------------------------------------------------------
# record/snapshot plumbing
# ---------------------------------------------------------------------------


def test_record_cadence_and_snapshots():
    grid = Grid(shape=(6, 5, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1, dt=1e-3, t_end=0.03)
    state0 = _uniform_state(grid)
    seen = []
    res = run(
        grid,
        law,
        params,
        state0,
        record_every=7,
        observer=lambda i, st, inc: seen.append((i, st.t)),
        snapshot_times=[0.015],
    )
    assert res.steps == 30
    assert res.record_steps == [0, 7, 14, 21, 28, 30]
    assert [i for i, _ in seen] == res.record_steps
    assert len(res.snapshots) == 1
    assert res.snapshots[0].t >= 0.015 - 1e-12
    assert res.record_times[-1] == pytest.approx(0.03, abs=1e-12)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_run_rejects_a_step_budget_below_one(max_steps):
    # rejected before anything runs, as record_every < 1 is
    grid = Grid(shape=(9, 9, 1), extents=(1.0, 1.0, 1.0))
    params = SchemeParams(epsilon=0.05, delta=0.1, dt=1e-3, t_end=0.01)
    seen = []
    with pytest.raises(ValueError, match=f"max_steps must be >= 1, got {max_steps}"):
        run(
            grid,
            make_standard_law(),
            params,
            _uniform_state(grid),
            max_steps=max_steps,
            observer=lambda *args: seen.append(args),
        )
    assert seen == []


@pytest.mark.parametrize(
    "t_end,steps,dt_min,dt_last", [(2.5e-3, 3, 1e-3, 5e-4), (4e-4, 1, 4e-4, 4e-4)]
)
def test_dt_min_leaves_out_the_step_cut_to_land_on_t_end(t_end, steps, dt_min, dt_last):
    # a run whose only step is cut has no other step to report
    grid = Grid(shape=(6, 5, 1), extents=(1.0, 1.0, 1.0))
    params = SchemeParams(epsilon=0.05, delta=0.1, dt=1e-3, t_end=t_end)
    res = run(grid, make_standard_law(), params, _uniform_state(grid))
    assert res.steps == steps
    assert res.dt_min == dt_min
    assert res.dt_last == pytest.approx(dt_last, rel=1e-12)


def test_run_frees_its_scratch_on_return_and_on_failure():
    from mhdlab import solver

    grid = Grid(shape=(9, 7, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law()
    params = SchemeParams(epsilon=0.05, delta=0.1, dt=1e-4, t_end=3e-4)
    state = _smooth_state(grid, law, params)
    held = []

    def holds():
        return solver._slot.program is not None

    run(grid, law, params, state, record_every=1, observer=lambda *_: held.append(holds()))
    assert held[1:] == [True] * 3
    assert not holds()

    sink = np.full(grid.shape, -1e5)

    def sources(t):  # drains the mass in the first stage
        held.append(holds())
        return (sink, None, None, None)

    held.clear()
    with pytest.raises(InvariantViolation, match="density positivity lost"):
        run(grid, law, params, state, sources=sources)
    assert held == [True]
    assert not holds()


def test_incident_log_totals():
    log = IncidentLog()
    assert log.velocity_clamp_nodes + log.heat_floor_nodes == 0
    log.velocity_clamp_nodes += 3
    log.heat_floor_nodes += 2
    assert log.velocity_clamp_nodes + log.heat_floor_nodes == 5
