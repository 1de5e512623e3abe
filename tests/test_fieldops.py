"""Stencil and operator oracles on manufactured trigonometric fields.

Single-mode sine/cosine fields reflect exactly (odd/even) across the walls,
so the ghost-based stencils see the entire smooth periodic extension and
errors are pure O(h^2) truncation.  Expected interior identities
(div o curl = 0, curl o grad = 0) hold to rounding because centered
differences commute wherever no ghost is involved.
"""

import sys
from functools import partial

import numpy as np
import pytest

from mhdlab import fieldops
from mhdlab.grid import Grid
from mhdlab.fieldops import (
    EVEN,
    ODD,
    cross,
    curl,
    d1,
    d2,
    dissipation,
    divergence,
    gradient,
    identity_residual,
    lorentz_force,
    vector_gradient,
)
from mhdlab.constitutive import make_standard_law


def grid1d(n, L=np.pi):
    return Grid(shape=(n, 1, 1), extents=(L, 1.0, 1.0))


def grid2d(n, L=np.pi):
    return Grid(shape=(n, n, 1), extents=(L, L, 1.0))


def max_err_d1_even(n):
    g = grid1d(n)
    x = g.mesh()[0]
    f = np.cos(2.0 * x)
    return float(np.max(np.abs(d1(g, f, 0, EVEN) + 2.0 * np.sin(2.0 * x))))


def max_err_d1_odd(n):
    g = grid1d(n)
    x = g.mesh()[0]
    f = np.sin(2.0 * x)
    return float(np.max(np.abs(d1(g, f, 0, ODD) - 2.0 * np.cos(2.0 * x))))


def max_err_d2_even(n):
    g = grid1d(n)
    x = g.mesh()[0]
    f = np.cos(2.0 * x)
    return float(np.max(np.abs(d2(g, f, 0, EVEN) + 4.0 * np.cos(2.0 * x))))


def max_err_vector_gradient_odd(n):
    g = grid1d(n)
    x = g.mesh()[0]
    F = np.stack([np.sin(2.0 * x), np.sin(x), np.sin(3.0 * x)])
    want = np.stack([2.0 * np.cos(2.0 * x), np.cos(x), 3.0 * np.cos(3.0 * x)])
    return float(np.max(np.abs(vector_gradient(g, F)[:, 0] - want)))


@pytest.mark.parametrize(
    "errfn", [max_err_d1_even, max_err_d1_odd, max_err_d2_even, max_err_vector_gradient_odd]
)
def test_stencils_are_second_order(errfn):
    e1, e2 = errfn(65), errfn(129)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_suppressed_axis_derivatives_vanish():
    g = grid1d(33)
    f = np.cos(g.mesh()[0])
    assert np.all(d1(g, f, 1, EVEN) == 0.0)
    assert np.all(d2(g, f, 2, EVEN) == 0.0)
    G = vector_gradient(g, np.stack([f, 2.0 * f, 3.0 * f]), EVEN)
    assert np.all(G[:, 1:] == 0.0)


@pytest.mark.parametrize("shape", [(33, 1, 1), (17, 9, 1), (9, 7, 5)])
def test_vector_gradient_matches_d1(shape):
    # the table is the same stencil, one component and one axis at a time
    g = Grid(shape=shape, extents=(1.0, 2.0, 1.5))
    F = np.random.default_rng(4).standard_normal((3,) + shape)
    for parity in (EVEN, ODD):
        G = vector_gradient(g, F, parity)
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(G[i, j], d1(g, F[i], j, parity))
        for j in range(3):
            if shape[j] == 1:
                assert np.all(G[:, j] == 0.0)


def test_gradient_and_divergence_oracles_2d():
    g = grid2d(65)
    x, y = g.mesh()[:2]
    f = np.cos(x) * np.cos(2.0 * y)
    gr = gradient(g, f)
    assert np.max(np.abs(gr[0] + np.sin(x) * np.cos(2.0 * y))) < 8e-4
    assert np.max(np.abs(gr[1] + 2.0 * np.cos(x) * np.sin(2.0 * y))) < 4e-3
    assert np.all(gr[2] == 0.0)

    F = np.stack(
        [np.sin(x) * np.sin(y), np.sin(2.0 * x) * np.sin(y), np.zeros_like(x)]
    )
    dv = divergence(g, F)
    want = np.cos(x) * np.sin(y) + np.sin(2.0 * x) * np.cos(y)
    assert np.max(np.abs(dv - want)) < 4e-3


def test_curl_oracle_2d():
    g = grid2d(65)
    x, y = g.mesh()[:2]
    F = np.stack(
        [np.sin(x) * np.sin(y), np.sin(x) * np.sin(2.0 * y), np.sin(2.0 * x) * np.sin(y)]
    )
    c = curl(g, F)
    want_z = np.cos(x) * np.sin(2.0 * y) - np.sin(x) * np.cos(y)
    assert np.max(np.abs(c[2] - want_z)) < 2e-3
    # x,y components only involve z-derivatives of F_z -> zero in a slab, plus
    # d/dy F_z and d/dx F_z
    assert np.max(np.abs(c[0] - np.sin(2.0 * x) * np.cos(y))) < 2e-3
    assert np.max(np.abs(c[1] + 2.0 * np.cos(2.0 * x) * np.sin(y))) < 4e-3


def _interior(g, f, margin=2):
    sl = [slice(None)] * f.ndim
    off = f.ndim - 3
    for ax in g.active_axes:
        sl[off + ax] = slice(margin, -margin)
    return f[tuple(sl)]


def test_div_curl_vanishes_interior():
    rng = np.random.default_rng(7)
    g = grid2d(64)
    F = rng.standard_normal((3,) + g.shape)
    res = divergence(g, curl(g, F))
    scale = max(np.max(np.abs(curl(g, F))) / min(g.spacing_active), 1e-300)
    rel = np.max(np.abs(_interior(g, res))) / scale
    assert rel < 1e-12


def test_curl_grad_vanishes_interior():
    rng = np.random.default_rng(8)
    g = grid2d(64)
    f = rng.standard_normal(g.shape)
    res = curl(g, gradient(g, f))
    scale = max(np.max(np.abs(gradient(g, f))) / min(g.spacing_active), 1e-300)
    rel = np.max(np.abs(_interior(g, res))) / scale
    assert rel < 1e-12


def test_div_curl_vanishes_interior_3d():
    rng = np.random.default_rng(9)
    g = Grid(shape=(12, 12, 12), extents=(1.0, 1.0, 1.0))
    F = rng.standard_normal((3,) + g.shape)
    res = divergence(g, curl(g, F))
    scale = np.max(np.abs(curl(g, F))) / min(g.spacing_active)
    rel = np.max(np.abs(_interior(g, res))) / scale
    assert rel < 1e-12


def test_quadrature_trapezoid():
    g = grid1d(201)
    x = g.mesh()[0]
    # int_0^pi sin = 2, trapezoid error O(h^2)
    assert g.integrate(np.sin(x)) == pytest.approx(2.0, abs=1e-4)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(np.pi, rel=1e-13)
    g2 = grid2d(33)
    assert g2.integrate(np.ones(g2.shape)) == pytest.approx(np.pi**2, rel=1e-13)


def test_conservative_flux_integrates_to_zero():
    # trapezoid weights + centered differences + odd ghosts telescope exactly
    rng = np.random.default_rng(17)
    g = grid2d(48)
    F = rng.standard_normal((3,) + g.shape)
    for ax in g.active_axes:
        sl = [slice(None)] * 4
        for pos in (0, -1):
            sl[1 + ax] = pos
            F[tuple(sl)] = 0.0
            sl[1 + ax] = slice(None)
    total = g.integrate(divergence(g, F))
    assert abs(total) < 1e-12 * np.max(np.abs(F)) * g.volume / min(g.spacing_active)


def test_dissipation_nonnegative_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    law = make_standard_law(lam=None, lam0=0.1)
    g = grid2d(12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def inner(seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((3,) + g.shape)
        theta = 0.1 + rng.random(g.shape)
        assert np.min(dissipation(law, vector_gradient(g, u), theta)) >= 0.0

    inner()


def test_lorentz_force_oracle():
    g = grid2d(97)
    x, y = g.mesh()[:2]
    H = np.stack([np.zeros_like(x), np.zeros_like(x), np.sin(x) * np.sin(y)])
    # curl H = (dy Hz, -dx Hz, 0); F = (curl H) x H
    f = lorentz_force(g, H)
    want_x = -np.sin(x) * np.cos(x) * np.sin(y) ** 2
    want_y = -np.sin(x) ** 2 * np.sin(y) * np.cos(y)
    assert np.max(np.abs(f[0] - want_x)) < 3e-3
    assert np.max(np.abs(f[1] - want_y)) < 3e-3
    assert np.max(np.abs(f[2])) < 1e-12


@pytest.mark.parametrize("shape", [(3, 257, 1, 1), (3, 6, 5, 1), (3, 9, 7, 5), (3, 4)])
def test_cross_bitwise_equals_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) * np.exp(4.0 * rng.standard_normal(shape))
    b = rng.standard_normal(shape)
    a[1, :2] = 0.0
    b[2, 1:3] = -0.0
    want = np.cross(a, b, axis=0)
    got = cross(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    out = np.empty_like(want)
    assert cross(a, b, out=out) is out and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("axis, parity", [(0, EVEN), (1, ODD), (2, ODD), (2, EVEN)])
def test_d1_d2_write_into_out(axis, parity):
    g = Grid(shape=(9, 7, 5), extents=(1.0, 1.2, 0.8))
    f = np.random.default_rng(5).standard_normal((2,) + g.shape)
    for op in (d1, d2):
        out = np.full_like(f, np.nan)
        assert op(g, f, axis, parity, out=out) is out
        assert out.tobytes() == op(g, f, axis, parity).tobytes()
        # a strided operand gives the bits of its contiguous copy
        view = np.stack([f, -f], axis=-1)[..., 1]
        assert op(g, view, axis, parity).tobytes() == op(g, view.copy(), axis, parity).tobytes()
        with pytest.raises(ValueError, match="contiguous"):
            op(g, f, axis, parity, out=np.empty((5,) + g.shape)[::2])


def _bound(steps, g, f, axis, parity):
    """The steps of a stencil bound once to a buffer and an output slot, as
    solver.rhs binds them, then replayed twice with f copied in."""
    buf = np.full(f.shape, np.nan)
    out = np.full(f.shape, np.nan)
    program = []
    steps(g, buf, axis, parity, out, lambda fn, *a, **kw: program.append(partial(fn, *a, **kw)))
    np.copyto(buf, f)
    for _ in range(2):
        for call in program:
            call()
    return out


def _ghost_oracle(op, g, f, axis, parity):
    """d1 or d2 of f as centred differences over one reflected ghost node
    on each side, the ghost of an ODD field flipped in sign."""
    ax = f.ndim - 3 + axis
    n = f.shape[ax]
    ghost = np.concatenate([f.take([1], ax), f, f.take([n - 2], ax)], axis=ax)
    for i in (0, n + 1):
        idx = [slice(None)] * f.ndim
        idx[ax] = i
        ghost[tuple(idx)] *= parity
    lo, mid, hi = (ghost.take(np.arange(k, k + n), ax) for k in range(3))
    h = g.spacing[axis]
    return (hi - lo) / (2.0 * h) if op is d1 else (hi - 2.0 * mid + lo) / (h * h)


_STENCIL_SHAPES = [
    (9, 1, 1),
    (1, 9, 1),
    (1, 1, 9),
    (3, 5, 1),
    (5, 3, 1),
    (3, 3, 3),
    (7, 6, 5),
    (4, 1, 6),
]


@pytest.mark.parametrize("shape", _STENCIL_SHAPES)
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_bound_stencil_steps_match_standalone(shape, lead):
    # one step list per stencil: bound into a program or run at once, it
    # gives the same bytes, for a stack as for each operand on its own
    g = Grid(shape=shape, extents=(1.0, 1.3, 0.7))
    f = np.random.default_rng(sum(shape) + len(lead)).standard_normal(lead + shape)
    for op, steps in ((d1, fieldops.d1_steps), (d2, fieldops.d2_steps)):
        for axis in g.active_axes:
            for parity in (EVEN, ODD):
                want = op(g, f, axis, parity)
                oracle = _ghost_oracle(op, g, f, axis, parity)
                np.testing.assert_allclose(want, oracle, rtol=0.0, atol=1e-12 * np.abs(want).max())
                assert _bound(steps, g, f, axis, parity).tobytes() == want.tobytes()
                for i in np.ndindex(lead):
                    assert op(g, f[i], axis, parity).tobytes() == want[i].tobytes()
                # a strided operand is copied to a contiguous one first
                view = np.stack([-f, f], axis=-1)[..., 1]
                assert op(g, view, axis, parity).tobytes() == want.tobytes()


def _guard_stencils(monkeypatch, calls):
    """Record every d1/d2 call and every build of their steps, under every
    name mhdlab binds them to."""
    for name in ("d1", "d2", "d1_steps", "d2_steps"):
        fn = getattr(fieldops, name)

        def guarded(grid, f, axis, parity, *args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, axis, grid.shape[axis]))
            return _fn(grid, f, axis, parity, *args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("mhdlab") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, guarded)


@pytest.mark.parametrize("shape", [(9, 1, 1), (9, 7, 1)])
def test_no_stencil_along_suppressed_axes(shape, monkeypatch):
    from mhdlab.diagnostics import record, thermal_weak_residual
    from mhdlab.projection import DivFreeProjector
    from mhdlab import solver
    from mhdlab.solver import SchemeParams, State, rhs

    g = Grid(shape=shape, extents=(1.0, 1.5, 1.0))
    law = make_standard_law(lam0=0.3)
    params = SchemeParams(epsilon=0.05, delta=0.1)
    rng = np.random.default_rng(21)
    rho = 1.0 + 0.1 * rng.random(g.shape)
    theta = 1.0 + 0.1 * rng.random(g.shape)
    u = g.zero_walls(rng.standard_normal((3,) + g.shape))
    H = g.zero_walls(rng.standard_normal((3,) + g.shape))
    states = [State(g, rho, u, theta, H, 0.0), State(g, rho, u, theta, H, 0.1)]

    calls = []
    _guard_stencils(monkeypatch, calls)
    # rhs builds its stencils' steps when it compiles, so it must compile
    # under the guard
    solver._slot.key = solver._slot.program = None
    rhs(g, law, params, rho, u, theta, H)
    assert calls, "the guard saw rhs build no stencil"
    record(g, law, params, states[0])
    thermal_weak_residual(g, law, params, states)
    DivFreeProjector(g).project(H)
    assert calls, "the guard saw no stencil call"
    assert [c for c in calls if c[2] == 1] == []


def _bump(s):
    # C^2 quintic bump on |s|<1
    a = np.clip(np.abs(s), 0.0, 1.0)
    return 1.0 - 10.0 * a**3 + 15.0 * a**4 - 6.0 * a**5


def _compact_fields(n, L=np.pi):
    g = grid2d(n, L)
    x, y = g.mesh()[:2]
    r = 2.6 / L
    bx = _bump((x - 0.52 * L) * r) * _bump((y - 0.47 * L) * r)
    u = np.stack(
        [
            bx * np.sin(2.0 * x + y),
            bx * np.cos(x - 2.0 * y),
            bx * np.sin(x + y),
        ]
    )
    H = np.stack(
        [
            bx * np.cos(2.0 * y),
            bx * np.sin(x + 0.5),
            bx * np.cos(x - y),
        ]
    )
    return g, u, H


def test_identity_residual_second_order():
    # div((u x H) x H) - [(curl H) x H . u + curl(u x H) . H] -> 0 at O(h^2)
    res = []
    for n in (33, 65, 129):
        g, u, H = _compact_fields(n)
        out = identity_residual(g, u, H)
        res.append(out.l1)
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.5)
    assert res[1] / res[2] == pytest.approx(4.0, abs=0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(shape=(2, 1, 1), extents=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid(shape=(8, 1, 1), extents=(-1.0, 1.0, 1.0))
    g = Grid(shape=(9, 5, 1), extents=(2.0, 1.0, 1.0))
    assert g.active_axes == (0, 1)
    assert g.spacing == pytest.approx((0.25, 0.25, 1.0))
