"""Contract tests for the discrete divergence-free projection.

The projector removes the part of H seen by the *same* centered-difference
divergence the diagnostics use, while keeping every component pinned to zero
on the walls.  Contract: post-state satisfies ||div H||_2 <= 1e-10 ||H||_2.
"""

import numpy as np
import pytest

from mhdlab.grid import Grid
from mhdlab.fieldops import ODD, d1, divergence
from mhdlab.projection import RTOL, DivFreeProjector, _axis_basis


def _zero_walls(g, F):
    for ax in g.active_axes:
        sl = [slice(None)] * 4
        for pos in (0, -1):
            sl[1 + ax] = pos
            F[tuple(sl)] = 0.0
            sl[1 + ax] = slice(None)
    return F


def _rand_field(g, seed):
    rng = np.random.default_rng(seed)
    return _zero_walls(g, rng.standard_normal((3,) + g.shape))


@pytest.mark.parametrize(
    "shape,extents",
    [
        ((64, 64, 1), (np.pi, np.pi, 1.0)),
        ((31, 47, 1), (1.0, 2.0, 1.0)),
        ((17, 17, 17), (1.0, 1.0, 1.0)),
    ],
)
def test_projection_contract(shape, extents):
    g = Grid(shape=shape, extents=extents)
    proj = DivFreeProjector(g)
    H = _rand_field(g, seed=5)
    out = proj.project(H)
    assert g.norm_l2(divergence(g, out)) <= 1e-10 * g.norm_l2(H)
    # walls stay pinned
    for ax in g.active_axes:
        sl = [slice(None)] * 4
        for pos in (0, -1):
            sl[1 + ax] = pos
            assert np.all(out[tuple(sl)] == 0.0)
            sl[1 + ax] = slice(None)


def test_projection_idempotent_up_to_solver_tol():
    g = Grid(shape=(48, 48, 1), extents=(np.pi, np.pi, 1.0))
    proj = DivFreeProjector(g)
    H = proj.project(_rand_field(g, seed=11))
    H2 = proj.project(H)
    assert np.max(np.abs(H2 - H)) <= 1e-9 * max(np.max(np.abs(H)), 1.0)


def _bump(s):
    a = np.clip(np.abs(s), 0.0, 1.0)
    return 1.0 - 10.0 * a**3 + 15.0 * a**4 - 6.0 * a**5


def test_interior_divfree_field_nearly_unchanged():
    # H with compactly supported discrete div ~ 0 everywhere: projection is
    # close to the identity
    g = Grid(shape=(65, 65, 1), extents=(np.pi, np.pi, 1.0))
    x, y = g.mesh()[:2]
    L = np.pi
    psi = _bump((x - 0.5 * L) * 3.2 / L) * _bump((y - 0.5 * L) * 3.2 / L) * np.sin(x + y)
    # stream-function field: exactly wall-zero, interior div is O(h^2) small
    from mhdlab.fieldops import d1, ODD, EVEN

    H = np.stack([d1(g, psi, 1, EVEN), -d1(g, psi, 0, EVEN), np.zeros_like(psi)])
    _zero_walls(g, H)
    proj = DivFreeProjector(g)
    out = proj.project(H)
    base = g.norm_l2(H)
    assert g.norm_l2(divergence(g, out)) <= 1e-10 * base
    # correction is on the scale of the pre-projection divergence defect
    defect = g.norm_l2(divergence(g, H))
    assert g.norm_l2(out - H) <= 20.0 * defect + 1e-12 * base


def test_projection_1d_kills_normal_component():
    g = Grid(shape=(129, 1, 1), extents=(np.pi, 1.0, 1.0))
    x = g.mesh()[0]
    H = np.stack([np.sin(x) ** 2, np.sin(2 * x), np.sin(3 * x)])
    H[:, 0] = H[:, -1] = 0.0
    proj = DivFreeProjector(g)
    out = proj.project(H)
    assert g.norm_l2(divergence(g, out)) <= 1e-10 * g.norm_l2(H)
    # tangential components never enter the 1d divergence
    np.testing.assert_array_equal(out[1], H[1])
    np.testing.assert_array_equal(out[2], H[2])


def test_projection_rejects_nonzero_walls():
    from mhdlab.errors import InvariantViolation

    g = Grid(shape=(33, 33, 1), extents=(1.0, 1.0, 1.0))
    H = np.ones((3,) + g.shape)
    with pytest.raises(InvariantViolation):
        DivFreeProjector(g).project(H)


@pytest.mark.parametrize("shape", [(33, 1, 1), (17, 15, 1)])
def test_rounding_level_wall_values_are_swept_and_larger_ones_raise(shape):
    from mhdlab.errors import InvariantViolation

    g = Grid(shape=shape, extents=(1.0, 1.0, 1.0))
    proj = DivFreeProjector(g)
    zero_normal = _rand_field(g, seed=5)
    zero_normal[list(g.active_axes)] = 0.0  # takes the zero-divergence return
    for H in (_rand_field(g, seed=5), zero_normal):
        want = proj.project(H)
        scale = float(np.max(np.abs(H)))
        for wall in (1e-13 * scale, -0.0):
            swept = H.copy()
            swept[1, -1, 0, 0] = wall
            out = proj.project(swept)
            assert out.tobytes() == want.tobytes()  # the wall value is +0.0
        H[1, -1, 0, 0] = 1e-11 * scale
        with pytest.raises(InvariantViolation, match="nonzero wall values"):
            proj.project(H)


def test_adjoint_consistency():
    # <D F, s> == <F, D^T s> in the plain dot product the solver uses
    g = Grid(shape=(20, 14, 1), extents=(1.0, 1.0, 1.0))
    proj = DivFreeProjector(g)
    rng = np.random.default_rng(23)
    F = rng.standard_normal((3,) + g.shape)
    s = rng.standard_normal(g.shape)
    lhs = float(np.sum(divergence(g, F) * s))
    rhs = float(np.sum(F * proj.div_transpose(s)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_projection_deterministic():
    g = Grid(shape=(40, 40, 1), extents=(1.0, 1.0, 1.0))
    proj = DivFreeProjector(g)
    H = _rand_field(g, seed=3)
    a = proj.project(H.copy())
    b = DivFreeProjector(g).project(H.copy())
    np.testing.assert_array_equal(a, b)


def _dense_interior_divergence(g):
    """D_I as a dense matrix: the divergence of every unit interior entry of
    an active component, one column each, built by applying `divergence`."""
    interior = np.flatnonzero(g.zero_walls(np.ones(g.shape)).ravel())
    cols, index = [], []
    for c in g.active_axes:
        for k in interior:
            e = np.zeros((3, g.shape[0] * g.shape[1] * g.shape[2]))
            e[c, k] = 1.0
            cols.append(divergence(g, e.reshape((3,) + g.shape)).ravel())
            index.append((c, k))
    return np.array(cols).T, index


@pytest.mark.parametrize(
    "shape",
    [(7, 6, 1), (9, 9, 1), (3, 5, 1), (11, 1, 1), (3, 5, 4), (5, 6, 7), (4, 3, 6)],
)
def test_projection_matches_dense_minimum_norm_oracle(shape):
    g = Grid(shape=shape, extents=(1.0, 1.3, 1.0))
    D, index = _dense_interior_divergence(g)
    H = _rand_field(g, seed=7)
    flat = H.reshape(3, -1)
    h = np.array([flat[c, k] for c, k in index])
    h_clean = h - D.T @ np.linalg.pinv(D @ D.T, rtol=1e-10, hermitian=True) @ (D @ h)
    want = flat.copy()
    for (c, k), v in zip(index, h_clean):
        want[c, k] = v
    out = DivFreeProjector(g).project(H)
    assert np.linalg.norm(out.ravel() - want.ravel()) <= 1e-12 * np.linalg.norm(H)


def _small_shapes():
    yield from ((nx, ny, 1) for nx in range(3, 13) for ny in range(3, 13))
    yield from ((n, 1, 1) for n in range(3, 41))
    yield from ((1, n, 1) for n in range(3, 41))
    yield (5, 1, 4)
    yield from ((nx, ny, nz) for nx in range(3, 8) for ny in range(3, 8) for nz in range(3, 8))


def test_projection_small_shape_sweep():
    # every small 1d/2d/3d shape builds and cleans; on a 3-node axis the
    # two walls share one mode and a parity class splits into two components
    bad = []
    for shape in _small_shapes():
        g = Grid(shape=shape, extents=(1.0, 1.0, 1.0))
        H = _rand_field(g, seed=sum(shape))
        out = DivFreeProjector(g).project(H)
        div_rel = g.norm_l2(divergence(g, out)) / g.norm_l2(H)
        if not (div_rel <= 1e-10 and g.wall_max(out) == 0.0):
            bad.append((shape, div_rel, g.wall_max(out)))
    assert not bad


def test_projector_construction_is_pure():
    # no RNG or module state leaks into the basis: a projector built
    # after others on different grids gives the same bits
    for shape, extents in (((20, 14, 1), (1.0, 2.0, 1.0)), ((9, 8, 7), (1.0, 2.0, 1.5))):
        g = Grid(shape=shape, extents=extents)
        H = _rand_field(g, seed=19)
        first = DivFreeProjector(g).project(H.copy())
        for other_shape in ((9, 1, 1), (33, 17, 1), (6, 7, 5)):
            other = Grid(shape=other_shape, extents=(1.0, 1.0, 1.0))
            DivFreeProjector(other).project(_rand_field(other, seed=2))
        again = DivFreeProjector(g).project(H.copy())
        np.testing.assert_array_equal(first, again)


_THREE_NODE_PINS = [
    ((3, 1, 1), 2),
    ((3, 3, 1), 7),
    ((3, 5, 1), 9),
    ((3, 4, 5), 42),
    ((3, 3, 3), 24),
    ((4, 3, 6), 48),
]


@pytest.mark.parametrize(
    "n,pins",
    [(7, 76), (9, 100), (11, 124), (17, 196)]
    + [pytest.param(shape, pins, id="x".join(map(str, shape))) for shape, pins in _THREE_NODE_PINS],
)
def test_pins_remove_exactly_the_nullspace(n, pins):
    # the pseudo-inverse drops A's nullspace: on n^3 the 12(n-2)+8 edge and
    # corner nodes with all-zero rows plus one mode per index-parity class
    # (8 in 3D); a 3-node axis splits a class further
    shape = n if isinstance(n, tuple) else (n, n, n)
    g = Grid(shape=shape, extents=(1.0, 1.0, 1.0))
    dropped = DivFreeProjector(g).dropped_modes
    assert dropped == pins
    if shape == (n, n, n):
        assert pins == 12 * (n - 2) + 16
    if n == 7 or 3 in shape:
        D, _ = _dense_interior_divergence(g)
        assert dropped == D.shape[0] - np.linalg.matrix_rank(D @ D.T, hermitian=True)


def _dense_t_and_z(n, h):
    """T = d Z d^T and Z of one axis, with d fieldops.d1 (ODD) applied to
    the unit vectors."""
    g = Grid(shape=(n, 1, 1), extents=(h * (n - 1), 1.0, 1.0))
    d = d1(g, np.eye(n).reshape(n, n, 1, 1), 0, ODD).reshape(n, n).T
    z = np.ones(n)
    z[[0, -1]] = 0.0
    return (d * z) @ d.T, np.diag(z)


@pytest.mark.parametrize("n", list(range(3, 41)) + [257, 1025])
def test_axis_basis_diagonalizes_t_and_z(n):
    # the closed-form basis takes T and Z to diag(lam) and diag(zeta)
    h = 0.7 / (n - 1)
    V, lam, zeta = _axis_basis(n, h)
    T, Z = _dense_t_and_z(n, h)
    np.testing.assert_allclose(V.T @ T @ V * h**2, np.diag(lam) * h**2, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(V.T @ Z @ V / h**2, np.diag(zeta) / h**2, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("shape", [(65, 65, 1), (17, 17, 17), (3, 5, 4)])
def test_projector_builds_without_an_eigensolver(shape, monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    g = Grid(shape=shape, extents=(1.0, 1.3, 0.7))
    H = _rand_field(g, seed=13)
    out = DivFreeProjector(g).project(H)
    assert g.norm_l2(divergence(g, out)) <= 1e-10 * g.norm_l2(H)


@pytest.mark.parametrize("shape", [(6, 5, 1), (3, 7, 1), (9, 3, 5)])
def test_projection_matches_dense_lstsq(shape):
    # the cleaned interior is h minus the minimum-norm solution of D_I c = D_I h
    g = Grid(shape=shape, extents=(1.0, 1.3, 0.7))
    D, index = _dense_interior_divergence(g)
    H = _rand_field(g, seed=31)
    flat = H.reshape(3, -1)
    h = np.array([flat[c, k] for c, k in index])
    h_clean = h - np.linalg.lstsq(D, D @ h, rcond=None)[0]
    want = flat.copy()
    for (c, k), v in zip(index, h_clean):
        want[c, k] = v
    out = DivFreeProjector(g).project(H)
    assert np.linalg.norm(out.ravel() - want.ravel()) <= 1e-12 * np.linalg.norm(H)


def _smooth_field(g):
    x, y, _ = g.mesh()
    H = np.stack(
        [
            np.sin(x) ** 2 * np.sin(y) ** 2 + np.sin(3 * x) * np.sin(2 * y),
            np.sin(2 * x) * np.sin(y),
            np.sin(x) * np.sin(y),
        ]
    )
    return _zero_walls(g, H)


@pytest.mark.parametrize(
    "shape,field",
    [((513, 1, 1), "random"), ((1025, 1, 1), "random"), ((257, 257, 1), "smooth")],
)
def test_projection_reaches_rtol_on_large_grids(shape, field):
    # the first solve leaves about 0.4, 2 and 0.5 RTOL on these, past the
    # RTOL/4 that triggers the refinement sweep, which leaves far less than
    # RTOL/4
    g = Grid(shape=shape, extents=(np.pi, np.pi, 1.0))
    H = _rand_field(g, seed=3) if field == "random" else _smooth_field(g)
    out = DivFreeProjector(g).project(H)
    div = divergence(g, out)
    assert np.sqrt(np.sum(div * div)) <= 0.25 * RTOL * np.sqrt(np.sum(H * H))
    assert g.wall_max(out) == 0.0


def test_projection_without_active_axes_is_identity():
    g = Grid(shape=(1, 1, 1), extents=(1.0, 1.0, 1.0))
    H = np.array([0.3, -1.2, 2.5]).reshape((3, 1, 1, 1))
    np.testing.assert_array_equal(DivFreeProjector(g).project(H), H)


def _count_builds(monkeypatch):
    """The grids DivFreeProjector is built for from now on, in order."""
    built = []
    init = DivFreeProjector.__init__

    def counted(self, grid):
        built.append(grid)
        init(self, grid)

    monkeypatch.setattr(DivFreeProjector, "__init__", counted)
    return built


def _mollified(g, law, params):
    from mhdlab.solver import mollify_initial_data

    x, y = g.mesh()[:2]
    H0 = _zero_walls(g, np.stack([np.sin(3 * y), np.cos(2 * x), 0.0 * x]))
    st0, _ = mollify_initial_data(
        g, law, params, 1.0 + 0.0 * x, np.zeros((3,) + g.shape), 1.0 + 0.0 * x, H0
    )
    return st0


def test_run_and_mollification_share_one_projector(monkeypatch):
    from mhdlab.constitutive import make_standard_law
    from mhdlab.solver import SchemeParams, run

    built = _count_builds(monkeypatch)
    g = Grid(shape=(9, 8, 1), extents=(1.0, 1.0, 1.0))
    law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1, t_end=1e-3)
    run(g, law, params, _mollified(g, law, params))
    assert built == [g]


def test_threads_on_their_own_grids_build_one_projector_each(monkeypatch):
    # each thread's compiled program holds the projector of its grid, so
    # two threads that step in turn on two grids build one each
    import threading

    from mhdlab.constitutive import make_standard_law
    from mhdlab.solver import SchemeParams, step

    built = _count_builds(monkeypatch)
    law = make_standard_law(nu=0.1, mu0=0.1, kappa0=0.1)
    params = SchemeParams(epsilon=0.05, delta=0.1)
    grids = [Grid(shape=(n, n, 1), extents=(1.0, 1.0, 1.0)) for n in (9, 11)]
    turns = threading.Barrier(len(grids), timeout=60)
    steps, errors = [], []

    def stepper(g):
        try:
            st = _mollified(g, law, params)
            for _ in range(10):
                turns.wait()
                st = step(g, law, params, st, 1e-4)
                steps.append(g)
        except Exception as exc:
            errors.append(exc)
            turns.abort()

    threads = [threading.Thread(target=stepper, args=(g,)) for g in grids]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(steps) == 20
    assert sorted(built, key=lambda g: g.shape) == grids


@pytest.mark.parametrize("shape", [(33, 1, 1), (17, 15, 1)])
def test_zero_normal_field_returns_before_the_divergence(shape, monkeypatch):
    # with every component along an active axis exactly zero, D H is exactly
    # zero: project() returns the wall-zeroed copy the divergence check
    # returned, without taking the divergence
    from mhdlab import projection

    g = Grid(shape=shape, extents=(1.0, 1.0, 1.0))
    proj = DivFreeProjector(g)
    H = _rand_field(g, seed=7)
    H[list(g.active_axes)] = 0.0
    H[2, 0, 0, 0] = -0.0  # a signed zero on a wall is swept to +0.0
    # the divergence check returns this copy, as its divergence is zero
    want = _zero_walls(g, H.copy())
    assert not divergence(g, want).any()

    def no_divergence(*args, **kwargs):
        raise AssertionError("the divergence was taken")

    monkeypatch.setattr(projection, "divergence", no_divergence)
    out = proj.project(H)
    assert out is not H and out.tobytes() == want.tobytes()
    # one nonzero normal entry takes the solve path
    H[0, shape[0] // 2, shape[1] // 2, 0] = 1e-3
    with pytest.raises(AssertionError, match="divergence was taken"):
        proj.project(H)
    monkeypatch.undo()
    out = proj.project(H)
    assert g.norm_l2(divergence(g, out)) <= 1e-10 * g.norm_l2(H)
    assert not np.array_equal(out, H)
