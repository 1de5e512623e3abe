"""Test-only operators: the term-by-term oracle of solver.rhs.

No mhdlab module calls these.  tests/test_solver.py assembles its
reference rhs (_reference_rhs) from them and the public fieldops
operators, each computing its own stencils, and requires the compiled rhs
to match it bit for bit.  The tests below hold the operators themselves
to their continuum forms and identities.
"""

import numpy as np
import pytest

from mhdlab.constitutive import ConstitutiveLaw, make_standard_law
from mhdlab.fieldops import (
    EVEN,
    ODD,
    _is_zero_coeff,
    cross,
    curl,
    d1,
    d2,
    dissipation,
    vector_gradient,
)
from mhdlab.grid import Grid
from test_fieldops import _interior, grid1d, grid2d


def laplacian(grid: Grid, f: np.ndarray, parity: int = EVEN) -> np.ndarray:
    out = np.zeros_like(f)
    for a in grid.active_axes:
        out += d2(grid, f, a, parity)
    return out


def stress_tensor(law: ConstitutiveLaw, du: np.ndarray, theta) -> np.ndarray:
    """psi_ij = mu(theta) (d_i u_j + d_j u_i) + lam(theta) div(u) delta_ij."""
    mu = law.mu(theta)
    lam = law.lam(theta)
    divu = du[0, 0] + du[1, 1] + du[2, 2]
    psi = mu * (du + np.swapaxes(du, 0, 1))
    for i in range(3):
        psi[i, i] += lam * divu
    return psi


def stress_divergence(grid: Grid, law: ConstitutiveLaw, du: np.ndarray, theta) -> np.ndarray:
    """(div psi)_i, assembled term by term with parity-correct outer stencils.

    d_j u_i is EVEN along axis j (odd field, one derivative) and the
    coefficients mu(theta), lam(theta) are EVEN everywhere, so:
      d_j [mu d_j u_i]  -> outer parity EVEN
      d_j [mu d_i u_j]  -> parity of d_i u_j along j is ODD for i != j
      d_i [lam d_k u_k] -> EVEN along i when k = i, ODD otherwise
    """
    mu = law.mu(theta)
    out = grid.vector_field()
    for j in grid.active_axes:
        along = d1(grid, mu * du[:, j], j, EVEN)
        across = d1(grid, mu * du[j], j, ODD)
        across[j] = along[j]
        out += along
        out += across
    if _is_zero_coeff(law.lam):
        return out
    lam = law.lam(theta)
    for i in grid.active_axes:
        for k in grid.active_axes:
            out[i] += d1(grid, lam * du[k, k], i, EVEN if i == k else ODD)
    return out


def double_curl(grid: Grid, dH: np.ndarray) -> np.ndarray:
    """curl(curl H) from the table dH[i, j] = d_j H_i.

    (curl H)_c is a sum of terms d_a H_b; each is EVEN along a and ODD along
    the other axes, so the outer derivative is applied per term: along[j][i]
    = d_j d_j H_i and across[j][i] = d_j d_i H_j (for i != j).
    """
    along = np.zeros_like(dH)
    across = np.zeros_like(dH)
    for j in grid.active_axes:
        along[j] = d1(grid, dH[:, j], j, EVEN)
        across[j] = d1(grid, dH[j], j, ODD)
    return np.stack(
        [
            across[1, 0] - along[1, 0] - along[2, 0] + across[2, 0],
            across[2, 1] - along[2, 1] - along[0, 1] + across[0, 1],
            across[0, 2] - along[0, 2] - along[1, 2] + across[1, 2],
        ]
    )


def induction_rhs(grid: Grid, law: ConstitutiveLaw, u, H, dH) -> np.ndarray:
    """curl(u x H) - nu curl(curl H), with dH the gradient table of H.

    u x H is a product of two odd fields, hence EVEN along every axis.
    """
    return curl(grid, cross(u, H), parity=EVEN) - law.nu * double_curl(grid, dH)


def test_stress_contraction_equals_dissipation():
    # psi : grad(u) == (mu/2) sum (d_i u_j + d_j u_i)^2 + lam (div u)^2
    law = make_standard_law(lam=None, lam0=0.3)
    rng = np.random.default_rng(3)
    g = grid2d(24)
    u = rng.standard_normal((3,) + g.shape)
    theta = 1.0 + 0.5 * rng.random(g.shape)
    du = vector_gradient(g, u)
    psi = stress_tensor(law, du, theta)
    gradu = np.stack([np.stack([d1(g, u[j], i, ODD) for j in range(3)]) for i in range(3)])
    contraction = np.einsum("ij...,ij...->...", psi, gradu)
    dis = dissipation(law, du, theta)
    np.testing.assert_allclose(contraction, dis, rtol=1e-10, atol=1e-12)
    assert np.min(dis) >= 0.0


def test_induction_rhs_pure_diffusion():
    # u = 0, H = (0,0,sin x): rhs = -nu curl curl H = nu * d2/dx2 H = -nu H
    law = make_standard_law(nu=1.0)
    g = grid1d(129)
    x = g.mesh()[0]
    H = np.stack([np.zeros_like(x), np.zeros_like(x), np.sin(x)])
    rhs = induction_rhs(g, law, np.zeros_like(H), H, vector_gradient(g, H))
    assert np.max(np.abs(rhs[2] + np.sin(x))) < 4e-4
    assert np.max(np.abs(rhs[0])) < 1e-14
    assert np.max(np.abs(rhs[1])) < 1e-14


@pytest.mark.parametrize(
    "shape", [((12, 12, 12), (1.0, 1.0, 1.0)), ((40, 31, 1), (np.pi, 2.0, 1.0))]
)
def test_double_curl_equals_curl_of_curl_interior(shape):
    # away from the walls the per-term outer stencils are plain centered
    # differences, so they agree with curl(curl H) up to summation order
    shape, extents = shape
    g = Grid(shape=shape, extents=extents)
    H = np.random.default_rng(12).standard_normal((3,) + g.shape)
    dc = double_curl(g, vector_gradient(g, H))
    cc = curl(g, curl(g, H))
    scale = np.max(np.abs(H)) / min(g.spacing_active) ** 2
    assert np.max(np.abs(_interior(g, dc - cc))) < 1e-13 * scale
    assert np.max(np.abs(_interior(g, dc))) > 1e-3 * scale
