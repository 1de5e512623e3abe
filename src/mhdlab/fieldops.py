"""Centered differences with reflection ghosts, and the MHD operator kit.

Boundary handling: every derivative carries a parity flag per invocation.
ODD means the field reflects with a sign flip across the wall nodes (the
homogeneous Dirichlet family: velocity, magnetic field, wall-vanishing
fluxes), EVEN means it reflects symmetrically (the homogeneous Neumann
family: density, temperature, pressure-like scalars).  Interior stencils
never see the ghosts, so composed identities like div(curl F) = 0 cancel
exactly away from the walls.

Active-axis rule: every operator applies d1/d2 only along
grid.active_axes.  Derivatives along a suppressed axis are exact zeros and
are never computed.

Gradient table: vector_gradient(grid, F, parity) returns G with
G[i, j] = d_j F_i, built with one stacked d1 per active axis.  table_curl,
double_curl, stress_tensor, stress_divergence and dissipation read a table,
so a caller that needs several of them computes the table once and passes
it on.

Composite operators (viscous stress divergence, double curl) apply the
outer derivative term by term so each uses the parity the inner term
actually has along that axis: d/dx_j of u_i flips the parity along x_j and
leaves the other axes alone.

Stacking: d1 and d2 act on the last three axes, so leading axes stack any
operands that share a parity, and a stacked call does for each operand the
arithmetic of a call of its own; out= writes the result into a preallocated
slot.  solver.rhs makes its stencils this way.  Phase 1 makes one ODD and
one EVEN d1 per active axis plus one d2; phase 2 one EVEN d1 per axis and,
on a 2D or 3D grid, one ODD d1 on the operands of the other active axes
only.  One pass along axis j yields d_j of every operand, so it keeps its
tables by column, T[j][i] = d_j F_i: the transpose of the row layout
G[i, j] of vector_gradient.  Its phase-2 tables are pruned to the entries
that feed a term, and it keeps them in per-thread scratch buffers.

Wall tables: the wall slabs of each grid axis, at indices 0, 1, -2 and -1
along it with any leading axes passing through, are one module table,
_WALLS, built at import.  d1 and d2 index it, so a call builds no index of
its own; the interior stencil is one operation on the flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import Const, ConstitutiveLaw
from .grid import Grid

EVEN = 1
ODD = -1

__all__ = [
    "EVEN",
    "ODD",
    "d1",
    "d2",
    "vector_gradient",
    "gradient",
    "divergence",
    "table_curl",
    "curl",
    "laplacian",
    "stress_tensor",
    "stress_divergence",
    "dissipation",
    "cross",
    "lorentz_force",
    "induction_rhs",
    "double_curl",
    "IdentityResidual",
    "identity_residual",
]


def _ax_slices(axis: int):
    """Index builder along grid axis `axis` of an array whose last three
    axes are the grid axes (leading component axes pass through)."""
    post = (slice(None),) * (2 - axis)

    def sl(s):
        return (Ellipsis, s) + post

    return sl


# wall slabs of each grid axis of an array whose last three axes are the
# grid axes, any leading axes passing through: index 0, 1, -2 and -1
_WALLS = tuple(tuple(map(_ax_slices(axis), (0, 1, -2, -1))) for axis in range(3))


def _flat_operands(f: np.ndarray, axis: int, out):
    """f and out as flat C-ordered vectors, and the flat offset between
    neighbours along grid axis `axis`.

    With both arrays flat, the centred stencil of every interior node is
    one contiguous vector operation; the nodes it gets wrong are the two
    walls of each line, which the caller overwrites with the wall rule.
    """
    f = np.ascontiguousarray(f)
    if out is None:
        out = np.empty_like(f)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    step = f.strides[axis - 3] // f.itemsize
    return f, out, f.reshape(-1), out.reshape(-1), step


def d1(grid: Grid, f: np.ndarray, axis: int, parity: int, out=None) -> np.ndarray:
    """First derivative along `axis` with the given wall parity, written
    into `out` (C-contiguous, not overlapping f) when it is given."""
    if grid.shape[axis] == 1:
        out = np.empty_like(f) if out is None else out
        out[...] = 0.0
        return out
    h = grid.spacing[axis]
    f, out, ff, oo, s = _flat_operands(f, axis, out)
    mid = oo[s:-s]
    np.subtract(ff[2 * s :], ff[: -2 * s], out=mid)
    mid /= 2.0 * h
    lo, lo1, hi1, hi = _WALLS[axis]
    if parity == EVEN:
        out[lo] = 0.0
        out[hi] = 0.0
    else:
        np.divide(f[lo1], h, out=out[lo])
        # -f/h and f/(-h) round alike
        np.divide(f[hi1], -h, out=out[hi])
    return out


def d2(grid: Grid, f: np.ndarray, axis: int, parity: int, out=None) -> np.ndarray:
    """Compact second derivative along `axis` with the given wall parity,
    written into `out` (C-contiguous, not overlapping f) when it is given."""
    if grid.shape[axis] == 1:
        out = np.empty_like(f) if out is None else out
        out[...] = 0.0
        return out
    h = grid.spacing[axis]
    h2 = h * h
    f, out, ff, oo, s = _flat_operands(f, axis, out)
    mid = oo[s:-s]
    np.multiply(ff[s:-s], 2.0, out=mid)
    np.subtract(ff[2 * s :], mid, out=mid)
    mid += ff[: -2 * s]
    mid /= h2
    lo, lo1, hi1, hi = _WALLS[axis]
    out_lo, out_hi = out[lo], out[hi]
    if parity == EVEN:
        np.subtract(f[lo1], f[lo], out=out_lo)
        np.subtract(f[hi1], f[hi], out=out_hi)
        out_lo *= 2.0
        out_hi *= 2.0
    else:
        np.multiply(f[lo], -2.0, out=out_lo)
        np.multiply(f[hi], -2.0, out=out_hi)
    out_lo /= h2
    out_hi /= h2
    return out


def vector_gradient(grid: Grid, F: np.ndarray, parity: int = ODD) -> np.ndarray:
    """Gradient table G[..., j, :, :, :] = d_j F[...]; for a vector field
    G[i, j] = d_j F_i.  Columns of suppressed axes are exact zeros."""
    G = np.zeros(F.shape[:-3] + (3,) + F.shape[-3:])
    for j in grid.active_axes:
        G[..., j, :, :, :] = d1(grid, F, j, parity)
    return G


def gradient(grid: Grid, f: np.ndarray, parity: int = EVEN) -> np.ndarray:
    """grad f of a scalar field (the gradient table of f)."""
    return vector_gradient(grid, f, parity)


def divergence(grid: Grid, F: np.ndarray, parity: int = ODD) -> np.ndarray:
    """sum_j d_j F[..., j, :, :, :]; leading axes stack several fields.

    One d1 per active axis writes into one buffer, whose rows a reduction
    from +0.0 adds in order, as a zero-filled accumulator would."""
    axes = grid.active_axes
    terms = np.empty((len(axes),) + F.shape[:-4] + F.shape[-3:])
    for n, a in enumerate(axes):
        d1(grid, F[..., a, :, :, :], a, parity, out=terms[n])
    return np.add.reduce(terms, axis=0, initial=0.0)


def table_curl(G: np.ndarray) -> np.ndarray:
    """curl F from the gradient table G[i, j] = d_j F_i."""
    return np.stack([G[2, 1] - G[1, 2], G[0, 2] - G[2, 0], G[1, 0] - G[0, 1]])


def curl(grid: Grid, F: np.ndarray, parity: int = ODD) -> np.ndarray:
    return table_curl(vector_gradient(grid, F, parity))


def laplacian(grid: Grid, f: np.ndarray, parity: int = EVEN) -> np.ndarray:
    out = np.zeros_like(f)
    for a in grid.active_axes:
        out += d2(grid, f, a, parity)
    return out


# ---------------------------------------------------------------------------
# viscous stress; du is the velocity gradient table du[i, j] = d_j u_i
# ---------------------------------------------------------------------------


def stress_tensor(law: ConstitutiveLaw, du: np.ndarray, theta) -> np.ndarray:
    """psi_ij = mu(theta) (d_i u_j + d_j u_i) + lam(theta) div(u) delta_ij."""
    mu = law.mu(theta)
    lam = law.lam(theta)
    divu = du[0, 0] + du[1, 1] + du[2, 2]
    psi = mu * (du + np.swapaxes(du, 0, 1))
    for i in range(3):
        psi[i, i] += lam * divu
    return psi


def dissipation(law: ConstitutiveLaw, du: np.ndarray, theta) -> np.ndarray:
    """psi : grad u = (mu/2) sum_ij (d_i u_j + d_j u_i)^2 + lam (div u)^2."""
    divu = du[0, 0] + du[1, 1] + du[2, 2]
    acc = np.zeros_like(divu)
    for i in range(3):
        for j in range(3):
            sym = du[i, j] + du[j, i]
            acc += sym * sym
    out = 0.5 * law.mu(theta) * acc
    if not _is_zero_coeff(law.lam):
        out += law.lam(theta) * divu * divu
    return out


def _is_zero_coeff(fn) -> bool:
    return isinstance(fn, Const) and fn.c == 0.0


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


# ---------------------------------------------------------------------------
# magnetic operators
# ---------------------------------------------------------------------------


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a x b over the leading component axis, written out by component.

    Each component is one product minus another, in the order np.cross
    uses, so the result is bitwise equal to np.cross(a, b, axis=0).
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    for c, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[c])
        out[c] -= a[j] * b[i]
    return out


def lorentz_force(grid: Grid, H: np.ndarray) -> np.ndarray:
    """(curl H) x H."""
    return cross(curl(grid, H), H)


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


# ---------------------------------------------------------------------------
# pointwise identity check
# ---------------------------------------------------------------------------


@dataclass
class IdentityResidual:
    field: np.ndarray
    l1: float
    l2: float
    linf: float


def identity_residual(grid: Grid, u, H) -> IdentityResidual:
    """Residual of div((u x H) x H) = (curl H) x H . u + curl(u x H) . H.

    Both sides are discretized with the same centered stencils; for smooth
    compactly supported fields the residual is pure O(h^2) truncation.
    """
    e = cross(u, H)
    G = cross(e, H)
    lhs = divergence(grid, G, parity=ODD)
    rhs = np.sum(lorentz_force(grid, H) * u, axis=0) + np.sum(
        curl(grid, e, parity=EVEN) * H, axis=0
    )
    r = lhs - rhs
    return IdentityResidual(
        field=r,
        l1=grid.integrate(np.abs(r)),
        l2=grid.norm_l2(r),
        linf=float(np.max(np.abs(r))),
    )
