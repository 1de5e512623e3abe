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
G[i, j] = d_j F_i, built with one stacked d1 per active axis.  table_curl
and dissipation read a table, so a caller that needs both computes the
table once and passes it on.

Composite terms (the viscous stress divergence and curl curl H of
solver.rhs, and the test-only oracle operators in tests/test_rhs_oracle.py)
apply the outer derivative term by term so each uses the parity the inner
term actually has along that axis: d/dx_j of u_i flips the parity along x_j
and leaves the other axes alone.

Stacking: d1 and d2 act on the last three axes, so leading axes stack any
operands that share a parity, and a stacked call does for each operand the
arithmetic of a call of its own; out= writes the result into a preallocated
slot.  solver.rhs makes its stencils this way.  Phase 1 makes one ODD and
one EVEN d1 per active axis plus one d2; phase 2 one EVEN d1 per axis and,
on a 2D or 3D grid, one ODD d1 on the operands of the other active axes
only.  One pass along axis j yields d_j of every operand, so it keeps its
tables by column, T[j][i] = d_j F_i: the transpose of the row layout
G[i, j] of vector_gradient.  Its phase-2 tables are pruned to the entries
that feed a term, and it keeps them in the buffers of its compiled
program.

Step lists: d1_steps and d2_steps pass each numpy call of one stencil,
for a given grid, operand, axis, parity and out, to emit(fn, *args,
**kwargs).  d1 and d2 make those calls as they are emitted; solver.rhs
binds them once into its compiled program, so each stencil has one
definition.  The interior stencil is one operation on the flat arrays, and
each wall rule one call on a strided view holding both wall slabs of the
axis.  The spacing is multiplied in as a reciprocal, 1/(2h), 1/h or 1/h^2
(2/h^2 where the wall rule doubles), never divided by.  The indices and
factors come from one per-grid table, Grid.stencil_axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import ConstitutiveLaw, _is_zero_coeff, _now
from .grid import Grid

EVEN = 1
ODD = -1

__all__ = [
    "EVEN",
    "ODD",
    "d1",
    "d2",
    "d1_steps",
    "d2_steps",
    "vector_gradient",
    "gradient",
    "divergence",
    "table_curl",
    "curl",
    "dissipation",
    "cross",
    "lorentz_force",
    "IdentityResidual",
    "identity_residual",
]


_TWO = np.array(2.0)


def d1_steps(grid: Grid, f: np.ndarray, axis: int, parity: int, out: np.ndarray, emit) -> None:
    """The numpy calls of d1 along the active `axis`, each passed to
    emit(fn, *args, **kwargs); f and out are C-contiguous and do not overlap.

    With both arrays flat, the centred stencil of every interior node is one
    contiguous vector operation; the nodes it gets wrong are the two walls
    of each line, which the wall rule then overwrites in one call on a
    (lines, 2, s) view of both.
    """
    ax = grid.stencil_axes[axis]
    s = ax.s
    ff, mid = f.reshape(-1), out.reshape(-1)[s:-s]
    emit(np.subtract, ff[2 * s :], ff[: -2 * s], mid)
    emit(np.multiply, mid, ax.inv_2h, mid)
    out_walls = out.reshape(ax.lines)[ax.walls]
    if parity == EVEN:
        emit(out_walls.fill, 0.0)
    else:
        # f/h on the low wall, -f/h on the high one
        f_nbrs = f.reshape(ax.lines)[ax.nbrs]
        emit(np.multiply, f_nbrs, ax.d1_odd_wall, out_walls, **ax.wall_order)


def d2_steps(grid: Grid, f: np.ndarray, axis: int, parity: int, out: np.ndarray, emit) -> None:
    """The numpy calls of d2 along the active `axis`, as d1_steps."""
    ax = grid.stencil_axes[axis]
    s = ax.s
    ff, mid = f.reshape(-1), out.reshape(-1)[s:-s]
    emit(np.multiply, ff[s:-s], _TWO, mid)
    emit(np.subtract, ff[2 * s :], mid, mid)
    emit(np.add, mid, ff[: -2 * s], mid)
    emit(np.multiply, mid, ax.inv_h2, mid)
    lines = f.reshape(ax.lines)
    out_walls = out.reshape(ax.lines)[ax.walls]
    if parity == EVEN:
        # 2 (f_1 - f_0) / h^2, and alike on the high wall
        emit(np.subtract, lines[ax.nbrs], lines[ax.walls], out_walls, **ax.wall_order)
        emit(np.multiply, out_walls, ax.d2_even_wall, out_walls, **ax.wall_order)
    else:
        emit(np.multiply, lines[ax.walls], ax.d2_odd_wall, out_walls, **ax.wall_order)


def _stencil(steps, grid: Grid, f: np.ndarray, axis: int, parity: int, out) -> np.ndarray:
    """d1 or d2 by its steps, made as they are emitted."""
    if grid.shape[axis] == 1:
        out = np.empty_like(f) if out is None else out
        out[...] = 0.0
        return out
    f = np.ascontiguousarray(f)
    if out is None:
        out = np.empty_like(f)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    steps(grid, f, axis, parity, out, _now)
    return out


def d1(grid: Grid, f: np.ndarray, axis: int, parity: int, out=None) -> np.ndarray:
    """First derivative along `axis` with the given wall parity, written
    into `out` (C-contiguous, not overlapping f) when it is given."""
    return _stencil(d1_steps, grid, f, axis, parity, out)


def d2(grid: Grid, f: np.ndarray, axis: int, parity: int, out=None) -> np.ndarray:
    """Compact second derivative along `axis` with the given wall parity,
    written into `out` (C-contiguous, not overlapping f) when it is given."""
    return _stencil(d2_steps, grid, f, axis, parity, out)


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


# ---------------------------------------------------------------------------
# viscous heating; du is the velocity gradient table du[i, j] = d_j u_i
# ---------------------------------------------------------------------------


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
