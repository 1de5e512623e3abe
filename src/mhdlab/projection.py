"""Divergence cleaning for the magnetic field on the collocated grid.

The cleaned field must (a) be annihilated by the same centered-difference
divergence the diagnostics report, and (b) keep every component pinned to
zero on the walls.  A scalar-potential subtraction cannot do both at once
on this grid (the gradient of a Neumann potential does not vanish
tangentially at the walls), so the projector solves the constrained
least-squares problem directly:

    minimize ||H' - H||^2   subject to  div H' = 0,  H'|walls = 0,

whose normal equations read (D Z D^T) lam = div H with D the discrete
divergence and Z the wall mask; then H' = H - Z D^T lam.  The system is
consistent for wall-zero H, and every solution lam gives the same
correction, so only a particular solution is needed.

A = D_I D_I^T, where D_I keeps the columns of D that act on interior
(non-wall) entries of H, is a sum of Kronecker products of 1D matrices:

    A = sum_a (x)_b F_b,   F_a = T_a = d_a Z_a d_a^T,   F_b = Z_b  (b != a),

over the active axes, with d_a the 1D odd-parity first derivative and Z_a
the 1D interior mask.  The constructor solves it by fast diagonalization
(Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185).  On each axis, T_a and
Z_a are diagonalized together in the metric M_a = T_a + Z_a/h_a^2:

    V_a^T T_a V_a = Lambda_a,   V_a^T Z_a V_a = (1 - Lambda_a) h_a^2,

so V = (x)_a V_a takes A to the diagonal tensor

    sigma = sum_a Lambda_a (x)_{b != a} (1 - Lambda_b) h_b^2,

and project() computes lam = V (sigma^+ V^T b) with one matmul per axis
each way.  sigma^+ zeroes every sigma <= 1e-13 max sigma; for b in the
range of A, lam then solves A lam = b.  M_a is singular only on a 3-node
axis, where e_0 + e_2 is null for both T_a and Z_a and is left out of V_a.
Only numpy is needed, and the basis is a pure function of the grid.

The modes sigma^+ drops are A's nullspace, which has two kinds of vector:

- nodes with an all-zero row: a node on two walls reads only wall entries
  of H, so the 4 corners of a 2D grid and the 12(n-2)+8 edge and corner
  nodes of an n^3 grid each span a null direction of their own;
- one mode per connected component of the rest: A only couples nodes of
  equal index parity, so there is one component per parity class (2 in 1D,
  4 in 2D, 8 in 3D), and a 3-node axis can split a class further.

That is 12(n-2)+16 modes on an n^3 grid (76, 100, 124 and 196 at 7^3,
9^3, 11^3 and 17^3), and 8 on a 2D grid without a 3-node axis.

The solve loses digits as the grid grows: on a 1025-node line, or for a
smooth field on 257^2, the first residual lands at about RTOL.  When it
exceeds RTOL/4, project() takes one refinement sweep: it solves for the
divergence left over and subtracts that correction too.  That brings the
residual to 5e-4 RTOL or less on those grids.

Measured on a unit cube, 2-vCPU x86 host, Python 3.11, numpy 2.4, one BLAS
thread (median of 7 project() calls on a random field; each figure the
median of 3 processes):

    grid   project()   build    added RSS
    17^3     0.71 ms    1.9 ms    +1.4 MB
    25^3     2.1  ms    2.6 ms    +1.5 MB
    33^3     4.9  ms    4.2 ms    +2.5 MB
    41^3    11    ms    6.4 ms    +4.0 MB
    49^3    17    ms    9.0 ms    +5.4 MB

projector_for() keeps the projector of the last grid it was asked for, so
a run and its initial-data mollification share one.

project() raises NumericalAbort when ||div H'|| of the cleaned field exceeds
RTOL * ||H|| (plain 2-norms).  It returns the wall-zeroed input unsolved
when ||div H|| is at most 0.3 RTOL ||H||.  When every component of H along
an active axis is exactly zero, as in every call of a 1D run whose field
has no normal component, the divergence is exactly zero and is not taken:
project() returns the wall-zeroed input straight after its wall test.
When every wall value is exactly zero it skips max|H|, which only that
wall test reads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation, NumericalAbort
from .fieldops import ODD, divergence
from .grid import Grid

__all__ = ["DivFreeProjector", "projector_for"]

RTOL = 3e-12  # cleaned field must satisfy ||div H'|| <= RTOL * ||H||
# eigenvalues of A at or below this fraction of the largest are its nullspace
NULL_RTOL = 1e-13


def _d1_matrix(n: int, h: float) -> np.ndarray:
    """fieldops.d1 with ODD parity along one axis of n nodes, as a matrix."""
    d = np.zeros((n, n))
    i = np.arange(n - 1)
    d[i, i + 1] = 0.5 / h
    d[i + 1, i] = -0.5 / h
    d[0, 1] = 1.0 / h  # row 0 reads f[1] / h
    d[-1, -2] = -1.0 / h  # row n-1 reads -f[n-2] / h
    return d


def _axis_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(V, lam) with V^T T V = diag(lam) and V^T Z V = diag(1 - lam) h^2.

    T = d Z d^T and Z, the interior mask, are diagonalized together in the
    metric M = T + Z/h^2, one index-parity class at a time: T and M couple
    only nodes of equal parity.  M is singular only on a 3-node axis, where
    e_0 + e_2 is null for both T and Z; that direction is left out of V.
    """
    d = _d1_matrix(n, h)
    z = np.ones(n)
    z[[0, -1]] = 0.0
    T = (d * z) @ d.T
    M = T + np.diag(z / h**2)
    blocks, lams = [], []
    for parity in (0, 1):
        idx = np.arange(parity, n, 2)
        m, U = np.linalg.eigh(M[np.ix_(idx, idx)])
        keep = m > NULL_RTOL * m[-1]
        S = U[:, keep] / np.sqrt(m[keep])
        lam, W = np.linalg.eigh(S.T @ T[np.ix_(idx, idx)] @ S)
        V = np.zeros((n, lam.size))
        V[idx] = S @ W
        blocks.append(V)
        lams.append(lam)
    return np.hstack(blocks), np.concatenate(lams)


def _along_axes(mats, c: np.ndarray) -> np.ndarray:
    """Apply mats[i] along axis i of c, one matmul per axis."""
    last = len(mats) - 1
    for i, m in enumerate(mats):
        if i == 0:
            c = (m @ c.reshape(c.shape[0], -1)).reshape((m.shape[0],) + c.shape[1:])
        elif i == last:
            c = c @ m.T
        else:
            c = np.matmul(m, c)
    return c


class DivFreeProjector:
    def __init__(self, grid: Grid):
        self.grid = grid
        # nullity of A: the modes the pseudo-inverse drops
        self.dropped_modes = int(np.prod(grid.shape))
        if not grid.active_axes:
            return  # D = 0: project() returns H at its divergence check
        bases = [_axis_basis(grid.shape[a], grid.spacing[a]) for a in grid.active_axes]
        k = len(bases)
        lam = [
            ev.reshape([-1 if b == a else 1 for b in range(k)])
            for a, (_, ev) in enumerate(bases)
        ]
        zeta = [(1.0 - ev) * h * h for ev, h in zip(lam, grid.spacing_active)]
        # the spectrum of A = sum_a T_a (x)_{b != a} Z_b in the tensor basis
        sigma = sum(
            lam[a] * math.prod(zeta[b] for b in range(k) if b != a) for a in range(k)
        )
        keep = sigma > NULL_RTOL * np.max(sigma)
        self.dropped_modes -= int(np.count_nonzero(keep))
        self._sigma_inv = np.zeros(sigma.shape)
        self._sigma_inv[keep] = 1.0 / sigma[keep]
        self._fwd = [np.ascontiguousarray(V.T) for V, _ in bases]
        self._back = [np.ascontiguousarray(V) for V, _ in bases]
        self._active_shape = tuple(grid.shape[a] for a in grid.active_axes)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """lam = V (sigma^+ * V^T b): a solution of A lam = b for b in range(A)."""
        c = _along_axes(self._fwd, b.reshape(self._active_shape))
        return _along_axes(self._back, self._sigma_inv * c).reshape(b.shape)

    def _correct(self, H: np.ndarray, b: np.ndarray) -> np.ndarray:
        return H - self.grid.zero_walls(self.div_transpose(self._solve(b)))

    def _d1_transpose(self, s: np.ndarray, axis: int) -> np.ndarray:
        """Plain transpose of the odd-parity first derivative along `axis`,
        scaled by the stencils' 1/(2h)."""
        ax = self.grid.stencil_axes[axis]
        c = ax.inv_2h
        out = np.zeros_like(s)
        o, t = out.reshape(ax.lines), s.reshape(ax.lines)  # (lines, n, s)
        o[:, 1:-1] = (t[:, :-2] - t[:, 2:]) * c
        o[:, 1] += t[:, 0] * c
        o[:, -2] -= t[:, -1] * c
        o[:, 0] = -t[:, 1] * c
        o[:, -1] = t[:, -2] * c
        return out

    def div_transpose(self, s: np.ndarray) -> np.ndarray:
        """D^T s as a vector field (componentwise 1d transposes)."""
        out = np.zeros((3,) + s.shape)
        for a in self.grid.active_axes:
            out[a] = self._d1_transpose(s, a)
        return out

    def project(self, H: np.ndarray) -> np.ndarray:
        """Return the cleaned field; raises NumericalAbort if the cleaned
        divergence misses RTOL.

        Input must be wall-zero (the no-slip magnetic boundary state); wall
        values at rounding level are swept to exact zeros, anything larger is
        an invariant violation because the constrained system would be
        inconsistent.
        """
        g = self.grid
        # with every wall value exactly zero the wall test cannot fail
        if not g.walls_zero(H):
            scale = float(np.max(np.abs(H))) if H.size else 0.0
            wall_max = g.wall_max(H)
            if wall_max > 1e-12 * max(scale, 1e-300):
                raise InvariantViolation(
                    f"projection input has nonzero wall values (max {wall_max:.3e} "
                    f"vs field scale {scale:.3e})"
                )
        H = g.zero_walls(H.copy())
        if not any(H[a].any() for a in g.active_axes):
            return H  # D reads only these components: div H is exactly zero
        b = divergence(g, H, parity=ODD)
        hnorm = float(np.sqrt((H * H).sum()))
        target = max(RTOL * hnorm, 1e-300)
        if float(np.sqrt((b * b).sum())) <= 0.3 * target:
            return H

        out = self._correct(H, b)
        r = divergence(g, out, parity=ODD)
        rnorm = float(np.sqrt((r * r).sum()))
        if rnorm > 0.25 * target:
            # one refinement sweep recovers the digits a large grid's
            # conditioning costs the first solve
            out = self._correct(out, r)
            r = divergence(g, out, parity=ODD)
            rnorm = float(np.sqrt((r * r).sum()))
        if rnorm > target:
            raise NumericalAbort(
                f"divergence cleaning missed its target: residual {rnorm:.3e} "
                f"(target {target:.3e})"
            )
        return out


@lru_cache(maxsize=1)
def projector_for(grid: Grid) -> DivFreeProjector:
    """The projector of `grid`, built once and shared while the grid repeats.

    The projector is a pure function of the (frozen, hashable) grid, so callers
    that pass no projector of their own can share this one.
    """
    return DivFreeProjector(grid)
