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

Grids with one or two active axes use a direct solve.  The constructor
assembles A = D_I D_I^T as a sparse matrix, where D_I keeps the columns of
D that act on interior (non-wall) entries of H.  A is singular: it only
couples nodes of equal index parity, and each connected component of its
graph carries one null vector (a 2D corner node is a component of its own
with an all-zero row).  Setting lam to zero at the first node of every
component removes the nullspace, and the rest of A is factored once with a
sparse LU; project() then costs one triangular solve per call.

Three active axes keep conjugate gradients preconditioned with a
cosine-transform inverse of the wide Laplacian, which matches D Z D^T
everywhere except near the walls.  In 3D the nullity of A grows with the
grid (76, 100 and 124 at 7^3, 9^3 and 11^3) and the LU failed at 17^3.

project() raises NumericalAbort when the residual ||b - A lam|| exceeds
RTOL * ||H|| (plain 2-norms).  The direct path measures it on the cleaned
field, where it equals ||div H'||; PCG checks its recursive residual.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.fft import dctn, idctn
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import InvariantViolation, NumericalAbort
from .fieldops import ODD, _ax_slices, divergence
from .grid import Grid

__all__ = ["DivFreeProjector"]

RTOL = 3e-12  # cleaned field must satisfy ||div H'|| <= RTOL * ||H||
MAX_ITER = 2000


def _d1_matrix(n: int, h: float) -> sp.csr_array:
    """fieldops.d1 with ODD parity along one axis of n nodes, as a matrix."""
    off = np.full(n - 1, 0.5 / h)
    off[0] = 1.0 / h  # row 0 reads f[1] / h
    low = np.full(n - 1, -0.5 / h)
    low[-1] = -1.0 / h  # row n-1 reads -f[n-2] / h
    return sp.diags_array([low, off], offsets=[-1, 1], format="csr")


def _check_residual(rnorm: float, target: float) -> None:
    if rnorm > target:
        raise NumericalAbort(
            f"divergence cleaning missed its target: residual {rnorm:.3e} "
            f"(target {target:.3e})"
        )


class DivFreeProjector:
    def __init__(self, grid: Grid):
        self.grid = grid
        self._lu = None
        if grid.ndim_active in (1, 2):
            self._init_direct()
        else:
            self._init_preconditioner()

    # -- operators ---------------------------------------------------------

    def _d1_transpose(self, s: np.ndarray, axis: int) -> np.ndarray:
        """Plain transpose of the odd-parity first derivative along `axis`."""
        h = self.grid.spacing[axis]
        sl = _ax_slices(axis)
        out = np.zeros_like(s)
        out[sl(slice(1, -1))] = (s[sl(slice(None, -2))] - s[sl(slice(2, None))]) / (
            2.0 * h
        )
        out[sl(1)] += s[sl(0)] / (2.0 * h)
        out[sl(-2)] -= s[sl(-1)] / (2.0 * h)
        out[sl(0)] = -s[sl(1)] / (2.0 * h)
        out[sl(-1)] = s[sl(-2)] / (2.0 * h)
        return out

    def div_transpose(self, s: np.ndarray) -> np.ndarray:
        """D^T s as a vector field (componentwise 1d transposes)."""
        out = np.zeros((3,) + s.shape)
        for a in self.grid.active_axes:
            out[a] = self._d1_transpose(s, a)
        return out

    def _apply_A(self, lam: np.ndarray) -> np.ndarray:
        g = self.grid
        return divergence(g, g.zero_walls(self.div_transpose(lam)), parity=ODD)

    # -- direct factorization (1 or 2 active axes) -------------------------

    def _init_direct(self):
        g = self.grid
        interior = g.zero_walls(np.ones(g.shape)).ravel() > 0.0
        blocks = []
        for a in g.active_axes:
            factors = [sp.eye_array(n, format="csr") for n in g.shape]
            factors[a] = _d1_matrix(g.shape[a], g.spacing[a])
            d_a = sp.kron(sp.kron(factors[0], factors[1]), factors[2], format="csc")
            blocks.append(d_a[:, interior])
        d_int = sp.hstack(blocks, format="csr")
        A = (d_int @ d_int.T).tocsr()
        _, labels = connected_components(A, directed=False)
        free = np.ones(A.shape[0], dtype=bool)
        free[np.unique(labels, return_index=True)[1]] = False
        self._free = free
        # A is symmetric: order on A^T + A, which fills less than COLAMD
        self._lu = splu(A[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")

    # -- preconditioner (3 active axes) ------------------------------------

    def _init_preconditioner(self):
        g = self.grid
        sigma = np.zeros(g.shape)
        for a in g.active_axes:
            n = g.shape[a]
            h = g.spacing[a]
            m = np.arange(n)
            s = (np.sin(np.pi * m / (n - 1)) / h) ** 2
            shape = [1, 1, 1]
            shape[a] = n
            sigma = sigma + s.reshape(shape)
        floor = 1e-6 * float(np.max(sigma)) if np.max(sigma) > 0.0 else 1.0
        self._sigma = sigma + floor
        self._axes = g.active_axes

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        if not self._axes:
            return r.copy()
        t = dctn(r, type=1, axes=self._axes, norm="ortho")
        t /= self._sigma
        return idctn(t, type=1, axes=self._axes, norm="ortho")

    def _solve_pcg(self, b: np.ndarray, target: float) -> np.ndarray:
        lam = np.zeros_like(b)
        r = b.copy()
        rnorm = float(np.sqrt(np.sum(r * r)))
        z = self._precondition(r)
        p = z.copy()
        rz = float(np.sum(r * z))
        for _ in range(MAX_ITER):
            Ap = self._apply_A(p)
            denom = float(np.sum(p * Ap))
            if denom <= 0.0:
                break
            alpha = rz / denom
            lam += alpha * p
            r -= alpha * Ap
            rnorm = float(np.sqrt(np.sum(r * r)))
            if rnorm <= target:
                break
            z = self._precondition(r)
            rz_new = float(np.sum(r * z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        else:
            raise NumericalAbort(
                f"divergence cleaning stalled: residual {rnorm:.3e} "
                f"(target {target:.3e}) after {MAX_ITER} iterations"
            )
        _check_residual(rnorm, target)
        return lam

    # -- projection --------------------------------------------------------

    def project(self, H: np.ndarray) -> np.ndarray:
        """Return the cleaned field; raises NumericalAbort if the cleaned
        divergence misses RTOL.

        Input must be wall-zero (the no-slip magnetic boundary state); wall
        values at rounding level are swept to exact zeros, anything larger is
        an invariant violation because the constrained system would be
        inconsistent.
        """
        g = self.grid
        scale = float(np.max(np.abs(H))) if H.size else 0.0
        wall_max = g.wall_max(H)
        if wall_max > 1e-12 * max(scale, 1e-300):
            raise InvariantViolation(
                f"projection input has nonzero wall values (max {wall_max:.3e} "
                f"vs field scale {scale:.3e})"
            )
        H = g.zero_walls(H.copy())
        b = divergence(g, H, parity=ODD)
        hnorm = float(np.sqrt(np.sum(H * H)))
        target = max(RTOL * hnorm, 1e-300)
        if float(np.sqrt(np.sum(b * b))) <= 0.3 * target:
            return H

        if self._lu is None:
            # PCG has already checked its recursive residual
            return H - g.zero_walls(self.div_transpose(self._solve_pcg(b, target)))
        lam = np.zeros(b.size)
        lam[self._free] = self._lu.solve(b.ravel()[self._free])
        out = H - g.zero_walls(self.div_transpose(lam.reshape(b.shape)))
        r = divergence(g, out, parity=ODD)
        _check_residual(float(np.sqrt(np.sum(r * r))), target)
        return out
