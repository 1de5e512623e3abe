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

The constructor assembles A = D_I D_I^T as a sparse matrix, where D_I keeps
the columns of D that act on interior (non-wall) entries of H, and factors
it once with a sparse LU; project() then costs one pair of triangular
solves per call.  This holds for one, two and three active axes alike.

A is singular, and its nullspace has two kinds of vector:

- nodes with an all-zero row: a node on two walls reads only wall entries
  of H, so the 4 corners of a 2D grid and the 12(n-2)+8 edge and corner
  nodes of an n^3 grid each span a null direction of their own;
- one mode per connected component of the rest: A only couples nodes of
  equal index parity, so there is one component per parity class (2 in 1D,
  4 in 2D, 8 in 3D), and a 3-node axis can split a class further.

Setting lam to zero at the first node of every connected component of A's
graph (a zero-row node is a component of its own) removes exactly this
nullspace: 76, 100, 124 and 196 pins at 7^3, 9^3, 11^3 and 17^3.  The pins
need no eigensolver or random start, so the factor is a pure function of the
grid.

The price is memory for the factor, which grows faster than the grid.
Measured on a unit cube, 2-vCPU x86 host, Python 3.11, scipy 1.17 (ordering
MMD_AT_PLUS_A; median of 7 project() calls on a random field, against the
preconditioned conjugate-gradient solve this replaced):

    grid   project()   CG project()   factor build   added RSS
    17^3     0.9 ms        52 ms         24 ms          +4 MB
    25^3     3.9 ms        83 ms         0.13 s        +22 MB
    33^3    12.9 ms       239 ms         0.53 s        +61 MB
    41^3    31   ms       778 ms         2.0 s        +150 MB
    49^3    93   ms          -           8.3 s        +419 MB

At 33^3 the build pays for itself within three steps.  projector_for()
keeps the projector of the last grid it was asked for, so a run and its
initial-data mollification share one factor; that factor stays in memory
until another grid is asked for.

project() raises NumericalAbort when ||div H'|| of the cleaned field exceeds
RTOL * ||H|| (plain 2-norms).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import InvariantViolation, NumericalAbort
from .fieldops import ODD, _ax_slices, divergence
from .grid import Grid

__all__ = ["DivFreeProjector", "projector_for"]

RTOL = 3e-12  # cleaned field must satisfy ||div H'|| <= RTOL * ||H||


def _d1_matrix(n: int, h: float) -> sp.csr_array:
    """fieldops.d1 with ODD parity along one axis of n nodes, as a matrix."""
    off = np.full(n - 1, 0.5 / h)
    off[0] = 1.0 / h  # row 0 reads f[1] / h
    low = np.full(n - 1, -0.5 / h)
    low[-1] = -1.0 / h  # row n-1 reads -f[n-2] / h
    return sp.diags_array([low, off], offsets=[-1, 1], format="csr")


class DivFreeProjector:
    def __init__(self, grid: Grid):
        self.grid = grid
        if not grid.active_axes:
            return  # D = 0: project() returns H at its divergence check
        interior = grid.zero_walls(np.ones(grid.shape)).ravel() > 0.0
        blocks = []
        for a in grid.active_axes:
            factors = [sp.eye_array(n, format="csr") for n in grid.shape]
            factors[a] = _d1_matrix(grid.shape[a], grid.spacing[a])
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

        lam = np.zeros(b.size)
        lam[self._free] = self._lu.solve(b.ravel()[self._free])
        out = H - g.zero_walls(self.div_transpose(lam.reshape(b.shape)))
        r = divergence(g, out, parity=ODD)
        rnorm = float(np.sqrt(np.sum(r * r)))
        if rnorm > target:
            raise NumericalAbort(
                f"divergence cleaning missed its target: residual {rnorm:.3e} "
                f"(target {target:.3e})"
            )
        return out


@lru_cache(maxsize=1)
def projector_for(grid: Grid) -> DivFreeProjector:
    """The projector of `grid`, built once and shared while the grid repeats.

    The factor is a pure function of the (frozen, hashable) grid, so callers
    that pass no projector of their own can share this one.
    """
    return DivFreeProjector(grid)
