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
consistent for wall-zero H, and is solved by conjugate gradients
preconditioned with a cosine-transform inverse of the wide Laplacian, which
matches D Z D^T everywhere except near the walls.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn

from .errors import InvariantViolation, NumericalAbort
from .fieldops import ODD, _ax_slices, divergence
from .grid import Grid

__all__ = ["DivFreeProjector"]

RTOL = 3e-12  # PCG stops at residual <= RTOL * ||H||
MAX_ITER = 2000


class DivFreeProjector:
    def __init__(self, grid: Grid):
        self.grid = grid
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

    # -- preconditioner ----------------------------------------------------

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

    # -- projection --------------------------------------------------------

    def project(self, H: np.ndarray) -> np.ndarray:
        """Return the cleaned field; raises NumericalAbort on solver stall.

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
        rnorm = float(np.sqrt(np.sum(b * b)))
        if rnorm <= 0.3 * target:
            return H

        lam = np.zeros_like(b)
        r = b.copy()
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
        if rnorm > target:
            raise NumericalAbort(
                f"divergence cleaning stalled: residual {rnorm:.3e} "
                f"(target {target:.3e})"
            )
        return H - g.zero_walls(self.div_transpose(lam))
