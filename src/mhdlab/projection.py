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
(Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185) in a closed-form basis.
T_a and Z_a couple only nodes of equal index parity p.  On the m interior
nodes J = 2 - p, 4 - p, ... <= n - 2 of a class, eliminating the class's
wall nodes leaves T_a = tridiag(-1, 2, -1) / (4 h^2) with end diagonals
1 / (4 h^2): eigenvalues s_k / h^2, s_k = sin^2(pi k / (2m)), and the
orthonormal DCT-II eigenvectors c_k[t] = w_k cos(pi k (t + 1/2) / m),
w_0 = sqrt(1/m), w_k = sqrt(2/m) (Swarztrauber, SIAM Rev. 19 (1977) 490).
Mode k is held at node J[k], so the spectrum keeps the grid's shape:

    V_a[J[t], J[k]] = h c_k[t] / sqrt(1 + s_k),
    lambda = s_k / (1 + s_k),   zeta = h^2 / (1 + s_k),

and a wall node takes half the row of the next node of its class
(V_a[0] = V_a[2] / 2, V_a[n-1] = V_a[n-3] / 2).  Each wall node is a mode
of its own, V_a[w, w] = h with lambda = 1, zeta = 0, except on a 3-node
axis: there the walls share the mode (h/2, 0, -h/2), and column 2, in
place of e_0 + e_2, which T_a and Z_a both null, is zero with
lambda = zeta = 0.  So V_a^T T_a V_a = diag(lambda_a), V_a^T Z_a V_a =
diag(zeta_a), and V = (x)_a V_a takes A to the diagonal tensor

    sigma = sum_a lambda_a (x)_{b != a} zeta_b,

which is exactly zero on A's nullspace.  project() computes
lam = V (sigma^+ V^T b) with one matmul per axis each way, sigma^+
inverting sigma where it is positive; for b in the range of A, lam then
solves A lam = b.  The basis is a pure function of the grid and needs no
eigensolver.

The modes sigma^+ drops are A's nullspace, which has two kinds of vector:

- nodes with an all-zero row: a node on two walls reads only wall entries
  of H, so the 4 corners of a 2D grid and the 12(n-2)+8 edge and corner
  nodes of an n^3 grid each span a null direction of their own;
- one mode per connected component of the rest: A only couples nodes of
  equal index parity, so there is one component per parity class (2 in 1D,
  4 in 2D, 8 in 3D), and a 3-node axis can split a class further.

That is 12(n-2)+16 modes on an n^3 grid (76, 100, 124 and 196 at 7^3,
9^3, 11^3 and 17^3), and 8 on a 2D grid without a 3-node axis.

The solve loses digits as the grid grows: its first residual is about
0.4 and 2 RTOL on random 513- and 1025-node lines, and 0.5 and 8 RTOL on
smooth fields on 257^2 and on a 1025-node line.  When it exceeds RTOL/4,
project() takes one refinement sweep: it solves for the divergence left
over and subtracts that correction too, which leaves 6e-4 RTOL or less.

Measured on a unit cube, 2-vCPU x86 host, Python 3.11, numpy 2.4, one BLAS
thread (median of 7 project() calls on a random field; the build and the
resident memory it added, read from /proc/self/statm; each figure the
median of 3 processes):

    grid   project()   build    added RSS
    17^3     0.45 ms    0.79 ms   +0.4 MB
    25^3     1.7  ms    1.1  ms   +0.5 MB
    33^3     3.8  ms    2.3  ms   +1.4 MB
    41^3     7.3  ms    3.6  ms   +1.5 MB
    49^3    12.5  ms    5.3  ms   +1.8 MB

The solver builds one projector into the compiled program that each
thread keeps for its grid, law and scheme, so a run and its initial-data
mollification share one, and the run frees it when it ends.

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

import numpy as np

from .errors import InvariantViolation, NumericalAbort
from .fieldops import ODD, divergence
from .grid import Grid

__all__ = ["DivFreeProjector"]

RTOL = 3e-12  # cleaned field must satisfy ||div H'|| <= RTOL * ||H||


def _axis_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, lam, zeta) with V^T T V = diag(lam) and V^T Z V = diag(zeta) on
    an axis of n nodes and spacing h: the closed form of the module
    docstring, one index-parity class at a time."""
    V = np.zeros((n, n))
    lam = np.ones(n)
    zeta = np.zeros(n)
    for parity in (0, 1):
        J = np.arange(2 - parity, n - 1, 2)
        m = J.size
        if m == 0:
            continue
        k = np.arange(m)
        s = np.sin(0.5 * np.pi / m * k) ** 2
        w = np.full(m, math.sqrt(2.0 / m))
        w[0] = math.sqrt(1.0 / m)
        dct = w * np.cos(np.pi / m * np.outer(k + 0.5, k))  # dct[t, k] = c_k[t]
        V[np.ix_(J, J)] = dct * (h / np.sqrt(1.0 + s))
        lam[J] = s / (1.0 + s)
        zeta[J] = h * h / (1.0 + s)
    if n == 3:
        V[0, 0], V[2, 0] = 0.5 * h, -0.5 * h
        lam[2] = 0.0
    else:
        V[0] = 0.5 * V[2]
        V[-1] = 0.5 * V[-3]
        V[0, 0] = V[-1, -1] = h
    return V, lam, zeta


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
        # the components D reads, those of the active axes: every subset of
        # the three axes is an arithmetic progression
        axes = grid.active_axes
        step = axes[1] - axes[0] if len(axes) > 1 else 1
        self._normal = slice(axes[0], axes[-1] + 1, step) if axes else slice(0, 0)
        if not axes:
            return  # D = 0: project() returns H at its divergence check
        bases = [_axis_basis(grid.shape[a], grid.spacing[a]) for a in grid.active_axes]
        k = len(bases)
        shapes = [[-1 if b == a else 1 for b in range(k)] for a in range(k)]
        lam = [ev.reshape(sh) for (_, ev, _), sh in zip(bases, shapes)]
        zeta = [z.reshape(sh) for (_, _, z), sh in zip(bases, shapes)]
        # the spectrum of A = sum_a T_a (x)_{b != a} Z_b in the tensor basis,
        # exactly zero on A's nullspace
        sigma = sum(
            lam[a] * math.prod(zeta[b] for b in range(k) if b != a) for a in range(k)
        )
        keep = sigma > 0.0
        self.dropped_modes -= int(np.count_nonzero(keep))
        self._sigma_inv = np.zeros(sigma.shape)
        self._sigma_inv[keep] = 1.0 / sigma[keep]
        self._fwd = [np.ascontiguousarray(V.T) for V, _, _ in bases]
        self._back = [V for V, _, _ in bases]
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
        if not np.count_nonzero(H[self._normal]):
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

