"""Collocated node grid on a box, with suppressed axes for 1d/2d problems.

Every field lives on all three axes; an axis with a single node is suppressed
(derivatives along it vanish, its spacing is 1 so quadrature reduces
correctly).  Quadrature is the tensor trapezoid rule over the node values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class StencilAxis(NamedTuple):
    """What the centred stencils along one active axis read (fieldops.d1 and
    d2, the projector's transpose).  The spacing enters as reciprocals,
    multiplied in; the factors are read-only arrays, which numpy takes
    faster than floats."""

    # the flat offset between neighbours along the axis in a C-contiguous
    # array whose last three axes are the grid axes, and the shape that
    # views such an array as (lines, n, s)
    s: int
    lines: tuple
    # in that view, both walls, nodes 0 and n-1, and their neighbours, nodes
    # 1 and n-2, which on a 3-node axis are node 1 alone, broadcast against
    # both walls
    walls: tuple
    nbrs: tuple
    inv_2h: np.ndarray  # 1/(2h)
    inv_h2: np.ndarray  # 1/h^2
    # the wall factors: 1/h and -1/h, shaped (2, 1), of the ODD first
    # derivative; 2/h^2 and -2/h^2 of the EVEN and ODD second derivative
    d1_odd_wall: np.ndarray
    d2_even_wall: np.ndarray
    d2_odd_wall: np.ndarray
    # keyword arguments of the ufunc of a wall rule.  Along the last active
    # axis of a 2D or 3D grid, s is 1 and there are many lines: numpy's own
    # order would loop over the two walls innermost, order "F" loops over
    # the lines.
    wall_order: dict


# never written: a plain dict is the fastest to unpack into keyword arguments
_LINES_INNERMOST = {"order": "F"}
_NUMPY_ORDER = {}


def _constant(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    shape: tuple[int, int, int]
    extents: tuple[float, float, float]

    def __post_init__(self):
        if len(self.shape) != 3 or len(self.extents) != 3:
            raise ValueError("grid needs 3 axis entries (use 1 node to suppress)")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        for n, L in zip(self.shape, self.extents):
            if n < 1 or (n > 1 and n < 3):
                raise ValueError(f"active axes need >= 3 nodes, got {n}")
            if not 0.0 < L < math.inf:
                raise ValueError(f"extents must be positive and finite, got {L}")

    @cached_property
    def active_axes(self) -> tuple[int, ...]:
        return tuple(a for a in range(3) if self.shape[a] > 1)

    @property
    def ndim_active(self) -> int:
        return len(self.active_axes)

    @cached_property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(
            self.extents[a] / (self.shape[a] - 1) if self.shape[a] > 1 else 1.0
            for a in range(3)
        )

    @cached_property
    def _walls(self) -> tuple:
        # index of each wall slab along the last three (grid) axes of an array
        return tuple(
            (Ellipsis, pos) + (slice(None),) * (2 - a)
            for a in self.active_axes
            for pos in (0, -1)
        )

    def zero_walls(self, f: np.ndarray) -> np.ndarray:
        """Set every wall slab of f (any leading component axes) to zero in place."""
        for w in self._walls:
            f[w] = 0.0
        return f

    def walls_zero(self, f: np.ndarray) -> bool:
        """Whether every wall value of f is exactly zero (either sign)."""
        # count_nonzero takes a small slab faster than any() does
        for w in self._walls:
            if np.count_nonzero(f[w]):
                return False
        return True

    def wall_max(self, f: np.ndarray) -> float:
        """Largest |f| on the walls; 0 when no axis is active."""
        return max([0.0] + [float(np.max(np.abs(f[w]))) for w in self._walls])

    @cached_property
    def stencil_axes(self) -> tuple:
        """The StencilAxis of each axis, None for a suppressed one."""
        table = []
        for a, (n, h) in enumerate(zip(self.shape, self.spacing)):
            if n == 1:
                table.append(None)
                continue
            s = int(np.prod(self.shape[a + 1 :]))
            many_lines = a == self.active_axes[-1] and self.ndim_active > 1
            table.append(
                StencilAxis(
                    s=s,
                    lines=(-1, n, s),
                    walls=(slice(None), slice(0, None, n - 1)),
                    nbrs=(slice(None), slice(1, n - 1, n - 3) if n > 3 else slice(1, 2)),
                    inv_2h=_constant(0.5 / h),
                    inv_h2=_constant(1.0 / (h * h)),
                    d1_odd_wall=_constant([[1.0 / h], [-1.0 / h]]),
                    d2_even_wall=_constant(2.0 / (h * h)),
                    d2_odd_wall=_constant(-2.0 / (h * h)),
                    wall_order=_LINES_INNERMOST if many_lines else _NUMPY_ORDER,
                )
            )
        return tuple(table)

    @cached_property
    def spacing_active(self) -> tuple[float, ...]:
        return tuple(self.spacing[a] for a in self.active_axes)

    def coords(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        if n == 1:
            return np.zeros(1)
        return np.linspace(0.0, self.extents[axis], n)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcast coordinate arrays of the full grid shape."""
        xs = [self.coords(a) for a in range(3)]
        g = np.meshgrid(*xs, indexing="ij")
        return g[0], g[1], g[2]

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Tensor trapezoid weights including the spacing factors."""
        w = np.ones(self.shape)
        for a in range(3):
            n = self.shape[a]
            if n == 1:
                continue
            wa = np.full(n, self.spacing[a])
            wa[0] *= 0.5
            wa[-1] *= 0.5
            shape = [1, 1, 1]
            shape[a] = n
            w = w * wa.reshape(shape)
        return w

    def integrate(self, f: np.ndarray) -> float:
        """Trapezoid quadrature of a scalar field."""
        return float(np.sum(self.quad_weights * f))

    def norm_l2(self, f: np.ndarray) -> float:
        """L2 norm; vector fields (leading component axis) are contracted."""
        f = np.asarray(f)
        if f.ndim == 4:
            return float(np.sqrt(np.sum(self.quad_weights * np.sum(f * f, axis=0))))
        return float(np.sqrt(np.sum(self.quad_weights * f * f)))

    def norm_lp(self, f: np.ndarray, p: float) -> float:
        f = np.asarray(f)
        mag = np.sqrt(np.sum(f * f, axis=0)) if f.ndim == 4 else np.abs(f)
        return float(np.sum(self.quad_weights * mag**p) ** (1.0 / p))

    def scalar_field(self, fill: float = 0.0) -> np.ndarray:
        return np.full(self.shape, float(fill))

    def vector_field(self) -> np.ndarray:
        return np.zeros((3,) + self.shape)
