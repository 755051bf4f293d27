"""Uniform symmetric 1D grids and the one inner product on them.

Nodes are x_i = (i - n/2) dx for i = 0..n-1 with dx = 2 x_max / n, so
x_0 = x_min = -x_max, x = 0 is a node and the spacing is FFT-compatible
(the right endpoint x_max is the periodic image of x_min).  Each node is
one rounded product, so nodes 1..n-1 are reflection-symmetric bit for bit
(x_{n-i} = -x_i).

Every spatial integral is the dx-sum over all nodes (inner, norm2).  On
the Dirichlet fields node 0 is pinned to zero, so it is the sum over the
free nodes in which the pinned H is self-adjoint; on the periodic grid it
is the exact integral of the field's trigonometric interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch


@dataclass(frozen=True)
class Grid:
    x_min: float
    x_max: float
    n_points: int
    x: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.x_max <= 0 or self.x_min != -self.x_max:
            raise ValueError("grid must be symmetric about 0 (x_min = -x_max)")
        n = self.n_points
        if n < 4 or n & (n - 1):
            raise ValueError("n_points must be a power of two >= 4")
        object.__setattr__(self, "x", self.dx * (np.arange(n) - n // 2))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @classmethod
    def symmetric(cls, x_max: float, n_points: int) -> "Grid":
        return cls(-x_max, x_max, n_points)

    def node_index(self, x0: float) -> int:
        """Index of the node at x0; GridMismatch if x0 is more than 1e-9
        (relative, or absolute below 1) off a node."""
        i = int(round((x0 - self.x_min) / self.dx))
        if i < 0 or i >= self.n_points \
                or abs(self.x[i] - x0) > 1e-9 * max(1.0, abs(x0)):
            raise GridMismatch(f"x = {x0} is not a grid node (dx = {self.dx})")
        return i

    def snap(self, x0: float) -> float:
        """Nearest node coordinate to x0."""
        i = int(round((x0 - self.x_min) / self.dx))
        i = min(max(i, 0), self.n_points - 1)
        return float(self.x[i])


def inner(f: np.ndarray, g: np.ndarray, grid: Grid):
    """<f, g> = dx sum conj(f) g over all nodes (the pinned node is zero);
    real for real f and g."""
    return grid.dx * np.vdot(f, g)


def norm2(f: np.ndarray, grid: Grid) -> float:
    """The L2 norm of inner."""
    return math.sqrt(grid.dx * np.vdot(f, f).real)
