"""Uniform symmetric 1D grids and trapezoid quadrature helpers.

Nodes are x_i = (i - n/2) dx for i = 0..n-1 with dx = 2 x_max / n, so
x_0 = x_min = -x_max, x = 0 is a node and the spacing is FFT-compatible
(the right endpoint x_max is the periodic image of x_min).  Each node is
one rounded product, so nodes 1..n-1 are reflection-symmetric bit for bit
(x_{n-i} = -x_i).
"""

from __future__ import annotations

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

    def quad_weights(self) -> np.ndarray:
        # composite trapezoid; the fields we integrate decay to ~0 at the
        # edges so this differs from a plain Riemann sum only in the tails
        w = np.full(self.n_points, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

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


def same_grid(a: Grid, b: Grid) -> None:
    if (a.x_min, a.x_max, a.n_points) != (b.x_min, b.x_max, b.n_points):
        raise GridMismatch("operands are defined on different grids")


def inner(f: np.ndarray, g: np.ndarray, grid: Grid) -> complex:
    """Trapezoid inner product <f, g> = integral conj(f) g dx."""
    return complex(np.sum(grid.quad_weights() * np.conj(f) * g))


def norm2(f: np.ndarray, grid: Grid) -> float:
    """Trapezoid L2 norm."""
    return float(np.sqrt(np.sum(grid.quad_weights() * np.abs(f) ** 2)))
