"""Discretized forward curves: grids, derivatives, functionals, norms.

Curves are sampled on a uniform grid on [0, x_max].  Differentiation uses
fourth-order central stencils in the interior and second-order one-sided
stencils at the ends, which keeps the spatial error well below the Monte
Carlo noise floor at the default resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, GridMismatch

DEFAULT_X_MAX = 10.0
DEFAULT_DX = 0.005


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on [0, x_max]."""

    x_max: float = DEFAULT_X_MAX
    dx: float = DEFAULT_DX

    def __post_init__(self):
        if not (0 < self.x_max < np.inf and 0 < self.dx < np.inf):
            raise DegenerateBasis("grid extent and spacing must be positive and finite")
        n = round(self.x_max / self.dx)
        if abs(n * self.dx - self.x_max) > 1e-9 * self.x_max:
            raise GridMismatch("x_max must be an integer multiple of dx")
        if n < 4:
            # the fourth-order central stencil reads five nodes; on fewer it
            # applies at no node
            raise GridMismatch(f"the grid has {n + 1} nodes; it needs at least 5")

    @property
    def n(self) -> int:
        """Number of grid points, including both endpoints."""
        return round(self.x_max / self.dx) + 1

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.n)

    def index_of(self, x0: float) -> int:
        """Grid index of a point that must lie on the grid."""
        i = min(max(round(x0 / self.dx), 0), self.n - 1)
        if abs(i * self.dx - x0) > 1e-9 * max(1.0, x0):
            fault = "is not a grid node" if 0.0 <= x0 <= self.x_max \
                else f"lies outside [0, {self.x_max:g}]"
            raise GridMismatch(f"point {x0} {fault}")
        return i


def check_same_grid(grid: Grid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != grid.n:
        raise GridMismatch(
            f"curve has {values.shape[-1]} samples, grid has {grid.n} nodes")
    return values


def derivative(values: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Spatial derivative along the last axis, into out when given.

    Fourth-order central differences in the interior, second-order one-sided
    at the first and last two nodes.  out must not overlap values.
    """
    f = check_same_grid(grid, values)
    d = np.empty_like(f) if out is None else out
    central_stencil(f, grid.dx, d[..., 2:-2])
    one_sided_ends(f, grid.dx, d)
    return d


def central_stencil(f: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """The derivative's fourth-order central differences at nodes 2 .. -3 of f,
    ((f0 - 8 f1) + 8 f3) - f4 over 12 dx, into out when given."""
    out = np.multiply(f[..., 1:-3], 8, out=out)
    np.subtract(f[..., :-4], out, out=out)
    out += 8 * f[..., 3:-1]
    out -= f[..., 4:]
    out /= 12 * dx
    return out


def one_sided_ends(f: np.ndarray, dx: float, d: np.ndarray) -> None:
    """Write the derivative's first and last two nodes of f into d.  A single
    curve's six end values are read as Python floats, whose arithmetic is
    numpy's float64 arithmetic without its per-scalar dispatch."""
    if f.ndim == 1:
        (f0, f1, f2), (g3, g2, g1) = f[:3].tolist(), f[-3:].tolist()
    else:
        f0, f1, f2, g3, g2, g1 = (f[..., i] for i in (0, 1, 2, -3, -2, -1))
    d[..., 0] = (-3 * f0 + 4 * f1 - f2) / (2 * dx)
    d[..., 1] = (f2 - f0) / (2 * dx)
    d[..., -2] = (g1 - g3) / (2 * dx)
    d[..., -1] = (3 * g1 - 4 * g2 + g3) / (2 * dx)


def primitive(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Running integral from 0, trapezoidal, along the last axis."""
    f = check_same_grid(grid, values)
    out = np.empty_like(f)
    out[..., 0] = 0.0
    np.cumsum((f[..., :-1] + f[..., 1:]) * (grid.dx / 2.0), axis=-1,
              out=out[..., 1:])
    return out


@dataclass(frozen=True)
class Weight:
    """Polynomial forward-curve weight w(x) = (1 + x)^alpha."""

    alpha: float = 4.0

    def values(self, grid: Grid) -> np.ndarray:
        return (1.0 + grid.x) ** self.alpha


def hw_norm(values: np.ndarray, grid: Grid, weight: Weight = Weight()) -> float:
    """Weighted Sobolev norm (|h(0)|^2 + int |h'|^2 w dx)^(1/2)."""
    f = check_same_grid(grid, values)
    d = derivative(f, grid)
    integrand = d * d * weight.values(grid)
    return float(np.sqrt(f[..., 0] ** 2 + np.trapezoid(integrand, dx=grid.dx, axis=-1)))


@dataclass(frozen=True)
class PointCombo:
    """Linear combination of curve values at grid nodes, ell(h) = sum a_i h(x_i).

    PointCombo.at resolves the points x_i to their nodes once, when the
    functional is built; SHORT_END is h(0).
    """

    nodes: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.coeffs) or not self.nodes:
            raise DegenerateBasis("nodes and coefficients must match and be nonempty")

    @classmethod
    def at(cls, grid: Grid, points, coeffs) -> PointCombo:
        """The combination of the values at points, each of which must be a grid node."""
        return cls(tuple(grid.index_of(x0) for x0 in points), tuple(coeffs))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """ell of one curve, or of each curve along the last axis of a batch."""
        values = np.asarray(values, dtype=float)
        out = self.coeffs[0] * values[..., self.nodes[0]]
        for i, a in zip(self.nodes[1:], self.coeffs[1:]):
            out = out + a * values[..., i]
        return out

    def dual_vector(self, grid: Grid) -> np.ndarray:
        v = np.zeros(grid.n)
        for i, a in zip(self.nodes, self.coeffs):
            v[i] += a
        return v


SHORT_END = PointCombo((0,), (1.0,))
