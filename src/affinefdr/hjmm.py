"""Forward-rate models with square-root volatility and their Riccati curves.

A model with an affine realization is fixed by a cone-plus-subspace state
space V with its split V (+) G, a functional ell and a volatility
sigma(h) = amp(h) lam with amp(h)^2 = rho^2 |ell(h)| or rho^2.
SquareRootModel holds that description and is what every checker takes;
SquareRootModel.cir and SquareRootModel.two_factor build the bundled kinds.

In the cir model lam solves the pre-Riccati equation
lam' + rho^2 lam Lam + gamma lam = 0 and Lam is its primitive, the solution
of the scalar Riccati equation

    Lam' + (rho^2 / 2) Lam^2 + gamma Lam = 1,   Lam(0) = 0.

The closed form uses theta = sqrt(gamma^2 + 2 rho^2) throughout and is
evaluated in an overflow-free rational-in-expm1 arrangement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import realization as rz
from .admissibility import AffineSquareVol
from .cones import ConeBasis, SplitSpace, StateBasis, orthogonal_split
from .curves import Grid, PointCombo, ShortEnd, apply_functional, derivative, primitive
from .errors import AffineFdrError, ConstraintViolated, NotInV


def riccati_capital(x, rho: float, gamma: float) -> np.ndarray:
    """Solution Lam of Lam' + (rho^2/2) Lam^2 + gamma Lam = 1, Lam(0) = 0.

    Stable closed form: with theta = sqrt(gamma^2 + 2 rho^2) and
    E = 1 - exp(-theta x),

        Lam(x) = 2 E / ((theta + gamma) E + 2 theta exp(-theta x)).

    Degenerate rho = gamma = 0 gives Lam(x) = x.
    """
    x = np.asarray(x, dtype=float)
    theta = np.sqrt(gamma * gamma + 2.0 * rho * rho)
    if theta == 0.0:
        return x.copy()
    e = -np.expm1(-theta * x)
    return 2.0 * e / ((theta + gamma) * e + 2.0 * theta * np.exp(-theta * x))


def riccati_small(x, rho: float, gamma: float) -> np.ndarray:
    """The derivative lam = Lam' = 1 - (rho^2/2) Lam^2 - gamma Lam."""
    lam_cap = riccati_capital(x, rho, gamma)
    return 1.0 - (rho * rho / 2.0) * lam_cap * lam_cap - gamma * lam_cap


def hjm_drift(sigma_curves: np.ndarray, grid: Grid) -> np.ndarray:
    """Drift alpha(x) = sum_k sigma_k(x) * int_0^x sigma_k(u) du.

    sigma_curves has one volatility component per row.
    """
    sig = np.atleast_2d(np.asarray(sigma_curves, dtype=float))
    return np.sum(sig * primitive(sig, grid), axis=0)


def build_s_operator(basis_curves: np.ndarray, grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """Map from state-coordinate matrices to curves matching the HJM drift.

    For a volatility sigma = sum_i c_i b_i with coordinate matrix
    Phi = c c^T this operator reproduces the HJM drift:
    S(Phi) = sum_ij Phi_ij b_j(x) int_0^x b_i(u) du.
    """
    curves = np.atleast_2d(np.asarray(basis_curves, dtype=float))
    prims = primitive(curves, grid)

    def s_op(phi: np.ndarray) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        # sum_ij phi_ij b_j * B_i  ==  sum_i B_i * (phi @ b)_i
        return np.einsum("ij,jx,ix->x", phi, curves, prims)

    return s_op


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def shape_boundary_samples(grid: Grid, split: SplitSpace, n: int) -> list[np.ndarray]:
    """The first n of x e^-x, sin(x) e^-x/2 and x e^-2x, scaled by 0.05, in G."""
    x = grid.x
    shapes = [x * np.exp(-x), np.sin(x) * np.exp(-0.5 * x), x * np.exp(-2.0 * x)]
    return [split.project_g(0.05 * s) for s in shapes[:n]]


def default_boundary_samples(grid: Grid, split: SplitSpace, n: int = 6,
                             seed: int = 7) -> list[np.ndarray]:
    """n smooth curves in G = ker ell whose short-end drift points inward.

    Every shape vanishes at x = 0 with strictly positive slope, so positive
    combinations stay strictly inside the boundary-drift condition; beyond
    the named shapes, random positive mixtures are drawn.
    """
    x = grid.x
    shapes = np.array([x * np.exp(-a * x) for a in (0.5, 1.0, 1.5, 2.0, 3.0)]
                      + [np.sin(b * x) * np.exp(-x) for b in (0.5, 1.0, 2.0)])
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        s = shapes[i] if i < len(shapes) else \
            rng.uniform(0.2, 1.0, size=len(shapes)) @ shapes
        out.append(split.project_g(0.05 * s / max(1.0, float(np.abs(s).max()))))
    return out


def ker_ell_split(grid: Grid, ell, lam: np.ndarray, subspace=()) -> SplitSpace:
    """Split of V = <lam>+ (+) span(subspace) whose cone dual row is ell / ell(u),
    with u = lam / |lam| the normed cone row.

    Without a subspace G = ker ell; subspace curves take their dual rows
    from the orthogonal split.  Needs ell(lam) != 0.
    """
    basis = StateBasis(ConeBasis(lam.reshape(1, -1)),
                       subspace=np.reshape(subspace, (len(subspace), grid.n)))
    dual = ell.dual_vector(grid) / float(apply_functional(ell, basis.matrix[0], grid))
    return SplitSpace(basis, np.vstack([dual, orthogonal_split(basis).dual[1:]]))


@dataclass(frozen=True, eq=False)
class SquareRootModel:
    """Volatility sigma(h) = amp(h) lam on the state space of split.

    amp(h)^2 is rho^2 |ell(h)| for amplitude "sqrt_ell" and rho^2 for
    "const"; lam_capital is the primitive of lam.  rho = 0 is accepted and
    degenerates to a deterministic state process.  span_tol is the relative
    residual band for "lies in span V", limited by the second-order boundary
    stencils.  Raises NotInV when lam does not lie in the state space.

    The drift-image operator, the per-sample fits and the R basis are
    computed once, on first use, and shared by every check.
    """

    grid: Grid
    ell: object
    rho: float
    lam: np.ndarray
    lam_capital: np.ndarray
    split: SplitSpace
    boundary_samples: tuple = ()
    amplitude: str = "sqrt_ell"
    span_tol: float = 1e-5

    def __post_init__(self):
        coef, resid = self.split.v_basis.fit(self.lam)
        if np.linalg.norm(resid) > 1e-6 * max(1.0, np.linalg.norm(self.lam)):
            raise NotInV("volatility curve does not lie in the state space")
        object.__setattr__(self, "_lam_outer", np.outer(coef, coef))

    @classmethod
    def cir(cls, grid: Grid, rho: float, gamma: float, ell=ShortEnd(), n_samples: int = 6,
            span_tol: float = 1e-5) -> SquareRootModel:
        """The Riccati model on V = <lam>+ with G = ker ell and n default samples."""
        if rho < 0 or gamma < 0:
            raise ConstraintViolated("rho and gamma must be nonnegative")
        if rho == 0 and gamma == 0:
            raise ConstraintViolated("rho and gamma cannot both vanish")
        lam = _read_only(riccati_small(grid.x, rho, gamma))
        if abs(apply_functional(ell, lam, grid) - 1.0) > 1e-8:
            raise ConstraintViolated("functional must normalize lam to 1")
        split = ker_ell_split(grid, ell, lam)
        return cls(grid, ell, rho, lam, _read_only(riccati_capital(grid.x, rho, gamma)),
                   split, tuple(default_boundary_samples(grid, split, n_samples)),
                   span_tol=span_tol)

    @classmethod
    def two_factor(cls, grid: Grid, rho: float = 0.0, gamma: float = 1.0,
                   span_tol: float = 1e-5) -> SquareRootModel:
        """The model on V = <lam>+ (+) <lam^2> with lam = exp(-gamma x).

        The functional is a two-point combination at 0 and x1 = ln 2 / gamma,
        snapped to the grid, with ell(lam) = 1 and ell(lam^2) = 0; with
        gamma = 1 its coefficients are a = -1 at 0 and b = 4 at x1.  The
        volatility loads the cone coordinate only and vanishes on the
        boundary leaves.
        """
        if gamma <= 0:
            raise ConstraintViolated("gamma must be positive")
        x1 = round(np.log(2.0) / gamma / grid.dx) * grid.dx  # snap to the grid
        l1 = np.exp(-gamma * x1)
        a = np.linalg.solve(np.array([[1.0, l1], [1.0, l1 * l1]]), np.array([1.0, 0.0]))
        ell = PointCombo((0.0, x1), (float(a[0]), float(a[1])))
        lam = np.exp(-gamma * grid.x)
        split = ker_ell_split(grid, ell, lam, subspace=(lam * lam,))
        return cls(grid, ell, rho, lam, primitive(lam, grid), split,
                   tuple(shape_boundary_samples(grid, split, 2)), span_tol=span_tol)

    def ell_of(self, values: np.ndarray) -> np.ndarray:
        return apply_functional(self.ell, values, self.grid)

    @property
    def state_drift_slope(self) -> float:
        """Coefficient a in the state equation dX = (b(t) + a X) dt + ...

        a = ell(lam') + rho^2 ell(lam Lam), the functional applied to the drift
        of the state direction lam.  For the Riccati lam with ell(lam) = 1 it
        equals -gamma; it is evaluated numerically from the discretized curves.
        """
        lam_prime = derivative(self.lam, self.grid)
        return float(self.ell_of(lam_prime) + self.rho * self.rho
                     * self.ell_of(self.lam * self.lam_capital))

    def apply_a(self, h: np.ndarray) -> np.ndarray:
        """The generator d/dx."""
        return derivative(h, self.grid)

    def sigma_sq_at(self, h: np.ndarray) -> np.ndarray:
        """Squared volatility amp(h)^2 c c^T, with c the coordinates of lam in
        the state basis."""
        amp = 1.0 if self.amplitude == "const" else abs(float(self.ell_of(h)))
        return self.rho * self.rho * amp * self._lam_outer

    @functools.cached_property
    def s_op(self) -> Callable[[np.ndarray], np.ndarray]:
        """The drift-image operator on the state basis."""
        return build_s_operator(self.split.v_basis.matrix, self.grid)

    @functools.cached_property
    def boundary_fits(self) -> list[AffineSquareVol | AffineFdrError]:
        """fit_boundary_square_vol of each boundary sample, or the error it raised."""
        fits = []
        for g in self.boundary_samples:
            try:
                fits.append(rz.fit_boundary_square_vol(self, g))
            except AffineFdrError as exc:
                fits.append(exc)
        return fits

    @functools.cached_property
    def r_basis(self) -> list[np.ndarray]:
        """Orthonormal basis of the span R of sigma^2 at each boundary sample g
        and at g + b_i for each basis curve b_i."""
        mats = []
        B = self.split.v_basis.matrix
        d = self.split.v_basis.dim_v
        for g in self.boundary_samples:
            mats.append(self.sigma_sq_at(g))
            for i in range(d):
                mats.append(self.sigma_sq_at(g + B[i]))
        if not mats:
            return []
        flat = np.array([m.ravel() for m in mats])
        u, s, vt = np.linalg.svd(flat, full_matrices=False)
        rank = int(np.sum(s > rz.RANK_TOL * max(s[0], 1e-30))) if s.size else 0
        return [vt[i].reshape(d, d) for i in range(rank)]
