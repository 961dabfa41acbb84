"""Forward-rate models with square-root volatility and their Riccati curves.

The one-dimensional model has volatility sigma(h) = rho sqrt(|ell(h)|) lam,
where lam solves the pre-Riccati equation lam' + rho^2 lam Lam + gamma lam = 0
and Lam is its primitive, the solution of the scalar Riccati equation

    Lam' + (rho^2 / 2) Lam^2 + gamma Lam = 1,   Lam(0) = 0.

The closed form uses theta = sqrt(gamma^2 + 2 rho^2) throughout and is
evaluated in an overflow-free rational-in-expm1 arrangement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import realization as rz
from .cones import ConeBasis, SplitSpace, StateBasis, orthogonal_split
from .curves import Grid, PointCombo, ShortEnd, apply_functional, derivative, primitive
from .errors import ConstraintViolated, NotInV


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


def square_root_model_data(grid: Grid, split: SplitSpace, ell, rho: float,
                           vol_curve: np.ndarray, amplitude: str, boundary_samples,
                           tol: rz.Tolerances = rz.Tolerances()) -> rz.ModelData:
    """Checker input for a volatility amp(h) vol_curve on the state space of split.

    The generator is d/dx and the drift-image operator is built on the state
    basis.  With c the least-squares coordinates of vol_curve in that basis,
    the squared volatility is sigma^2(h) = amp(h)^2 c c^T, where amp(h)^2
    is rho^2 |ell(h)| for amplitude "sqrt_ell" and rho^2 for "const".
    Raises NotInV when vol_curve does not lie in the state space.
    """
    B = split.v_basis.matrix
    coef, *_ = np.linalg.lstsq(B.T, vol_curve, rcond=None)
    if np.linalg.norm(vol_curve - B.T @ coef) > 1e-6 * max(1.0, np.linalg.norm(vol_curve)):
        raise NotInV("volatility curve does not lie in the state space")
    outer = np.outer(coef, coef)

    def sigma_sq_at(h: np.ndarray) -> np.ndarray:
        amp = 1.0 if amplitude == "const" else abs(float(apply_functional(ell, h, grid)))
        return rho * rho * amp * outer

    return rz.ModelData(
        split=split,
        apply_a=lambda h: derivative(h, grid),
        s_op=build_s_operator(B, grid),
        sigma_sq_at=sigma_sq_at,
        boundary_samples=list(boundary_samples),
        tol=tol,
    )


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def shape_boundary_samples(grid: Grid, split: SplitSpace, n: int) -> list[np.ndarray]:
    """The first n of x e^-x, sin(x) e^-x/2 and x e^-2x, scaled by 0.05, in G."""
    x = grid.x
    shapes = [x * np.exp(-x), np.sin(x) * np.exp(-0.5 * x), x * np.exp(-2.0 * x)]
    return [split.project_g(0.05 * s) for s in shapes[:n]]


@dataclass(frozen=True)
class CirModel:
    """Square-root forward-rate model with a one-dimensional state space.

    rho = 0 is accepted and degenerates to a deterministic state process.
    """

    grid: Grid
    rho: float
    gamma: float
    ell: object = field(default_factory=ShortEnd)

    def __post_init__(self):
        if self.rho < 0 or self.gamma < 0:
            raise ConstraintViolated("rho and gamma must be nonnegative")
        if self.rho == 0 and self.gamma == 0:
            raise ConstraintViolated("rho and gamma cannot both vanish")
        if abs(self.ell_of(self.lam) - 1.0) > 1e-8:
            raise ConstraintViolated("functional must normalize lam to 1")

    @functools.cached_property
    def lam(self) -> np.ndarray:
        return _read_only(riccati_small(self.grid.x, self.rho, self.gamma))

    @functools.cached_property
    def lam_capital(self) -> np.ndarray:
        return _read_only(riccati_capital(self.grid.x, self.rho, self.gamma))

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

    def split(self, lam: np.ndarray | None = None) -> SplitSpace:
        """Split with V = <lam>+ and G = ker ell, for any lam with ell(lam) != 0."""
        lam = self.lam if lam is None else lam
        lam_norm = float(np.linalg.norm(lam))
        basis = StateBasis(ConeBasis(lam.reshape(1, -1) / lam_norm, normed=True))
        dual = (self.ell.dual_vector(self.grid)
                * lam_norm / float(self.ell_of(lam))).reshape(1, -1)
        return SplitSpace(basis, dual)

    def model_data(self, boundary_samples=None,
                   tol: rz.Tolerances = rz.Tolerances()) -> rz.ModelData:
        """Assembled checker input on the Riccati state space V = <lam>+."""
        split = self.split()
        if boundary_samples is None:
            boundary_samples = default_boundary_samples(self, split)
        return square_root_model_data(self.grid, split, self.ell, self.rho, self.lam,
                                      "sqrt_ell", boundary_samples, tol)


def default_boundary_samples(model: CirModel, split: SplitSpace, n: int = 6,
                             seed: int = 7) -> list[np.ndarray]:
    """Smooth curves in G = ker ell whose short-end drift points inward.

    Every shape vanishes at x = 0 with strictly positive slope, so positive
    combinations stay strictly inside the boundary-drift condition; beyond
    the named shapes, random positive mixtures are drawn.
    """
    x = model.grid.x
    shapes = np.array([x * np.exp(-a * x) for a in (0.5, 1.0, 1.5, 2.0, 3.0)]
                      + [np.sin(b * x) * np.exp(-x) for b in (0.5, 1.0, 2.0)])
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        s = shapes[i] if i < len(shapes) else \
            rng.uniform(0.2, 1.0, size=len(shapes)) @ shapes
        out.append(split.project_g(0.05 * s / max(1.0, float(np.abs(s).max()))))
    return out


@dataclass(frozen=True)
class TwoFactorModel:
    """Square-root model on V = <lam>+ (+) <lam^2> with lam = exp(-gamma x).

    The functional is a two-point combination chosen so that ell(lam) = 1
    and ell(lam^2) = 0; with gamma = 1 and x1 = ln 2 the coefficients are
    a = -1 at 0 and b = 4 at x1.
    """

    grid: Grid
    rho: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConstraintViolated("gamma must be positive")

    @property
    def x1(self) -> float:
        x1 = np.log(2.0) / self.gamma
        i = round(x1 / self.grid.dx)  # snap to the grid
        return i * self.grid.dx

    @property
    def ell(self) -> PointCombo:
        # coefficients solve ell(lam) = 1, ell(lam^2) = 0 at the snapped x1
        l1 = np.exp(-self.gamma * self.x1)
        a = np.linalg.solve(np.array([[1.0, l1], [1.0, l1 * l1]]), np.array([1.0, 0.0]))
        return PointCombo((0.0, self.x1), (float(a[0]), float(a[1])))

    @property
    def lam(self) -> np.ndarray:
        return np.exp(-self.gamma * self.grid.x)

    def ell_of(self, values: np.ndarray) -> np.ndarray:
        return apply_functional(self.ell, values, self.grid)

    def split(self) -> SplitSpace:
        lam = self.lam
        lam_norm = float(np.linalg.norm(lam))
        basis = StateBasis(ConeBasis((lam / lam_norm).reshape(1, -1), normed=True),
                           subspace=(lam * lam).reshape(1, -1))
        d1 = self.ell.dual_vector(self.grid) * lam_norm
        # second dual row: orthogonal dual of lam^2 already annihilates lam-hat
        d2 = orthogonal_split(basis).dual[1]
        return SplitSpace(basis, np.vstack([d1, d2]))


def build_two_factor_model_data(model: TwoFactorModel,
                                tol: rz.Tolerances = rz.Tolerances()) -> rz.ModelData:
    """ModelData for the two-factor state space.

    The volatility is rho sqrt(|ell(h)|) lam with lam the cone direction, so
    its squared-volatility matrix loads the cone coordinate only and
    vanishes on the boundary leaves.
    """
    split = model.split()
    return square_root_model_data(model.grid, split, model.ell, model.rho, model.lam,
                                  "sqrt_ell", shape_boundary_samples(model.grid, split, 2),
                                  tol)
