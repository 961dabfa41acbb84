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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import realization as rz
from .cones import ConeBasis, SplitSpace, StateBasis, orthogonal_split
from .curves import SHORT_END, Grid, PointCombo, derivative, primitive
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

    def apply(phi: np.ndarray) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        # sum_ij phi_ij b_j * B_i  ==  sum_i B_i * (phi @ b)_i
        return np.einsum("ij,jx,ix->x", phi, curves, prims)

    return apply


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def shape_boundary_samples(grid: Grid, split: SplitSpace, n: int) -> list[np.ndarray]:
    """The first n of x e^-x, sin(x) e^-x/2 and x e^-2x, scaled by 0.05, in G."""
    x = grid.x
    shapes = [x * np.exp(-x), np.sin(x) * np.exp(-0.5 * x), x * np.exp(-2.0 * x)]
    return [split.project_g(0.05 * s) for s in shapes[:n]]


def default_boundary_samples(grid: Grid, split: SplitSpace, n: int = 6) -> list[np.ndarray]:
    """n smooth curves in G = ker ell whose short-end drift points inward.

    Every shape vanishes at x = 0 with strictly positive slope, so positive
    combinations stay strictly inside the boundary-drift condition; beyond
    the named shapes, random positive mixtures are drawn from seed 7.
    """
    x = grid.x
    shapes = np.array([x * np.exp(-a * x) for a in (0.5, 1.0, 1.5, 2.0, 3.0)]
                      + [np.sin(b * x) * np.exp(-x) for b in (0.5, 1.0, 2.0)])
    # made only for a mixture: importing numpy.random costs about 10 ms
    rng = np.random.default_rng(7) if n > len(shapes) else None
    out = []
    for i in range(n):
        s = shapes[i] if i < len(shapes) else \
            rng.uniform(0.2, 1.0, size=len(shapes)) @ shapes
        out.append(split.project_g(0.05 * s / max(1.0, float(np.abs(s).max()))))
    return out


def ker_ell_split(grid: Grid, ell: PointCombo, cone, subspace=()) -> SplitSpace:
    """The split of V = cone(cone curves) (+) span(subspace), from ell and V.

    With one cone generator u (normed), ell(u) != 0 and ell zero on every
    subspace curve within 1e-9 |ell(u)|, G lies in ker ell: the cone dual
    row is ell / ell(u), the subspace rows are those of the basis's pinv.
    Otherwise G falls back to the orthogonal complement of span V.
    """
    basis = StateBasis(ConeBasis(np.reshape(cone, (-1, grid.n))),
                       subspace=np.reshape(subspace, (-1, grid.n)))
    on_u = float(ell(basis.matrix[0])) if basis.m == 1 else 0.0
    if on_u == 0.0 or np.abs(ell(basis.subspace)).max(initial=0.0) > 1e-9 * abs(on_u):
        return orthogonal_split(basis)
    return SplitSpace(basis, np.vstack([ell.dual_vector(grid) / on_u, basis.pinv[1:]]))


@dataclass(frozen=True, eq=False)
class SquareRootModel:
    """Volatility sigma(h) = amp(h) lam on the state space of split.

    amp(h)^2 is rho^2 |ell(h)| for amplitude "sqrt_ell" and rho^2 for
    "const"; lam_capital is the primitive of lam.  rho = 0 is accepted and
    degenerates to a deterministic state process.  span_tol is the relative
    residual band for "lies in span V", limited by the second-order boundary
    stencils.  Raises NotInV when lam does not lie in the state space.

    The squared volatility is sigma^2(h) = amp_sq(h) cc, with the read-only
    cc = c c^T and c the state coordinates of lam.  The drift image
    s_cc = S(c c^T) and the per-sample fits of amp^2 are computed once, on
    first use, and shared by every check.
    """

    grid: Grid
    ell: PointCombo
    rho: float
    lam: np.ndarray
    lam_capital: np.ndarray
    split: SplitSpace
    boundary_samples: tuple = ()
    amplitude: str = "sqrt_ell"
    span_tol: float = 1e-5
    cc: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        coef, resid = self.split.v_basis.fit(self.lam)
        if np.linalg.norm(resid) > 1e-6 * max(1.0, np.linalg.norm(self.lam)):
            raise NotInV("volatility curve does not lie in the state space")
        object.__setattr__(self, "cc", _read_only(np.outer(coef, coef)))

    @classmethod
    def cir(cls, grid: Grid, rho: float, gamma: float, ell: PointCombo = SHORT_END,
            n_samples: int = 6, span_tol: float = 1e-5) -> SquareRootModel:
        """The Riccati model on V = <lam>+ with G = ker ell and n default samples."""
        for key, value in (("rho", rho), ("gamma", gamma)):
            if value < 0:
                raise ConstraintViolated(f"{key} must be nonnegative")
        if rho == 0 and gamma == 0:
            raise ConstraintViolated("rho and gamma cannot both vanish")
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow is refused below
            lam, lam_cap = (_read_only(f(grid.x, rho, gamma))
                            for f in (riccati_small, riccati_capital))
        if not np.isfinite([lam, lam_cap]).all():
            raise ConstraintViolated(f"rho = {rho:g} and gamma = {gamma:g} overflow lam and Lam")
        if abs(ell(lam) - 1.0) > 1e-8:
            raise ConstraintViolated("functional must normalize lam to 1")
        split = ker_ell_split(grid, ell, lam)
        return cls(grid, ell, rho, lam, lam_cap, split,
                   tuple(default_boundary_samples(grid, split, n_samples)), span_tol=span_tol)

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
        node = round(np.log(2.0) / gamma / grid.dx)   # x1 snapped to the grid
        x1 = node * grid.dx
        if node == 0:
            # the two points coincide, and the 2x2 system is singular
            raise ConstraintViolated(f"gamma = {gamma:g} snaps x1 = ln 2 / gamma to node 0 "
                                     f"at dx = {grid.dx:g}")
        if node >= grid.n:
            raise ConstraintViolated(f"gamma = {gamma:g} puts x1 = ln 2 / gamma = {x1:g} "
                                     f"past x_max = {grid.x_max:g}")
        l1 = np.exp(-gamma * x1)
        a = np.linalg.solve(np.array([[1.0, l1], [1.0, l1 * l1]]), np.array([1.0, 0.0]))
        ell = PointCombo.at(grid, (0.0, x1), (float(a[0]), float(a[1])))
        lam = np.exp(-gamma * grid.x)
        split = ker_ell_split(grid, ell, lam, subspace=(lam * lam,))
        return cls(grid, ell, rho, lam, primitive(lam, grid), split,
                   tuple(shape_boundary_samples(grid, split, 2)), span_tol=span_tol)

    @functools.cached_property
    def state_drift_slope(self) -> float:
        """Coefficient a in the state equation dX = (b(t) + a X) dt + ...

        a = ell(lam') + rho^2 ell(lam Lam), the functional applied to the drift
        of the state direction lam.  For the Riccati lam with ell(lam) = 1 it
        equals -gamma; it is evaluated numerically from the discretized curves.
        """
        lam_prime = derivative(self.lam, self.grid)
        return float(self.ell(lam_prime) + self.rho * self.rho
                     * self.ell(self.lam * self.lam_capital))

    def apply_a(self, h: np.ndarray) -> np.ndarray:
        """The generator d/dx."""
        return derivative(h, self.grid)

    def amp_sq(self, h: np.ndarray) -> float:
        """The squared amplitude amp(h)^2: rho^2 |ell(h)| or rho^2."""
        amp = 1.0 if self.amplitude == "const" else abs(float(self.ell(h)))
        return self.rho * self.rho * amp

    @functools.cached_property
    def s_cc(self) -> np.ndarray:
        """S(c c^T), the drift image of the volatility direction."""
        return _read_only(build_s_operator(self.split.v_basis.matrix, self.grid)(self.cc))

    @property
    def ell_vanishes_on_g(self) -> bool:
        """Whether G lies in ker ell: ell equals ell(B) applied to the V-coordinates."""
        dual = self.ell.dual_vector(self.grid)
        resid = dual - self.ell(self.split.v_basis.matrix) @ self.split.dual
        return bool(np.abs(resid).max() <= 1e-9 * np.abs(dual).max())

    @functools.cached_property
    def boundary_fits(self) -> list[tuple[float, np.ndarray] | AffineFdrError]:
        """fit_boundary_square_vol of each boundary sample, or the error it raised."""
        fits = []
        for g in self.boundary_samples:
            try:
                fits.append(rz.fit_boundary_square_vol(self, g))
            except AffineFdrError as exc:
                fits.append(exc)
        return fits

    @property
    def r_basis(self) -> list[np.ndarray]:
        """R, the span of the squared volatilities amp(h)^2 c c^T: the normed
        line of c c^T, or nothing when sigma^2 vanishes identically."""
        norm = float(np.linalg.norm(self.cc))
        if self.rho == 0 or norm == 0 or (self.amplitude == "sqrt_ell"
                                          and not np.any(self.ell.dual_vector(self.grid))):
            return []
        return [self.cc / norm]
