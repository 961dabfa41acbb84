"""Forward-rate models with square-root volatility and their Riccati curves.

A model with an affine realization is fixed by a cone-plus-subspace state
space V with its split V (+) G, a functional ell and a volatility
sigma(h) = amp(h) lam with amp(h)^2 = rho^2 |ell(h)| or rho^2.
SquareRootModel holds that description and is what every checker takes;
a model file builds it from its [cone], [subspace], ell and vol_curve.

The volatility of the bundled cir model is the Riccati curve lam: it solves
the pre-Riccati equation lam' + rho^2 lam Lam + gamma lam = 0, and Lam is
its primitive, the solution of the scalar Riccati equation

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
from .curves import Grid, PointCombo, derivative, primitive
from .errors import AffineFdrError, NotInV


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


def default_boundary_samples(grid: Grid, split: SplitSpace, n: int) -> list[np.ndarray]:
    """n smooth curves in G = ker ell whose short-end drift points inward.

    Every shape vanishes at x = 0 with strictly positive slope, so positive
    combinations stay strictly inside the boundary-drift condition.  The
    first n of x e^(-a x) and sin(b x) e^(-x) are built; beyond those named
    shapes, random positive mixtures of all of them are drawn from seed 7.
    """
    x = grid.x
    shapes = [x * np.exp(-a * x) for a in (0.5, 1.0, 1.5, 2.0, 3.0)[:n]]
    shapes += [np.sin(b * x) * np.exp(-x) for b in (0.5, 1.0, 2.0)[:n - len(shapes)]]
    if n > len(shapes):
        # imported only for a mixture: importing numpy.random costs about 10 ms
        rng, table = np.random.default_rng(7), np.array(shapes)
        shapes += [rng.uniform(0.2, 1.0, size=len(table)) @ table
                   for _ in range(n - len(table))]
    return [split.project_g(0.05 * s / max(1.0, float(np.abs(s).max()))) for s in shapes]


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
    "const"; lam_capital is the primitive of lam, and both are made
    read-only.  rho = 0 is accepted and degenerates to a deterministic state
    process.  span_tol is the relative residual band for "lies in span V",
    limited by the second-order boundary stencils.  Raises NotInV when lam
    does not lie in the state space.

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
        _read_only(self.lam)
        _read_only(self.lam_capital)
        object.__setattr__(self, "cc", _read_only(np.outer(coef, coef)))

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
                # without its traceback, whose frames hold this list, the
                # error is freed with the model and not by the cycle collector
                fits.append(exc.with_traceback(None))
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
