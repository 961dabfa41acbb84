"""Executable realizability checks for SPDEs with volatility-structured drift.

The checks certify, on a finite sample of boundary curves, that a model of
the form  dr = (A r + S sigma^2(r)) dt + sigma(r) dW  admits an affine
realization on a cone-plus-subspace state space with affine and admissible
state processes.  Universally quantified conditions over the boundary set
are verified on the supplied samples; the report says so explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import admissibility as adm
from .admissibility import AffineSquareVol
from .cones import SplitSpace, membership_coords
from .errors import AffineFdrError, DimensionExceeded, NotInDomain


@dataclass(frozen=True)
class Tolerances:
    """Numerical bands for span, membership, and affinity tests."""

    span: float = 1e-5        # relative residual for "lies in span V"
                              # (limited by the second-order boundary stencils)
    membership: float = 1e-9  # band for cone-coordinate sign tests
    affine: float = 1e-6      # relative residual for affine fits
    rank: float = 1e-9        # relative singular-value cutoff


@dataclass
class ModelData:
    """Everything the checkers need, on a common grid representation.

    apply_a differentiates/transports ambient curves, s_op maps symmetric
    state-space matrices to ambient curves, sigma_sq_at evaluates the squared
    volatility (in state-basis coordinates) at an ambient curve, and
    boundary_samples is a finite list of boundary representatives.  The
    per-sample fits and the R basis are computed once, on first use, and
    shared by every check; the fields must not be reassigned after that.
    """

    split: SplitSpace
    apply_a: Callable[[np.ndarray], np.ndarray]
    s_op: Callable[[np.ndarray], np.ndarray]
    sigma_sq_at: Callable[[np.ndarray], np.ndarray]
    boundary_samples: Sequence[np.ndarray]
    tol: Tolerances = field(default_factory=Tolerances)

    @property
    def dim_v(self) -> int:
        return self.split.v_basis.dim_v

    @property
    def m(self) -> int:
        return self.split.v_basis.m

    @functools.cached_property
    def boundary_fits(self) -> list[AffineSquareVol | AffineFdrError]:
        """fit_boundary_square_vol of each boundary sample, or the error it raised."""
        fits = []
        for g in self.boundary_samples:
            try:
                fits.append(fit_boundary_square_vol(self, g))
            except AffineFdrError as exc:
                fits.append(exc)
        return fits

    @functools.cached_property
    def r_basis(self) -> list[np.ndarray]:
        """Orthonormal basis of the span R of sigma^2 at each boundary sample g
        and at g + b_i for each basis curve b_i."""
        mats = []
        B = self.split.v_basis.matrix
        for g in self.boundary_samples:
            mats.append(self.sigma_sq_at(g))
            for i in range(self.dim_v):
                mats.append(self.sigma_sq_at(g + B[i]))
        if not mats:
            return []
        d = self.dim_v
        flat = np.array([m.ravel() for m in mats])
        u, s, vt = np.linalg.svd(flat, full_matrices=False)
        rank = int(np.sum(s > self.tol.rank * max(s[0], 1e-30))) if s.size else 0
        return [vt[i].reshape(d, d) for i in range(rank)]


def _span_residual(curve: np.ndarray, basis_matrix: np.ndarray) -> float:
    """Relative residual of a curve after least-squares projection onto a span."""
    norm = np.linalg.norm(curve)
    if norm == 0.0:
        return 0.0
    coef, *_ = np.linalg.lstsq(basis_matrix.T, curve, rcond=None)
    return float(np.linalg.norm(curve - basis_matrix.T @ coef) / norm)


def fit_boundary_square_vol(model: ModelData, g: np.ndarray) -> AffineSquareVol:
    """Affine fit of v -> sigma^2(g + v) from perturbations along the basis.

    Perturbation steps t in {0, 1/2, 1} along each basis direction; three
    collinear points also detect non-affinity.
    """
    basis = model.split.v_basis
    B = basis.matrix
    d = basis.dim_v
    samples = [(np.zeros(d), model.sigma_sq_at(g))]
    for i in range(d):
        for t in (0.5, 1.0):
            v = np.zeros(d)
            v[i] = t
            samples.append((v, model.sigma_sq_at(g + t * B[i])))
    return adm.fit_affine_square(samples, basis, tol=model.tol.affine)


@dataclass(frozen=True)
class ConditionResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class RealizabilityReport:
    """Per-condition verdicts over all boundary samples."""

    conditions: tuple[ConditionResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failed(self) -> list[ConditionResult]:
        return [c for c in self.conditions if not c.ok]

    def by_name(self, name: str) -> list[ConditionResult]:
        return [c for c in self.conditions if c.name == name]


def _detail(tag: str, witnesses) -> str:
    """The sample tag, then every violation as: name, index, magnitude[ > band]."""
    if not witnesses:
        return tag
    return f"{tag}: " + "; ".join(
        f"{w[0]} {w[1]} {w[2]:.3e}" + (f" > {w[3]:.3e}" if len(w) > 3 else "")
        for w in witnesses)


def check_thm_main2(model: ModelData) -> RealizabilityReport:
    """Full realizability check on every boundary sample.

    Per sample g the squared volatility must fit affinely and be parallel
    (adm.is_parallel), and the coordinate drift v -> beta1 + beta2 v of
    A + S sigma_g^2 must stay in V and point inward (adm.is_inward_pointing).
    beta1 holds the V-coordinates of A g + S T1, column k of beta2 the
    least-squares V-coordinates of A b_k + S T2[k].  The inward-pointing
    witnesses above their bands are reported under the realizability names:
    nu-1 as cond-AR-1, nu-2-C as cond-AR-2 and nu-2-U as cond-AR-3.  A column
    off V fails beta-inc-V and the condition of its edge or subspace
    direction.  One failing fit never aborts the report.
    """
    basis = model.split.v_basis
    B = basis.matrix
    tol = model.tol
    results: list[ConditionResult] = []
    for idx, (g, sqvol) in enumerate(zip(model.boundary_samples, model.boundary_fits)):
        tag = f"g[{idx}]"
        if isinstance(sqvol, AffineFdrError):
            results.append(ConditionResult("sigma-affine-parallel", False, f"{tag}: {sqvol}"))
            continue
        par = adm.is_parallel(sqvol, basis, tol=tol.membership)
        results.append(ConditionResult("sigma-affine-parallel", par.ok,
                                       _detail(tag, par.witnesses)))

        beta1 = model.split.v_coords(model.apply_a(g) + model.s_op(sqvol.t1))
        images = np.array([model.apply_a(b) + model.s_op(t) for b, t in zip(B, sqvol.t2)]).T
        beta2, *_ = np.linalg.lstsq(B.T, images, rcond=None)
        norms = np.linalg.norm(images, axis=0)
        off_v = np.linalg.norm(images - B.T @ beta2, axis=0) / np.where(norms > 0, norms, 1.0)
        found = {name: [] for name in ("cond-AR-1", "cond-AR-2", "cond-AR-3", "beta-inc-V")}
        for k in np.flatnonzero(off_v > tol.span):
            witness = ("off-V", int(k), float(off_v[k]), tol.span)
            found["beta-inc-V"].append(witness)
            found["cond-AR-2" if k < model.m else "cond-AR-3"].append(witness)
        drift = adm.AffineDrift(beta1, beta2)
        for name, index, mag in adm.is_inward_pointing(drift, basis, tol=0.0).witnesses:
            cond = {"nu-1": "cond-AR-1", "nu-2-C": "cond-AR-2", "nu-2-U": "cond-AR-3"}[name]
            coords = beta1 if name == "nu-1" else beta2[:, index[0]]
            # a subspace leak into the cone is a stencil error of A: span band
            band = (tol.span if name == "nu-2-U" else tol.membership) \
                * max(1.0, float(np.linalg.norm(coords)))
            if mag > band:
                found[cond].append((name, index, mag, band))
        results.extend(ConditionResult(name, not ws, _detail(tag, ws))
                       for name, ws in found.items())
    return RealizabilityReport(tuple(results))


@dataclass(frozen=True)
class KSpace:
    """Basis of the symmetric matrices in R that S maps into span V."""

    basis: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def compute_k(model: ModelData) -> KSpace:
    """Nullspace construction of the matrices in span R mapped into V by S."""
    r_basis = model.r_basis
    if not r_basis:
        return KSpace(())
    B = model.split.v_basis.matrix
    residuals = []
    for r in r_basis:
        curve = model.s_op(r)
        coef, *_ = np.linalg.lstsq(B.T, curve, rcond=None)
        residuals.append(curve - B.T @ coef)
    M = np.array(residuals).T  # ambient x nR
    # the thin SVD skips the ambient x ambient U; with nR <= ambient it has
    # the same s and vt, otherwise vt must be square for the nullspace rows
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[1] > M.shape[0])
    scale = max(float(s[0]) if s.size else 0.0, 1e-30)
    in_null = np.ones(len(r_basis), dtype=bool)
    in_null[: s.size] = s <= model.tol.span * scale
    basis = [sum(ci * ri for ci, ri in zip(c, r_basis)) for c in vt[in_null]]
    return KSpace(tuple(basis))


def check_const_mod_k(model: ModelData, kspace: KSpace | None = None) -> bool:
    """Whether the boundary dependence of the squared volatility lies in K.

    For all pairs of boundary samples and all basis directions, the
    difference of the fitted linear parts must lie in span K.
    """
    if kspace is None:
        kspace = compute_k(model)
    fits = model.boundary_fits
    for fit in fits:
        if isinstance(fit, AffineFdrError):
            raise fit
    if len(fits) < 2:
        return True
    kmat = np.array([k.ravel() for k in kspace.basis]) if kspace.dim else None
    ref = fits[0]
    for other in fits[1:]:
        for i in range(model.dim_v):
            diff = (other.t2[i] - ref.t2[i]).ravel()
            norm = np.linalg.norm(diff)
            if norm <= model.tol.span * max(1.0, np.abs(ref.t2).max()):
                continue
            if kmat is None:
                return False
            coef, *_ = np.linalg.lstsq(kmat.T, diff, rcond=None)
            if np.linalg.norm(diff - kmat.T @ coef) > model.tol.span * norm:
                return False
    return True


def _numerical_rank(mat: np.ndarray, rel_tol: float) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > rel_tol * s[0]))


def check_damir(model: ModelData) -> bool:
    """Both intersection conditions: V and S(R) meet only at 0, and S is
    injective on R."""
    r_basis = model.r_basis
    if not r_basis:
        return True
    sr = np.array([model.s_op(r) for r in r_basis])
    rank_sr = _numerical_rank(sr, model.tol.rank * 1e3)
    if rank_sr < len(r_basis):
        return False  # ker(S) meets R nontrivially
    B = model.split.v_basis.matrix
    Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
    srn = sr / np.linalg.norm(sr, axis=1, keepdims=True)
    stacked = np.vstack([Bn, srn])
    return _numerical_rank(stacked, model.tol.rank * 1e3) == Bn.shape[0] + rank_sr


def quasi_exp_subspace(apply_a: Callable[[np.ndarray], np.ndarray],
                       sigma_vectors: Sequence[np.ndarray],
                       max_dim: int = 20, tol: float = 1e-3) -> np.ndarray:
    """Iterated-image subspace of the volatility vectors under the generator.

    Krylov-style: start from the volatility vectors, repeatedly apply the
    generator, orthonormalize, and stop once no new direction appears above
    tol (relative).  Raises DimensionExceeded past max_dim, signalling that
    the volatility is not quasi-exponential at this resolution.
    """
    basis: list[np.ndarray] = []

    def try_add(v: np.ndarray) -> bool:
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            return False
        w = v.copy()
        for _ in range(2):  # modified Gram-Schmidt, twice for stability
            for q in basis:
                w = w - np.dot(q, w) * q
        norm = np.linalg.norm(w)
        if norm <= tol * norm0:
            return False
        basis.append(w / norm)
        return True

    frontier = [np.asarray(v, dtype=float) for v in sigma_vectors]
    while frontier:
        new = []
        for v in frontier:
            if try_add(v):
                if len(basis) > max_dim:
                    raise DimensionExceeded(
                        f"iterated subspace exceeds {max_dim} dimensions")
                new.append(basis[-1])
        frontier = [apply_a(q) for q in new]
    return np.array(basis)


@dataclass(frozen=True)
class QeReport:
    """Outcome of the quasi-exponential affine-state criterion."""

    a_sigma_dim: int
    a_sigma_in_v: bool
    square_vol_constant: bool
    sigma_constant: bool | None = None

    @property
    def ok(self) -> bool:
        extra = True if self.sigma_constant is None else self.sigma_constant
        return self.a_sigma_in_v and self.square_vol_constant and extra


def check_qe_affine(apply_a: Callable[[np.ndarray], np.ndarray],
                    sigma_at: Callable[[np.ndarray], list[np.ndarray]],
                    v_basis_curves: np.ndarray,
                    probe_curves: Sequence[np.ndarray],
                    max_dim: int = 20, tol: float = 1e-3,
                    rank_one_vol: bool = False) -> QeReport:
    """Quasi-exponential criterion for affine admissible subspace realizations.

    Checks that the iterated volatility subspace lies in span V and that the
    squared volatility does not vary along V at any probe curve.  When each
    volatility component spans at most one direction, constancy of the
    squared volatility upgrades to constancy of the volatility itself, which
    is checked directly.
    """
    seeds: list[np.ndarray] = []
    for h in probe_curves:
        seeds.extend(sigma_at(h))
    a_sigma = quasi_exp_subspace(apply_a, seeds, max_dim=max_dim, tol=tol)
    in_v = all(_span_residual(q, v_basis_curves) <= max(tol, 1e-6) for q in a_sigma)

    sq_const = True
    sig_const = True if rank_one_vol else None
    ref_vecs = sigma_at(probe_curves[0])
    ref_sq = _gram(ref_vecs)
    scale = max(1.0, np.abs(ref_sq).max(initial=0.0))
    for h in probe_curves:
        for v in list(v_basis_curves) + [np.zeros_like(h)]:
            vecs = sigma_at(h + v)
            if np.max(np.abs(_gram(vecs) - ref_sq)) > 1e3 * tol * scale:
                sq_const = False
            if rank_one_vol:
                for a, b in zip(vecs, ref_vecs):
                    if np.linalg.norm(a - b) > 1e3 * tol * max(1.0, np.linalg.norm(b)):
                        sig_const = False
    return QeReport(a_sigma_dim=len(a_sigma), a_sigma_in_v=in_v,
                    square_vol_constant=sq_const, sigma_constant=sig_const)


def _gram(vecs: Sequence[np.ndarray]) -> np.ndarray:
    arr = np.array(vecs)
    return arr @ arr.T


def initial_set_coords(h: np.ndarray, model: ModelData) -> tuple[np.ndarray, np.ndarray]:
    """State coordinates of h, and of the projected drift of its G-part."""
    g = model.split.project_g(h)
    return (model.split.v_coords(h),
            model.split.v_coords(model.apply_a(g) + model.s_op(model.sigma_sq_at(g))))


def maximal_initial_membership(h: np.ndarray, model: ModelData) -> tuple[bool, bool]:
    """Membership of a curve in the maximal initial set, and boundary flag.

    A member has its V-part in the state space and the projected drift of
    its boundary part strictly inside; it sits on the boundary of the state
    space when one of its cone coordinates vanishes.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(model.apply_a(h))):
        raise NotInDomain("generator not evaluable on this curve")
    coords, drift_coords = initial_set_coords(h, model)
    m = model.m
    scale = max(1.0, float(np.linalg.norm(coords)))
    if not membership_coords(coords, m, "closed", tol=model.tol.membership * scale):
        return False, False
    interior = membership_coords(drift_coords, m, "interior",
                                 tol=model.tol.membership)
    if not interior:
        return False, False
    on_boundary = bool(np.abs(coords[:m]).min(initial=np.inf) <= 1e3 * model.tol.membership
                       * max(1.0, float(np.linalg.norm(h))))
    return True, on_boundary
