"""Executable realizability checks for SPDEs with volatility-structured drift.

The checks certify, on a finite sample of boundary curves, that a model of
the form  dr = (A r + S sigma^2(r)) dt + sigma(r) dW  admits an affine
realization on a cone-plus-subspace state space with affine and admissible
state processes.  Universally quantified conditions over the boundary set
are verified on the supplied samples; the report says so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import admissibility as adm
from .admissibility import AffineSquareVol
from .cones import membership_coords
from .errors import AffineFdrError, DimensionExceeded, NotInDomain

if TYPE_CHECKING:
    from .hjmm import SquareRootModel


# numerical bands; the span band is the model's span_tol
MEMBERSHIP_TOL = 1e-9  # band for cone-coordinate sign tests
AFFINE_TOL = 1e-6      # relative residual for affine fits
RANK_TOL = 1e-9        # relative singular-value cutoff


def fit_boundary_square_vol(model: SquareRootModel, g: np.ndarray) -> AffineSquareVol:
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
    return adm.fit_affine_square(samples, basis, tol=AFFINE_TOL)


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


def check_thm_main2(model: SquareRootModel) -> RealizabilityReport:
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
    results: list[ConditionResult] = []
    for idx, (g, sqvol) in enumerate(zip(model.boundary_samples, model.boundary_fits)):
        tag = f"g[{idx}]"
        if isinstance(sqvol, AffineFdrError):
            results.append(ConditionResult("sigma-affine-parallel", False, f"{tag}: {sqvol}"))
            continue
        par = adm.is_parallel(sqvol, basis, tol=MEMBERSHIP_TOL)
        results.append(ConditionResult("sigma-affine-parallel", par.ok,
                                       _detail(tag, par.witnesses)))

        beta1 = model.split.v_coords(model.apply_a(g) + model.s_op(sqvol.t1))
        images = np.array([model.apply_a(b) + model.s_op(t) for b, t in zip(B, sqvol.t2)]).T
        beta2, resid = basis.fit(images)
        norms = np.linalg.norm(images, axis=0)
        off_v = np.linalg.norm(resid, axis=0) / np.where(norms > 0, norms, 1.0)
        found = {name: [] for name in ("cond-AR-1", "cond-AR-2", "cond-AR-3", "beta-inc-V")}
        for k in np.flatnonzero(off_v > model.span_tol):
            witness = ("off-V", int(k), float(off_v[k]), model.span_tol)
            found["beta-inc-V"].append(witness)
            found["cond-AR-2" if k < basis.m else "cond-AR-3"].append(witness)
        drift = adm.AffineDrift(beta1, beta2)
        for name, index, mag in adm.is_inward_pointing(drift, basis, tol=0.0).witnesses:
            cond = {"nu-1": "cond-AR-1", "nu-2-C": "cond-AR-2", "nu-2-U": "cond-AR-3"}[name]
            coords = beta1 if name == "nu-1" else beta2[:, index[0]]
            # a subspace leak into the cone is a stencil error of A: span band
            band = (model.span_tol if name == "nu-2-U" else MEMBERSHIP_TOL) \
                * max(1.0, float(np.linalg.norm(coords)))
            if mag > band:
                found[cond].append((name, index, mag, band))
        results.extend(ConditionResult(name, not ws, _detail(tag, ws))
                       for name, ws in found.items())
    return RealizabilityReport(tuple(results))


def compute_k(model: SquareRootModel) -> tuple[np.ndarray, ...]:
    """Basis of K, the symmetric matrices in span R that S maps into span V,
    by a nullspace construction."""
    r_basis = model.r_basis
    if not r_basis:
        return ()
    _, M = model.split.v_basis.fit(np.array([model.s_op(r) for r in r_basis]).T)  # ambient x nR
    # the thin SVD skips the ambient x ambient U; with nR <= ambient it has
    # the same s and vt, otherwise vt must be square for the nullspace rows
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[1] > M.shape[0])
    scale = max(float(s[0]) if s.size else 0.0, 1e-30)
    in_null = np.ones(len(r_basis), dtype=bool)
    in_null[: s.size] = s <= model.span_tol * scale
    return tuple(sum(ci * ri for ci, ri in zip(c, r_basis)) for c in vt[in_null])


def check_const_mod_k(model: SquareRootModel) -> bool:
    """Whether the boundary dependence of the squared volatility lies in K.

    For all pairs of boundary samples and all basis directions, the
    difference of the fitted linear parts must lie in span K.
    """
    kspace = compute_k(model)
    fits = model.boundary_fits
    for fit in fits:
        if isinstance(fit, AffineFdrError):
            raise fit
    if len(fits) < 2:
        return True
    kmat = np.array([k.ravel() for k in kspace]) if kspace else None
    ref = fits[0]
    for other in fits[1:]:
        for i in range(model.split.v_basis.dim_v):
            diff = (other.t2[i] - ref.t2[i]).ravel()
            norm = np.linalg.norm(diff)
            if norm <= model.span_tol * max(1.0, np.abs(ref.t2).max()):
                continue
            if kmat is None:
                return False
            coef, *_ = np.linalg.lstsq(kmat.T, diff, rcond=None)
            if np.linalg.norm(diff - kmat.T @ coef) > model.span_tol * norm:
                return False
    return True


def _numerical_rank(mat: np.ndarray, rel_tol: float) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > rel_tol * s[0]))


def check_damir(model: SquareRootModel) -> bool:
    """Both intersection conditions: V and S(R) meet only at 0, and S is
    injective on R."""
    r_basis = model.r_basis
    if not r_basis:
        return True
    sr = np.array([model.s_op(r) for r in r_basis])
    rank_sr = _numerical_rank(sr, RANK_TOL * 1e3)
    if rank_sr < len(r_basis):
        return False  # ker(S) meets R nontrivially
    B = model.split.v_basis.matrix
    Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
    srn = sr / np.linalg.norm(sr, axis=1, keepdims=True)
    stacked = np.vstack([Bn, srn])
    return _numerical_rank(stacked, RANK_TOL * 1e3) == Bn.shape[0] + rank_sr


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


def initial_set_coords(h: np.ndarray, model: SquareRootModel) -> tuple[np.ndarray, np.ndarray]:
    """State coordinates of h, and of the projected drift of its G-part."""
    g = model.split.project_g(h)
    return (model.split.v_coords(h),
            model.split.v_coords(model.apply_a(g) + model.s_op(model.sigma_sq_at(g))))


def maximal_initial_membership(h: np.ndarray, model: SquareRootModel) -> tuple[bool, bool]:
    """Membership of a curve in the maximal initial set, and boundary flag.

    A member has its V-part in the state space and the projected drift of
    its boundary part strictly inside; it sits on the boundary of the state
    space when one of its cone coordinates vanishes.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(model.apply_a(h))):
        raise NotInDomain("generator not evaluable on this curve")
    coords, drift_coords = initial_set_coords(h, model)
    m = model.split.v_basis.m
    scale = max(1.0, float(np.linalg.norm(coords)))
    if not membership_coords(coords, m, "closed", tol=MEMBERSHIP_TOL * scale):
        return False, False
    interior = membership_coords(drift_coords, m, "interior",
                                 tol=MEMBERSHIP_TOL)
    if not interior:
        return False, False
    on_boundary = bool(np.abs(coords[:m]).min(initial=np.inf) <= 1e3 * MEMBERSHIP_TOL
                       * max(1.0, float(np.linalg.norm(h))))
    return True, on_boundary
