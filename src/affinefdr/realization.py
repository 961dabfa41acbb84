"""Executable realizability checks for SPDEs with volatility-structured drift.

The checks certify, on a finite sample of boundary curves, that a model of
the form  dr = (A r + S sigma^2(r)) dt + sigma(r) dW  admits an affine
realization on a cone-plus-subspace state space with affine and admissible
state processes.  Universally quantified conditions over the boundary set
are verified on the supplied samples; the report says so explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import admissibility as adm
from .admissibility import AffineSquareVol
from .cones import membership_coords, relative_norm
from .errors import AffineFdrError, DimensionExceeded, NotAffine, NotInDomain

if TYPE_CHECKING:
    from .hjmm import SquareRootModel


# numerical bands; the span band is the model's span_tol
MEMBERSHIP_TOL = 1e-9  # band for cone-coordinate sign tests
AFFINE_TOL = 1e-6      # relative residual for affine fits
QE_TOL = 1e-3          # relative norm of a new direction in quasi_exp_subspace


@functools.lru_cache(maxsize=None)
def _boundary_design(d: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The perturbations v (one per row) of a state space with d directions,
    m of them cone edges; the design matrix [1, v_cone] of the affine fit;
    and its pseudo-inverse.  All three are read-only."""
    vs = np.vstack([np.zeros(d), *(t * e for e in np.eye(d) for t in (0.5, 1.0))])
    design = np.hstack([np.ones((len(vs), 1)), vs[:, :m]])
    out = vs, design, np.linalg.pinv(design)
    for arr in out:
        arr.flags.writeable = False
    return out


def fit_boundary_square_vol(model: SquareRootModel, g: np.ndarray) -> tuple[float, np.ndarray]:
    """Affine fit s0 + s @ v of v -> amp^2(g + v), so sigma^2(g + v) is
    (s0 + s @ v) c c^T.

    Perturbation steps t in {0, 1/2, 1} along each basis direction; three
    collinear points also detect non-affinity.  The slope vanishes on
    subspace directions.  A residual above AFFINE_TOL times the data scale
    raises NotAffine; both are reported in entries of sigma^2.
    """
    basis = model.split.v_basis
    d, m = basis.dim_v, basis.m
    vs, design, design_pinv = _boundary_design(d, m)
    amp = np.array([model.amp_sq(g + v @ basis.matrix) for v in vs])
    coef = design_pinv @ amp
    entry = np.abs(model.cc).max(initial=0.0)
    resid = np.abs(design @ coef - amp).max() * entry
    scale = max(np.abs(amp).max() * entry, 1e-30)
    if resid > AFFINE_TOL * scale:
        raise NotAffine(f"max residual {resid:.3e} exceeds {AFFINE_TOL:.1e} x scale {scale:.3e}")
    return float(coef[0]), np.concatenate([coef[1:], np.zeros(d - m)])


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

    Per sample g the squared amplitude must fit affinely, amp^2(g + v) =
    s0 + s @ v, and T1 = s0 c c^T, T2[k] = s_k c c^T must be parallel
    (adm.is_parallel); the coordinate drift v -> beta1 + beta2 v of
    A + S sigma_g^2 must stay in V and point inward (adm.is_inward_pointing).
    beta1 holds the V-coordinates of A g + s0 S(c c^T), column k of beta2 the
    least-squares V-coordinates of A b_k + s_k S(c c^T).  The inward-pointing
    witnesses above their bands are reported under the realizability names:
    nu-1 as cond-AR-1, nu-2-C as cond-AR-2 and nu-2-U as cond-AR-3.  A column
    off V fails beta-inc-V and the condition of its edge or subspace
    direction.  One failing fit never aborts the report.
    """
    basis = model.split.v_basis
    a_basis = model.apply_a(basis.matrix)  # the same for every sample
    results: list[ConditionResult] = []
    for idx, (g, fit) in enumerate(zip(model.boundary_samples, model.boundary_fits)):
        tag = f"g[{idx}]"
        try:
            if isinstance(fit, AffineFdrError):
                raise fit
            s0, s = fit
            par = adm.is_parallel(AffineSquareVol(s0 * model.cc, np.multiply.outer(s, model.cc)),
                                  basis, tol=MEMBERSHIP_TOL)
        except AffineFdrError as exc:
            results.append(ConditionResult("sigma-affine-parallel", False, f"{tag}: {exc}"))
            continue
        results.append(ConditionResult("sigma-affine-parallel", par.ok,
                                       _detail(tag, par.witnesses)))

        beta1 = model.split.v_coords(model.apply_a(g) + s0 * model.s_cc)
        images = (a_basis + np.multiply.outer(s, model.s_cc)).T
        beta2, resid = basis.fit(images)
        off_v = relative_norm(resid, images)
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
    """Basis of K, the matrices r in R that S maps into span V.

    R is at most the line of c c^T, so K is R when S(c c^T) lies in span V
    within span_tol, and trivial otherwise.
    """
    in_v = model.split.v_basis.off_span(model.s_cc) <= model.span_tol
    return tuple(model.r_basis) if in_v else ()


def check_const_mod_k(model: SquareRootModel) -> bool:
    """Whether the boundary dependence of the squared volatility lies in K.

    Every fitted T2[k] = s_k c c^T is a multiple of c c^T, which spans R.  So
    the check holds when K = R; when K is trivial, the T2 of all boundary
    samples must agree with the first's: |s_k - s_ref,k| |c c^T|_F within
    span_tol max(1, max |s_ref| max |c c^T|).  A failed fit makes it false.
    """
    fits = model.boundary_fits
    if any(isinstance(fit, AffineFdrError) for fit in fits):
        return False
    if not fits or compute_k(model):
        return True
    ref = fits[0][1]
    entry = np.abs(model.cc).max(initial=0.0)
    band = model.span_tol * max(1.0, np.abs(ref).max() * entry)
    return all(np.abs(s - ref).max() * np.linalg.norm(model.cc) <= band for _, s in fits[1:])


def check_damir(model: SquareRootModel) -> bool:
    """Both intersection conditions: V and S(R) meet only at 0, and S is
    injective on R.

    A nonzero r in R breaks one of them exactly when S r lies in span V,
    which counts S r = 0, so both hold exactly when K is trivial.
    """
    return not compute_k(model)


def quasi_exp_subspace(apply_a: Callable[[np.ndarray], np.ndarray],
                       sigma_vectors: Sequence[np.ndarray],
                       max_dim: int = 20) -> np.ndarray:
    """Iterated-image subspace of the volatility vectors under the generator.

    Krylov-style: start from the volatility vectors, repeatedly apply the
    generator, orthonormalize, and stop once no new direction appears above
    QE_TOL (relative).  Raises DimensionExceeded past max_dim, signalling that
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
        if norm <= QE_TOL * norm0:
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
            model.split.v_coords(model.apply_a(g) + model.amp_sq(g) * model.s_cc))


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
