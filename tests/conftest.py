import dataclasses
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from affinefdr.admissibility import AffineDrift, AffineSquareVol, Verdict
from affinefdr.cones import ConeBasis, StateBasis
from affinefdr.curves import Grid, derivative
from affinefdr.errors import DimensionMismatch
from affinefdr.hjmm import SquareRootModel, default_boundary_samples, ker_ell_split
from affinefdr.modelfile import parse_model_text

# CLI subprocesses import the package from this checkout, installed or not
_SRC = str(Path(__file__).resolve().parents[1] / "src")
MODELS = Path(_SRC) / "affinefdr" / "models"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
# and turn warnings into errors, as pytest does in process
os.environ["PYTHONWARNINGS"] = "error"


def traced_peak(fn) -> int:
    """The peak of the bytes traced by tracemalloc, numpy buffers included,
    while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def grid():
    return Grid(10.0, 0.005)


def model_text(name: str, **values) -> str:
    """The text of the bundled NAME.model with each given `key = value` line
    replaced, such as model_text("cir", rho=0.0, dx=0.01)."""
    text = (MODELS / f"{name}.model").read_text(encoding="utf-8")
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert n == 1, f"{name}.model has {n} '{key} =' lines"
    return text


def bundled_model(name: str, **values) -> SquareRootModel:
    """The square-root model of model_text(name, **values)."""
    return parse_model_text(model_text(name, **values)).model


@pytest.fixture(scope="session")
def cir_model():
    return bundled_model("cir")


def perturbed_cir_model(model, vol_curve, boundary_samples=None):
    """A CIR model whose lam is replaced by a non-Riccati curve.

    The state space, the drift-image operator and the volatility are all
    rebuilt around vol_curve, which is how the realizability conditions are
    made to fail.
    """
    split = ker_ell_split(model.grid, model.ell, vol_curve)
    if boundary_samples is None:
        boundary_samples = default_boundary_samples(model.grid, split, 6)
    return dataclasses.replace(model, lam=vol_curve, split=split,
                               boundary_samples=boundary_samples)


def _closed_form_membership(h, model, strict):
    """Member iff ell(h) >= 0 and strict > 0, on a 1e-9 max(1, |h|) band."""
    val = float(model.ell(h))
    tol = 1e-9 * max(1.0, float(np.linalg.norm(h)))
    member = val >= -tol and strict > tol
    return member, member and abs(val) <= tol


def cir_membership(h, model, gamma):
    """Reference CIR initial-set test:
    ell(h) >= 0 and ell(h') + (rho^2 ell(lam Lam) + gamma) ell(h) > 0."""
    coef = model.rho ** 2 * float(model.ell(model.lam * model.lam_capital)) + gamma
    strict = float(model.ell(derivative(h, model.grid))) \
        + coef * max(float(model.ell(h)), 0.0)
    return _closed_form_membership(h, model, strict)


def two_factor_membership(h, model, gamma):
    """Reference two-factor initial-set test: ell(h) >= 0 and ell(h' + gamma h) > 0."""
    strict = float(model.ell(derivative(h, model.grid) + gamma * h))
    return _closed_form_membership(h, model, strict)


def random_state_basis(rng, d_max=5, ambient_extra=3):
    """Well-conditioned random cone-plus-subspace basis.

    Ambient dimension exceeds dim V so that span membership is nontrivial.
    """
    d = int(rng.integers(1, d_max + 1))
    m = int(rng.integers(0, d + 1))
    n = d + int(rng.integers(0, ambient_extra + 1))
    while True:
        mat = rng.standard_normal((d, n))
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] > 0.1 * sv[0]:
            break
    cone = ConeBasis(mat[:m].reshape(m, n))
    return StateBasis(cone, subspace=mat[m:].reshape(d - m, n))


def admissible_drift_coeffs(rng, m, d):
    """Coefficients satisfying the inward-pointing characterization."""
    beta1 = rng.standard_normal(d)
    beta1[:m] = np.abs(beta1[:m])
    beta2 = rng.standard_normal((d, d))
    for j in range(m):
        col = beta2[:m, j]
        keep = col[j]
        beta2[:m, j] = np.abs(col)
        beta2[j, j] = keep  # diagonal unconstrained
    beta2[:m, m:] = 0.0
    return beta1, beta2


def violate_drift_coeffs(rng, m, d, beta1, beta2):
    """Flip one admissible coefficient into a detectable violation.

    Returns the violated pair, or None when the split has no cone part.
    """
    if m == 0:
        return None
    b1, b2 = beta1.copy(), beta2.copy()
    kind = rng.integers(0, 3 if d > m else 2)
    i = int(rng.integers(0, m))
    mag = float(rng.uniform(0.5, 2.0))
    if kind == 0:
        b1[i] = -mag
    elif kind == 1 and m > 1:
        j = int(rng.integers(0, m))
        while j == i:
            j = int(rng.integers(0, m))
        b2[i, j] = -mag
    elif kind == 1:
        b1[i] = -mag
    else:
        u = int(rng.integers(m, d))
        b2[i, u] = mag
    return b1, b2


def parallel_sqvol_coeffs(rng, m, d):
    """Coefficients satisfying the boundary-parallel characterization.

    t1 is PSD and vanishes on the cone columns; each cone-edge slope matrix
    only loads the edge's own column and the subspace block; subspace slopes
    vanish.  The resulting family is PSD-valued near the cone, which is the
    regime where the exact and sampled characterizations coincide.
    """
    t1 = np.zeros((d, d))
    if d > m:
        a = rng.standard_normal((d - m, d - m))
        t1[m:, m:] = a @ a.T
    t2 = np.zeros((d, d, d))
    for k in range(m):
        t2[k, k, k] = float(rng.uniform(0.0, 2.0))
        if d > m:
            row = rng.standard_normal(d - m)
            t2[k, k, m:] = row
            t2[k, m:, k] = row
            b = rng.standard_normal((d - m, d - m))
            t2[k, m:, m:] = b + b.T
    return t1, t2


def violate_sqvol_coeffs(rng, m, d, t1, t2):
    """Inject one violation visible to boundary-pair sampling.

    All injected mass sits in the cone block, where the quadratic form of a
    boundary pair can see it; returns None when the split has no cone part.
    """
    if m == 0:
        return None
    t1v, t2v = t1.copy(), t2.copy()
    mag = float(rng.uniform(0.5, 2.0))
    kind = rng.integers(0, 3 if d > m else 2)
    j = int(rng.integers(0, m))
    if kind == 0:
        t1v[j, j] += mag  # PSD preserved, cone column violated
    elif kind == 1 and m > 1:
        k = int(rng.integers(0, m))
        j = int(rng.integers(0, m))
        while j == k:
            j = int(rng.integers(0, m))
        t2v[k, j, j] += mag
    elif kind == 1:
        t1v[j, j] += mag
    else:
        u = int(rng.integers(m, d))
        t2v[u, j, j] += mag
    return t1v, t2v


def riccati_rk4(grid: Grid, rho: float, gamma: float, substeps: int = 4) -> np.ndarray:
    """Classical Runge-Kutta reference integration of the Riccati equation."""

    def f(y):
        return 1.0 - (rho * rho / 2.0) * y * y - gamma * y

    out = np.empty(grid.n)
    out[0] = 0.0
    h = grid.dx / substeps
    y = 0.0
    for i in range(1, grid.n):
        for _ in range(substeps):
            k1 = f(y)
            k2 = f(y + h / 2 * k1)
            k3 = f(y + h / 2 * k2)
            k4 = f(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i] = y
    return out


def _sample_boundary_pairs(m: int, d: int, n_samples: int, rng: np.random.Generator):
    """Random (v, eta) with v in the state space, eta in the cone, <v,eta>_V = 0.

    The support of eta is a random edge subset; v's cone coordinates on that
    subset are zero.  v is drawn with a log-uniform scale so violations that
    only appear far from the origin are caught.
    """
    if m == 0:
        return None, None
    mask = rng.random((n_samples, m)) < 0.5
    empty = ~mask.any(axis=1)
    mask[empty, rng.integers(0, m, size=int(empty.sum()))] = True
    eta = rng.random((n_samples, m)) * mask
    zero_eta = eta.sum(axis=1) == 0.0
    eta[zero_eta] += mask[zero_eta] * 0.5
    scale = 10.0 ** rng.uniform(-1.0, 3.0, size=(n_samples, 1))
    v = np.zeros((n_samples, d))
    v[:, :m] = rng.random((n_samples, m)) * (~mask) * scale
    if d > m:
        v[:, m:] = rng.uniform(-1.0, 1.0, size=(n_samples, d - m)) * scale
    return v, eta


def brute_force_inward(drift: AffineDrift, basis: StateBasis, n_samples: int = 10_000,
                       rng: np.random.Generator | None = None,
                       tol: float = 1e-7) -> Verdict:
    """Definition-level sampling oracle for the inward-pointing property."""
    rng = np.random.default_rng(0) if rng is None else rng
    d, m = basis.dim_v, basis.m
    if drift.dim != d:
        raise DimensionMismatch("drift does not match basis")
    v, eta = _sample_boundary_pairs(m, d, n_samples, rng)
    if v is None:
        return Verdict(ok=True)
    beta = drift.beta1[None, :] + v @ drift.beta2.T
    vals = np.einsum("ij,ij->i", beta[:, :m], eta)
    norms = np.linalg.norm(beta, axis=1) * np.linalg.norm(eta, axis=1)
    bad = np.where(vals < -tol * np.maximum(norms, 1.0))[0]
    if bad.size == 0:
        return Verdict(ok=True)
    i = int(bad[np.argmin(vals[bad] / np.maximum(norms[bad], 1.0))])
    return Verdict(ok=False, witnesses=((("beta-inv", (v[i], eta[i]), float(-vals[i]))),))


def brute_force_parallel(sqvol: AffineSquareVol, basis: StateBasis,
                         n_samples: int = 10_000,
                         rng: np.random.Generator | None = None,
                         tol: float = 1e-7) -> Verdict:
    """Definition-level sampling oracle for the boundary-parallel property."""
    rng = np.random.default_rng(0) if rng is None else rng
    d, m = basis.dim_v, basis.m
    if sqvol.dim != d:
        raise DimensionMismatch("squared volatility does not match basis")
    v, eta = _sample_boundary_pairs(m, d, n_samples, rng)
    if v is None:
        return Verdict(ok=True)
    eta_full = np.zeros((v.shape[0], d))
    eta_full[:, :m] = eta
    tv = sqvol.t1[None, :, :] + np.tensordot(v, sqvol.t2, axes=(1, 0))
    vals = np.einsum("nij,nj,ni->n", tv, eta_full, eta_full)
    scale = np.maximum(np.abs(tv).max(axis=(1, 2)) * (eta * eta).sum(axis=1), 1.0)
    bad = np.where(np.abs(vals) > tol * scale)[0]
    if bad.size == 0:
        return Verdict(ok=True)
    i = int(bad[np.argmax(np.abs(vals[bad]) / scale[bad])])
    return Verdict(ok=False, witnesses=((("sigma-inv", (v[i], eta[i]), float(abs(vals[i])))),))


def gathered_oracle(model: SquareRootModel, h0: np.ndarray, n: int):
    """Reference fixed data of the direct scheme, gathered through an index array.

    Returns (basis, ell_basis, ell_h0, tail): row pair j of basis is
    S^(n-1-j) D, S^(n-1-j) L with D = lam Lam and L = lam, ell_h0[i] is
    ell(S^i h0), and tail is S^n h0.  S moves one node per step.
    """
    grid = model.grid
    # row i gathers S^i: node m reads node min(m + i, last)
    idx = np.minimum(np.arange(grid.n) + np.arange(n + 1)[:, None], grid.n - 1)
    basis = np.empty((2 * n, grid.n))
    basis[0::2] = (model.lam * model.lam_capital)[idx[n - 1::-1]]
    basis[1::2] = model.lam[idx[n - 1::-1]]
    return basis, np.array(model.ell(basis)), np.array(model.ell(h0[idx])), h0[idx[n]]
