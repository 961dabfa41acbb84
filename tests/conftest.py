import numpy as np
import pytest

from affinefdr.cones import ConeBasis, StateBasis
from affinefdr.curves import Grid, derivative
from affinefdr.hjmm import CirModel


@pytest.fixture(scope="session")
def grid():
    return Grid(10.0, 0.005)


@pytest.fixture(scope="session")
def cir_model(grid):
    return CirModel(grid, 0.1, 0.05)


def _closed_form_membership(h, model, strict):
    """Member iff ell(h) >= 0 and strict > 0, on a 1e-9 max(1, |h|) band."""
    val = float(model.ell_of(h))
    tol = 1e-9 * max(1.0, float(np.linalg.norm(h)))
    member = val >= -tol and strict > tol
    return member, member and abs(val) <= tol


def cir_membership(h, model):
    """Reference CIR initial-set test:
    ell(h) >= 0 and ell(h') + (rho^2 ell(lam Lam) + gamma) ell(h) > 0."""
    coef = model.rho ** 2 * float(model.ell_of(model.lam * model.lam_capital)) + model.gamma
    strict = float(model.ell_of(derivative(h, model.grid))) \
        + coef * max(float(model.ell_of(h)), 0.0)
    return _closed_form_membership(h, model, strict)


def two_factor_membership(h, model):
    """Reference two-factor initial-set test: ell(h) >= 0 and ell(h' + gamma h) > 0."""
    strict = float(model.ell_of(derivative(h, model.grid) + model.gamma * h))
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
