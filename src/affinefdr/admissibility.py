"""Affine drift and squared-volatility maps, and their admissibility checks.

All coefficient data lives in coordinates of the normed state basis: the
first m coordinates belong to the cone edges, the rest to the complementary
subspace.  In these coordinates the cone-induced inner product is the
standard dot product, the edges are the first m unit vectors, and the
characterizations of inward-pointing drift and boundary-parallel volatility
become finite sign and kernel conditions on the coefficient matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import DEFAULT_TOL, StateBasis
from .errors import (
    BasisNotExtension,
    DimensionMismatch,
    NotSymmetric,
    NotSymmetricNonnegative,
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an admissibility check with violation witnesses."""

    ok: bool
    witnesses: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class AffineDrift:
    """Affine drift v -> beta1 + beta2 @ v in state-basis coordinates."""

    beta1: np.ndarray
    beta2: np.ndarray

    def __post_init__(self):
        b1 = np.asarray(self.beta1, dtype=float)
        b2 = np.asarray(self.beta2, dtype=float)
        if b2.shape != (b1.size, b1.size):
            raise DimensionMismatch("beta2 must be square and match beta1")
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
            raise ValueError("non-finite drift coefficients")
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)

    @property
    def dim(self) -> int:
        return self.beta1.size

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.beta1 + self.beta2 @ np.asarray(v, dtype=float)


@dataclass(frozen=True)
class AffineSquareVol:
    """Affine squared volatility v -> t1 + sum_k v_k * t2[k] (symmetric matrices)."""

    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self):
        t1 = np.asarray(self.t1, dtype=float)
        t2 = np.asarray(self.t2, dtype=float)
        d = t1.shape[0]
        if t1.shape != (d, d) or t2.shape != (d, d, d):
            raise DimensionMismatch("t1 must be d x d and t2 d x d x d")
        scale = max(1.0, np.abs(t1).max(initial=0.0))
        if np.max(np.abs(t1 - t1.T)) > 1e-12 * scale:
            raise NotSymmetric("t1 is not symmetric")
        if t1.size and np.min(np.linalg.eigvalsh((t1 + t1.T) / 2.0)) < -1e-8 * scale:
            raise NotSymmetricNonnegative("t1 has a negative eigenvalue")
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)

    @property
    def dim(self) -> int:
        return self.t1.shape[0]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self.t1 + np.tensordot(v, self.t2, axes=(0, 0))


@dataclass(frozen=True)
class VolMatrix:
    """Coordinates of n volatility vectors in the state basis, one per row."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite volatility entries")
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def sigma_square(vol: VolMatrix) -> np.ndarray:
    """Squared volatility matrix: transpose(sigma) @ sigma; symmetric PSD."""
    return vol.entries.T @ vol.entries


def embed_sigma_square(vol: VolMatrix, bigger_basis: StateBasis,
                       original_basis: StateBasis) -> np.ndarray:
    """Squared volatility in an extended basis: block [[sigma^2, 0], [0, 0]].

    The extended basis must start with the original basis vectors.
    """
    d = original_basis.dim_v
    p = bigger_basis.dim_v
    if p < d:
        raise BasisNotExtension("extended basis is smaller than the original")
    if not np.allclose(bigger_basis.matrix[:d], original_basis.matrix, atol=1e-10):
        raise BasisNotExtension("extended basis does not start with the original basis")
    if vol.cols != d:
        raise DimensionMismatch("volatility coordinates do not match the original basis")
    out = np.zeros((p, p))
    out[:d, :d] = sigma_square(vol)
    return out


def is_inward_pointing(drift: AffineDrift, basis: StateBasis,
                       tol: float = DEFAULT_TOL) -> Verdict:
    """Exact characterization of inward-pointing affine drift.

    Requires (a) the constant part in the state space, (b) each edge image
    in the cone widened by the edge's own line, (c) the subspace invariant.
    Each witness carries its magnitude: nu-1 (edge i of beta1), nu-2-C
    (column j, row i of an edge column) and nu-2-U (column j, row i of a
    subspace column).
    """
    d, m = basis.dim_v, basis.m
    if drift.dim != d:
        raise DimensionMismatch(f"drift dimension {drift.dim} != basis dimension {d}")
    b1, b2 = drift.beta1, drift.beta2
    witnesses = [("nu-1", int(i), float(-b1[i])) for i in np.flatnonzero(b1[:m] < -tol)]
    for j in range(d):
        col = b2[:m, j]
        if j < m:
            witnesses += [("nu-2-C", (j, int(i)), float(-col[i]))
                          for i in np.flatnonzero(col < -tol) if i != j]
        else:
            witnesses += [("nu-2-U", (j, int(i)), float(abs(col[i])))
                          for i in np.flatnonzero(np.abs(col) > tol)]
    return Verdict(ok=not witnesses, witnesses=tuple(witnesses))


def is_parallel(sqvol: AffineSquareVol, basis: StateBasis,
                tol: float = DEFAULT_TOL) -> Verdict:
    """Exact characterization of boundary-parallel affine squared volatility."""
    d = basis.dim_v
    m = basis.m
    if sqvol.dim != d:
        raise DimensionMismatch(f"squared-vol dimension {sqvol.dim} != basis dimension {d}")
    scale = max(1.0, np.abs(sqvol.t1).max(), np.abs(sqvol.t2).max())
    for k in range(m):
        tk = sqvol.t2[k]
        if np.max(np.abs(tk - tk.T)) > 1e3 * tol * scale:
            raise NotSymmetric(f"t2[{k}] is not symmetric")
    witnesses = []
    for j in range(m):
        col = sqvol.t1[:, j]
        mag = float(np.max(np.abs(col), initial=0.0))
        if mag > tol * scale:
            witnesses.append(("C-ker-T1", int(j), mag))
    for k in range(m, d):
        mag = float(np.abs(sqvol.t2[k]).max(initial=0.0))
        if mag > tol * scale:
            witnesses.append(("U-ker-T2", int(k), mag))
    for k in range(m):
        tk = sqvol.t2[k]
        for j in range(m):
            if j == k:
                continue
            mag = float(np.max(np.abs(tk[:, j]), initial=0.0))
            if mag > tol * scale:
                witnesses.append(("T2-c", (int(k), int(j)), mag))
    return Verdict(ok=not witnesses, witnesses=tuple(witnesses))


def symmetric_kernel_equivalences(T: np.ndarray, basis: StateBasis,
                                  tol: float = DEFAULT_TOL,
                                  n_samples: int = 64,
                                  rng: np.random.Generator | None = None) -> dict:
    """Evaluate the six equivalent kernel conditions for a symmetric PSD matrix.

    The conditions range from the quadratic form vanishing on the edges to
    the cone span lying in the kernel; for a genuinely symmetric nonnegative
    matrix they must all agree.
    """
    T = np.asarray(T, dtype=float)
    d = basis.dim_v
    m = basis.m
    if T.shape != (d, d):
        raise DimensionMismatch("matrix does not match the state basis")
    scale = max(1.0, np.abs(T).max())
    if np.max(np.abs(T - T.T)) > 1e3 * tol * scale:
        raise NotSymmetricNonnegative("matrix is not symmetric")
    if np.min(np.linalg.eigvalsh((T + T.T) / 2.0)) < -1e3 * tol * scale:
        raise NotSymmetricNonnegative("matrix has a negative eigenvalue")
    rng = np.random.default_rng(0) if rng is None else rng
    band = tol * scale

    edges_q = all(abs(T[j, j]) <= band for j in range(m))
    if m > 0:
        cs = rng.standard_normal((n_samples, m))
        cvecs = np.zeros((n_samples, d))
        cvecs[:, :m] = cs
        quad = np.einsum("ij,jk,ik->i", cvecs, T, cvecs)
        span_q = bool(np.max(np.abs(quad), initial=0.0) <= band * np.max(
            np.einsum("ij,ij->i", cvecs, cvecs), initial=1.0))
    else:
        span_q = True
    c_into_u = all(np.max(np.abs(T[:m, j]), initial=0.0) <= band for j in range(m))
    c_in_ker = all(np.max(np.abs(T[:, j]), initial=0.0) <= band for j in range(m))
    u_inv = all(np.max(np.abs(T[:m, k]), initial=0.0) <= band for k in range(m, d))
    return {
        "edges_quadratic_zero": edges_q,
        "span_quadratic_zero": span_q,
        "cone_mapped_into_subspace": c_into_u,
        "subspace_invariant_and_cone_in_kernel": bool(u_inv and c_in_ker),
        "cone_span_in_kernel": c_in_ker,
        "edges_in_kernel": c_in_ker,
    }

