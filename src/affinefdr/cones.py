"""Finite-dimensional geometry of proper convex cones.

A proper cone is described by linearly independent generators; together with
a complementary subspace it spans the state space V.  The cone induces an
inner product on V under which a normed generator set is orthonormal on the
cone span while the subspace keeps the ambient inner product.  All vectors
are coordinates in a user-declared ambient orthonormal frame, so ambient
inner products are plain dot products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasis, NotAnEdge, NotInV

DEFAULT_TOL = 1e-9


def _as_matrix(vectors, dim=None) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))
    if arr.size == 0 and arr.shape[0] != 0:
        arr = arr.reshape(0, arr.shape[-1])
    if arr.size == 0 and dim is not None and arr.shape[1] == 0:
        arr = arr.reshape(0, dim)
    return arr


@dataclass(frozen=True)
class ConeBasis:
    """Generators of a proper convex cone, one per row."""

    generators: np.ndarray

    def __post_init__(self):
        gens = _as_matrix(self.generators)
        object.__setattr__(self, "generators", gens)
        if self.m > 0:
            norms = np.linalg.norm(gens, axis=1)
            if np.any(norms == 0.0) or not np.all(np.isfinite(gens)):
                raise DegenerateBasis("zero or non-finite generator")
            if np.linalg.matrix_rank(gens, tol=DEFAULT_TOL * max(norms)) < self.m:
                raise DegenerateBasis("generators are linearly dependent")

    @property
    def m(self) -> int:
        return self.generators.shape[0]

    @property
    def dim(self) -> int:
        return self.generators.shape[1]


def normalize_basis(cone: ConeBasis) -> ConeBasis:
    """Rescale each generator to unit Euclidean length; conic hull unchanged."""
    return ConeBasis(cone.generators / np.linalg.norm(cone.generators, axis=1, keepdims=True))


def edges(cone: ConeBasis) -> list[np.ndarray]:
    """The edge rays of the cone, as unit vectors.

    The result is invariant (as a set) under permutation and positive
    rescaling of the input generators.
    """
    return list(normalize_basis(cone).generators)


def _edge_index(cone: ConeBasis, c: np.ndarray, tol: float) -> int:
    """Index of the edge containing c, or -1 for c = 0."""
    c = np.asarray(c, dtype=float)
    nc = np.linalg.norm(c)
    if nc <= tol:
        return -1
    unit = c / nc
    for j, e in enumerate(edges(cone)):
        if np.linalg.norm(unit - e) <= max(tol, 1e-7):
            return j
    raise NotAnEdge("vector is neither zero nor on an edge of the cone")


def cone_minus(cone: ConeBasis, c: np.ndarray) -> ConeBasis:
    """The cone generated by all edges except the one containing c.

    For c = 0 the cone is returned unchanged.
    """
    j = _edge_index(cone, c, DEFAULT_TOL)
    if j < 0:
        return cone
    keep = [i for i in range(cone.m) if i != j]
    return ConeBasis(cone.generators[keep].reshape(len(keep), cone.dim))


@dataclass(frozen=True)
class StateBasis:
    """State space V = C + U: a cone span plus a complementary subspace.

    matrix stacks the normed cone generators and the subspace vectors
    (dim_v rows); it is built once and read-only.
    """

    cone: ConeBasis
    subspace: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sub = _as_matrix(self.subspace, dim=self.cone.dim)
        if sub.shape[0] == 0:
            sub = sub.reshape(0, self.cone.dim)
        object.__setattr__(self, "subspace", sub)
        if sub.shape[1] != self.cone.dim and sub.shape[0] > 0:
            raise DegenerateBasis("subspace vectors have wrong ambient dimension")
        if self.dim_v < 1:
            raise DegenerateBasis("state space must have dimension >= 1")
        full = np.vstack([normalize_basis(self.cone).generators, sub])
        full.flags.writeable = False
        object.__setattr__(self, "matrix", full)
        scale = max(np.linalg.norm(full, axis=1).max(), 1.0)
        if np.linalg.matrix_rank(full, tol=DEFAULT_TOL * scale) < self.dim_v:
            raise DegenerateBasis("cone generators and subspace are linearly dependent")

    @property
    def m(self) -> int:
        return self.cone.m

    @property
    def dim_u(self) -> int:
        return self.subspace.shape[0]

    @property
    def dim_v(self) -> int:
        return self.m + self.dim_u

    @property
    def ambient_dim(self) -> int:
        return self.cone.dim

    def fit(self, curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares coordinates in this basis, and the residual off span V.

        curves is one ambient vector or vectors stacked as columns; the
        coordinates and residuals keep that layout.
        """
        curves = np.asarray(curves, dtype=float)
        coords, *_ = np.linalg.lstsq(self.matrix.T, curves, rcond=None)
        return coords, curves - self.matrix.T @ coords


def coordinates(x: np.ndarray, basis: StateBasis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of x in the normed-cone / subspace basis of V.

    A least-squares residual above tolerance means x is not in span V.
    """
    coef, resid = basis.fit(x)
    resid = np.linalg.norm(resid)
    if resid > tol * max(1.0, np.linalg.norm(x)):
        raise NotInV(f"residual {resid:.3e} above tolerance")
    return coef


def inner_v(x: np.ndarray, y: np.ndarray, basis: StateBasis) -> float:
    """Cone-induced inner product on V.

    Sum of products of normed-cone coordinates plus the ambient inner
    product of the subspace components; C and U are orthogonal.
    """
    cx = coordinates(x, basis)
    cy = coordinates(y, basis)
    m = basis.m
    cone_part = float(cx[:m] @ cy[:m])
    ux = basis.subspace.T @ cx[m:] if basis.dim_u else 0.0
    uy = basis.subspace.T @ cy[m:] if basis.dim_u else 0.0
    u_part = float(np.dot(ux, uy)) if basis.dim_u else 0.0
    return cone_part + u_part


def membership(x: np.ndarray, basis: StateBasis, mode: str = "closed",
               shift: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> bool:
    """Set test for x against the cone-plus-subspace state space.

    mode "closed" tests cone coordinates >= -tol, "interior" tests > +tol,
    and "shifted" leaves the coordinate along the edge containing `shift`
    unconstrained.  Raises NotInV if x is not in span V.
    """
    coords = coordinates(x, basis, tol=tol)
    if mode != "shifted":
        return membership_coords(coords, basis.m, mode, tol)
    if shift is None:
        raise ValueError("shifted mode requires a shift vector")
    j = _edge_index(basis.cone, np.asarray(shift, dtype=float), tol)
    free = np.ones(basis.m, dtype=bool)
    if j >= 0:
        free[j] = False
    return bool(np.all(coords[: basis.m][free] >= -tol))


def membership_coords(coords: np.ndarray, m: int, mode: str = "closed",
                      tol: float = DEFAULT_TOL) -> bool:
    """Closed or interior membership given coordinates in the normed state basis."""
    cone_coords = np.asarray(coords, dtype=float)[:m]
    if mode == "closed":
        return bool(np.all(cone_coords >= -tol))
    if mode == "interior":
        return bool(np.all(cone_coords > tol))
    raise ValueError(f"unknown membership mode {mode!r}")


@dataclass(frozen=True)
class SplitSpace:
    """Direct-sum split of the ambient space into G and the state space V.

    The V-projection is defined by dual functionals (one row per basis
    vector of V, acting on ambient coordinates by dot product) that are
    biorthogonal to the state basis; the G-projection is its complement.
    """

    v_basis: StateBasis
    dual: np.ndarray

    def __post_init__(self):
        dual = _as_matrix(self.dual, dim=self.v_basis.ambient_dim)
        object.__setattr__(self, "dual", dual)
        gram = dual @ self.v_basis.matrix.T
        if not np.allclose(gram, np.eye(self.v_basis.dim_v), atol=1e-8):
            raise DegenerateBasis("dual functionals are not biorthogonal to the basis")

    def v_coords(self, h: np.ndarray) -> np.ndarray:
        return self.dual @ np.asarray(h, dtype=float)

    def project_v(self, h: np.ndarray) -> np.ndarray:
        return self.v_basis.matrix.T @ self.v_coords(h)

    def project_g(self, h: np.ndarray) -> np.ndarray:
        return np.asarray(h, dtype=float) - self.project_v(h)


def orthogonal_split(v_basis: StateBasis) -> SplitSpace:
    """SplitSpace whose G is the ambient orthogonal complement of span V."""
    B = v_basis.matrix
    dual = np.linalg.solve(B @ B.T, B)
    return SplitSpace(v_basis, dual)
