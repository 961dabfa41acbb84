import numpy as np
import pytest

from affinefdr.cones import (DEFAULT_TOL, ConeBasis, StateBasis, cone_minus, coordinates,
                             edges, inner_v, membership, normalize_basis, orthogonal_split)
from affinefdr.errors import DegenerateBasis, NotAnEdge, NotInV


def test_normalize_basis_unit_rows():
    cone = ConeBasis(np.array([[3.0, 0.0], [0.0, 4.0]]))
    normed = normalize_basis(cone)
    assert np.allclose(np.linalg.norm(normed.generators, axis=1), 1.0)


def test_degenerate_generators_rejected():
    with pytest.raises(DegenerateBasis):
        ConeBasis(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(DegenerateBasis):
        ConeBasis(np.array([[0.0, 0.0]]))


def test_edges_invariant_under_rescaling():
    rng = np.random.default_rng(0)
    gens = rng.standard_normal((3, 5))
    e1 = edges(ConeBasis(gens))
    scales = rng.uniform(0.1, 10.0, size=(3, 1))
    perm = rng.permutation(3)
    e2 = edges(ConeBasis(gens[perm] * scales))
    for e in e1:
        assert min(np.linalg.norm(e - f) for f in e2) < 1e-12


def test_cone_minus_drops_one_edge():
    gens = np.eye(3)
    cone = ConeBasis(gens)
    smaller = cone_minus(cone, np.array([0.0, 2.0, 0.0]))
    assert smaller.m == 2
    assert np.allclose(smaller.generators, gens[[0, 2]])
    # zero vector leaves the cone unchanged
    assert cone_minus(cone, np.zeros(3)).m == 3


def test_cone_minus_rejects_interior_vector():
    cone = ConeBasis(np.eye(2))
    with pytest.raises(NotAnEdge):
        cone_minus(cone, np.array([1.0, 1.0]))


def test_coordinates_roundtrip_and_not_in_v():
    rng = np.random.default_rng(1)
    basis = StateBasis(ConeBasis(rng.standard_normal((2, 4))),
                       subspace=rng.standard_normal((1, 4)))
    c = np.array([0.5, 1.5, -2.0])
    x = basis.matrix.T @ c
    assert np.allclose(coordinates(x, basis), c, atol=1e-10)
    # a vector off the span is rejected
    q, _ = np.linalg.qr(basis.matrix.T, mode="complete")
    off = x + q[:, -1]
    with pytest.raises(NotInV):
        coordinates(off, basis)


def test_fit_is_one_least_squares_solve_onto_span_v():
    rng = np.random.default_rng(3)
    basis = StateBasis(ConeBasis(rng.standard_normal((2, 7)) * [[3.0], [0.2]]),
                       subspace=rng.standard_normal((1, 7)))
    assert not basis.matrix.flags.writeable and not basis.pinv.flags.writeable
    B, P = basis.matrix, basis.pinv
    np.testing.assert_allclose(P, np.linalg.pinv(B.T), rtol=0, atol=1e-12 * np.abs(P).max())
    # fit is the one product pinv @ curves, and the residual what it leaves
    h = rng.standard_normal(7)
    coords, resid = basis.fit(h)
    np.testing.assert_array_equal(coords, P @ h)
    np.testing.assert_array_equal(resid, h - B.T @ (P @ h))
    ref, *_ = np.linalg.lstsq(B.T, h, rcond=None)
    np.testing.assert_allclose(coords, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    curves = rng.standard_normal((7, 4))
    coords, resid = basis.fit(curves)
    assert coords.shape == (3, 4) and resid.shape == (7, 4)
    np.testing.assert_array_equal(coords, P @ curves)
    np.testing.assert_array_equal(resid, curves - B.T @ (P @ curves))
    ref, *_ = np.linalg.lstsq(B.T, curves, rcond=None)
    np.testing.assert_allclose(coords, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # the least-squares property: the residual is orthogonal to span V
    assert np.abs(B @ resid).max() <= 1e-12 * np.abs(curves).max()
    # the basis rows themselves lie in V: unit coordinates, zero residual
    coords, resid = basis.fit(B.T)
    np.testing.assert_allclose(coords, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)
    x = B.T @ np.array([0.5, 1.5, -2.0])
    np.testing.assert_array_equal(basis.fit(x)[0], coordinates(x, basis))


def _near_pair(eps):
    """A cone edge e0 and the subspace vector e0 + eps e1 in R^5: the least
    singular value of the pair is eps / sqrt(2) up to O(eps^2)."""
    return StateBasis(ConeBasis(np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])),
                      subspace=np.array([[1.0, eps, 0.0, 0.0, 0.0]]))


def test_state_basis_refuses_a_subspace_vector_in_the_cone_span():
    with pytest.raises(DegenerateBasis,
                       match="^cone generators and subspace are linearly dependent$"):
        StateBasis(ConeBasis(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])),
                   subspace=np.array([[3.0, -1.0, 0.0]]))
    # the cut is DEFAULT_TOL times the largest row norm (at least 1): a least
    # singular value of 0.7e-9 falls below it
    with pytest.raises(DegenerateBasis, match="linearly dependent"):
        _near_pair(1e-9)


def test_state_basis_just_above_the_rank_cut_fits_like_lstsq():
    basis = _near_pair(2e-9)
    B = basis.matrix
    least = np.linalg.svd(B, compute_uv=False)[-1]
    assert DEFAULT_TOL < least < 2 * DEFAULT_TOL
    rng = np.random.default_rng(11)
    # curves with O(1) coordinates and a part off span V
    off = np.vstack([np.zeros((2, 6)), rng.standard_normal((3, 6))])
    curves = B.T @ rng.standard_normal((2, 6)) + off
    coords, resid = basis.fit(curves)
    ref, *_ = np.linalg.lstsq(B.T, curves, rcond=None)
    np.testing.assert_allclose(coords, ref, rtol=1e-12)
    norms = np.linalg.norm(curves, axis=0)
    assert np.all(np.linalg.norm(B @ resid, axis=0) <= 1e-12 * norms)
    assert np.all(np.linalg.norm(resid - off, axis=0) <= 1e-12 * norms)
    # a generic curve has coordinates of size 1 / least; they still agree
    h = rng.standard_normal(5)
    ref, *_ = np.linalg.lstsq(B.T, h, rcond=None)
    np.testing.assert_allclose(basis.fit(h)[0], ref, rtol=1e-12)


def test_off_span_is_the_relative_residual_off_span_v():
    basis = StateBasis(ConeBasis(np.array([[2.0, 0.0, 0.0]])),
                       subspace=np.array([[0.0, 1.0, 0.0]]))
    assert basis.off_span(np.array([3.0, -1.0, 0.0])) == 0.0
    assert basis.off_span(np.zeros(3)) == 0.0
    assert basis.off_span(np.array([0.0, 3.0, 4.0])) == pytest.approx(0.8, rel=1e-15)
    curves = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]]).T
    np.testing.assert_allclose(basis.off_span(curves), [0.0, 0.0, 1.0], atol=1e-15)


def test_inner_v_cone_coordinates():
    # the normed generators are orthonormal for the cone-induced product
    gens = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    basis = StateBasis(ConeBasis(gens))
    e = edges(basis.cone)
    assert inner_v(e[0], e[0], basis) == pytest.approx(1.0)
    assert inner_v(e[0], e[1], basis) == pytest.approx(0.0, abs=1e-12)


def test_membership_modes():
    basis = StateBasis(ConeBasis(np.eye(2)))
    inside = np.array([0.3, 0.7])
    boundary = np.array([0.0, 1.0])
    outside = np.array([-0.2, 1.0])
    assert membership(inside, basis, "interior")
    assert membership(boundary, basis, "closed")
    assert not membership(boundary, basis, "interior")
    assert not membership(outside, basis, "closed")
    assert membership(outside, basis, "shifted", shift=np.array([1.0, 0.0]))


def test_project_splits_exactly():
    rng = np.random.default_rng(2)
    basis = StateBasis(ConeBasis(rng.standard_normal((2, 6))),
                       subspace=rng.standard_normal((2, 6)))
    split = orthogonal_split(basis)
    h = rng.standard_normal(6)
    g, v = split.project_g(h), split.project_v(h)
    assert np.allclose(g + v, h, atol=1e-12)
    assert np.allclose(split.v_coords(g), 0.0, atol=1e-10)
    # V-part reproduces its own coordinates
    assert np.allclose(split.v_coords(v), split.v_coords(h), atol=1e-10)


def test_pure_subspace_state_space():
    basis = StateBasis(ConeBasis(np.zeros((0, 3))),
                       subspace=np.array([[1.0, 0.0, 0.0]]))
    assert basis.m == 0 and basis.dim_v == 1
    assert membership(np.array([-5.0, 0.0, 0.0]), basis, "closed")
