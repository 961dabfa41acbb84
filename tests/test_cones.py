import numpy as np
import pytest

from affinefdr.cones import (ConeBasis, StateBasis, cone_minus, coordinates, edges,
                             inner_v, membership, normalize_basis, orthogonal_split)
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
    assert not basis.matrix.flags.writeable
    B = basis.matrix
    h = rng.standard_normal(7)
    coords, resid = basis.fit(h)
    ref, *_ = np.linalg.lstsq(B.T, h, rcond=None)
    np.testing.assert_array_equal(coords, ref)
    np.testing.assert_array_equal(resid, h - B.T @ ref)
    curves = rng.standard_normal((7, 4))
    coords, resid = basis.fit(curves)
    ref, *_ = np.linalg.lstsq(B.T, curves, rcond=None)
    assert coords.shape == (3, 4) and resid.shape == (7, 4)
    np.testing.assert_array_equal(coords, ref)
    np.testing.assert_array_equal(resid, curves - B.T @ ref)
    # the basis rows themselves lie in V: unit coordinates, zero residual
    coords, resid = basis.fit(B.T)
    np.testing.assert_allclose(coords, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)
    x = B.T @ np.array([0.5, 1.5, -2.0])
    np.testing.assert_array_equal(basis.fit(x)[0], coordinates(x, basis))


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
