import numpy as np
import pytest

from affinefdr.admissibility import (AffineDrift, AffineSquareVol, VolMatrix,
                                     embed_sigma_square, is_inward_pointing, is_parallel,
                                     sigma_square, symmetric_kernel_equivalences)
from affinefdr.cones import ConeBasis, StateBasis
from affinefdr.errors import BasisNotExtension, NotSymmetric, NotSymmetricNonnegative

from conftest import (admissible_drift_coeffs, brute_force_inward, brute_force_parallel,
                      parallel_sqvol_coeffs, violate_drift_coeffs)


def test_sigma_square_is_gram_matrix():
    vol = VolMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    expect = vol.entries.T @ vol.entries
    assert np.array_equal(sigma_square(vol), expect)
    w = np.linalg.eigvalsh(sigma_square(vol))
    assert w.min() >= -1e-14


def test_embed_sigma_square_blocks():
    basis = StateBasis(ConeBasis(np.eye(2, 4)))
    bigger = StateBasis(ConeBasis(np.eye(2, 4)), subspace=np.eye(4)[2:3])
    vol = VolMatrix(np.array([[1.0, -1.0]]))
    out = embed_sigma_square(vol, bigger, basis)
    assert out.shape == (3, 3)
    assert np.array_equal(out[:2, :2], sigma_square(vol))
    assert np.all(out[2:, :] == 0.0) and np.all(out[:, 2:] == 0.0)


def test_embed_requires_extension():
    basis = StateBasis(ConeBasis(np.eye(2, 4)))
    other = StateBasis(ConeBasis(np.eye(4)[[1, 3]]), subspace=np.eye(4)[0:1])
    with pytest.raises(BasisNotExtension):
        embed_sigma_square(VolMatrix(np.array([[1.0, 0.0]])), other, basis)


def test_inward_pointing_simple_witness():
    basis = StateBasis(ConeBasis(np.eye(2)))
    ok = AffineDrift(np.array([0.5, 0.0]), np.array([[-1.0, 0.2], [0.3, -1.0]]))
    assert is_inward_pointing(ok, basis)
    bad = AffineDrift(np.array([-0.5, 0.0]), np.zeros((2, 2)))
    verdict = is_inward_pointing(bad, basis)
    assert not verdict
    assert verdict.witnesses[0][0] == "nu-1"


def test_parallel_simple_witness():
    basis = StateBasis(ConeBasis(np.eye(2)))
    t2 = np.zeros((2, 2, 2))
    t2[0, 0, 0] = 1.0
    t2[1, 1, 1] = 2.0
    assert is_parallel(AffineSquareVol(np.zeros((2, 2)), t2), basis)
    t1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    verdict = is_parallel(AffineSquareVol(t1, np.zeros((2, 2, 2))), basis)
    assert not verdict
    assert verdict.witnesses[0][0] == "C-ker-T1"


def test_square_vol_validates_t1():
    with pytest.raises(NotSymmetric):
        AffineSquareVol(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2, 2)))
    with pytest.raises(NotSymmetricNonnegative):
        AffineSquareVol(np.array([[-1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2, 2)))


def test_brute_force_agrees_on_witnessed_case():
    rng = np.random.default_rng(5)
    basis = StateBasis(ConeBasis(np.eye(3)[:2]), subspace=np.eye(3)[2:])
    m, d = 2, 3
    b1, b2 = admissible_drift_coeffs(rng, m, d)
    drift = AffineDrift(b1, b2)
    assert bool(is_inward_pointing(drift, basis)) == bool(
        brute_force_inward(drift, basis, n_samples=2000, rng=rng))
    violated = violate_drift_coeffs(rng, m, d, b1, b2)
    bad = AffineDrift(*violated)
    assert not is_inward_pointing(bad, basis)
    assert not brute_force_inward(bad, basis, n_samples=5000, rng=rng)


def test_brute_force_parallel_detects_cone_diagonal():
    rng = np.random.default_rng(6)
    basis = StateBasis(ConeBasis(np.eye(2)))
    t1, t2 = parallel_sqvol_coeffs(rng, 2, 2)
    good = AffineSquareVol(t1, t2)
    assert brute_force_parallel(good, basis, n_samples=2000, rng=rng)
    t1v = t1.copy()
    t1v[0, 0] = 1.0
    bad = AffineSquareVol(t1v, t2)
    assert not is_parallel(bad, basis)
    assert not brute_force_parallel(bad, basis, n_samples=5000, rng=rng)


def test_symmetric_kernel_equivalences_on_psd():
    rng = np.random.default_rng(7)
    basis = StateBasis(ConeBasis(np.eye(4)[:2]), subspace=np.eye(4)[2:])
    # generic PSD: all six conditions false together
    a = rng.standard_normal((4, 4))
    res = symmetric_kernel_equivalences(a @ a.T, basis, rng=rng)
    assert len(set(res.values())) == 1 and not res["edges_in_kernel"]
    # PSD supported on the subspace block: all true together
    b = rng.standard_normal((2, 2))
    T = np.zeros((4, 4))
    T[2:, 2:] = b @ b.T
    res = symmetric_kernel_equivalences(T, basis, rng=rng)
    assert all(res.values())


def test_symmetric_kernel_rejects_indefinite():
    basis = StateBasis(ConeBasis(np.eye(2)))
    with pytest.raises(NotSymmetricNonnegative):
        symmetric_kernel_equivalences(np.diag([1.0, -1.0]), basis)

