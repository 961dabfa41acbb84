import numpy as np
import pytest

from affinefdr import realization as rz
from affinefdr.curves import Grid, derivative, primitive
from affinefdr.errors import ConstraintViolated, NotInV
from affinefdr.hjmm import (SquareRootModel, build_s_operator, hjm_drift, riccati_capital,
                            riccati_small)

from conftest import riccati_rk4


def test_riccati_boundary_values(grid):
    lam_cap, lam = riccati_capital(grid.x, 0.1, 0.05), riccati_small(grid.x, 0.1, 0.05)
    assert lam_cap[0] == 0.0
    assert lam[0] == 1.0


def test_riccati_residuals(grid):
    rho, gamma = 0.1, 0.05
    lam_cap = riccati_capital(grid.x, rho, gamma)
    lam = riccati_small(grid.x, rho, gamma)
    fd = derivative(lam, grid) + rho ** 2 * lam * lam_cap + gamma * lam
    assert np.abs(fd).max() <= 1e-6
    # analytic derivative of Lam is lam by construction; check Lam' = lam
    assert np.abs(derivative(lam_cap, grid) - lam).max() <= 1e-6
    # analytic pre-equation residual: lam' from the closed form
    theta = np.sqrt(gamma ** 2 + 2 * rho ** 2)
    # d/dx lam = -(rho^2 lam Lam + gamma lam) exactly for the closed form
    analytic = -(rho ** 2 * lam * lam_cap + gamma * lam)
    h = 1e-6
    numeric = (riccati_small(grid.x + h, rho, gamma)
               - riccati_small(grid.x - h, rho, gamma)) / (2 * h)
    assert np.abs(numeric - analytic).max() <= 1e-8 * max(1.0, theta)


def test_riccati_rk4_agreement(grid):
    lam_cap = riccati_capital(grid.x, 0.1, 0.05)
    rk = riccati_rk4(grid, 0.1, 0.05)
    assert np.abs(rk - lam_cap).max() <= 1e-8


def test_riccati_gamma_zero_tanh(grid):
    rho = 0.1
    lam_cap = riccati_capital(grid.x, rho, 0.0)
    tanh_form = (np.sqrt(2) / rho) * np.tanh(rho * grid.x / np.sqrt(2))
    assert np.abs(lam_cap - tanh_form).max() <= 1e-10


def test_riccati_rho_zero_degenerates(grid):
    lam = riccati_small(grid.x, 0.0, 0.3)
    assert np.abs(lam - np.exp(-0.3 * grid.x)).max() <= 1e-12


def test_hjm_drift_zero_and_scaling(grid):
    assert np.all(hjm_drift(np.zeros(grid.n), grid) == 0.0)
    sigma = np.exp(-grid.x)
    assert np.allclose(hjm_drift(2 * sigma, grid), 4 * hjm_drift(sigma, grid))


def test_hjm_drift_exponential_identity(grid):
    gamma = 1.0
    lam = np.exp(-gamma * grid.x)
    drift = hjm_drift(lam, grid)
    expect = (lam - lam ** 2) / gamma
    assert np.abs(drift - expect).max() < 1e-5


def test_s_operator_reproduces_hjm_drift(grid):
    lam = riccati_small(grid.x, 0.1, 0.05)
    lam_unit = lam / np.linalg.norm(lam)
    s_op = build_s_operator(lam_unit.reshape(1, -1), grid)
    # sigma = lam: coordinate is |lam| so sigma^2 coordinate is |lam|^2
    phi = np.array([[float(np.linalg.norm(lam)) ** 2]])
    assert np.abs(s_op(phi) - hjm_drift(lam, grid)).max() <= 1e-8
    assert np.all(s_op(np.zeros((1, 1))) == 0.0)
    phi2 = np.array([[2.5]])
    assert np.allclose(s_op(phi) + s_op(phi2), s_op(phi + phi2), atol=1e-12)


def test_cir_model_invariants(grid, cir_model):
    assert float(cir_model.ell_of(cir_model.lam)) == pytest.approx(1.0, abs=1e-8)
    assert cir_model.lam_capital[0] == 0.0
    with pytest.raises(ConstraintViolated):
        SquareRootModel.cir(grid, 0.0, 0.0)
    # rho = 0 accepted: deterministic degeneration
    SquareRootModel.cir(grid, 0.0, 0.05)


def test_cir_riccati_curves_cached_read_only(grid):
    model = SquareRootModel.cir(grid, 0.1, 0.05)
    assert model.lam is model.lam and model.lam_capital is model.lam_capital
    assert np.array_equal(model.lam, riccati_small(grid.x, 0.1, 0.05))
    assert np.array_equal(model.lam_capital, riccati_capital(grid.x, 0.1, 0.05))
    with pytest.raises(ValueError):
        model.lam[0] = 0.0
    with pytest.raises(ValueError):
        model.lam_capital[0] = 1.0


def test_sigma_cir_values(grid, cir_model):
    sigma_sq_at = cir_model.sigma_sq_at
    zero_ell = grid.x * np.exp(-grid.x)
    assert np.all(sigma_sq_at(zero_ell) == 0.0)
    unit_ell = np.ones(grid.n)
    assert np.allclose(sigma_sq_at(unit_ell),
                       0.1 ** 2 * float(np.linalg.norm(cir_model.lam)) ** 2)


def test_square_root_model_data_amplitudes(grid, cir_model):
    split = cir_model.split
    vol = 2.0 * cir_model.lam
    unit = 0.1 ** 2 * (2.0 * float(np.linalg.norm(cir_model.lam))) ** 2
    const = SquareRootModel(grid, cir_model.ell, 0.1, vol, primitive(vol, grid), split,
                            [], "const")
    sqrt_ell = SquareRootModel(grid, cir_model.ell, 0.1, vol, primitive(vol, grid), split,
                               [], "sqrt_ell")
    for level in (0.0, 1.0, -1.0, -3.0):
        h = np.full(grid.n, level)
        assert const.sigma_sq_at(h) == pytest.approx(np.array([[unit]]), rel=1e-12)
        # negative ell(h) enters through |ell(h)|, as in the direct simulator
        assert sqrt_ell.sigma_sq_at(h) == pytest.approx(np.array([[abs(level) * unit]]),
                                                        rel=1e-12)
    with pytest.raises(NotInV):
        SquareRootModel(grid, cir_model.ell, 0.1, np.sin(grid.x), primitive(np.sin(grid.x), grid),
                        split, [], "const")


def test_cir_initial_set_examples(grid, cir_model):
    member, boundary = rz.maximal_initial_membership(np.full(grid.n, 0.02), cir_model)
    assert member and not boundary
    member, boundary = rz.maximal_initial_membership(np.zeros(grid.n), cir_model)
    assert not member
    member, boundary = rz.maximal_initial_membership(grid.x * np.exp(-grid.x), cir_model)
    assert member and boundary


def test_two_factor_functional_constraints(grid):
    model = SquareRootModel.two_factor(grid, gamma=1.0)
    lam = model.lam
    assert float(model.ell_of(lam)) == pytest.approx(1.0, abs=1e-12)
    assert float(model.ell_of(lam ** 2)) == pytest.approx(0.0, abs=1e-12)


def test_two_factor_initial_set(grid):
    model = SquareRootModel.two_factor(grid, gamma=1.0)
    assert rz.maximal_initial_membership(np.full(grid.n, 0.5), model)[0]
    assert not rz.maximal_initial_membership(np.zeros(grid.n), model)[0]
    # verdict invariant under adding g with ell(g) = 0 and ell(g' + g) = 0
    lam2 = model.lam ** 2
    h = np.full(grid.n, 0.5)
    # lam^2 satisfies ell(lam^2) = 0 and ell((lam^2)' + lam^2) = -ell(lam^2) = 0
    assert rz.maximal_initial_membership(h + 3.0 * lam2, model)[0] == \
        rz.maximal_initial_membership(h, model)[0]


def test_state_drift_slope_short_end(grid, cir_model):
    # for the short-end functional, ell(lam Lam) = 0 so the slope is -gamma
    assert cir_model.state_drift_slope == pytest.approx(-0.05, abs=1e-6)
