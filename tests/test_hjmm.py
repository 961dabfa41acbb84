import numpy as np
import pytest

from affinefdr import cones, hjmm
from affinefdr import realization as rz
from affinefdr.cones import orthogonal_split
from affinefdr.curves import SHORT_END, Grid, derivative, primitive
from affinefdr.errors import ModelFileError, NotInV
from affinefdr.hjmm import (SquareRootModel, build_s_operator, hjm_drift, ker_ell_split,
                            riccati_capital, riccati_small)

from conftest import bundled_model, riccati_rk4


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
    assert float(cir_model.ell(cir_model.lam)) == pytest.approx(1.0, abs=1e-8)
    assert cir_model.lam_capital[0] == 0.0
    # rho = 0 is accepted, a deterministic degeneration, and with gamma = 0
    # as well lam is the constant 1
    assert bundled_model("cir", rho=0.0).rho == 0.0
    assert np.array_equal(bundled_model("cir", rho=0.0, gamma=0.0).lam, np.ones(grid.n))


def test_cir_riccati_curves_cached_read_only(grid, cir_model):
    assert cir_model.lam is cir_model.lam and cir_model.lam_capital is cir_model.lam_capital
    assert np.array_equal(cir_model.lam, riccati_small(grid.x, 0.1, 0.05))
    # Lam is the trapezoid primitive of lam, 3.1e-8 from the closed form at most
    assert np.array_equal(cir_model.lam_capital, primitive(cir_model.lam, grid))
    assert np.abs(cir_model.lam_capital - riccati_capital(grid.x, 0.1, 0.05)).max() <= 5e-8
    vol = np.exp(-grid.x)
    direct = SquareRootModel(grid, cir_model.ell, 0.1, vol, primitive(vol, grid),
                             ker_ell_split(grid, cir_model.ell, vol))
    # every square-root model holds its lam and Lam read-only
    for model in (cir_model, bundled_model("example64"), direct):
        with pytest.raises(ValueError):
            model.lam[0] = 0.0
        with pytest.raises(ValueError):
            model.lam_capital[0] = 1.0


def test_sigma_cir_values(grid, cir_model):
    amp_sq = cir_model.amp_sq
    zero_ell = grid.x * np.exp(-grid.x)
    assert amp_sq(zero_ell) == 0.0
    unit_ell = np.ones(grid.n)
    assert amp_sq(unit_ell) == pytest.approx(0.1 ** 2, rel=1e-15)
    # c c^T: the state basis is lam normed, so c = |lam|
    assert cir_model.cc == pytest.approx(np.array([[float(np.linalg.norm(cir_model.lam)) ** 2]]),
                                         rel=1e-12)
    with pytest.raises(ValueError):
        cir_model.cc[0, 0] = 0.0


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
        assert const.amp_sq(h) * const.cc == pytest.approx(np.array([[unit]]), rel=1e-12)
        # negative ell(h) enters through |ell(h)|, as in the direct simulator
        assert sqrt_ell.amp_sq(h) * sqrt_ell.cc == pytest.approx(
            np.array([[abs(level) * unit]]), rel=1e-12)
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
    model = bundled_model("two_factor")
    lam = model.lam
    assert float(model.ell(lam)) == pytest.approx(1.0, abs=1e-12)
    assert float(model.ell(lam ** 2)) == pytest.approx(0.0, abs=1e-12)


def test_presets_refuse_what_the_grid_cannot_hold(grid):
    # warnings are errors here, so the overflow is refused before numpy warns
    with pytest.raises(ModelFileError, match=r"^\[cone\] c1: expression "
                       r"'riccati\(x, rho, gamma\)' is not a finite curve$"):
        bundled_model("cir", gamma=1e200)
    with pytest.raises(ModelFileError,
                       match=r"^\[model\] ell: point 13.865 lies outside \[0, 10\]$"):
        bundled_model("two_factor", ell="points: 0:-1, 13.865:4")
    # a point within half a step of x_max snaps to the last node
    assert bundled_model("two_factor", ell="points: 0:-1, 10.002:4").ell.nodes[1] == grid.n - 1


def test_two_factor_initial_set(grid):
    model = bundled_model("two_factor")
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


def test_state_drift_slope_differentiates_once_per_model(grid, monkeypatch):
    model, calls = bundled_model("cir"), []
    monkeypatch.setattr(hjmm, "derivative",
                        lambda values, grid: calls.append(1) or derivative(values, grid))
    assert model.state_drift_slope == model.state_drift_slope
    assert len(calls) == 1


@pytest.mark.parametrize("case, along_ker_ell", [
    ("one_cone", True), ("cone_and_subspace_in_ker_ell", True),
    ("ell_nonzero_on_subspace", False), ("two_cones", False), ("ell_zero_on_cone", False),
    ("subspace_only", False),
])
def test_ker_ell_split_falls_back_to_the_orthogonal_split(grid, monkeypatch, case,
                                                          along_ker_ell):
    post_init, splits = cones.SplitSpace.__post_init__, []
    monkeypatch.setattr(cones.SplitSpace, "__post_init__",
                        lambda self: splits.append(1) or post_init(self))
    lam = np.exp(-grid.x)
    cone, subspace = {
        "one_cone": ((lam,), ()),
        "cone_and_subspace_in_ker_ell": ((lam,), (grid.x * lam,)),
        "ell_nonzero_on_subspace": ((lam,), (lam * lam,)),   # example64's V under h(0)
        "two_cones": ((lam, lam * lam), ()),
        "ell_zero_on_cone": ((grid.x * lam,), ()),
        "subspace_only": ((), (lam,)),
    }[case]
    split = ker_ell_split(grid, SHORT_END, cone, subspace)
    assert len(splits) == 1   # one split built and validated, on either branch
    if along_ker_ell:
        h = 0.02 + np.sin(grid.x)
        assert abs(float(SHORT_END(split.project_g(h)))) <= 1e-15
        assert np.array_equal(split.dual[0], SHORT_END.dual_vector(grid)
                              / float(SHORT_END(split.v_basis.matrix[0])))
        assert np.array_equal(split.dual[1:], split.v_basis.pinv[1:])
    else:
        assert np.array_equal(split.dual, orthogonal_split(split.v_basis).dual)
