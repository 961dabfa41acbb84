from importlib import resources

import numpy as np
import pytest

from affinefdr import realization as rz
from affinefdr.curves import Grid, derivative
from affinefdr.errors import DimensionExceeded
from affinefdr.hjmm import TwoFactorModel, build_two_factor_model_data, hjm_drift
from affinefdr.modelfile import custom_model_data, parse_model_file

from conftest import cir_membership, two_factor_membership


def test_cir_fixture_passes_all_conditions(cir_model):
    report = rz.check_thm_main2(cir_model.model_data())
    assert report.overall, report.failed()


def test_perturbed_lambda_flips_conditions(grid, cir_model):
    pert = cir_model.lam + 0.01 * grid.x * np.exp(-grid.x)
    report = rz.check_thm_main2(cir_model.model_data(lam_override=pert))
    failing = {c.name for c in report.failed()}
    assert failing & {"cond-AR-2", "beta-inc-V"}


def test_two_factor_fixture_passes(grid):
    model = TwoFactorModel(grid, rho=0.1, gamma=1.0)
    report = rz.check_thm_main2(build_two_factor_model_data(model))
    assert report.overall, report.failed()


def test_check_damir_verdicts(grid, cir_model):
    assert rz.check_damir(cir_model.model_data())
    example64 = resources.files("affinefdr") / "models" / "example64.model"
    assert not rz.check_damir(custom_model_data(parse_model_file(str(example64))))


def test_const_mod_k_and_kspace(cir_model):
    md = cir_model.model_data()
    kspace = rz.compute_k(md)
    # the drift image of the volatility matrix leaves span V, so K is trivial
    assert kspace.dim == 0
    assert rz.check_const_mod_k(md, kspace)


def test_quasi_exp_dimensions(grid):
    apply_a = lambda h: derivative(h, grid)
    assert len(rz.quasi_exp_subspace(apply_a, [np.exp(-0.05 * grid.x)])) == 1
    assert len(rz.quasi_exp_subspace(apply_a, [1.0 + grid.x])) == 2
    with pytest.raises(DimensionExceeded):
        rz.quasi_exp_subspace(apply_a, [1.0 / (1.0 + grid.x)], max_dim=10)


def test_quasi_exp_two_factor_span(grid):
    model = TwoFactorModel(grid, rho=0.1, gamma=1.0)
    seeds = [model.lam, hjm_drift(model.rho * model.lam, grid)]
    a_sigma = rz.quasi_exp_subspace(lambda h: derivative(h, grid), seeds)
    assert len(a_sigma) == 2
    span = np.vstack([model.lam, model.lam ** 2])
    for q in a_sigma:
        coef, *_ = np.linalg.lstsq(span.T, q, rcond=None)
        assert np.linalg.norm(q - span.T @ coef) < 1e-8


def test_check_qe_affine_constant_vol(grid):
    apply_a = lambda h: derivative(h, grid)
    vol = 0.05 * (1.0 + grid.x) * np.exp(-0.5 * grid.x)
    a_sigma = rz.quasi_exp_subspace(apply_a, [vol], max_dim=10)
    report = rz.check_qe_affine(apply_a, lambda h: [vol], np.vstack(a_sigma),
                                [np.zeros(grid.n)], max_dim=10, rank_one_vol=True)
    assert report.ok and report.a_sigma_dim == 2


def test_maximal_initial_membership_against_cir(grid, cir_model):
    md = cir_model.model_data()
    rng = np.random.default_rng(21)
    x = grid.x
    for _ in range(30):
        c = rng.normal(0.0, 0.02, 4)
        h = c[0] + c[1] * x * np.exp(-x) + c[2] * np.exp(-0.5 * x) \
            + c[3] * np.sin(x) * np.exp(-x)
        member, _ = rz.maximal_initial_membership(h, md)
        assert member == cir_membership(h, cir_model)[0]


def test_maximal_initial_membership_against_two_factor(grid):
    model = TwoFactorModel(grid, rho=0.1, gamma=1.0)
    md = build_two_factor_model_data(model)
    rng = np.random.default_rng(22)
    x = grid.x
    verdicts = set()
    for _ in range(30):
        c = rng.normal(0.0, 0.02, 4)
        s = c[0] + c[1] * x * np.exp(-x) + c[2] * np.exp(-0.5 * x)
        # the second curve lies in ker ell, on the boundary whenever it is a member
        for h in (s, s - float(model.ell_of(s)) * model.lam):
            h = h + c[3] * model.lam ** 2
            verdict = rz.maximal_initial_membership(h, md)
            assert verdict == two_factor_membership(h, model)
            verdicts.add(verdict)
    assert verdicts == {(True, False), (True, True), (False, False)}


def test_report_structure(cir_model):
    report = rz.check_thm_main2(cir_model.model_data())
    names = {c.name for c in report.conditions}
    assert names == {"sigma-affine-parallel", "cond-AR-1", "cond-AR-2",
                     "cond-AR-3", "beta-inc-V"}
    assert report.failed() == []
