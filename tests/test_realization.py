import dataclasses
import json
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from affinefdr import realization as rz
from affinefdr.cones import ConeBasis, SplitSpace, StateBasis, orthogonal_split
from affinefdr.curves import Grid, ShortEnd, derivative, primitive
from affinefdr.errors import DimensionExceeded
from affinefdr.hjmm import (SquareRootModel, default_boundary_samples, hjm_drift,
                            ker_ell_split, shape_boundary_samples)
from affinefdr.modelfile import parse_model_file

from conftest import cir_membership, perturbed_cir_model, two_factor_membership

DATA = Path(__file__).parent / "data"


def test_cir_fixture_passes_all_conditions(cir_model):
    report = rz.check_thm_main2(cir_model)
    assert report.overall, report.failed()


def test_perturbed_lambda_flips_conditions(grid, cir_model):
    pert = cir_model.lam + 0.01 * grid.x * np.exp(-grid.x)
    report = rz.check_thm_main2(perturbed_cir_model(cir_model, pert))
    failing = {c.name for c in report.failed()}
    assert failing & {"cond-AR-2", "beta-inc-V"}


def test_negated_cir_samples_fail_only_cond_ar1(grid, cir_model):
    # -g points the boundary drift out of the cone, so only nu-1 is violated
    samples = [-g for g in default_boundary_samples(grid, cir_model.split)]
    report = rz.check_thm_main2(
        dataclasses.replace(cir_model, boundary_samples=samples))
    assert {c.name for c in report.failed()} == {"cond-AR-1"}
    for i, c in enumerate(report.failed()):
        assert re.fullmatch(rf"g\[{i}\]: nu-1 0 \S+ > \S+", c.detail), c.detail


def _const_vol_on_exp_cone(grid, subspace):
    """Constant volatility e^-x on the cone <e^-x>+ plus a one-curve subspace."""
    x = grid.x
    basis = StateBasis(ConeBasis(np.exp(-x).reshape(1, -1)), subspace=subspace.reshape(1, -1))
    split = orthogonal_split(basis)
    return rz.check_thm_main2(SquareRootModel(
        grid, ShortEnd(), 0.1, np.exp(-x), primitive(np.exp(-x), grid), split,
        shape_boundary_samples(grid, split, 2), "const"))


def test_subspace_leaking_into_cone_fails_cond_ar3(grid):
    # A(x e^-x) = e^-x - x e^-x lies in V but has cone coordinate |e^-x| = 10.03
    x = grid.x
    report = _const_vol_on_exp_cone(grid, x * np.exp(-x))
    assert {c.name for c in report.failed()} == {"sigma-affine-parallel", "cond-AR-3"}
    for i, c in enumerate(report.by_name("cond-AR-3")):
        head, band = c.detail.split(" > ")
        assert head == f"g[{i}]: nu-2-U (1, 0) 1.003e+01"
        # the span band, scaled by the norm of the column (10.03, -1)
        assert float(band) == pytest.approx(1e-5 * np.hypot(10.03, 1.0), rel=1e-3)


def test_failed_condition_lists_every_violation(grid):
    # A(x^2 e^-x) = 2x e^-x - x^2 e^-x leaves V and leaks into the cone
    x = grid.x
    report = _const_vol_on_exp_cone(grid, x * x * np.exp(-x))
    assert {c.name for c in report.failed()} == {"sigma-affine-parallel", "cond-AR-3",
                                                 "beta-inc-V"}
    for i, c in enumerate(report.by_name("cond-AR-3")):
        assert re.fullmatch(rf"g\[{i}\]: off-V 1 \S+ > 1\.000e-05; nu-2-U \(1, 0\) \S+ > \S+",
                            c.detail), c.detail


def test_two_factor_fixture_passes(grid):
    model = SquareRootModel.two_factor(grid, rho=0.1, gamma=1.0)
    report = rz.check_thm_main2(model)
    assert report.overall, report.failed()


def test_check_damir_verdicts(grid, cir_model):
    assert rz.check_damir(cir_model)
    example64 = resources.files("affinefdr") / "models" / "example64.model"
    assert not rz.check_damir(parse_model_file(str(example64)).model())


def test_const_mod_k_and_kspace(cir_model):
    # the drift image of the volatility matrix leaves span V, so K is trivial
    assert len(rz.compute_k(cir_model)) == 0
    assert rz.check_const_mod_k(cir_model)


def test_quasi_exp_dimensions(grid):
    apply_a = lambda h: derivative(h, grid)
    assert len(rz.quasi_exp_subspace(apply_a, [np.exp(-0.05 * grid.x)])) == 1
    assert len(rz.quasi_exp_subspace(apply_a, [1.0 + grid.x])) == 2
    with pytest.raises(DimensionExceeded):
        rz.quasi_exp_subspace(apply_a, [1.0 / (1.0 + grid.x)], max_dim=10)


def test_quasi_exp_two_factor_span(grid):
    model = SquareRootModel.two_factor(grid, rho=0.1, gamma=1.0)
    seeds = [model.lam, hjm_drift(model.rho * model.lam, grid)]
    a_sigma = rz.quasi_exp_subspace(lambda h: derivative(h, grid), seeds)
    assert len(a_sigma) == 2
    span = np.vstack([model.lam, model.lam ** 2])
    for q in a_sigma:
        coef, *_ = np.linalg.lstsq(span.T, q, rcond=None)
        assert np.linalg.norm(q - span.T @ coef) < 1e-8


def test_maximal_initial_membership_against_cir(grid, cir_model):
    rng = np.random.default_rng(21)
    x = grid.x
    for _ in range(30):
        c = rng.normal(0.0, 0.02, 4)
        h = c[0] + c[1] * x * np.exp(-x) + c[2] * np.exp(-0.5 * x) \
            + c[3] * np.sin(x) * np.exp(-x)
        member, _ = rz.maximal_initial_membership(h, cir_model)
        assert member == cir_membership(h, cir_model, 0.05)[0]


def test_maximal_initial_membership_against_two_factor(grid):
    model = SquareRootModel.two_factor(grid, rho=0.1, gamma=1.0)
    rng = np.random.default_rng(22)
    x = grid.x
    verdicts = set()
    for _ in range(30):
        c = rng.normal(0.0, 0.02, 4)
        s = c[0] + c[1] * x * np.exp(-x) + c[2] * np.exp(-0.5 * x)
        # the second curve lies in ker ell, on the boundary whenever it is a member
        for h in (s, s - float(model.ell_of(s)) * model.lam):
            h = h + c[3] * model.lam ** 2
            verdict = rz.maximal_initial_membership(h, model)
            assert verdict == two_factor_membership(h, model, 1.0)
            verdicts.add(verdict)
    assert verdicts == {(True, False), (True, True), (False, False)}


def test_report_structure(cir_model):
    report = rz.check_thm_main2(cir_model)
    names = {c.name for c in report.conditions}
    assert names == {"sigma-affine-parallel", "cond-AR-1", "cond-AR-2",
                     "cond-AR-3", "beta-inc-V"}
    assert report.failed() == []


def _failing_per_sample(report, n):
    """Sorted failing condition names of each boundary sample, from the g[i] tags."""
    failing = [set() for _ in range(n)]
    for c in report.conditions:
        if not c.ok:
            failing[int(c.detail[2:c.detail.index("]")])].add(c.name)
    return [",".join(sorted(names)) for names in failing]


def _sweep_verdicts(grid, cir_model):
    """Per-sample verdicts of perturbed CIR and two-factor state spaces.

    CIR: lam + eps s for three shapes s, with the default boundary samples and
    with the samples randomly rescaled and negated.  Two-factor: the subspace
    lam^2 + eps x e^-x with G = ker ell, under both amplitude rules.
    """
    x = grid.x
    shapes = {"xexp": x * np.exp(-x), "sinexp": np.sin(x) * np.exp(-0.5 * x),
              "x2exp": x * x * np.exp(-x)}
    out = {}
    for shape, curve in shapes.items():
        for i, eps in enumerate((0.0, 1e-8, 1e-6, 1e-5, 3e-5, 1e-4, 1e-2, 1e-1)):
            pert = cir_model.lam + eps * curve
            samples = default_boundary_samples(grid, ker_ell_split(grid, cir_model.ell, pert))
            rng = np.random.default_rng(10 * i + len(shape))
            factors = rng.choice([-1.0, 1.0], size=6) * 10.0 ** rng.uniform(-2, 2, 6)
            for variant, gs in (("plain", samples),
                                ("scaled", [f * g for f, g in zip(factors, samples)])):
                model = perturbed_cir_model(cir_model, pert, gs)
                out[f"cir/{shape}/{eps:g}/{variant}"] = \
                    _failing_per_sample(rz.check_thm_main2(model), len(gs))
    tf = SquareRootModel.two_factor(grid, rho=0.1, gamma=1.0)
    cone = ConeBasis(tf.lam.reshape(1, -1))
    for eps in (0.0, 1e-7, 1e-6, 3e-6, 1e-5, 1e-4, 1e-2, 1.0):
        basis = StateBasis(cone, subspace=(tf.lam ** 2 + eps * shapes["xexp"]).reshape(1, -1))
        rows = np.vstack([tf.ell.dual_vector(grid), orthogonal_split(basis).dual[1]])
        split = SplitSpace(basis, np.linalg.solve(rows @ basis.matrix.T, rows))
        samples = shape_boundary_samples(grid, split, 2)
        for amplitude in ("sqrt_ell", "const"):
            model = dataclasses.replace(tf, split=split, boundary_samples=samples,
                                        amplitude=amplitude)
            out[f"tf/{eps:g}/{amplitude}"] = \
                _failing_per_sample(rz.check_thm_main2(model), len(samples))
    return out


def test_realizability_verdicts_match_golden_sweep(grid, cir_model):
    golden = json.loads((DATA / "realizability_sweep.json").read_text())
    assert _sweep_verdicts(grid, cir_model) == golden
