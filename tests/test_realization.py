import dataclasses
import gc
import json
import re
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from affinefdr import realization as rz
from affinefdr.cones import ConeBasis, SplitSpace, StateBasis, orthogonal_split
from affinefdr.curves import SHORT_END, Grid, derivative, primitive
from affinefdr.errors import DimensionExceeded, NotAffine
from affinefdr.hjmm import SquareRootModel, default_boundary_samples, hjm_drift, ker_ell_split
from affinefdr.modelfile import parse_model_file

from conftest import bundled_model, cir_membership, perturbed_cir_model, two_factor_membership

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
    samples = [-g for g in default_boundary_samples(grid, cir_model.split, 6)]
    report = rz.check_thm_main2(
        dataclasses.replace(cir_model, boundary_samples=samples))
    assert {c.name for c in report.failed()} == {"cond-AR-1"}
    for i, c in enumerate(report.failed()):
        assert re.fullmatch(rf"g\[{i}\]: nu-1 0 \S+ > \S+", c.detail), c.detail


def _const_vol_on_exp_cone(grid, subspace):
    """Constant volatility e^-x on the cone <e^-x>+ plus a one-curve subspace,
    checked on x e^-x and sin(x) e^(-x/2), scaled by 0.05, in G."""
    x = grid.x
    basis = StateBasis(ConeBasis(np.exp(-x).reshape(1, -1)), subspace=subspace.reshape(1, -1))
    split = orthogonal_split(basis)
    samples = [split.project_g(0.05 * s) for s in (x * np.exp(-x), np.sin(x) * np.exp(-0.5 * x))]
    return rz.check_thm_main2(SquareRootModel(
        grid, SHORT_END, 0.1, np.exp(-x), primitive(np.exp(-x), grid), split, samples, "const"))


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
    model = bundled_model("two_factor")
    report = rz.check_thm_main2(model)
    assert report.overall, report.failed()


def test_check_damir_verdicts(grid, cir_model):
    assert rz.check_damir(cir_model)
    example64 = resources.files("affinefdr") / "models" / "example64.model"
    assert not rz.check_damir(parse_model_file(str(example64)).model)


def test_const_mod_k_and_kspace(cir_model):
    # the drift image of the volatility matrix leaves span V, so K is trivial
    assert len(rz.compute_k(cir_model)) == 0
    assert rz.check_const_mod_k(cir_model)


def test_const_mod_k_is_closed_form(grid, cir_model):
    # K trivial: off ker ell the fitted slope of |ell| takes the sign of ell(g)
    up = 0.5 * cir_model.lam
    for samples, agree in (((up, 2 * up), True), ((up, -up), False)):
        model = dataclasses.replace(cir_model, boundary_samples=samples)
        assert rz.compute_k(model) == ()
        assert rz.check_const_mod_k(model) is agree
    # K = R: every slope is a multiple of c c^T; a failed fit makes the check
    # false, and check_thm_main2 reports that fit's error
    assert rz.check_const_mod_k(bundled_model("two_factor"))
    example64 = parse_model_file(str(resources.files("affinefdr") / "models"
                                     / "example64.model")).model
    assert any(isinstance(fit, NotAffine) for fit in example64.boundary_fits)
    assert rz.check_const_mod_k(example64) is False
    failed = rz.check_thm_main2(example64).by_name("sigma-affine-parallel")
    assert any(not c.ok and "max residual" in c.detail for c in failed)


def test_a_failed_fit_leaves_no_reference_cycle():
    # example64's fits fail; its model must be freed by reference counting,
    # since arrays held in a cycle wait for the cycle collector
    model = parse_model_file(str(resources.files("affinefdr") / "models"
                                 / "example64.model")).model
    gc.collect()
    gc.disable()
    try:
        assert not rz.check_thm_main2(model).overall
        assert any(isinstance(fit, NotAffine) for fit in model.boundary_fits)
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["cir", "two_factor"])
def test_boundary_fit_is_the_slope_of_amp_sq(name):
    # g lies in ker ell, so amp^2(g + v) = rho^2 |ell(v)|: s0 = 0, on the cone
    # s_k = rho^2 |ell(b_k)|, and ell vanishes on the subspace
    models = resources.files("affinefdr") / "models"
    model = parse_model_file(str(models / f"{name}.model")).model
    basis = model.split.v_basis
    slope = model.rho ** 2 * np.abs(model.ell(basis.matrix[:basis.m]))
    for s0, s in model.boundary_fits:
        assert s0 == pytest.approx(0.0, abs=1e-12 * slope.max())
        assert s[:basis.m] == pytest.approx(slope, rel=1e-12)
        assert np.all(s[basis.m:] == 0.0)


def test_k_is_r_where_s_maps_the_volatility_direction_into_v(grid, cir_model):
    example64 = resources.files("affinefdr") / "models" / "example64.model"
    for model in (bundled_model("two_factor"),
                  parse_model_file(str(example64)).model):
        (r,) = model.r_basis
        assert np.linalg.norm(r) == pytest.approx(1.0, rel=1e-15)
        assert np.linalg.matrix_rank(r) == 1
        kspace = rz.compute_k(model)
        assert len(kspace) == 1 and np.array_equal(kspace[0], r)
        assert not rz.check_damir(model)
    assert rz.compute_k(cir_model) == ()


def test_r_is_empty_where_sigma_sq_vanishes(grid, tmp_path):
    example64 = resources.files("affinefdr") / "models" / "example64.model"
    zero_ell = tmp_path / "zero_ell.model"
    zero_ell.write_text(example64.read_text().replace("ell = short_end", "ell = points: 0:0"))
    for model in (bundled_model("cir", rho=0.0), parse_model_file(str(zero_ell)).model):
        assert model.r_basis == []
        assert rz.compute_k(model) == ()
        assert rz.check_damir(model)


def test_readme_lists_every_fixed_band_of_realization():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("fixed constants of `affinefdr.realization`:", 1)[1].split("\n\n")[1]
    listed = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", table, re.M))
    assert listed, "no band table found in README.md"
    assert {name: float(value) for name, value in listed.items()} \
        == {name: getattr(rz, name, None) for name in listed}
    assert {name for name in vars(rz) if name.endswith("_TOL")} <= set(listed)


def test_quasi_exp_dimensions(grid):
    apply_a = lambda h: derivative(h, grid)
    assert len(rz.quasi_exp_subspace(apply_a, [np.exp(-0.05 * grid.x)])) == 1
    assert len(rz.quasi_exp_subspace(apply_a, [1.0 + grid.x])) == 2
    with pytest.raises(DimensionExceeded):
        rz.quasi_exp_subspace(apply_a, [1.0 / (1.0 + grid.x)], max_dim=10)


def test_quasi_exp_two_factor_span(grid):
    model = bundled_model("two_factor")
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
    model = bundled_model("two_factor")
    rng = np.random.default_rng(22)
    x = grid.x
    verdicts = set()
    for _ in range(30):
        c = rng.normal(0.0, 0.02, 4)
        s = c[0] + c[1] * x * np.exp(-x) + c[2] * np.exp(-0.5 * x)
        # the second curve lies in ker ell, on the boundary whenever it is a member
        for h in (s, s - float(model.ell(s)) * model.lam):
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
            samples = default_boundary_samples(grid, ker_ell_split(grid, cir_model.ell, pert), 6)
            rng = np.random.default_rng(10 * i + len(shape))
            factors = rng.choice([-1.0, 1.0], size=6) * 10.0 ** rng.uniform(-2, 2, 6)
            for variant, gs in (("plain", samples),
                                ("scaled", [f * g for f, g in zip(factors, samples)])):
                model = perturbed_cir_model(cir_model, pert, gs)
                out[f"cir/{shape}/{eps:g}/{variant}"] = \
                    _failing_per_sample(rz.check_thm_main2(model), len(gs))
    tf = bundled_model("two_factor")
    cone = ConeBasis(tf.lam.reshape(1, -1))
    for eps in (0.0, 1e-7, 1e-6, 3e-6, 1e-5, 1e-4, 1e-2, 1.0):
        basis = StateBasis(cone, subspace=(tf.lam ** 2 + eps * shapes["xexp"]).reshape(1, -1))
        rows = np.vstack([tf.ell.dual_vector(grid), orthogonal_split(basis).dual[1]])
        split = SplitSpace(basis, np.linalg.solve(rows @ basis.matrix.T, rows))
        samples = default_boundary_samples(grid, split, 2)
        for amplitude in ("sqrt_ell", "const"):
            model = dataclasses.replace(tf, split=split, boundary_samples=samples,
                                        amplitude=amplitude)
            out[f"tf/{eps:g}/{amplitude}"] = \
                _failing_per_sample(rz.check_thm_main2(model), len(samples))
    return out


def test_realizability_verdicts_match_golden_sweep(grid, cir_model):
    golden = json.loads((DATA / "realizability_sweep.json").read_text())
    assert _sweep_verdicts(grid, cir_model) == golden
