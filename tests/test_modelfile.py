import dataclasses
import warnings

import numpy as np
import pytest

from affinefdr.curves import SHORT_END, PointCombo
from affinefdr.errors import GridMismatch, ModelFileError
from affinefdr.hjmm import riccati_small
from affinefdr.modelfile import ModelSpec, eval_curve, parse_model_file, parse_model_text
from importlib import resources

BASE = """
[space]
x_max = 10
dx = 0.005
weight_alpha = 4

[model]
kind = cir
rho = 0.1
gamma = 0.05
ell = short_end
"""


def bundled(name):
    return str(resources.files("affinefdr") / "models" / name)


@pytest.mark.parametrize("name, kind", [
    ("cir.model", "cir"),
    ("two_factor.model", "two_factor"),
    ("example64.model", "custom"),
    ("linear_qe.model", "linear"),
])
def test_bundled_models_parse(name, kind):
    spec = parse_model_file(bundled(name))
    assert spec.kind == kind
    assert spec.grid.n == 2001


def test_cir_spec_builds_model():
    spec = parse_model_text(BASE)
    model = spec.model
    assert model.rho == 0.1 and np.array_equal(model.lam, riccati_small(spec.grid.x, 0.1, 0.05))
    assert model.ell == SHORT_END
    assert parse_model_text(BASE.replace("kind = cir", "kind = linear\nvol_curve = 1")).model is None


def test_sim_section_parsed():
    spec = parse_model_file(bundled("cir.model"))
    assert spec.sim is not None
    assert spec.sim.n_paths == 2000 and spec.sim.seed == 12345
    assert spec.h0 is not None and spec.h0.shape == (2001,)
    assert spec.h0[0] == pytest.approx(0.02)


def test_point_combo_ell():
    # coefficients chosen so the combo still normalizes the volatility
    # shape lam (with lam(0) = 1) to one
    c2 = -1.0 / float(riccati_small(np.array([1.0]), 0.1, 0.05)[0])
    text = BASE.replace("ell = short_end", f"ell = points: 0:2, 1:{c2!r}")
    spec = parse_model_text(text)
    ell = spec.model.ell
    assert isinstance(ell, PointCombo)
    assert ell.nodes == (0, 200) and ell.coeffs == (2.0, c2)


def test_point_ell_beyond_grid_end():
    text = BASE.replace("ell = short_end", "ell = points: 0:1, 12:-0.5")
    with pytest.raises(GridMismatch, match=r"^point 12.0 lies outside \[0, 10\]$"):
        parse_model_text(text)


@pytest.mark.parametrize("check_section", ["", "\n[check]\nspan_tol = 1e-5\n"],
                         ids=["no-section", "section"])
def test_check_defaults_with_and_without_section(check_section):
    spec = parse_model_text(BASE + check_section)
    assert spec.max_dim == 20
    assert spec.model.span_tol == 1e-5 and len(spec.model.boundary_samples) == 6


def test_model_spec_fields():
    assert [f.name for f in dataclasses.fields(ModelSpec)] == [
        "kind", "grid", "weight", "model", "vol_curves", "max_dim", "sim", "h0", "source_text"]


def test_eval_curve_restricted_namespace():
    spec = parse_model_text(BASE)
    curve = eval_curve("exp(-gamma * x)", spec.grid, {"gamma": 0.5}, "[t] k")
    assert np.allclose(curve, np.exp(-0.5 * spec.grid.x))
    with pytest.raises(ModelFileError):
        eval_curve("__import__('os')", spec.grid, {}, "[t] k")
    with pytest.raises(ModelFileError):
        eval_curve("1 / (x - x)", spec.grid, {}, "[t] k")


@pytest.mark.parametrize("expr", ["(-8)**(1/3) * x", "0.02 + 0.001 * (-8)**(1/3) * x * exp(-x)",
                                  "(-1)**0.5"])
def test_eval_curve_rejects_complex_values(expr):
    # numpy casts complex to float with only a ComplexWarning; ignore it so
    # the test sees whether the value itself is rejected
    grid = parse_model_text(BASE).grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ModelFileError, match=r"^\[sim\] h0: .* complex"):
            eval_curve(expr, grid, {}, "[sim] h0")


@pytest.mark.parametrize("mutate, fragment", [
    (lambda t: t.replace("[model]\n", "[m]\n"), "missing [model]"),
    (lambda t: t.replace("kind = cir", "kind = vasicek"), "kind"),
    (lambda t: t.replace("rho = 0.1", "rho = fast"), "rho"),
    (lambda t: t.replace("rho = 0.1", "rho = -0.1"), "rho"),
    (lambda t: t.replace("weight_alpha = 4", "weight_alpha = 2"), "weight_alpha"),
    (lambda t: t.replace("ell = short_end", "ell = points: nowhere"), "ell"),
    (lambda t: t.replace("ell = short_end", "ell = integral"), "ell"),
    (lambda t: t + "\nnot an ini line\n", "parse error"),
    (lambda t: t + "\n[check]\nspan_tool = 1e-3\n", "[check] span_tool: unknown key"),
    (lambda t: t.replace("gamma = 0.05", "gama = 0.05"), "[model] gama: unknown key"),
    (lambda t: t + "\n[chek]\nmax_dim = 3\n", "[chek]: unknown section"),
])
def test_error_diagnostics(mutate, fragment):
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(mutate(BASE))
    assert fragment in str(exc.value)


TWO_FACTOR = BASE.replace("kind = cir", "kind = two_factor").replace(
    "gamma = 0.05", "gamma = 1.0").replace("ell = short_end\n", "")


@pytest.mark.parametrize("text, fragment", [
    (BASE + "vol_curve = 5 * x\n", "[model] vol_curve: kind 'cir'"),
    (BASE + "vol_amplitude = const\n", "[model] vol_amplitude: kind 'cir'"),
    (BASE + "\n[cone]\nc = x\n", "[cone] c: kind 'cir'"),
    (BASE + "\n[subspace]\ns = exp(-x)\n", "[subspace] s: kind 'cir'"),
    (TWO_FACTOR + "vol_curve = 5 * x\n", "[model] vol_curve: kind 'two_factor'"),
    (TWO_FACTOR + "vol_amplitude = const\n", "[model] vol_amplitude: kind 'two_factor'"),
    (TWO_FACTOR + "\n[cone]\nc = x\n", "[cone] c: kind 'two_factor'"),
    (TWO_FACTOR + "\n[subspace]\ns = exp(-x)\n", "[subspace] s: kind 'two_factor'"),
    (TWO_FACTOR + "ell = short_end\n", "[model] ell: kind 'two_factor'"),
    (TWO_FACTOR + "\n[check]\nboundary_samples = 9\n",
     "[check] boundary_samples: kind 'two_factor'"),
], ids=["cir-vol_curve", "cir-vol_amplitude", "cir-cone", "cir-subspace",
        "two_factor-vol_curve", "two_factor-vol_amplitude", "two_factor-cone",
        "two_factor-subspace", "two_factor-ell", "two_factor-boundary_samples"])
def test_preset_kinds_refuse_the_keys_they_build(text, fragment):
    # the preset builds these itself, so a value given for one would be ignored
    parse_model_text(BASE)
    parse_model_text(TWO_FACTOR)
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(text)
    assert str(exc.value) == fragment + " builds this itself"


def test_missing_file():
    with pytest.raises(ModelFileError):
        parse_model_file("/nonexistent/path.model")


def test_custom_requires_geometry():
    text = BASE.replace("kind = cir", "kind = custom")
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_custom_model_data_built():
    spec = parse_model_file(bundled("example64.model"))
    model = spec.model
    assert model.split.v_basis.dim_v == 2 and model.split.v_basis.m == 1
    # volatility curve coordinates live in the cone block
    sq = model.amp_sq(0.05 * np.ones(spec.grid.n)) * model.cc
    assert sq.shape == (2, 2)
    assert sq[0, 0] > 0.0 and abs(sq[1, 1]) < 1e-12


def test_custom_split_follows_ell_and_v():
    # example64's short-end ell is 1 on its subspace curve, so its split stays
    # orthogonal; under two_factor's two-point ell, which vanishes there, the
    # same file is split along ker ell as the preset is
    text = parse_model_file(bundled("example64.model")).source_text
    assert not parse_model_text(text).model.ell_vanishes_on_g
    preset = parse_model_file(bundled("two_factor.model")).model
    (_, x1), (a, b) = preset.ell.nodes, preset.ell.coeffs
    model = parse_model_text(text.replace(
        "ell = short_end", f"ell = points: 0:{a!r}, {x1 * 0.005!r}:{b!r}")).model
    assert model.ell_vanishes_on_g
    np.testing.assert_allclose(model.split.dual, preset.split.dual, rtol=1e-12, atol=0.0)


def test_custom_vol_curve_must_lie_in_span():
    text = parse_model_file(bundled("example64.model")).source_text
    bad = text.replace("vol_curve = exp(-gamma * x)", "vol_curve = sin(x)")
    with pytest.raises(ModelFileError, match=r"^\[model\] vol_curve: "):
        parse_model_text(bad)
