import ast
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from affinefdr import hjmm, modelfile
from affinefdr.curves import SHORT_END, PointCombo
from affinefdr.errors import ModelFileError
from affinefdr.hjmm import riccati_small
from affinefdr.modelfile import ModelSpec, eval_curve, parse_model_file, parse_model_text
from importlib import resources

BASE = """
[space]
x_max = 10
dx = 0.005
weight_alpha = 4

[model]
kind = custom
rho = 0.1
gamma = 0.05
ell = short_end
vol_curve = riccati(x, rho, gamma)

[cone]
c1 = riccati(x, rho, gamma)
"""


def bundled(name):
    return str(resources.files("affinefdr") / "models" / name)


@pytest.mark.parametrize("name, kind", [
    ("cir.model", "custom"),
    ("two_factor.model", "custom"),
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
    # the cone curve has vol_curve's text, so both are one array
    assert model.split.v_basis.m == 1 and model.lam is spec.vol_curves[0]
    assert parse_model_text(BASE.replace("kind = custom", "kind = linear")).model is None


def test_parse_evaluates_each_expression_text_once(monkeypatch):
    texts, evaluate = [], modelfile.eval_curve
    monkeypatch.setattr(modelfile, "eval_curve",
                        lambda expr, *args, **kw: texts.append(expr) or evaluate(expr, *args, **kw))
    for name, distinct in (("cir", ["riccati(x, rho, gamma)", "0.02 + 0.01 * x * exp(-x)"]),
                           ("two_factor", ["exp(-gamma * x)", "exp(-2 * gamma * x)"]),
                           ("example64", ["exp(-gamma * x)", "exp(-2 * gamma * x)"])):
        texts.clear()
        spec = parse_model_file(bundled(f"{name}.model"))
        assert texts == distinct, name
        assert spec.model.lam is spec.vol_curves[0]


def test_eval_curve_walks_the_syntax_tree_once(monkeypatch):
    grid = parse_model_text(BASE).grid
    walk, walks = ast.walk, []
    monkeypatch.setattr(ast, "walk", lambda node: walks.append(1) or walk(node))
    eval_curve("riccati(x, rho, gamma) + 2 ** -x", grid, {"rho": 0.1, "gamma": 0.05})
    assert len(walks) == 1


def test_default_boundary_samples_builds_only_the_shapes_it_returns(monkeypatch):
    model = parse_model_text(BASE).model
    six = hjmm.default_boundary_samples(model.grid, model.split, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("np.sin called")

    # the first 5 shapes are x e^(-a x); sin(b x) e^(-x) follow
    monkeypatch.setattr(np, "sin", refuse)
    five = hjmm.default_boundary_samples(model.grid, model.split, 5)
    assert all(np.array_equal(a, b) for a, b in zip(five, six[:5]))
    with pytest.raises(AssertionError, match="np.sin called"):
        hjmm.default_boundary_samples(model.grid, model.split, 6)


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
    with pytest.raises(ModelFileError, match=r"^\[model\] ell: point 12.0 lies outside \[0, 10\]$"):
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
    curve = eval_curve("riccati(x, rho, gamma)", spec.grid, {"rho": 0.1, "gamma": 0.05})
    assert np.array_equal(curve, riccati_small(spec.grid.x, 0.1, 0.05))
    with pytest.raises(ModelFileError, match="Call is not allowed"):
        eval_curve("riccati(x, rho=0.1, gamma=0.05)", spec.grid, {}, "[t] k")
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
    (lambda t: t.replace("kind = custom", "kind = vasicek"), "kind"),
    (lambda t: t.replace("rho = 0.1", "rho = fast"), "rho"),
    (lambda t: t.replace("rho = 0.1", "rho = -0.1"), "rho"),
    (lambda t: t.replace("weight_alpha = 4", "weight_alpha = 2"), "weight_alpha"),
    (lambda t: t.replace("ell = short_end", "ell = points: nowhere"), "ell"),
    (lambda t: t.replace("ell = short_end", "ell = integral"), "ell"),
    (lambda t: t + "\nnot an ini line\n", "parse error"),
    (lambda t: t + "\n[check]\nspan_tool = 1e-3\n", "[check] span_tool: unknown key"),
    (lambda t: t.replace("gamma = 0.05", "gama = 0.05"), "[model] gama: unknown key"),
    (lambda t: t + "\n[chek]\nmax_dim = 3\n", "[chek]: unknown section"),
    # the state process has one scheme, full truncation, and no key selects it
    (lambda t: t + "\n[sim]\nhorizon = 0.5\nscheme = full_truncation\n",
     "[sim] scheme: unknown key"),
    (lambda t: t + "\n[sim]\nhorizon = 0.5\nscheme = drift_implicit\n",
     "[sim] scheme: unknown key"),
])
def test_error_diagnostics(mutate, fragment):
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(mutate(BASE))
    assert fragment in str(exc.value)


def test_missing_file():
    with pytest.raises(ModelFileError):
        parse_model_file("/nonexistent/path.model")


def test_custom_requires_geometry():
    without_vol_curve = BASE.replace("vol_curve = riccati(x, rho, gamma)\n", "")
    with pytest.raises(ModelFileError, match=r"^\[model\] kind 'custom' requires vol_curve$"):
        parse_model_text(without_vol_curve)
    with pytest.raises(ModelFileError, match=r"^\[cone\]/\[subspace\]: "):
        parse_model_text(BASE.split("[cone]")[0])


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
    # same file is split along ker ell as two_factor.model is
    text = parse_model_file(bundled("example64.model")).source_text
    assert not parse_model_text(text).model.ell_vanishes_on_g
    two_factor = parse_model_file(bundled("two_factor.model")).model
    (_, x1), (a, b) = two_factor.ell.nodes, two_factor.ell.coeffs
    model = parse_model_text(text.replace(
        "ell = short_end", f"ell = points: 0:{a!r}, {x1 * 0.005!r}:{b!r}")).model
    assert model.ell_vanishes_on_g
    np.testing.assert_allclose(model.split.dual, two_factor.split.dual, rtol=1e-12, atol=0.0)


def test_custom_vol_curve_must_lie_in_span():
    text = parse_model_file(bundled("example64.model")).source_text
    bad = text.replace("vol_curve = exp(-gamma * x)", "vol_curve = sin(x)")
    with pytest.raises(ModelFileError, match=r"^\[model\] vol_curve: "):
        parse_model_text(bad)


def test_readme_key_table_names_exactly_the_model_file_keys():
    # one row per key a section reads, and one `<name>` row for each section
    # that names its curves freely
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` \| `([^`]+)` \|", readme, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == {(section, key) for section, keys in modelfile._SECTION_KEYS.items()
                         for key in keys or ("<name>",)}
