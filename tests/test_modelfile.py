import numpy as np
import pytest

from affinefdr.curves import PointCombo, ShortEnd
from affinefdr.errors import GridMismatch, ModelFileError
from affinefdr.hjmm import riccati_small
from affinefdr.modelfile import eval_curve, parse_model_file, parse_model_text
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
    model = spec.model()
    assert model.rho == 0.1 and np.array_equal(model.lam, riccati_small(spec.grid.x, 0.1, 0.05))
    assert isinstance(model.ell, ShortEnd)
    with pytest.raises(ModelFileError):
        parse_model_text(BASE.replace("kind = cir", "kind = linear\nvol_curve = 1")).model()


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
    ell = spec.model().ell
    assert isinstance(ell, PointCombo)
    assert ell.points == (0.0, 1.0) and ell.coeffs == (2.0, c2)


def test_point_ell_beyond_grid_end():
    text = BASE.replace("ell = short_end", "ell = points: 0:1, 12:-0.5")
    with pytest.raises(GridMismatch, match=r"^point 12.0 lies outside \[0, 10\]$"):
        parse_model_text(text).model()


@pytest.mark.parametrize("check_section", ["", "\n[check]\nspan_tol = 1e-5\n"],
                         ids=["no-section", "section"])
def test_check_defaults_with_and_without_section(check_section):
    spec = parse_model_text(BASE + check_section)
    assert spec.check_options == {"boundary_samples": 6, "max_dim": 20, "span_tol": 1e-5}


def test_eval_curve_restricted_namespace():
    spec = parse_model_text(BASE)
    curve = eval_curve("exp(-gamma * x)", spec.grid, {"gamma": 0.5}, "[t] k")
    assert np.allclose(curve, np.exp(-0.5 * spec.grid.x))
    with pytest.raises(ModelFileError):
        eval_curve("__import__('os')", spec.grid, {}, "[t] k")
    with pytest.raises(ModelFileError):
        eval_curve("1 / (x - x)", spec.grid, {}, "[t] k")


@pytest.mark.parametrize("mutate, fragment", [
    (lambda t: t.replace("[model]\n", "[m]\n"), "missing [model]"),
    (lambda t: t.replace("kind = cir", "kind = vasicek"), "kind"),
    (lambda t: t.replace("rho = 0.1", "rho = fast"), "rho"),
    (lambda t: t.replace("rho = 0.1", "rho = -0.1"), "rho"),
    (lambda t: t.replace("weight_alpha = 4", "weight_alpha = 2"), "weight_alpha"),
    (lambda t: t.replace("ell = short_end", "ell = points: nowhere"), "ell"),
    (lambda t: t.replace("ell = short_end", "ell = integral"), "ell"),
    (lambda t: t + "\nnot an ini line\n", "parse error"),
])
def test_error_diagnostics(mutate, fragment):
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(mutate(BASE))
    assert fragment in str(exc.value)


def test_missing_file():
    with pytest.raises(ModelFileError):
        parse_model_file("/nonexistent/path.model")


def test_custom_requires_geometry():
    text = BASE.replace("kind = cir", "kind = custom")
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_custom_model_data_built():
    spec = parse_model_file(bundled("example64.model"))
    model = spec.model()
    assert model.split.v_basis.dim_v == 2 and model.split.v_basis.m == 1
    # volatility curve coordinates live in the cone block
    sq = model.sigma_sq_at(0.05 * np.ones(spec.grid.n))
    assert sq.shape == (2, 2)
    assert sq[0, 0] > 0.0 and abs(sq[1, 1]) < 1e-12


def test_custom_vol_curve_must_lie_in_span():
    text = parse_model_file(bundled("example64.model")).source_text
    bad = text.replace("vol_curve = exp(-gamma * x)", "vol_curve = sin(x)")
    with pytest.raises(ModelFileError):
        parse_model_text(bad).model()
