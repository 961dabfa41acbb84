import csv
import hashlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from affinefdr import cli, cones, hjmm
from affinefdr import realization as rz
from affinefdr.curves import Grid, derivative
from affinefdr.hjmm import SquareRootModel, riccati_capital, riccati_small
from affinefdr.modelfile import parse_model_file
from affinefdr.simulate import (evolve_psi, fdr_phi_values, simulate_state,
                                summarize_direct)

from conftest import model_text, traced_peak

MODELS = resources.files("affinefdr") / "models"
DATA = Path(__file__).parent / "data"


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "affinefdr.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


def model_path(name):
    return str(MODELS / name)


def test_riccati_writes_csv(tmp_path):
    out = tmp_path / "ric.csv"
    res = run_cli("riccati", "--rho", "0.1", "--gamma", "0.05",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"x", "Lambda", "lambda", "residual"}
    assert float(rows[0]["Lambda"]) == 0.0 and float(rows[0]["lambda"]) == 1.0
    assert max(abs(float(r["residual"])) for r in rows) <= 1e-6


def reference_write_csv(path, header, rows):
    """The generic writer that cli._write_csv replaces: one value at a
    time, floats as %.17g and anything else through str()."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def test_riccati_csv_matches_reference_writer(tmp_path):
    out = tmp_path / "ric.csv"
    res = run_cli("riccati", "--rho", "0.3", "--gamma", "0.05", "--xmax", "5",
                  "--dx", "0.01", "--out", str(out))
    assert res.returncode == 0, res.stderr
    grid = Grid(5.0, 0.01)
    lam_cap, lam = riccati_capital(grid.x, 0.3, 0.05), riccati_small(grid.x, 0.3, 0.05)
    residual = derivative(lam, grid) + 0.3 ** 2 * lam * lam_cap + 0.05 * lam
    ref = tmp_path / "ref.csv"
    reference_write_csv(ref, "x,Lambda,lambda,residual",
                        zip(grid.x.tolist(), lam_cap.tolist(), lam.tolist(),
                            residual.tolist()))
    assert out.read_bytes() == ref.read_bytes()


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]


@pytest.mark.parametrize("n_rows", [1, cli.ROW_CHUNK, cli.ROW_CHUNK + 1, 2 * cli.ROW_CHUNK + 3])
def test_write_csv_matches_reference_writer(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    # integer keys from 10^5 down to 0, printed by the reference through str()
    keys = np.linspace(1e5, 0, n_rows).round().astype(int).tolist()
    fields = rng.standard_normal((n_rows, 6)) * 10.0 ** rng.integers(-300, 300, (n_rows, 6))
    # every other row holds each special value once, rotated per row
    rows = np.arange(0, n_rows, 2)
    fields[rows] = np.array(SPECIALS)[(rows[:, None] + np.arange(6)) % 6]
    header = "key,a,b,c,d,e,f"
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    cli._write_csv(str(out), header, np.column_stack([np.array(keys, dtype=float), fields]))
    reference_write_csv(ref, header, [(k, *row) for k, row in zip(keys, fields.tolist())])
    assert out.read_bytes() == ref.read_bytes()


def test_riccati_unwritable_out_exits_2(tmp_path):
    res = run_cli("riccati", "--rho", "0.1", "--out", str(tmp_path / "no_such_dir" / "x.csv"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_riccati_rejects_nonpositive_rho(tmp_path):
    res = run_cli("riccati", "--rho", "0", "--out", str(tmp_path / "r.csv"))
    assert res.returncode == 2


@pytest.mark.parametrize("argv", [
    ["riccati", "--rho", "0.1", "--xmax", "0.005", "--dx", "0.005", "--out", "r.csv"],
    ["check", "cir.model"],
], ids=["riccati", "check-cir"])
def test_a_two_node_grid_exits_2(tmp_path, argv):
    # the fourth-order central stencil reads five nodes
    text = (MODELS / "cir.model").read_text().replace("x_max = 10", "x_max = 0.005")
    (tmp_path / "cir.model").write_text(text)
    res = run_cli(*argv, cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.endswith("the grid has 2 nodes; it needs at least 5\n")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("name", ["cir", "linear_qe"])
@pytest.mark.parametrize("x_max, nodes", [("0.01", 3), ("0.015", 4), ("0.02", 5)])
def test_check_needs_a_grid_of_five_nodes(tmp_path, name, x_max, nodes):
    # on 3 or 4 nodes the central stencil applies at no node, so no verdict
    # can rest on the grid
    model = tmp_path / f"{name}.model"
    model.write_text((MODELS / f"{name}.model").read_text().replace("x_max = 10",
                                                                    f"x_max = {x_max}"))
    res = run_cli("check", str(model))
    assert "Traceback" not in res.stderr
    if nodes < 5:
        assert res.returncode == 2
        assert res.stderr.endswith(f"the grid has {nodes} nodes; it needs at least 5\n")
    else:
        assert res.returncode == 0, res.stderr


def test_the_shared_parser_carries_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    cir = model_path("cir.model")
    assert cli.main(["check", cir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "custom"
    assert cli.main(["check", cir]) == 0
    assert capsys.readouterr().out.startswith("model kind: custom\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert cli.main(["check", cir]) == 0
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: affinefdr check")


def test_main_runs_the_command_function_bound_at_call_time(monkeypatch):
    cir = model_path("cir.model")
    assert cli.main(["check", cir]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: calls.append(args.modelfile) or 7)
    monkeypatch.setattr(cli, "cmd_initial_set", lambda args: calls.append(args.curve) or 8)
    assert cli.main(["check", cir]) == 7
    assert cli.main(["initial-set", cir, "--curve", "h.csv"]) == 8
    assert calls == [cir, "h.csv"]


def test_riccati_rejects_infinite_dx(tmp_path, capsys):
    assert cli.main(["riccati", "--rho", "0.1", "--dx", "inf",
                     "--out", str(tmp_path / "r.csv")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--rho", "nan"), ("--gamma", "nan"),
                                         ("--rho", "inf")])
def test_riccati_rejects_non_finite_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    argv = {"--rho": "0.1", "--gamma": "0.05", flag: value}
    assert cli.main(["riccati", *(a for kv in argv.items() for a in kv),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be finite")
    assert not out.exists()


def test_check_cir_accepts():
    res = run_cli("check", model_path("cir.model"), "--json")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["checks"]["overall"] is True
    assert report["checks"]["check_damir"] is True


def test_check_example64_rejects():
    res = run_cli("check", model_path("example64.model"), "--json")
    assert res.returncode == 1, res.stderr
    report = json.loads(res.stdout)
    assert report["checks"]["check_damir"] is False


def test_check_two_factor_and_linear():
    assert run_cli("check", model_path("two_factor.model")).returncode == 0
    assert run_cli("check", model_path("linear_qe.model")).returncode == 0


def test_check_determinism():
    a = run_cli("check", model_path("cir.model"), "--json")
    b = run_cli("check", model_path("cir.model"), "--json")
    assert a.stdout == b.stdout


@pytest.mark.parametrize("name", ["cir", "two_factor", "example64", "linear_qe"])
def test_check_json_matches_golden(name):
    res = run_cli("check", model_path(f"{name}.model"), "--json")
    assert res.stdout.encode() == (DATA / f"check_{name}.json").read_bytes()


def test_check_fits_once_per_sample(monkeypatch):
    amp_sq, calls = SquareRootModel.amp_sq, []
    monkeypatch.setattr(SquareRootModel, "amp_sq",
                        lambda self, h: calls.append(1) or amp_sq(self, h))
    # per sample g the fit reads g and g + t b_i (t = 1/2, 1), and the checks
    # share it; R is the line of c c^T and reads no sample
    for name, n, n_calls, overall in [("cir", 6, 18, True), ("two_factor", 2, 10, True),
                                      ("example64", 3, 15, False)]:
        spec = parse_model_file(model_path(f"{name}.model"))
        calls.clear()
        assert cli._run_checks(spec)["overall"] is overall
        model = spec.model
        d = model.split.v_basis.dim_v
        assert len(model.boundary_samples) == n
        assert len(calls) == n * (1 + 2 * d) == n_calls, name


def test_check_applies_the_drift_image_operator_once(monkeypatch):
    build, applied = hjmm.build_s_operator, []

    def counting(*args):
        apply = build(*args)
        return lambda phi: applied.append(1) or apply(phi)

    monkeypatch.setattr(hjmm, "build_s_operator", counting)
    # fit, beta1, beta2, K and the quasi-exponential seed all read S(c c^T)
    for name in ("cir", "two_factor", "example64"):
        spec = parse_model_file(model_path(f"{name}.model"))
        applied.clear()
        cli._run_checks(spec)
        assert len(applied) == 1, name


def test_check_output_does_not_depend_on_the_blas_thread_count():
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        outputs[threads] = [
            subprocess.run([sys.executable, "-m", "affinefdr.cli", "check",
                            model_path(f"{name}.model"), "--json"],
                           capture_output=True, env=env).stdout
            for name in ("cir", "two_factor", "example64", "linear_qe")]
    assert all(outputs["1"])
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("name", ["cir", "two_factor", "example64"])
def test_check_square_root_key_set(capsys, name):
    cli.main(["check", model_path(f"{name}.model"), "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"realizability", "check_damir", "check_const_mod_k"} <= set(checks)
    # example64's G is the orthogonal complement of V, which ell does not vanish on
    assert checks["ell_vanishes_on_g"] is (name != "example64")
    # the quasi-exponential test runs exactly where K is nontrivial
    qe_keys = {"a_sigma_dim", "a_sigma_in_v"}
    assert qe_keys & set(checks) == (set() if checks["check_damir"] else qe_keys)


def test_check_reports_the_orthogonal_split_fallback(tmp_path):
    # at dx = 0.01 the point 0.695 of two_factor's ell is no node, so ell
    # snaps to 0.7 and no longer vanishes on the subspace curve: the split
    # falls back to the orthogonal complement of V, and the report says so
    coarse = tmp_path / "coarse.model"
    coarse.write_text(model_text("two_factor", dx=0.01))
    res = run_cli("check", str(coarse), "--json")
    checks = json.loads(res.stdout)["checks"]
    assert checks["ell_vanishes_on_g"] is False
    assert res.returncode == 1 and checks["overall"] is False
    linear = run_cli("check", model_path("linear_qe.model"), "--json")
    assert "ell_vanishes_on_g" not in json.loads(linear.stdout)["checks"]


def test_check_nontrivial_k_needs_a_quasi_exponential_lam(tmp_path):
    # S(c c^T) = lam Lam = log(1 + x) / (1 + x) lies in V, so K = R; but the
    # iterated span of 1 / (1 + x) under d/dx is not finite-dimensional
    qe = tmp_path / "qe.model"
    qe.write_text("[model]\nkind = custom\nrho = 0.1\nvol_curve = 1 / (1 + x)\n"
                  "[cone]\nc1 = 1 / (1 + x)\n[subspace]\nu1 = log(1 + x) / (1 + x)\n"
                  "[check]\nmax_dim = 10\n")
    res = run_cli("check", str(qe), "--json")
    assert res.returncode == 1, res.stderr
    checks = json.loads(res.stdout)["checks"]
    assert checks["check_damir"] is False
    assert checks["detail"] == "iterated subspace exceeds 10 dimensions"
    assert checks["a_sigma_in_v"] is False and checks["overall"] is False


def test_check_holds_the_benchmark_pins(capsys):
    # every boolean the benchmark pins, read from its reference without change
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "check_reference.json")
                           .read_text(encoding="utf-8"))
    exits = {"cir": 0, "two_factor": 0, "example64": 1, "linear_qe": 0}
    assert set(reference) == set(exits)
    for name, pins in reference.items():
        assert cli.main(["check", model_path(f"{name}.model"), "--json"]) == exits[name]
        checks = json.loads(capsys.readouterr().out)["checks"]
        for key, value in pins.items():
            leaf = checks
            for part in key.split("."):
                leaf = leaf[part]
            assert leaf is value, (name, key)


def test_check_custom_two_factor_copy_takes_its_verdict_from_the_sample_count(tmp_path, capsys):
    # two_factor.model draws 2 boundary samples; at the default 6 the third,
    # fourth and fifth, x e^(-a x) for a = 1.5, 2 and 3 in G, fail cond-AR-1
    text = (MODELS / "two_factor.model").read_text()
    assert text.endswith("[check]\nboundary_samples = 2\nmax_dim = 20\n")
    default = tmp_path / "default_samples.model"
    default.write_text(text.replace("boundary_samples = 2\n", ""))
    assert cli.main(["check", model_path("two_factor.model"), "--json"]) == 0
    capsys.readouterr()
    assert cli.main(["check", str(default), "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]["realizability"]
    assert checks["cond-AR-1"]["n_samples"] == 6
    assert [f.split(" > ")[0] for f in checks["cond-AR-1"]["failures"]] \
        == ["g[2]: nu-1 0 3.814e-02", "g[3]: nu-1 0 3.470e-01", "g[4]: nu-1 0 5.965e-01"]
    assert [name for name, c in checks.items() if not c["ok"]] == ["cond-AR-1"]


def test_check_linear_builds_the_iterated_subspace_once(monkeypatch):
    spec = parse_model_file(model_path("linear_qe.model"))
    subspace, calls = rz.quasi_exp_subspace, []
    monkeypatch.setattr(rz, "quasi_exp_subspace",
                        lambda *a, **kw: calls.append(1) or subspace(*a, **kw))
    assert cli._run_checks(spec)["overall"] is True
    assert len(calls) == 1


def test_check_cir_honours_span_tol(tmp_path):
    text = (MODELS / "cir.model").read_text().replace("span_tol = 1e-5", "span_tol = 1e-12")
    strict = tmp_path / "strict.model"
    strict.write_text(text)
    res = run_cli("check", str(strict), "--json")
    assert res.returncode == 1, res.stderr
    realizability = json.loads(res.stdout)["checks"]["realizability"]
    failing = {name for name, summary in realizability.items() if not summary["ok"]}
    assert failing == {"cond-AR-2", "beta-inc-V"}


def test_check_cir_draws_all_requested_boundary_samples(tmp_path):
    text = (MODELS / "cir.model").read_text().replace("boundary_samples = 6",
                                                      "boundary_samples = 10")
    wide = tmp_path / "wide.model"
    wide.write_text(text)
    res = run_cli("check", str(wide), "--json")
    assert res.returncode == 0, res.stderr
    realizability = json.loads(res.stdout)["checks"]["realizability"]
    assert {summary["n_samples"] for summary in realizability.values()} == {10}


def test_check_two_factor_point_past_grid_end(tmp_path):
    # ln 2 / 0.05 = 13.86 would put the second point of ell beyond x_max = 10
    text = (MODELS / "two_factor.model").read_text().replace(" 0.695:", " 13.865:")
    far = tmp_path / "far.model"
    far.write_text(text)
    res = run_cli("check", str(far))
    assert res.returncode == 2
    assert res.stderr == "error: [model] ell: point 13.865 lies outside [0, 10]\n"


@pytest.mark.parametrize("check_section", ["", "\n[check]\nspan_tol = 1e-5\n"],
                         ids=["no-section", "section"])
def test_check_linear_max_dim_defaults_to_20(tmp_path, check_section):
    lin = tmp_path / "lin.model"
    lin.write_text("[model]\nkind = linear\nvol_curve = 0.05 / (1 + x)\n" + check_section)
    res = run_cli("check", str(lin), "--json")
    assert res.returncode == 1, res.stderr
    checks = json.loads(res.stdout)["checks"]
    assert checks["detail"] == "iterated subspace exceeds 20 dimensions"


def test_check_bad_modelfile(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("[model]\nkind = cir\n")
    assert run_cli("check", str(bad)).returncode == 2


ESCAPE = ("[c for c in ().__class__.__base__.__subclasses__() "
          "if c.__name__ == 'catch_warnings'][0]()._module.__builtins__")


@pytest.mark.parametrize("expr", [
    ESCAPE + "['__import__']('os').getpid() + x*0",
    ESCAPE + "['open']({path!r}, 'w').close() or x",
    "x.T",
    "(lambda y: y)(x)",
    "x + 0 * 3**3**15",
    "10**400",
], ids=["getpid", "open", "attribute", "lambda", "integer-power", "overflow"])
def test_check_rejects_expression_beyond_arithmetic(tmp_path, expr):
    marker = tmp_path / "evaluated"
    text = (MODELS / "linear_qe.model").read_text()
    bad = tmp_path / "bad.model"
    bad.write_text(text.replace("rho * (1 + x) * exp(-gamma * x)", expr.format(path=str(marker))))
    res = run_cli("check", str(bad))
    assert res.returncode == 2, res.stdout
    assert "[model] vol_curve" in res.stderr
    assert not marker.exists()


@pytest.mark.parametrize("name,old,new,where", [
    ("cir", "boundary_samples = 6", "boundary_samples = 0", "[check] boundary_samples"),
    ("cir", "boundary_samples = 6", "boundary_samples = -3", "[check] boundary_samples"),
    ("cir", "span_tol = 1e-5", "span_tol = nan", "[check] span_tol"),
    ("cir", "weight_alpha = 4", "weight_alpha = nan", "[space] weight_alpha"),
    ("cir", "dx = 0.005", "dx = inf", "[space] x_max, dx"),
    ("cir", "ell = short_end", "ell = points: inf:1", "[model] ell"),
    ("cir", "ell = short_end", "ell = points: 0:nan", "[model] ell"),
    ("cir", "span_tol = 1e-5", "span_tol = 1e-5\nmax_dim = 0", "[check] max_dim"),
    ("cir", "span_tol = 1e-5", "span_tol = 1e-5\nmax_dim = -2", "[check] max_dim"),
    ("cir", "dt = 0.005", "dt = inf", "[sim]: dt"),
    ("cir", "dt = 0.005", "dt = nan", "[sim]: dt"),
    ("cir", "horizon = 0.5", "horizon = nan", "[sim]: horizon"),
    ("cir", "horizon = 0.5", "horizon = inf", "[sim]: horizon"),
    ("cir", "seed = 12345", "seed = -1", "[sim]: seed"),
    ("cir", "seed = 12345", "seed = 18446744073709551616", "[sim]: seed"),
    ("cir", "rho = 0.1", "rho = nan", "[model] rho"),
    ("cir", "gamma = 0.05", "gamma = nan", "[model] gamma"),
    ("cir", "gamma = 0.05", "gamma = inf", "[model] gamma"),
    ("two_factor", "rho = 0.1", "rho = nan", "[model] rho"),
    ("two_factor", "gamma = 1.0", "gamma = nan", "[model] gamma"),
    ("example64", "rho = 0.2", "rho = nan", "[model] rho"),
    ("cir", "weight_alpha = 4", "weight_alpha = 400", "[space] weight_alpha"),
    # warnings are errors here, so these overflows are refused before numpy warns
    ("cir", "gamma = 0.05", "gamma = 1e200",
     "error: [cone] c1: expression 'riccati(x, rho, gamma)' is not a finite curve\n"),
    ("cir", "rho = 0.1", "rho = 1e160",
     "error: [cone] c1: expression 'riccati(x, rho, gamma)' is not a finite curve\n"),
    # exp(-1e-320 x) and exp(-2e-320 x) are both the constant 1
    ("two_factor", "gamma = 1.0", "gamma = 1e-320",
     "error: [cone]/[subspace]: cone generators and subspace are linearly dependent\n"),
    ("cir", "rho = 0.1", "rho = -0.1", "error: [model] rho must be nonnegative\n"),
    ("two_factor", "rho = 0.1", "rho = -0.1", "error: [model] rho must be nonnegative\n"),
    ("example64", "rho = 0.2", "rho = -0.2", "error: [model] rho must be nonnegative\n"),
    ("linear_qe", "rho = 0.05", "rho = -0.05", "error: [model] rho must be nonnegative\n"),
], ids=["samples-0", "samples-negative", "span-tol-nan", "alpha-nan", "dx-inf",
        "point-inf", "coeff-nan", "max-dim-0", "max-dim-negative", "dt-inf", "dt-nan",
        "horizon-nan", "horizon-inf", "seed-negative", "seed-2**64", "cir-rho-nan",
        "cir-gamma-nan", "cir-gamma-inf", "two_factor-rho-nan", "two_factor-gamma-nan",
        "example64-rho-nan", "alpha-overflow", "cir-gamma-overflow", "cir-rho-overflow",
        "two_factor-gamma-underflow", "cir-rho-negative", "two_factor-rho-negative",
        "example64-rho-negative", "linear_qe-rho-negative"])
def test_check_rejects_out_of_range_model_values(tmp_path, capsys, name, old, new, where):
    text = (MODELS / f"{name}.model").read_text()
    assert old in text
    bad = tmp_path / "bad.model"
    bad.write_text(text.replace(old, new))
    assert cli.main(["check", str(bad)]) == 2
    assert where in capsys.readouterr().err


def test_check_norms_each_state_basis_once(monkeypatch):
    normalize, calls = cones.normalize_basis, []
    monkeypatch.setattr(cones, "normalize_basis",
                        lambda cone: calls.append(1) or normalize(cone))
    post_init, bases = cones.StateBasis.__post_init__, []
    monkeypatch.setattr(cones.StateBasis, "__post_init__",
                        lambda self: bases.append(1) or post_init(self))
    for name in ("cir.model", "two_factor.model", "example64.model", "linear_qe.model"):
        cli._run_checks(parse_model_file(model_path(name)))
    assert len(calls) == len(bases) == 3


def test_no_least_squares_solve_on_the_check_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for name in ("cir", "two_factor", "example64", "linear_qe"):
        cli._run_checks(parse_model_file(model_path(f"{name}.model")))
    spec = parse_model_file(model_path("cir.model"))
    assert rz.maximal_initial_membership(np.full(spec.grid.n, 0.02), spec.model) == (True, False)


CHECK_ROUND = ("cir", "two_factor", "example64", "linear_qe")


def test_check_path_does_not_import_numpy_random(tmp_path):
    # importing numpy.random adds about 6 MB of resident memory to a fresh
    # process; default_boundary_samples draws no mixture for the bundled models
    curve = tmp_path / "h.csv"
    write_curve(curve, 2001, np.full(2001, 0.02))
    script = (
        "import contextlib, io, sys\n"
        "from affinefdr import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for name in {CHECK_ROUND!r}:\n"
        f"        cli.main(['check', {str(MODELS)!r} + '/' + name + '.model', '--json'])\n"
        f"    cli.main(['initial-set', {model_path('cir.model')!r}, '--curve', {str(curve)!r}])\n"
        "print('numpy.random' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_check_round_allocates_little(capsys):
    # a warm round of the four bundled models peaks near 0.4 MB of traced
    # allocations, numpy buffers included
    def check_round():
        for name in CHECK_ROUND:
            cli.main(["check", model_path(f"{name}.model"), "--json"])
        capsys.readouterr()

    check_round()
    assert traced_peak(check_round) < 2 * 2 ** 20


def test_check_thm_main2_applies_a_to_the_basis_once(monkeypatch):
    spec = parse_model_file(model_path("cir.model"))
    model = spec.model
    model.boundary_fits, model.s_cc  # computed once per model, outside the count
    derivative, calls = hjmm.derivative, []
    monkeypatch.setattr(hjmm, "derivative",
                        lambda h, grid: calls.append(np.shape(h)) or derivative(h, grid))
    assert rz.check_thm_main2(model).overall
    # A g per sample, and one A of the basis that every sample shares
    n = len(model.boundary_samples)
    assert n == 6 and len(calls) == n + 1 == 7
    assert calls.count(model.split.v_basis.matrix.shape) == 1


def write_curve(path, grid_n, values):
    x = np.arange(grid_n) * 0.005
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for xi, vi in zip(x, values):
            fh.write(f"{xi:.6f},{float(vi)!r}\n")


def test_initial_set_verdicts(tmp_path):
    n = 2001
    x = np.arange(n) * 0.005
    member = tmp_path / "member.csv"
    write_curve(member, n, np.full(n, 0.02))
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(member))
    assert res.returncode == 0 and "member" in res.stdout

    outside = tmp_path / "outside.csv"
    write_curve(outside, n, np.zeros(n))
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(outside))
    assert res.returncode == 1

    boundary = tmp_path / "boundary.csv"
    write_curve(boundary, n, x * np.exp(-x))
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(boundary))
    assert res.returncode == 0 and "boundary" in res.stdout.lower()


def test_initial_set_two_factor(tmp_path):
    n = 2001
    member = tmp_path / "member.csv"
    write_curve(member, n, np.full(n, 0.5))
    res = run_cli("initial-set", model_path("two_factor.model"), "--curve", str(member))
    assert res.returncode == 0 and "verdict: member\n" in res.stdout

    outside = tmp_path / "outside.csv"
    write_curve(outside, n, np.full(n, -0.5))
    res = run_cli("initial-set", model_path("two_factor.model"), "--curve", str(outside))
    assert res.returncode == 1 and "verdict: non-member\n" in res.stdout


def initial_set_cases():
    """(case, model, curve) for the initial-set golden file: a member, a
    boundary (ker ell) and a non-member curve per square-root kind, and the
    refusals of the kinds without a split along ker ell."""
    n = 2001
    x = np.arange(n) * 0.005
    x1 = round(np.log(2.0) / 0.005) * 0.005  # second point of two_factor's ell
    return [
        ("cir-member", "cir.model", np.full(n, 0.02)),
        ("cir-boundary", "cir.model", x * np.exp(-x)),
        ("cir-non-member", "cir.model", np.zeros(n)),
        ("two_factor-member", "two_factor.model", np.full(n, 0.5)),
        ("two_factor-boundary", "two_factor.model", x * (x - x1) * np.exp(-x)),
        ("two_factor-non-member", "two_factor.model", np.full(n, -0.5)),
        ("example64-refusal", "example64.model", np.full(n, 0.02)),
        ("linear_qe-refusal", "linear_qe.model", np.full(n, 0.02)),
    ]


def run_initial_set_cases(tmp_path):
    out = {}
    for case, name, values in initial_set_cases():
        curve = tmp_path / f"{case}.csv"
        write_curve(curve, len(values), values)
        res = run_cli("initial-set", model_path(name), "--curve", str(curve))
        out[case] = {"returncode": res.returncode, "stdout": res.stdout,
                     "stderr": res.stderr}
    return out


def test_initial_set_matches_golden(tmp_path):
    golden = json.loads((DATA / "initial_set.json").read_text())
    assert run_initial_set_cases(tmp_path) == golden
    assert {case: g["returncode"] for case, g in golden.items()
            if g["returncode"] != 0} == {"cir-non-member": 1, "two_factor-non-member": 1,
                                         "example64-refusal": 2, "linear_qe-refusal": 2}


@pytest.mark.parametrize("name, missing", [
    ("linear_qe.model", "a square-root model; this file has none"),
    ("example64.model", "a split along ker ell; this model's G does not lie in ker ell"),
], ids=["linear_qe.model", "example64.model"])
def test_initial_set_needs_split_along_ker_ell(tmp_path, name, missing):
    curve = tmp_path / "curve.csv"
    write_curve(curve, 2001, np.full(2001, 0.02))
    res = run_cli("initial-set", model_path(name), "--curve", str(curve))
    assert res.returncode == 2
    assert res.stderr == f"error: initial-set needs {missing}\n"


def test_initial_set_grid_mismatch(tmp_path):
    short = tmp_path / "short.csv"
    write_curve(short, 100, np.full(100, 0.02))
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(short))
    assert res.returncode == 2


@pytest.mark.parametrize("rows, message", [
    (0, "no rows"), (1, "curve x-column does not match the model grid")],
    ids=["header-only", "one-row"])
def test_initial_set_refuses_a_curve_of_no_row_or_one_row(tmp_path, rows, message):
    curve = tmp_path / "curve.csv"
    write_curve(curve, rows, np.full(rows, 0.02))
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(curve))
    assert res.returncode == 2
    # no numpy warning ahead of the message
    assert res.stderr == f"error: {curve}: {message}\n"


def test_initial_set_rejects_a_nan_in_the_x_column(tmp_path):
    curve = tmp_path / "nan_x.csv"
    write_curve(curve, 2001, np.full(2001, 0.02))
    lines = curve.read_text().splitlines(keepends=True)
    lines[5] = "nan," + lines[5].split(",")[1]
    curve.write_text("".join(lines))
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(curve))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "x-column" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
def test_initial_set_refuses_a_curve_without_a_finite_norm(tmp_path, value):
    # a nan or inf value, or a finite one whose derivative overflows, leaves
    # the H_w norm not finite; the refusal names the file, without a numpy warning
    curve = tmp_path / "curve.csv"
    values = np.full(2001, 0.02)
    values[7] = float(value)
    write_curve(curve, 2001, values)
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(curve))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {curve}: the curve's H_w norm is not finite\n"


def test_simulate_and_check_refuse_an_h0_without_a_finite_norm(fast_model, tmp_path):
    # h0 and its derivative are finite, the integrand of the norm is not
    bad = tmp_path / "huge_h0.model"
    bad.write_text(Path(fast_model).read_text().replace(
        "h0 = 0.02 + 0.01 * x * exp(-x)", "h0 = 0.02 + 1e307 * (x * x * exp(-x))"))
    out = tmp_path / "run"
    for argv in (["simulate", str(bad), "--out-dir", str(out)], ["check", str(bad)]):
        res = run_cli(*argv)
        assert (res.returncode, res.stdout) == (2, ""), argv
        assert res.stderr == "error: [sim] h0: the curve's H_w norm is not finite\n", argv
    assert not out.exists()


@pytest.fixture(scope="module")
def fast_model(tmp_path_factory):
    # same model as cir.model with a smaller path count for CLI round trips
    text = (MODELS / "cir.model").read_text()
    text = text.replace("paths = 2000", "paths = 200")
    path = tmp_path_factory.mktemp("m") / "fast.model"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def sim_run(fast_model, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    res = run_cli("simulate", fast_model, "--out-dir", str(out))
    assert res.returncode == 0, res.stderr
    return str(out)


def test_simulate_artifacts_present(sim_run):
    names = {"psi.npy", "paths.npy", "fdr_phis.csv", "fdr_mean_curve.csv",
             "direct_phis.csv", "direct_stats.csv", "direct_mean_curve.csv",
             "verify.json", "manifest.json"}
    assert names <= set(os.listdir(sim_run))
    manifest = json.loads((Path(sim_run) / "manifest.json").read_text())
    assert "verify.json" in manifest["artifacts"]
    verify = json.loads((Path(sim_run) / "verify.json").read_text())
    assert all(p["within_3se"] for p in verify["phis"].values())


def test_simulate_manifest_matches_golden(sim_run):
    # the manifest hashes every artifact, so this pins all of their bytes
    assert (Path(sim_run) / "manifest.json").read_bytes() == \
        (DATA / "manifest_cir_both.json").read_bytes()


def test_simulate_manifest_across_blocks_matches_golden(tmp_path):
    # 1100 paths: five reduction slices of PATH_BLOCK = 256 rows and two
    # recursion blocks of RECURSION_BLOCK = 1024, each with a partial last one
    model = tmp_path / "cir1100.model"
    model.write_text((MODELS / "cir.model").read_text().replace("paths = 2000", "paths = 1100"))
    out = tmp_path / "run"
    res = run_cli("simulate", str(model), "--out-dir", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "manifest.json").read_bytes() == \
        (DATA / "manifest_cir_1100_both.json").read_bytes()


@pytest.mark.parametrize("paths,h0", [(200, None), (1100, None),
                                      (1100, "60 * (0.02 + 0.01 * x * exp(-x))")],
                         ids=["200", "1100", "1100-large_h0"])
def test_simulate_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, paths, h0):
    # the models of both manifest goldens, and one whose h0, scaled 60 times,
    # takes every slice's residual normalizer through the oracle's curves;
    # the thread count is read per process
    model = tmp_path / "cir.model"
    model.write_text(model_text("cir", paths=paths, **({"h0": h0} if h0 else {})))
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        res = subprocess.run([sys.executable, "-m", "affinefdr.cli", "simulate", str(model),
                              "--out-dir", str(out)], capture_output=True, text=True,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        runs[threads] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert len(runs["1"]) == 9
    assert runs["1"] == runs["2"]


def test_simulate_byte_identical(fast_model, sim_run, tmp_path):
    out2 = tmp_path / "again"
    res = run_cli("simulate", fast_model, "--out-dir", str(out2))
    assert res.returncode == 0, res.stderr
    for name in os.listdir(sim_run):
        with open(os.path.join(sim_run, name), "rb") as f1, \
                open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_simulate_npy_arrays(fast_model, sim_run):
    spec = parse_model_file(fast_model)
    model, config, h0 = spec.model, spec.sim, spec.h0
    paths = np.load(os.path.join(sim_run, "paths.npy"), allow_pickle=False)
    assert paths.dtype == np.dtype("<f8")
    assert paths.shape == (config.n_paths, config.n_steps + 1)
    assert (paths >= 0).all()
    ell = np.loadtxt(os.path.join(sim_run, "fdr_phis.csv"), delimiter=",", skiprows=1,
                     ndmin=2)[:, 1]
    assert np.array_equal(paths[:, -1], ell)
    psi = np.load(os.path.join(sim_run, "psi.npy"), allow_pickle=False)
    assert psi.dtype == np.dtype("<f8")
    assert psi.shape == (config.n_steps + 1, spec.grid.n)
    assert np.array_equal(psi[0], h0 - float(model.ell(h0)) * model.lam)


def reference_simulate_csvs(modelfile, out, mode):
    """simulate's CSV artifacts rebuilt from the library's arrays with the
    reference writer, and its .npy artifacts saved from those arrays;
    returns their names."""
    spec = parse_model_file(modelfile)
    model, config, h0, x = spec.model, spec.sim, spec.h0, spec.grid.x.tolist()

    def phi_rows(phis):
        return [(p, float(phis["ell"][p]), float(phis["eval_at_1"][p]),
                 float(phis["hw_norm"][p])) for p in range(len(phis["ell"]))]

    written, arrays = {}, {}
    foliation = None
    if mode in ("fdr", "both"):
        foliation = evolve_psi(model, h0, config)
        paths = simulate_state(model, foliation, config)
        arrays = {"psi.npy": foliation.psi, "paths.npy": paths}
        written["fdr_phis.csv"] = ("path,ell,eval_at_1,hw_norm",
                                   phi_rows(fdr_phi_values(foliation, paths, model,
                                                           spec.weight)))
        mean = foliation.psi[-1] + paths[:, -1].mean() * model.lam
        written["fdr_mean_curve.csv"] = ("x,value", zip(x, mean.tolist()))
    if mode in ("direct", "both"):
        run = summarize_direct(model, h0, config, spec.weight,
                               None if foliation is None else foliation.psi[-1])
        written["direct_phis.csv"] = ("path,ell,eval_at_1,hw_norm", phi_rows(run.phis))
        written["direct_stats.csv"] = ("key,value", [
            ("min_ell", run.min_ell),
            ("negative_short_rate", float(run.negative_short_rate)),
            ("foliation_residual", run.foliation_residual)])
        written["direct_mean_curve.csv"] = ("x,value", zip(x, run.mean_curve.tolist()))
    for name, (header, rows) in written.items():
        reference_write_csv(os.path.join(out, name), header, rows)
    for name, values in arrays.items():
        np.save(os.path.join(out, name), values, allow_pickle=False)
    return sorted([*written, *arrays])


@pytest.mark.parametrize("mode", ["fdr", "direct", "both"])
def test_simulate_csvs_match_reference_writer(fast_model, tmp_path, mode):
    out, ref = tmp_path / "run", tmp_path / "ref"
    res = run_cli("simulate", fast_model, "--mode", mode, "--out-dir", str(out))
    assert res.returncode == 0, res.stderr
    ref.mkdir()
    names = reference_simulate_csvs(fast_model, str(ref), mode)
    # the manifest hashes every artifact, and nothing else is left behind
    assert sorted(os.listdir(out)) == sorted(
        [*names, "manifest.json", *(["verify.json"] if mode == "both" else [])])
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    if mode == "direct":
        assert (out / "direct_stats.csv").read_text().endswith("foliation_residual,nan\n")


def simulate_in_process(fast_model, out, mode="fdr"):
    return cli.main(["simulate", fast_model, "--mode", mode, "--out-dir", str(out)])


def test_simulate_failed_writer_exits_2_without_manifest(fast_model, tmp_path, monkeypatch,
                                                         capsys):
    write_csv, calls = cli._write_csv, []

    def failing(path, header, values):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("no space left on device")
        write_csv(path, header, values)

    monkeypatch.setattr(cli, "_write_csv", failing)
    out = tmp_path / "run"
    assert simulate_in_process(fast_model, out) == 2
    assert len(calls) == 2
    assert "error: no space left on device" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_simulate_out_dir_that_is_a_file_exits_2(fast_model, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    res = run_cli("simulate", fast_model, "--out-dir", str(blocker))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_simulate_assembles_the_drift_image_operator_once(fast_model, tmp_path,
                                                          monkeypatch):
    build, calls = hjmm.build_s_operator, []
    monkeypatch.setattr(hjmm, "build_s_operator",
                        lambda *a: calls.append(1) or build(*a))
    assert simulate_in_process(fast_model, tmp_path / "run", "both") == 0
    assert len(calls) == 1


def test_simulate_rejects_outside_initial_set(fast_model, tmp_path):
    text = Path(fast_model).read_text().replace(
        "h0 = 0.02 + 0.01 * x * exp(-x)", "h0 = -0.02 + 0 * x")
    bad = tmp_path / "neg.model"
    bad.write_text(text)
    res = run_cli("simulate", str(bad), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 1
    assert res.stderr == "rejected: h0 is not in the admissible initial set\n"
    assert not (tmp_path / "o").exists()


def test_the_simulators_take_model_h0_config():
    assert list(inspect.signature(evolve_psi).parameters) == ["model", "h0", "config"]
    assert list(inspect.signature(summarize_direct).parameters)[:3] == ["model", "h0", "config"]


@pytest.mark.parametrize("mode, calls", [("fdr", 1), ("direct", 1), ("both", 2)])
def test_simulate_leaves_h0_to_the_simulators(fast_model, tmp_path, monkeypatch, mode, calls):
    # each simulator tests h0 for membership once; the CLI does not
    membership, seen = rz.maximal_initial_membership, []
    monkeypatch.setattr(rz, "maximal_initial_membership",
                        lambda h, model: seen.append(1) or membership(h, model))
    assert simulate_in_process(fast_model, tmp_path / "run", mode) == 0
    assert len(seen) == calls


def test_simulate_starts_a_boundary_h0_at_zero(fast_model, tmp_path, capsys):
    # ell(h0) = -1e-12 lies within the initial-set test's tolerance
    h0 = "-1e-12 + 0.01 * x * exp(-x)"
    model = tmp_path / "edge.model"
    model.write_text(Path(fast_model).read_text().replace(
        "h0 = 0.02 + 0.01 * x * exp(-x)", f"h0 = {h0}"))
    spec = parse_model_file(str(model))
    curve = tmp_path / "h0.csv"
    write_curve(curve, spec.grid.n, spec.h0)
    assert cli.main(["initial-set", str(model), "--curve", str(curve)]) == 0
    assert capsys.readouterr().out.endswith("verdict: boundary\n")
    for mode in ("fdr", "both"):
        out = tmp_path / mode
        assert cli.main(["simulate", str(model), "--mode", mode, "--out-dir", str(out)]) == 0
        paths = np.load(out / "paths.npy", allow_pickle=False)
        assert np.all(paths[:, 0] == 0.0)
        psi = np.load(out / "psi.npy", allow_pickle=False)
        assert np.array_equal(psi[0], spec.h0 - float(spec.model.ell(spec.h0)) * spec.model.lam)
    verify = json.loads((tmp_path / "both" / "verify.json").read_text())
    assert verify["phis"]["ell"]["within_3se"]


def test_simulate_rejects_cfl_violation(fast_model, tmp_path):
    text = Path(fast_model).read_text().replace("dt = 0.005", "dt = 0.01")
    bad = tmp_path / "cfl.model"
    bad.write_text(text)
    res = run_cli("simulate", str(bad), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 2


@pytest.mark.parametrize("dt, mode", [("0.0125", "both"), ("0.0125", "fdr"), ("0.01", "fdr")])
def test_simulate_checks_the_step_before_the_leaf(fast_model, tmp_path, capsys, dt, mode):
    # at 2.5 dx the leaf goes unstable and would exit the boundary (exit 1)
    # before the oracle saw the step
    bad = tmp_path / "cfl.model"
    bad.write_text(Path(fast_model).read_text().replace("dt = 0.005", f"dt = {dt}"))
    out = tmp_path / "o"
    assert cli.main(["simulate", str(bad), "--mode", mode, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: dt = {dt} exceeds dx = 0.005\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("mode, rc", [("both", 2), ("direct", 2), ("fdr", 0)])
def test_simulate_refuses_a_step_below_dx_in_the_oracle(fast_model, tmp_path, capsys, mode, rc):
    # S moves one node per step: the leaf runs at dx / 2, the oracle does not,
    # and no stage writes before the oracle has refused the step
    bad = tmp_path / "half.model"
    bad.write_text(Path(fast_model).read_text().replace("dt = 0.005", "dt = 0.0025"))
    out = tmp_path / "o"
    assert cli.main(["simulate", str(bad), "--mode", mode, "--out-dir", str(out)]) == rc
    assert out.exists() is (rc == 0)
    if rc:
        assert capsys.readouterr().err == ("error: the direct oracle needs dt = dx; "
                                           "dt = 0.0025 is below dx = 0.005\n")


@pytest.mark.parametrize("mode, rc", [("direct", 0), ("fdr", 2), ("both", 2)])
def test_simulate_two_factor_runs_the_direct_oracle_alone(tmp_path, capsys, mode, rc):
    # the oracle is generic in lam, Lam, ell and rho; the leaf needs V = <lam>+
    model = tmp_path / "two_factor_sim.model"
    model.write_text((MODELS / "two_factor.model").read_text()
                     + "\n[sim]\nhorizon = 0.5\ndt = 0.005\npaths = 50\nseed = 3\nh0 = 0.5\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", str(model), "--mode", mode, "--out-dir", str(out)]) == rc
    assert (out / "manifest.json").exists() is (rc == 0)
    if rc:
        assert capsys.readouterr().err.startswith("error: the leaf needs V = <lam>+")


def test_simulate_refuses_a_negative_rho(fast_model, tmp_path, capsys):
    # the checks read rho^2, and the state paths would draw no noise
    bad = tmp_path / "negative_rho.model"
    bad.write_text(Path(fast_model).read_text().replace("rho = 0.1", "rho = -0.1"))
    out = tmp_path / "run"
    assert cli.main(["simulate", str(bad), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: [model] rho must be nonnegative\n"
    assert not out.exists()


def test_simulate_refuses_a_file_without_a_square_root_model(tmp_path, capsys):
    model = tmp_path / "linear_sim.model"
    model.write_text((MODELS / "linear_qe.model").read_text()
                     + "\n[sim]\nhorizon = 0.5\nh0 = 0.02\n")
    assert cli.main(["simulate", str(model), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: simulate needs a square-root model; " \
                                      "this file has none\n"


def test_a_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 10^16 nodes: 8e16 bytes are more than a 64-bit Linux process can map,
    # even with 5-level paging, so the allocation fails at once
    model = tmp_path / "huge.model"
    model.write_text((MODELS / "cir.model").read_text().replace("dx = 0.005", "dx = 1e-15"))
    assert cli.main(["check", str(model)]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def test_simulate_builds_verify_json_without_reading_csvs(fast_model, tmp_path, monkeypatch):
    def unread(path):
        raise AssertionError(f"simulate read {path} back")

    monkeypatch.setattr(cli, "_load_phi_csv", unread)
    out = tmp_path / "run"
    assert simulate_in_process(fast_model, out, "both") == 0
    before = (out / "verify.json").read_bytes()
    res = run_cli("verify", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "verify.json").read_bytes() == before


def test_verify_round_trip(sim_run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(sim_run, copy)
    before = (copy / "verify.json").read_bytes()
    res = run_cli("verify", str(copy))
    assert res.returncode == 0, res.stderr
    assert (copy / "verify.json").read_bytes() == before


def test_verify_detects_tampering(sim_run, tmp_path):
    copy = tmp_path / "tampered"
    shutil.copytree(sim_run, copy)
    # a same-length edit inside the array data, past the header
    with open(copy / "paths.npy", "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-8, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 1]))
    res = run_cli("verify", str(copy))
    assert res.returncode == 2
    assert "paths.npy" in res.stdout + res.stderr


def test_verify_refuses_csvs_the_manifest_does_not_list(fast_model, tmp_path):
    # an fdr run into a directory that a both run left: the stale direct CSVs
    # are not hashed by the new manifest, so verify must not pair them up
    out = tmp_path / "run"
    assert simulate_in_process(fast_model, out, "both") == 0
    reseeded = tmp_path / "seed999.model"
    reseeded.write_text(Path(fast_model).read_text().replace("seed = 12345", "seed = 999"))
    assert simulate_in_process(str(reseeded), out, "fdr") == 0
    assert "direct_phis.csv" not in json.loads((out / "manifest.json").read_text())["artifacts"]
    res = run_cli("verify", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {out / 'direct_phis.csv'}: not listed in manifest.json")
    assert "Traceback" not in res.stderr


def test_verify_missing_artifacts(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("verify", str(empty)).returncode == 2


PHI_HEADER = "path,ell,eval_at_1,hw_norm\n"


@pytest.mark.parametrize("bad, files", [
    ("manifest.json", {"manifest.json": "{not json"}),
    ("manifest.json", {"manifest.json": "[1,2]"}),
    ("manifest.json", {"manifest.json": '{"artifacts": []}'}),
    ("fdr_phis.csv", {"fdr_phis.csv": PHI_HEADER + "0,abc,1,2\n"}),
    ("direct_phis.csv", {"direct_phis.csv": PHI_HEADER + "0,1\n"}),
    ("direct_stats.csv", {"direct_stats.csv": "key,value\nmin_ell\n"}),
    ("fdr_phis.csv", {"fdr_phis.csv": PHI_HEADER}),
    ("fdr_phis.csv", {"direct_phis.csv": PHI_HEADER + "0,0.1,0.2,0.3\n1,0.1,0.2,0.3\n"}),
], ids=["not-json", "list", "artifacts-list", "fdr-non-numeric", "direct-short-row",
        "stats-short-row", "fdr-header-only", "path-count-mismatch"])
def test_verify_rejects_a_malformed_run_directory(tmp_path, bad, files):
    run = tmp_path / "run"
    run.mkdir()
    valid = {"fdr_phis.csv": PHI_HEADER + "0,0.1,0.2,0.3\n",
             "direct_phis.csv": PHI_HEADER + "0,0.1,0.2,0.3\n",
             "direct_stats.csv": "key,value\nmin_ell,0.1\nfoliation_residual,0\n"}
    written = {**valid, **files}
    # the manifest lists the three CSVs with their real hashes, as verify requires
    written.setdefault("manifest.json", json.dumps({"artifacts": {
        name: hashlib.sha256(written[name].encode()).hexdigest() for name in valid}}))
    for name, text in written.items():
        (run / name).write_text(text)
    res = run_cli("verify", str(run))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {run / bad}: ")
    assert "Traceback" not in res.stderr


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0 and res.stdout.strip()
