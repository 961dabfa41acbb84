import csv
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


def test_check_fits_and_builds_r_basis_once_per_sample(monkeypatch):
    spec = parse_model_file(model_path("cir.model"))
    sigma_sq_at, calls = SquareRootModel.sigma_sq_at, []
    monkeypatch.setattr(SquareRootModel, "sigma_sq_at",
                        lambda self, h: calls.append(1) or sigma_sq_at(self, h))
    assert cli._run_checks(spec)["overall"] is True
    # per sample g: the fit reads g and g + t b_i (t = 1/2, 1), the R basis
    # reads g and g + b_i; the checks share both
    model = spec.model()
    n, d = len(model.boundary_samples), model.split.v_basis.dim_v
    assert n == 6
    assert len(calls) == n * (1 + 2 * d) + n * (1 + d)


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
    # ln 2 / gamma = 13.86 puts the second point of ell beyond x_max = 10
    text = (MODELS / "two_factor.model").read_text().replace("gamma = 1.0", "gamma = 0.05")
    far = tmp_path / "far.model"
    far.write_text(text)
    res = run_cli("check", str(far))
    assert res.returncode == 2
    assert res.stderr == "error: point 13.865 lies outside [0, 10]\n"


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
], ids=["getpid", "open", "attribute", "lambda"])
def test_check_rejects_expression_beyond_arithmetic(tmp_path, expr):
    marker = tmp_path / "evaluated"
    text = (MODELS / "linear_qe.model").read_text()
    bad = tmp_path / "bad.model"
    bad.write_text(text.replace("rho * (1 + x) * exp(-gamma * x)", expr.format(path=str(marker))))
    res = run_cli("check", str(bad))
    assert res.returncode == 2, res.stdout
    assert "[model] vol_curve" in res.stderr
    assert not marker.exists()


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


@pytest.mark.parametrize("name", ["linear_qe.model", "example64.model"])
def test_initial_set_needs_split_along_ker_ell(tmp_path, name):
    curve = tmp_path / "curve.csv"
    write_curve(curve, 2001, np.full(2001, 0.02))
    assert run_cli("initial-set", model_path(name), "--curve", str(curve)).returncode == 2


def test_initial_set_grid_mismatch(tmp_path):
    short = tmp_path / "short.csv"
    write_curve(short, 100, np.full(100, 0.02))
    res = run_cli("initial-set", model_path("cir.model"), "--curve", str(short))
    assert res.returncode == 2


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
    model, config, h0 = spec.model(), spec.sim, spec.h0
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
    assert np.array_equal(psi[0], h0 - float(model.ell_of(h0)) * model.lam)


def reference_simulate_csvs(modelfile, out, mode):
    """simulate's CSV artifacts rebuilt from the library's arrays with the
    reference writer, and its .npy artifacts saved from those arrays;
    returns their names."""
    spec = parse_model_file(modelfile)
    model, config, h0, x = spec.model(), spec.sim, spec.h0, spec.grid.x.tolist()

    def phi_rows(phis):
        return [(p, float(phis["ell"][p]), float(phis["eval_at_1"][p]),
                 float(phis["hw_norm"][p])) for p in range(len(phis["ell"]))]

    written, arrays = {}, {}
    foliation = None
    if mode in ("fdr", "both"):
        x0 = float(model.ell_of(h0))
        foliation = evolve_psi(model, h0 - x0 * model.lam, config.horizon, config.dt)
        paths = simulate_state(model, foliation, x0, config)
        arrays = {"psi.npy": foliation.psi, "paths.npy": paths.values}
        written["fdr_phis.csv"] = ("path,ell,eval_at_1,hw_norm",
                                   phi_rows(fdr_phi_values(foliation, paths, model,
                                                           spec.weight)))
        mean = foliation.psi[-1] + paths.final.mean() * model.lam
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


def test_simulate_rejects_cfl_violation(fast_model, tmp_path):
    text = Path(fast_model).read_text().replace("dt = 0.005", "dt = 0.01")
    bad = tmp_path / "cfl.model"
    bad.write_text(text)
    res = run_cli("simulate", str(bad), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 2


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


def test_verify_missing_artifacts(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("verify", str(empty)).returncode == 2


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0 and res.stdout.strip()
