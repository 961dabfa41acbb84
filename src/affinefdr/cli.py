"""Command-line front end: model files in; reports, CSV tables and .npy arrays out.

Exit codes form a stable contract: 0 on success, 1 on mathematical
rejection (a check fails or the initial curve is not admissible), 2 on
input errors and on output paths that cannot be written.  All outputs are
deterministic given the input files, flags and seed, and every report embeds
a content hash of its inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import realization as rz
from .curves import Grid, derivative
from .errors import (AffineFdrError, GridMismatch, LeftBoundary, MissingArtifacts,
                     ModelFileError, NotInInitialSet)
from .hjmm import hjm_drift, riccati_capital, riccati_small
from .modelfile import ModelSpec, parse_model_file
from .simulate import (evolve_psi, fdr_phi_values, simulate_state, summarize_direct,
                       verify_invariance)

FLOAT_FMT = "%.17g"
ROW_CHUNK = 512
VERIFY_ARTIFACTS = ("fdr_phis.csv", "direct_phis.csv", "direct_stats.csv")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: str, values: np.ndarray) -> None:
    """Write the header line, then each row of the float matrix values as
    FLOAT_FMT fields; one format call fills ROW_CHUNK rows.

    A float holding an integer prints as that integer ("%.17g" % 7.0 == "7"),
    so index columns go in as floats.
    """
    row = (",".join([FLOAT_FMT] * values.shape[1]) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, len(values), ROW_CHUNK):
            chunk = values[start:start + ROW_CHUNK]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


# ---------------------------------------------------------------- riccati

def cmd_riccati(args) -> int:
    if args.rho <= 0:
        print("error: --rho must be positive", file=sys.stderr)
        return 2
    try:
        grid = Grid(args.xmax, args.dx)
    except AffineFdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lam_cap = riccati_capital(grid.x, args.rho, args.gamma)
    lam = riccati_small(grid.x, args.rho, args.gamma)
    residual = derivative(lam, grid) + args.rho ** 2 * lam * lam_cap + args.gamma * lam
    _write_csv(args.out, "x,Lambda,lambda,residual",
               np.column_stack([grid.x, lam_cap, lam, residual]))
    print(f"max residual = {np.abs(residual).max():.6e}")
    return 0


# ---------------------------------------------------------------- check

def _condition_summary(report: rz.RealizabilityReport) -> dict:
    names = sorted({c.name for c in report.conditions})
    out = {}
    for name in names:
        results = report.by_name(name)
        out[name] = {
            "ok": all(c.ok for c in results),
            "n_samples": len(results),
            "failures": [c.detail for c in results if not c.ok][:5],
        }
    return out


def _run_checks(spec: ModelSpec) -> dict:
    """All applicable structural checks for the parsed model."""
    if spec.kind == "linear":
        grid = spec.grid
        try:
            a_sigma = rz.quasi_exp_subspace(lambda h: derivative(h, grid),
                                            list(spec.vol_curves),
                                            max_dim=spec.check_options["max_dim"])
        except rz.DimensionExceeded as exc:
            return {"quasi_exponential": False, "detail": str(exc), "overall": False}
        # the state space is the iterated subspace itself and sigma is
        # constant, so it holds A sigma and sigma^2 does not vary along it
        return {"quasi_exponential": True, "a_sigma_dim": len(a_sigma), "overall": True}
    checks: dict = {}
    # custom gets the split-independent structural checks only
    model = spec.model()
    ok = True
    if spec.kind != "custom":
        report = rz.check_thm_main2(model)
        checks["realizability"] = _condition_summary(report)
        ok = report.overall
    if spec.kind == "two_factor":
        # quasi-exponential span: seeds are the volatility direction and its
        # induced drift curve, whose scale rho^2 leaves the span unchanged,
        # iterated under d/dx
        seeds = [model.lam, hjm_drift(model.lam, spec.grid)]
        a_sigma = rz.quasi_exp_subspace(model.apply_a, seeds,
                                        max_dim=spec.check_options["max_dim"])
        _, off_v = model.split.v_basis.fit(a_sigma.T)
        in_v = bool(np.all(np.linalg.norm(off_v, axis=0)
                           <= model.span_tol * np.linalg.norm(a_sigma, axis=1)))
        checks["a_sigma_dim"] = int(len(a_sigma))
        checks["a_sigma_in_v"] = in_v
        ok = ok and in_v and len(a_sigma) == model.split.v_basis.dim_v
    else:
        checks["check_damir"] = rz.check_damir(model)
        try:
            checks["check_const_mod_k"] = rz.check_const_mod_k(model)
        except AffineFdrError as exc:
            # the squared volatility need not fit affinely over this split
            checks["check_const_mod_k"] = False
            checks["const_mod_k_detail"] = str(exc)
        ok = ok and checks["check_damir"] and checks["check_const_mod_k"]
    checks["overall"] = bool(ok)
    return checks


def cmd_check(args) -> int:
    spec = parse_model_file(args.modelfile)
    checks = _run_checks(spec)
    report = {
        "tool_version": __version__,
        "input_sha256": _sha256_text(spec.source_text),
        "kind": spec.kind,
        "checks": checks,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"model kind: {spec.kind}")
        for key, value in sorted(checks.items()):
            if key == "realizability":
                for name, summary in sorted(value.items()):
                    print(f"  {name}: {'ok' if summary['ok'] else 'FAIL'}"
                          f" ({summary['n_samples']} samples)")
            else:
                print(f"  {key}: {value}")
    return 0 if checks["overall"] else 1


# ---------------------------------------------------------------- initial-set

def _read_curve_csv(path: str, grid: Grid) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ModelFileError(f"{path}: malformed curve CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise ModelFileError(f"{path}: expected two columns x,value")
    if data.shape[0] != grid.n or np.abs(data[:, 0] - grid.x).max() > 1e-9:
        raise GridMismatch(f"{path}: curve x-column does not match the model grid")
    return data[:, 1]


def cmd_initial_set(args) -> int:
    spec = parse_model_file(args.modelfile)
    h = _read_curve_csv(args.curve, spec.grid)
    if spec.kind not in ("cir", "two_factor"):
        raise ModelFileError(f"model kind {spec.kind!r} has no split along ker ell")
    model = spec.model()
    member, on_boundary = rz.maximal_initial_membership(h, model)
    coords, drift = rz.initial_set_coords(h, model)
    print("state coordinates of h = " + ", ".join(f"{c:.10g}" for c in coords))
    print("state coordinates of the boundary drift = "
          + ", ".join(f"{c:.10g}" for c in drift))
    if member and on_boundary:
        print("verdict: boundary")
    elif member:
        print("verdict: member")
    else:
        print("verdict: non-member")
    return 0 if member else 1


# ---------------------------------------------------------------- simulate

def _load_phi_csv(path: str) -> dict[str, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"ell": data[:, 1], "eval_at_1": data[:, 2], "hw_norm": data[:, 3]}


def build_verify_report(run_dir: str) -> dict:
    """Assemble the verification report purely from stored artifacts.

    simulate builds the same report from the arrays it writes, and %.17g
    round-trips every float64, so verify over an untouched run directory
    reproduces verify.json byte for byte.
    """
    for name in VERIFY_ARTIFACTS:
        if not os.path.exists(os.path.join(run_dir, name)):
            raise MissingArtifacts(f"{run_dir} lacks {name}")
    fdr = _load_phi_csv(os.path.join(run_dir, "fdr_phis.csv"))
    direct = _load_phi_csv(os.path.join(run_dir, "direct_phis.csv"))
    stats = {}
    with open(os.path.join(run_dir, "direct_stats.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            key, value = line.strip().split(",")
            stats[key] = float(value)
    return verify_invariance(fdr, direct, stats["min_ell"],
                             stats["foliation_residual"])


def _phi_table(phis: dict[str, np.ndarray]) -> tuple[str, np.ndarray]:
    """Header and rows of a per-path functionals CSV."""
    return "path,ell,eval_at_1,hw_norm", np.column_stack([
        np.arange(len(phis["ell"]), dtype=float), phis["ell"], phis["eval_at_1"],
        phis["hw_norm"]])


def cmd_simulate(args) -> int:
    spec = parse_model_file(args.modelfile)
    if spec.kind != "cir":
        raise ModelFileError("simulate currently supports kind = cir only")
    if spec.sim is None or spec.h0 is None:
        raise ModelFileError("model file needs a [sim] section with an h0 curve")
    model = spec.model()
    config = spec.sim
    h0 = spec.h0
    member, _ = rz.maximal_initial_membership(h0, model)
    if not member:
        raise NotInInitialSet("h0 is not in the admissible initial set")

    os.makedirs(args.out_dir, exist_ok=True)
    x = model.grid.x
    arrays = {}   # .npy artifacts
    tables = {}   # CSV artifacts: name -> (header, rows)
    stats = {}    # direct_stats.csv: key -> value

    # every numeric stage runs before the first write
    foliation = None
    if args.mode in ("fdr", "both"):
        x0 = float(model.ell_of(h0))
        g0 = h0 - x0 * model.lam
        foliation = evolve_psi(model, g0, config.horizon, config.dt)
        paths = simulate_state(model, foliation, x0, config)
        arrays["psi.npy"] = foliation.psi
        arrays["paths.npy"] = paths.values
        fdr_phis = fdr_phi_values(foliation, paths, model, spec.weight)
        tables["fdr_phis.csv"] = _phi_table(fdr_phis)
        # the mean of r_T = psi(T) + X_T lam, without the (n_paths, n_x) ensemble
        mean_curve = foliation.psi[-1] + paths.final.mean() * model.lam
        tables["fdr_mean_curve.csv"] = "x,value", np.column_stack([x, mean_curve])

    if args.mode in ("direct", "both"):
        run = summarize_direct(model, h0, config, spec.weight,
                               None if foliation is None else foliation.psi[-1])
        tables["direct_phis.csv"] = _phi_table(run.phis)
        tables["direct_mean_curve.csv"] = "x,value", np.column_stack([x, run.mean_curve])
        stats = {"min_ell": run.min_ell,
                 "negative_short_rate": float(run.negative_short_rate),
                 "foliation_residual": run.foliation_residual}

    for name, values in arrays.items():
        np.save(os.path.join(args.out_dir, name), np.ascontiguousarray(values, dtype="<f8"),
                allow_pickle=False)
    for name, (header, values) in tables.items():
        _write_csv(os.path.join(args.out_dir, name), header, values)
    artifacts = [*arrays, *tables]
    if stats:
        with open(os.path.join(args.out_dir, "direct_stats.csv"), "wb") as fh:
            fh.write(b"key,value\n")
            for key, value in stats.items():
                fh.write(f"{key},{FLOAT_FMT % value}\n".encode())
        artifacts.append("direct_stats.csv")
    if args.mode == "both":
        _write_json(os.path.join(args.out_dir, "verify.json"),
                    verify_invariance(fdr_phis, run.phis, run.min_ell, run.foliation_residual))
        artifacts.append("verify.json")

    manifest = {
        "tool_version": __version__,
        "model_sha256": _sha256_text(spec.source_text),
        "mode": args.mode,
        "artifacts": {name: _sha256_file(os.path.join(args.out_dir, name))
                      for name in artifacts},
    }
    _write_json(os.path.join(args.out_dir, "manifest.json"), manifest)
    print(f"wrote {len(artifacts) + 1} artifacts to {args.out_dir}")
    return 0


def cmd_verify(args) -> int:
    manifest_path = os.path.join(args.run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise MissingArtifacts(f"{args.run_dir} has no manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    mismatches = []
    for name, digest in manifest.get("artifacts", {}).items():
        if name == "verify.json":
            continue
        path = os.path.join(args.run_dir, name)
        if not os.path.exists(path):
            raise MissingArtifacts(f"{args.run_dir} lacks {name}")
        if _sha256_file(path) != digest:
            mismatches.append(name)
    if mismatches:
        print("input-hash mismatch: " + ", ".join(sorted(mismatches)),
              file=sys.stderr)
        return 2
    report = build_verify_report(args.run_dir)
    _write_json(os.path.join(args.run_dir, "verify.json"), report)
    ok = all(p["within_3se"] for p in report["phis"].values())
    print(f"verify.json regenerated; weak errors within 3 SE: {ok}")
    return 0


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinefdr",
        description="Affine realizations of HJM-type SPDEs: checks and simulation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("riccati", help="tabulate the Riccati curve pair")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--dx", type=float, default=0.005)
    p.add_argument("--out", default="riccati.csv")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("check", help="run the realizability checks")
    p.add_argument("modelfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("initial-set", help="test a curve for admissibility")
    p.add_argument("modelfile")
    p.add_argument("--curve", required=True)
    p.set_defaults(func=cmd_initial_set)

    p = sub.add_parser("simulate", help="simulate through the realization")
    p.add_argument("modelfile")
    p.add_argument("--mode", choices=("fdr", "direct", "both"), default="both")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="re-verify a stored simulation run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_verify)
    return parser


_REJECTIONS = (NotInInitialSet, LeftBoundary)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _REJECTIONS as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (AffineFdrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
