"""Command-line front end: model files in; reports, CSV tables and .npy arrays out.

Exit codes form a stable contract: 0 on success, 1 on mathematical
rejection (a check fails or the initial curve is not admissible), 2 on
input errors.  All outputs are deterministic given the input files, flags
and seed, and every report embeds a content hash of its inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import struct
import sys
import tempfile
from typing import Callable, NamedTuple, NoReturn

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
# Fewest values a writer process formats: about 45 ms of formatting on a
# 2-core x86-64 host, several times the cost of its fork.
MIN_SHARE_VALUES = 50_000
ROW_CHUNK = 512
# Bytes per read when appending a writer child's share.
COPY_CHUNK = 1 << 16
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


def _formatted(values: np.ndarray) -> list[str]:
    """FLOAT_FMT strings of values, for the columns baked into row templates."""
    return [FLOAT_FMT % v for v in values.tolist()]


def _keyed_rows(keys, n_values: int) -> Callable[[int], bytes]:
    """Row i's template: keys[i], then n_values FLOAT_FMT fields.

    The template is built when its row is written, so no CSV holds one per
    row (at 10^5 paths those would be megabytes).
    """
    tail = (",".join([FLOAT_FMT] * n_values) + "\n").encode()
    return lambda i: f"{keys[i]},".encode() + tail


class _Csv(NamedTuple):
    """A CSV artifact: the header line, then template(i) % values[i] for each row i.

    A template holds its row's repeated columns already formatted, so each
    row costs one C-level format call.
    """

    path: str
    header: str
    template: Callable[[int], bytes]
    values: np.ndarray   # (rows, fields filled in per row)

    def share(self, i: int, n_writers: int) -> range:
        """Writer i's contiguous rows."""
        n = len(self.values)
        return range(n * i // n_writers, n * (i + 1) // n_writers)


def _write_rows(fh, csv: _Csv, rows: range) -> None:
    """Stream rows of csv to fh; one format call fills ROW_CHUNK rows' joined templates."""
    template, values = csv.template, csv.values
    for start in range(rows.start, rows.stop, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, rows.stop)
        fh.write(b"".join([template(i) for i in range(start, stop)])
                 % tuple(values[start:stop].ravel().tolist()))


def _writer_count(n_values: int) -> int:
    """Writer processes for n_values formatted values.

    The usable CPUs, capped so that each writer formats at least
    MIN_SHARE_VALUES; 1 where the platform cannot fork or name the CPUs
    this process may run on.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_values // MIN_SHARE_VALUES))


def _write_child_share(csvs: list[_Csv], i: int, n_writers: int, spool) -> NoReturn:
    """Writer i > 0, in a forked child: its share of every CSV, then _exit.

    The shares go to spool back to back, followed by their byte lengths.
    The child never returns into its parent's frames, so no cleanup or
    output of the parent runs twice; a failure becomes exit status 1.
    """
    code = 1
    try:
        with open(spool.fileno(), "wb", closefd=False) as fh:
            lengths = []
            for csv in csvs:
                start = fh.tell()
                _write_rows(fh, csv, csv.share(i, n_writers))
                lengths.append(fh.tell() - start)
            fh.write(struct.pack(f"<{len(csvs)}Q", *lengths))
        code = 0
    except Exception as exc:
        os.write(2, f"error: CSV writer {i} of {n_writers}: {exc!r}\n".encode())
    finally:
        os._exit(code)


def _append_child_shares(outs, spool) -> None:
    """Append each share a writer child left in spool to its final file."""
    n = len(outs)
    spool.seek(-8 * n, os.SEEK_END)
    lengths = struct.unpack(f"<{n}Q", spool.read(8 * n))
    spool.seek(0)
    for out, length in zip(outs, lengths):
        while length > 0:
            chunk = spool.read(min(length, COPY_CHUNK))
            if not chunk:
                raise AffineFdrError("a CSV writer's share ends early")
            out.write(chunk)
            length -= len(chunk)


def _write_csvs(csvs: list[_Csv]) -> None:
    """Write every CSV, its rows split into one contiguous share per writer.

    Writer 0 is this process and writes its shares straight into the final
    files.  Writers 1.. are children forked on entry, one unnamed temporary
    file each beside the first CSV; their shares are appended in writer
    order, so the bytes equal one serial write.  With one writer this is
    the serial loop.  A failed child raises AffineFdrError, and no child is
    left unwaited for.
    """
    n_writers = _writer_count(sum(csv.values.size for csv in csvs))
    spool_dir = os.path.dirname(os.path.abspath(csvs[0].path))
    pending = []   # children not yet waited for, in writer order
    try:
        with contextlib.ExitStack() as stack:
            spools = [stack.enter_context(tempfile.TemporaryFile(dir=spool_dir))
                      for _ in range(1, n_writers)]
            for i, spool in enumerate(spools, 1):
                pid = os.fork()
                if pid == 0:
                    _write_child_share(csvs, i, n_writers, spool)
                pending.append(pid)
            outs = [stack.enter_context(open(csv.path, "wb")) for csv in csvs]
            for out, csv in zip(outs, csvs):
                out.write(f"{csv.header}\n".encode())
                _write_rows(out, csv, csv.share(0, n_writers))
            for i, spool in enumerate(spools, 1):
                code = os.waitstatus_to_exitcode(os.waitpid(pending.pop(0), 0)[1])
                if code != 0:
                    raise AffineFdrError(f"CSV writer {i} of {n_writers} exited with "
                                         f"status {code}")
                _append_child_shares(outs, spool)
    finally:
        for pid in pending:
            os.waitpid(pid, 0)


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
    _write_csvs([_Csv(args.out, "x,Lambda,lambda,residual", _keyed_rows(_formatted(grid.x), 3),
                      np.column_stack([lam_cap, lam, residual]))])
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
    checks: dict = {}
    if spec.kind == "linear":
        grid = spec.grid
        try:
            a_sigma = rz.quasi_exp_subspace(lambda h: derivative(h, grid),
                                            list(spec.vol_curves),
                                            max_dim=spec.check_options["max_dim"])
        except rz.DimensionExceeded as exc:
            checks["quasi_exponential"] = False
            checks["detail"] = str(exc)
            checks["overall"] = False
            return checks
        qe = rz.check_qe_affine(lambda h: derivative(h, grid),
                                lambda h: list(spec.vol_curves),
                                a_sigma, [np.zeros(grid.n)],
                                max_dim=spec.check_options["max_dim"],
                                rank_one_vol=len(spec.vol_curves) == 1)
        checks["quasi_exponential"] = True
        checks["a_sigma_dim"] = int(qe.a_sigma_dim)
        checks["overall"] = bool(qe.ok)
        return checks
    # custom gets the split-independent structural checks only
    model = spec.model()
    md = model.model_data()
    ok = True
    if spec.kind != "custom":
        report = rz.check_thm_main2(md)
        checks["realizability"] = _condition_summary(report)
        ok = report.overall
    if spec.kind == "two_factor":
        # quasi-exponential span: seeds are the volatility direction and its
        # induced drift curve, iterated under d/dx
        grid = spec.grid
        seeds = [model.lam, hjm_drift(model.rho * model.lam, grid)
                 if model.rho > 0 else hjm_drift(model.lam, grid)]
        a_sigma = rz.quasi_exp_subspace(lambda h: derivative(h, grid), seeds,
                                        max_dim=spec.check_options["max_dim"])
        in_v = all(rz._span_residual(q, md.split.v_basis.matrix) <= md.tol.span
                   for q in a_sigma)
        checks["a_sigma_dim"] = int(len(a_sigma))
        checks["a_sigma_in_v"] = bool(in_v)
        ok = ok and in_v and len(a_sigma) == md.dim_v
    else:
        checks["check_damir"] = rz.check_damir(md)
        try:
            checks["check_const_mod_k"] = rz.check_const_mod_k(md)
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
    md = spec.model().model_data()
    member, on_boundary = rz.maximal_initial_membership(h, md)
    coords, drift = rz.initial_set_coords(h, md)
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


def _phi_table(phis: dict[str, np.ndarray]) -> tuple:
    """Header, row templates and values of a per-path functionals CSV."""
    values = np.column_stack([phis["ell"], phis["eval_at_1"], phis["hw_norm"]])
    return "path,ell,eval_at_1,hw_norm", _keyed_rows(range(len(values)), 3), values


def cmd_simulate(args) -> int:
    spec = parse_model_file(args.modelfile)
    if spec.kind != "cir":
        raise ModelFileError("simulate currently supports kind = cir only")
    if spec.sim is None or spec.h0 is None:
        raise ModelFileError("model file needs a [sim] section with an h0 curve")
    model = spec.model()
    config = spec.sim
    h0 = spec.h0
    member, _ = rz.maximal_initial_membership(h0, model.model_data())
    if not member:
        raise NotInInitialSet("h0 is not in the admissible initial set")

    os.makedirs(args.out_dir, exist_ok=True)
    x_keys = _formatted(model.grid.x)
    arrays = {}   # .npy artifacts, written by this process
    csvs = []

    def add(name, header, template, values):
        csvs.append(_Csv(os.path.join(args.out_dir, name), header, template, values))

    # every numeric stage runs before the first write, so no forked writer
    # competes with the numerics for CPUs
    foliation = None
    if args.mode in ("fdr", "both"):
        x0 = float(model.ell_of(h0))
        g0 = h0 - x0 * model.lam
        foliation = evolve_psi(model, g0, config.horizon, config.dt)
        paths = simulate_state(model, foliation, x0, config)
        arrays["psi.npy"] = foliation.psi
        arrays["paths.npy"] = paths.values
        fdr_phis = fdr_phi_values(foliation, paths, model, spec.weight)
        add("fdr_phis.csv", *_phi_table(fdr_phis))
        # the mean of r_T = psi(T) + X_T lam, without the (n_paths, n_x) ensemble
        mean_curve = foliation.psi[-1] + paths.final.mean() * model.lam
        add("fdr_mean_curve.csv", "x,value", _keyed_rows(x_keys, 1), mean_curve[:, None])

    if args.mode in ("direct", "both"):
        run = summarize_direct(model, h0, config, spec.weight,
                               None if foliation is None else foliation.psi[-1])
        add("direct_phis.csv", *_phi_table(run.phis))
        add("direct_stats.csv", "key,value",
            _keyed_rows(("min_ell", "negative_short_rate", "foliation_residual"), 1),
            np.array([[run.min_ell], [float(run.negative_short_rate)],
                      [run.foliation_residual]]))
        add("direct_mean_curve.csv", "x,value", _keyed_rows(x_keys, 1),
            run.mean_curve[:, None])

    for name, values in arrays.items():
        np.save(os.path.join(args.out_dir, name), np.ascontiguousarray(values, dtype="<f8"),
                allow_pickle=False)
    _write_csvs(csvs)
    artifacts = [*arrays, *(os.path.basename(csv.path) for csv in csvs)]
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
    except AffineFdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
