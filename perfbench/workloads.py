"""Seeded inputs, CLI operations and output checks for the three workloads.

Every operation goes through `affinefdr.cli.main(argv)` in this process.
The program only ever sees generated files: model files derived from the
bundled ones (with the workload seed, and for cir-fdr-20k the path count,
written into `[sim]`) and curve CSVs whose initial-set verdicts are known by
construction.  Each operation returns (seconds, ok, detail).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

BUNDLED_MODELS = ("cir", "two_factor", "example64", "linear_qe")
CHECK_EXIT = {"cir": 0, "two_factor": 0, "example64": 1, "linear_qe": 0}
REFERENCE = Path(__file__).with_name("check_reference.json")
ARTIFACTS = ("psi.csv", "paths.csv", "fdr_phis.csv", "fdr_mean_curve.csv", "direct_phis.csv",
             "direct_stats.csv", "direct_mean_curve.csv", "verify.json", "manifest.json")
FDR_PATHS = 20000

# The fdr and direct runs share their noise, so per-path gaps in ell and
# eval_at_1 measure discretization error only: 2.4-2.7e-5 at 2000 paths for
# every seed tried.  The bound is a few times that and does not depend on
# the seed; the 3-SE weak test alone would hide gaps ten times larger.
PATH_GAP_BOUND = 1e-4
MIN_ELL_BOUND = -1e-3

CURVE_KINDS = ("member", "boundary", "non-member")
CURVES_PER_KIND = 2


def cli_main(argv):
    """Run the CLI once; return (seconds, exit code, stdout)."""
    from affinefdr import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash fails the operation; the run goes on
            rc = f"exception: {traceback.format_exc(limit=-3)}"
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue()


def guard(check, *args) -> str:
    """A check's problem string; a check that raises reports the exception."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{check.__name__}: {type(exc).__name__}: {exc}"


def set_sim(text: str, seed: int, paths: int | None = None) -> str:
    """Model text with `[sim] seed` (and optionally `paths`) replaced."""
    def sub(key, value, text):
        new, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if n != 1:
            raise ValueError(f"model text has {n} '{key} =' lines, expected 1")
        return new

    text = sub("seed", seed, text)
    return text if paths is None else sub("paths", paths, text)


def make_curves(seed: int, x: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Cir initial curves whose verdict under ell = h(0) is known.

    member: h(0) > 0 and nonnegative slope; boundary: h(0) = 0 exactly with
    positive slope; non-member: h(0) < 0.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for kind in CURVE_KINDS:
        for _ in range(CURVES_PER_KIND):
            a, b, c = rng.uniform(0.005, 0.05), rng.uniform(0.01, 0.05), rng.uniform(0.5, 2.0)
            bump = b * x * np.exp(-c * x)
            level = {"member": a, "boundary": 0.0, "non-member": -a}[kind]
            out.append((kind, level + bump))
    return out


def write_curve_csv(path: Path, x: np.ndarray, h: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,value\n")
        for xi, hi in zip(x.tolist(), h.tolist()):
            fh.write(f"{xi!r},{hi!r}\n")


class Inputs:
    """Generated input files for one workload seed, under `work`."""

    def __init__(self, root: Path, work: Path, seed: int, paths: int | None = None):
        from affinefdr.modelfile import parse_model_file

        models = root / "src" / "affinefdr" / "models"
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.models = {}
        for name in BUNDLED_MODELS:
            path = work / f"{name}.model"
            shutil.copyfile(models / f"{name}.model", path)
            self.models[name] = path
        self.sim_model = work / "sim.model"
        self.sim_model.write_text(
            set_sim((models / "cir.model").read_text(encoding="utf-8"), seed, paths),
            encoding="utf-8")
        spec = parse_model_file(str(self.sim_model))
        self.n_paths, self.n_steps = spec.sim.n_paths, spec.sim.n_steps
        self.curves = []
        for i, (kind, h) in enumerate(make_curves(seed, spec.grid.x)):
            path = work / f"curve{i}-{kind}.csv"
            write_curve_csv(path, spec.grid.x, h)
            self.curves.append((kind, path))


# ------------------------------------------------------------------ checks

def read_verdicts(checks: dict, prefix: str = "") -> dict[str, bool]:
    """Every boolean leaf of a check report, keyed by its dotted path."""
    out = {}
    for key, value in checks.items():
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            out[name] = value
        elif isinstance(value, dict):
            out.update(read_verdicts(value, name + "."))
    return out


def check_matches(name: str, rc: int, stdout: str, reference: dict) -> str:
    """Empty string if the check report agrees with the stored verdicts."""
    if rc != CHECK_EXIT[name]:
        return f"check {name}: exit {rc}, expected {CHECK_EXIT[name]}"
    verdicts = read_verdicts(json.loads(stdout)["checks"])
    wrong = [k for k, v in reference[name].items() if verdicts.get(k) is not v]
    return f"check {name}: verdicts differ at {wrong}" if wrong else ""


def initial_set_matches(kind: str, rc: int, stdout: str) -> str:
    expected_rc = 1 if kind == "non-member" else 0
    if rc != expected_rc or f"verdict: {kind}\n" not in stdout:
        return f"initial-set {kind}: exit {rc}, output {stdout!r}"
    return ""


def _phis(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def both_run_problems(run_dir: Path) -> str:
    """Path-by-path and weak agreement of a --mode both run."""
    fdr, direct = _phis(run_dir / "fdr_phis.csv"), _phis(run_dir / "direct_phis.csv")
    problems = []
    for col, name in ((1, "ell"), (2, "eval_at_1")):
        gap = float(np.abs(fdr[:, col] - direct[:, col]).max())
        if not gap < PATH_GAP_BOUND:
            problems.append(f"{name} path gap {gap:.3e} >= {PATH_GAP_BOUND:g}")
    report = json.loads((run_dir / "verify.json").read_text(encoding="utf-8"))
    for name in ("ell", "eval_at_1"):
        if not report["phis"][name]["within_3se"]:
            problems.append(f"{name} outside 3 SE")
    if not report["direct_min_ell"] >= MIN_ELL_BOUND:
        problems.append(f"direct min_ell {report['direct_min_ell']:.3e}")
    return "; ".join(problems)


def fdr_run_problems(run_dir: Path, n_paths: int, n_steps: int) -> str:
    """paths.csv shape and sign, and its final X against fdr_phis' ell."""
    paths = np.loadtxt(run_dir / "paths.csv", delimiter=",", skiprows=1, ndmin=2)
    if paths.shape != (n_paths * (n_steps + 1), 3):
        return f"paths.csv has shape {paths.shape}"
    if not (paths[:, 2] >= 0).all():
        return "paths.csv has negative X"
    final = paths[n_steps::n_steps + 1]
    if not (final[:, 0] == np.arange(n_paths)).all():
        return "paths.csv rows are not grouped by path"
    ell = _phis(run_dir / "fdr_phis.csv")[:, 1]
    if not np.array_equal(final[:, 2], ell):
        return "final X differs from fdr_phis ell"
    return ""


# ------------------------------------------------------------------ operations

class SimulateRun:
    """`simulate` into a fresh directory, checked against the first rep.

    The first rep is checked in full; every later rep must reproduce its
    manifest.json byte for byte, which pins every artifact hash.
    """

    def __init__(self, inputs: Inputs, mode: str):
        self.inputs, self.mode = inputs, mode
        self.manifest = None

    def simulate(self, run_dir: Path):
        shutil.rmtree(run_dir, ignore_errors=True)
        elapsed, rc, _ = cli_main(["simulate", str(self.inputs.sim_model),
                                   "--mode", self.mode, "--out-dir", str(run_dir)])
        if rc != 0:
            return elapsed, False, f"simulate exit {rc}"
        try:
            manifest = (run_dir / "manifest.json").read_bytes()
        except OSError as exc:
            return elapsed, False, f"manifest.json: {exc}"
        if self.manifest is None:
            self.manifest = manifest
            problem = (guard(both_run_problems, run_dir) if self.mode == "both" else
                       guard(fdr_run_problems, run_dir, self.inputs.n_paths,
                             self.inputs.n_steps))
        else:
            problem = "" if manifest == self.manifest else "manifest differs from rep 1"
        return elapsed, not problem, problem


def verify(run_dir: Path):
    """`verify` must exit 0 and rewrite verify.json as `simulate` wrote it."""
    try:
        expected = (run_dir / "verify.json").read_bytes()
    except OSError as exc:
        return 0.0, False, f"verify.json: {exc}"
    elapsed, rc, _ = cli_main(["verify", str(run_dir)])
    if rc != 0:
        return elapsed, False, f"verify exit {rc}"
    same = (run_dir / "verify.json").read_bytes() == expected
    return elapsed, same, "" if same else "verify.json not reproduced"


def check(inputs: Inputs, name: str, reference: dict):
    elapsed, rc, out = cli_main(["check", str(inputs.models[name]), "--json"])
    problem = guard(check_matches, name, rc, out, reference)
    return elapsed, not problem, problem


def initial_set(inputs: Inputs, kind: str, curve: Path):
    elapsed, rc, out = cli_main(["initial-set", str(inputs.sim_model), "--curve", str(curve)])
    problem = guard(initial_set_matches, kind, rc, out)
    return elapsed, not problem, problem


def artifact_bytes(run_dir: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in run_dir.iterdir() if p.is_file()}


def hashed_bytes(run_dir: Path) -> int:
    """Bytes `verify` re-hashes: every manifest artifact except verify.json."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return sum(os.path.getsize(run_dir / name) for name in manifest["artifacts"]
               if name != "verify.json")


class Workload:
    """One run of a named workload: its inputs, its reps, and its failures."""

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name, self.work = name, work
        self.inputs = Inputs(root, work / "inputs", seed,
                             FDR_PATHS if name == "cir-fdr-20k" else None)
        if name != "check-suite":
            self.sim = SimulateRun(self.inputs, "both" if name == "cir-both" else "fdr")
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _op(self, result) -> float:
        elapsed, ok, problem = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return elapsed

    def rep(self) -> tuple[float, list[float], dict]:
        """One rep: (main command seconds, follow-up seconds, artifact sizes)."""
        sizes = {}
        if self.name == "check-suite":
            main = sum(self._op(check(self.inputs, model, self.reference))
                       for model in BUNDLED_MODELS)
        else:
            run_dir = self.work / "run"
            main = self._op(self.sim.simulate(run_dir))
            if run_dir.is_dir():
                files = artifact_bytes(run_dir)
                sizes["cli.bytes_written"] = sum(files.values())
                sizes.update({f"cli.bytes.{n.replace('.', '_')}": files.get(n, 0)
                              for n in ARTIFACTS})
        follow = []
        if self.name == "cir-both":
            follow.append(self._op(verify(run_dir)))
            if (run_dir / "manifest.json").is_file():
                sizes["cli.bytes_hashed"] = hashed_bytes(run_dir)
        elif self.name == "check-suite":
            follow = [self._op(initial_set(self.inputs, kind, path))
                      for kind, path in self.inputs.curves]
        return main, follow, sizes
