#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the affinefdr CLI.

    python3 perfbench/run.py --workload cir-both --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One client drives `affinefdr.cli.main(argv)` in a closed loop: each command
starts when the previous one has returned.  A rep is the workload's main
command plus its follow-up commands; reps run until --seconds have passed
(at least MIN_REPS).  Every command's output is checked, and a command that
fails a check counts as failed.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced reps: the traced ones give per-layer self
times and work counts (medians per rep), and the difference between the
two gives the tracing overhead.  The last stdout line is one JSON object;
the run's record (environment, samples, spans) goes to
.perfbench/results/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer, self_time_by_name
from workloads import ARTIFACTS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("cir-both", "cir-fdr-20k", "check-suite")
MAIN_COMMAND = {"cir-both": "simulate --mode both", "cir-fdr-20k": "simulate --mode fdr",
                "check-suite": "check --json on the four bundled models"}
FOLLOWUP_COMMAND = {"cir-both": "verify", "cir-fdr-20k": "none", "check-suite": "initial-set"}
MIN_REPS = 4
SETUP_REPS = 7
SETUP_CODE = "import sys; from affinefdr import cli; cli.parse_model_file(sys.argv[1])"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "main_s": "s", "peak_rss_mb": "MB"}  # units

# per-layer self times: metric -> span names whose self times it sums
SELF_TIMES = {
    "cli.simulate_self_s": ("cli.cmd_simulate",),
    "cli.verify_self_s": ("cli.cmd_verify",),
    "cli.check_self_s": ("cli.cmd_check",),
    "cli.initial_set_self_s": ("cli.cmd_initial_set",),
    "simulate.simulate_direct_s": ("simulate.simulate_direct",),
    "simulate.path_normals_s": ("simulate.path_normals",),
    "simulate.simulate_state_s": ("simulate.simulate_state",),
    "simulate.reconstruct_s": ("simulate.reconstruct",),
    "simulate.evolve_psi_s": ("simulate.evolve_psi",),
    "simulate.phi_s": ("simulate.fdr_phi_values", "simulate.direct_phi_values"),
    "simulate.foliation_residual_s": ("simulate.foliation_residual",),
    "simulate.verify_invariance_s": ("simulate.verify_invariance",),
    "curves.derivative_s": ("curves.derivative",),
    "curves.primitive_s": ("curves.primitive",),
    "realization.compute_k_s": ("realization.compute_k",),
    "realization.check_const_mod_k_s": ("realization.check_const_mod_k",),
    "realization.check_thm_main2_s": ("realization.check_thm_main2",),
    "realization.check_damir_s": ("realization.check_damir",),
    "realization.quasi_exp_subspace_s": ("realization.quasi_exp_subspace",),
    "admissibility.fit_affine_square_s": ("admissibility.fit_affine_square",),
    "admissibility.is_parallel_s": ("admissibility.is_parallel",),
    "cones.normalize_basis_s": ("cones.normalize_basis",),
    "hjmm.riccati_s": ("hjmm.riccati_capital", "hjmm.riccati_small", "hjmm.riccati_pair"),
    "hjmm.model_data_s": ("hjmm.CirModel.model_data", "hjmm.build_two_factor_model_data",
                          "hjmm.build_example64_model_data"),
    "hjmm.initial_set_s": ("hjmm.CirModel.initial_set", "hjmm.TwoFactorModel.initial_set"),
    "modelfile.parse_s": ("modelfile.parse_model_file", "modelfile.parse_model_text",
                          "modelfile.eval_curve"),
    "modelfile.custom_model_data_s": ("modelfile.custom_model_data",),
}
# per-layer counts: metric -> (unit, tracer counters it sums)
COUNTS = {
    "simulate.direct_curve_updates": ("count", ("simulate.direct_curve_updates",)),
    "simulate.direct_bytes_computed": ("B", ("simulate.direct_bytes_computed",)),
    "simulate.path_normals_calls": ("count", ("simulate.path_normals.calls",)),
    "simulate.reconstruct_bytes": ("B", ("simulate.reconstruct_bytes",)),
    "curves.derivative_calls": ("count", ("curves.derivative.calls",)),
    "realization.fit_boundary_square_vol_calls":
        ("count", ("realization.fit_boundary_square_vol.calls",)),
    "admissibility.fit_affine_square_calls": ("count", ("admissibility.fit_affine_square.calls",)),
    "cones.normalize_basis_calls": ("count", ("cones.normalize_basis.calls",)),
    "hjmm.riccati_calls": ("count", ("hjmm.riccati_capital.calls", "hjmm.riccati_small.calls",
                                     "hjmm.riccati_pair.calls")),
}
OTHER = {  # metric -> (unit, better)
    "hjmm.riccati_unique_frac": ("ratio", "higher"),
    "cli.bytes_written": ("B", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "cli.bytes_hashed": ("B", "lower"),
    **{f"cli.bytes.{name.replace('.', '_')}": ("B", "lower") for name in ARTIFACTS},
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, as BENCHMARK.json declares it."""
    out = [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"} for layer in LAYERS]
    out += [{"name": n, "unit": "s", "better": "lower"} for n in SELF_TIMES]
    out += [{"name": n, "unit": u, "better": "lower"} for n, (u, _) in COUNTS.items()]
    out += [{"name": n, "unit": u, "better": b} for n, (u, b) in OTHER.items()]
    return out


# ------------------------------------------------------------------ tracing

def _direct_hook(tracer, args, kwargs, run):
    """P*K*n_x curve updates; bytes computed as K full float64 curve arrays."""
    config = args[2] if len(args) > 2 else kwargs["config"]
    tracer.counts["simulate.direct_curve_updates"] += run.final_curves.size * config.n_steps
    tracer.counts["simulate.direct_bytes_computed"] += run.final_curves.nbytes * config.n_steps


def _reconstruct_hook(tracer, args, kwargs, curves):
    tracer.counts["simulate.reconstruct_bytes"] += curves.nbytes


def _riccati_hook(tracer, args, kwargs, result):
    x, rho, gamma = args[:3]
    tracer.distinct["riccati"].add((float(rho), float(gamma), np.asarray(x).tobytes()))


HOOKS = {"simulate.simulate_direct": _direct_hook, "simulate.reconstruct": _reconstruct_hook,
         "hjmm.riccati_capital": _riccati_hook, "hjmm.riccati_small": _riccati_hook}


def layer_metrics(tracer) -> dict[str, float]:
    own = self_time_by_name(tracer.spans)
    out = {f"{layer}.self_s": sum(v for k, v in own.items() if k.startswith(layer + "."))
           for layer in LAYERS}
    out.update({m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIMES.items()})
    out.update({m: sum(tracer.counts[c] for c in names) for m, (_, names) in COUNTS.items()})
    calls = out["hjmm.riccati_calls"]
    out["hjmm.riccati_unique_frac"] = len(tracer.distinct["riccati"]) / calls if calls else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out


def setup_times(model: Path) -> list[float]:
    """Fresh-interpreter import of the CLI plus one model parse, timed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE, str(model)]
    subprocess.run(cmd, env=env, check=True)  # writes bytecode caches
    out = []
    for _ in range(SETUP_REPS):
        # no timeout: with one, the wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        out.append(time.perf_counter() - t0)
    return out


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


# ------------------------------------------------------------------ environment

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes() -> list[dict]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = []
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        out.append({key: _read(str(index / key)) for key in ("level", "type", "size")})
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "caches": cache_sizes(),
    }


# ------------------------------------------------------------------ main

def measure(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import affinefdr

    load_before = _read("/proc/loadavg")
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    run = Workload(args.workload, args.seed, ROOT, work)
    setup = [] if args.trace else setup_times(run.inputs.sim_model)

    tracer = Tracer(HOOKS) if args.trace else None
    samples = {"main": [], "followup": [], "traced_main": []}
    layers, facts, spans = [], defaultdict(list), []
    deadline = time.perf_counter() + args.seconds
    rep_times: list[float] = []
    rep_cpu: list[dict] = []  # to tell host contention from extra work
    while True:
        traced = bool(args.trace) and len(rep_times) % 2 == 1
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install(affinefdr)
            try:
                main, follow, sizes = run.rep()
            finally:
                tracer.uninstall()
            samples["traced_main"].append(main)
            layers.append(layer_metrics(tracer))
            spans.append([[n, p, s - t0, e - t0] for n, p, s, e in tracer.spans])
        else:
            main, follow, sizes = run.rep()
            samples["main"].append(main)
            samples["followup"].extend(follow)
        for key, value in sizes.items():
            facts[key].append(value)
        rep_times.append(time.perf_counter() - t0)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        rep_cpu.append({"user_s": ru1.ru_utime - ru0.ru_utime,
                        "sys_s": ru1.ru_stime - ru0.ru_stime,
                        "minflt": ru1.ru_minflt - ru0.ru_minflt})
        now = time.perf_counter()
        if len(rep_times) >= MIN_REPS and now + statistics.median(rep_times) > deadline:
            break
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        # counts repeat exactly from rep to rep; median_low keeps them whole
        exact = {*COUNTS, "trace.spans"}
        metrics = {name: (statistics.median_low if name in exact else statistics.median)(
            [rep[name] for rep in layers]) for name in layers[0]}
        for name in OTHER:
            if name.startswith("cli.bytes"):
                metrics[name] = statistics.median_low(facts[name]) if facts[name] else 0
        own = metrics["cli.simulate_self_s"]
        metrics["cli.write_mb_per_s"] = metrics["cli.bytes_written"] / 1e6 / own if own else 0.0
        # rep 0 is untraced and pays the process's first-call costs; leave it out
        traced_med = statistics.median(samples["traced_main"])
        plain_med = statistics.median(samples["main"][1:])
        metrics["trace.overhead_s"] = traced_med - plain_med
        metrics["trace.overhead_frac"] = (traced_med - plain_med) / plain_med
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "main_s": statistics.median(samples["main"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "loadavg_before": load_before, "loadavg_after": _read("/proc/loadavg"),
        "reps": len(rep_times), "rep_seconds": rep_times, "rep_cpu": rep_cpu,
        "setup_seconds": setup,
        "samples": samples, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems[:20], "metrics": metrics,
        "per_rep_layers": layers, "spans": spans,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return {"record": record, "units": units, "path": path}


def report(args, result) -> None:
    record, units = result["record"], result["units"]
    print(f"workload {args.workload}: main = {MAIN_COMMAND[args.workload]}, "
          f"follow-up = {FOLLOWUP_COMMAND[args.workload]}, {record['reps']} reps, "
          f"{len(record['samples']['main'])} untraced")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    follow = record["samples"]["followup"]
    if follow and not args.trace:
        print(f"  followup_s = {statistics.median(follow):.6g} s (median of {len(follow)})")
    for key in ("main", "followup"):
        t = tail(record["samples"][key])
        if t:
            print(f"  {key}_tail_s = {t[0]:.6g} s (p{t[1]:.1f} of {t[2]} samples)")
    print(f"  fail_ratio = {record['failed']}/{record['attempted']}")
    for problem in record["problems"][:5]:
        print(f"  FAILED: {problem}")
    print(f"  record: {result['path'].relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "affinefdr" / "cli.py").is_file():
        print(f"error: no affinefdr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report(args, measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
