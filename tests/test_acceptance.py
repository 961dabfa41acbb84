"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines
inline; under plain `pytest` they appear in the captured output of failing
criteria only.
"""

import dataclasses
import json
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest

from affinefdr import realization as rz
from affinefdr.admissibility import (AffineDrift, AffineSquareVol, VolMatrix,
                                     embed_sigma_square, is_inward_pointing,
                                     is_parallel, sigma_square,
                                     symmetric_kernel_equivalences)
from affinefdr.cones import ConeBasis, StateBasis, cone_minus, edges, inner_v
from affinefdr.curves import Grid, derivative
from affinefdr.errors import DimensionExceeded
from affinefdr.hjmm import (SquareRootModel, default_boundary_samples, hjm_drift,
                            riccati_capital, riccati_small)
from affinefdr.simulate import (SimConfig, evolve_psi, fdr_phi_values, simulate_state,
                                summarize_direct, verify_invariance)

from conftest import (admissible_drift_coeffs, brute_force_inward, brute_force_parallel,
                      cir_membership, parallel_sqvol_coeffs, perturbed_cir_model,
                      random_state_basis, riccati_rk4, violate_drift_coeffs,
                      violate_sqvol_coeffs)


def verdict(num, ok, desc):
    line = f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


def test_criterion_01_riccati_correctness(grid):
    start = time.perf_counter()
    rho, gamma = 0.1, 0.05
    x = grid.x
    lam_cap = riccati_capital(x, rho, gamma)
    lam = riccati_small(x, rho, gamma)
    fd_resid = np.abs(derivative(lam, grid)
                      + rho ** 2 * lam * lam_cap + gamma * lam).max()
    # closed-form derivative of Lam: with E = 1 - exp(-theta x) and
    # D = 2 theta + (gamma - theta) E one has Lam' = 4 theta^2 (1 - E) / D^2
    theta = np.sqrt(gamma ** 2 + 2 * rho ** 2)
    e = -np.expm1(-theta * x)
    d_denom = 2 * theta + (gamma - theta) * e
    lam_cap_prime = 4 * theta ** 2 * (1.0 - e) / d_denom ** 2
    lam_prime = -(rho ** 2 * lam_cap + gamma) * lam_cap_prime
    an_resid = np.abs(lam_prime + rho ** 2 * lam * lam_cap + gamma * lam).max()
    rk_err = np.abs(riccati_rk4(grid, rho, gamma) - lam_cap).max()
    tanh_err = np.abs(riccati_capital(x, rho, 0.0)
                      - (np.sqrt(2) / rho) * np.tanh(rho * x / np.sqrt(2))).max()
    elapsed = time.perf_counter() - start
    ok = (fd_resid <= 1e-6 and an_resid <= 1e-10 and rk_err <= 1e-8
          and tanh_err <= 1e-10 and elapsed < 1.0)
    verdict(1, ok, f"Riccati residuals fd={fd_resid:.2e} analytic={an_resid:.2e} "
                   f"rk4={rk_err:.2e} tanh={tanh_err:.2e} in {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    disagreements = 0
    for i in range(1000):
        basis = random_state_basis(rng, d_max=4)
        m, d = basis.m, basis.dim_v
        b1, b2 = admissible_drift_coeffs(rng, m, d)
        if i % 2 == 1:
            violated = violate_drift_coeffs(rng, m, d, b1, b2)
            if violated is not None:
                b1, b2 = violated
        drift = AffineDrift(b1, b2)
        exact = bool(is_inward_pointing(drift, basis))
        sampled = bool(brute_force_inward(drift, basis, n_samples=10_000, rng=rng))
        disagreements += exact != sampled
    for i in range(1000):
        basis = random_state_basis(rng, d_max=4)
        m, d = basis.m, basis.dim_v
        t1, t2 = parallel_sqvol_coeffs(rng, m, d)
        if i % 2 == 1:
            violated = violate_sqvol_coeffs(rng, m, d, t1, t2)
            if violated is not None:
                t1, t2 = violated
        sqvol = AffineSquareVol(t1, t2)
        exact = bool(is_parallel(sqvol, basis))
        sampled = bool(brute_force_parallel(sqvol, basis, n_samples=10_000, rng=rng))
        disagreements += exact != sampled
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0
    verdict(2, ok, f"1000+1000 instances at 10^4 samples, "
                   f"{disagreements} disagreements in {elapsed:.1f}s")


def test_criterion_03_cone_basis_invariance():
    rng = np.random.default_rng(300)
    failures = 0
    for _ in range(500):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, d + 1))
        n = d + int(rng.integers(0, 3))
        while True:
            mat = rng.standard_normal((d, n))
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] > 0.1 * sv[0]:
                break
        gens, sub = mat[:m], mat[m:]
        perm = rng.permutation(m)
        scales = rng.uniform(0.1, 10.0, size=(m, 1))
        basis1 = StateBasis(ConeBasis(gens), subspace=sub)
        basis2 = StateBasis(ConeBasis(gens[perm] * scales), subspace=sub)

        e1 = edges(basis1.cone)
        e2 = edges(basis2.cone)
        edge_ok = all(min(np.linalg.norm(e - f) for f in e2) < 1e-10 for e in e1)

        k = int(rng.integers(0, m))
        drop1 = cone_minus(basis1.cone, e1[k])
        drop2 = cone_minus(basis2.cone, e1[k])
        s1 = edges(drop1) if drop1.m else []
        s2 = edges(drop2) if drop2.m else []
        minus_ok = len(s1) == len(s2) and all(
            min((np.linalg.norm(e - f) for f in s2), default=1.0) < 1e-10
            for e in s1)

        x = basis1.matrix.T @ rng.standard_normal(d)
        y = basis1.matrix.T @ rng.standard_normal(d)
        inner_ok = abs(inner_v(x, y, basis1) - inner_v(x, y, basis2)) \
            <= 1e-8 * max(1.0, abs(inner_v(x, y, basis1)))

        b1, b2 = admissible_drift_coeffs(rng, m, d)
        if rng.random() < 0.5:
            violated = violate_drift_coeffs(rng, m, d, b1, b2)
            if violated is not None:
                b1, b2 = violated
        p = np.concatenate([perm, np.arange(m, d)])
        v1 = bool(is_inward_pointing(AffineDrift(b1, b2), basis1))
        v2 = bool(is_inward_pointing(
            AffineDrift(b1[p], b2[np.ix_(p, p)]), basis2))
        failures += not (edge_ok and minus_ok and inner_ok and v1 == v2)
    verdict(3, failures == 0,
            f"500 permutation/scaling re-bases, {failures} failures")


def test_criterion_04_matrix_lemmas():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(0, d + 1))
        extra = int(rng.integers(1, 3))
        n = d + extra + int(rng.integers(0, 3))
        while True:
            mat = rng.standard_normal((d + extra, n))
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] > 0.1 * sv[0]:
                break
        basis = StateBasis(ConeBasis(mat[:m].reshape(m, n)), subspace=mat[m:d])
        bigger = StateBasis(basis.cone, subspace=mat[m:])
        vol = VolMatrix(rng.standard_normal((int(rng.integers(1, 4)), d)))
        embedded = embed_sigma_square(vol, bigger, basis)
        padded = np.hstack([vol.entries, np.zeros((vol.rows, extra))])
        direct = sigma_square(VolMatrix(padded))
        worst = max(worst, float(np.abs(embedded - direct).max()))
        worst = max(worst, float(np.abs(
            embedded[:d, :d] - sigma_square(vol)).max()))
    lemma_ok = worst <= 1e-14

    mismatches = 0
    for i in range(500):
        basis = random_state_basis(rng, d_max=4)
        d, m = basis.dim_v, basis.m
        if i % 2 == 0:
            a = rng.standard_normal((d, d))
            T = a @ a.T
        else:
            T = np.zeros((d, d))
            if d > m:
                a = rng.standard_normal((d - m, d - m))
                T[m:, m:] = a @ a.T
        res = symmetric_kernel_equivalences(T, basis, rng=rng)
        mismatches += len(set(res.values())) != 1
    verdict(4, lemma_ok and mismatches == 0,
            f"padding identity worst={worst:.1e} on 200 instances, "
            f"six-condition mismatches={mismatches}/500")


def test_criterion_05_realizability_cir(grid, cir_model):
    start = time.perf_counter()
    samples = default_boundary_samples(grid, cir_model.split, n=20)
    passing = rz.check_thm_main2(
        dataclasses.replace(cir_model, boundary_samples=samples))
    pert = cir_model.lam + 0.01 * grid.x * np.exp(-grid.x)
    flipped = rz.check_thm_main2(perturbed_cir_model(cir_model, pert, samples))
    failing = {c.name for c in flipped.failed()}
    elapsed = time.perf_counter() - start
    ok = passing.overall and bool(failing & {"cond-AR-2", "beta-inc-V"}) \
        and elapsed < 10.0
    verdict(5, ok, f"20 boundary curves pass, perturbed lam fails "
                   f"{sorted(failing)} in {elapsed:.1f}s")


def test_criterion_06_initial_set_consistency(grid, cir_model):
    rng = np.random.default_rng(600)
    x = grid.x
    disagreements = 0
    for _ in range(100):
        c = rng.normal(0.0, 0.02, 4)
        h = c[0] + c[1] * x * np.exp(-x) + c[2] * np.exp(-0.5 * x) \
            + c[3] * np.sin(x) * np.exp(-x)
        a, _ = cir_membership(h, cir_model, 0.05)
        b, _ = rz.maximal_initial_membership(h, cir_model)
        disagreements += a != b
    m1, b1 = rz.maximal_initial_membership(np.full(grid.n, 0.02), cir_model)
    m2, _ = rz.maximal_initial_membership(np.zeros(grid.n), cir_model)
    m3, b3 = rz.maximal_initial_membership(x * np.exp(-x), cir_model)
    examples_ok = m1 and not b1 and not m2 and m3 and b3
    verdict(6, disagreements == 0 and examples_ok,
            f"100 random curves, {disagreements} disagreements; "
            f"examples member/non-member/boundary reproduced")


@pytest.fixture(scope="module")
def big_run(grid, cir_model):
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=10_000, seed=2024)
    start = time.perf_counter()
    foliation = evolve_psi(cir_model, h0 - 0.02 * cir_model.lam,
                           horizon=0.5, dt=0.005)
    paths = simulate_state(cir_model, foliation, x0=0.02, config=cfg)
    direct = summarize_direct(cir_model, h0, cfg)
    elapsed = time.perf_counter() - start
    return foliation, paths, direct, elapsed


def test_criterion_07_weak_agreement(cir_model, big_run):
    foliation, paths, direct, elapsed = big_run
    fdr = fdr_phi_values(foliation, paths, cir_model)
    report = verify_invariance(fdr, direct.phis, direct.min_ell, 0.0)
    ell_ok = report["phis"]["ell"]["within_3se"]
    at1_ok = report["phis"]["eval_at_1"]["within_3se"]
    pos_ok = bool(np.all(paths.values >= 0.0))
    dir_ok = direct.min_ell >= -1e-3
    ok = ell_ok and at1_ok and pos_ok and dir_ok and elapsed < 120.0
    verdict(7, ok, f"10^4 paths: ell gap {report['phis']['ell']['weak_error']:.2e} "
                   f"({report['phis']['ell']['combined_se']:.2e} se), "
                   f"x=1 gap {report['phis']['eval_at_1']['weak_error']:.2e}, "
                   f"min state {paths.values.min():.1e}, "
                   f"direct min ell {direct.min_ell:.1e}, {elapsed:.0f}s")


def test_criterion_08_exact_identities(grid, cir_model, big_run):
    foliation, paths, _, _ = big_run
    curves = foliation.psi[-1] + paths.final[:, None] * cir_model.lam
    ell_gap = float(np.abs(np.asarray(cir_model.ell_of(curves))
                           - paths.final).max())
    psi_gap = max(abs(float(cir_model.ell_of(p))) for p in foliation.psi)
    det = SquareRootModel.cir(grid, 0.0, 0.05)
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    fol0 = evolve_psi(det, h0 - 0.02 * det.lam, horizon=0.5, dt=0.005)
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=1, seed=1)
    p0 = simulate_state(det, fol0, x0=0.02, config=cfg)
    r_fdr = fol0.psi[-1] + p0.final[0] * det.lam
    # at one path the mean curve is that path's final curve
    r_dir = summarize_direct(det, h0, cfg).mean_curve
    det_gap = float(np.abs(r_fdr - r_dir).max())
    ok = ell_gap <= 1e-14 and psi_gap <= 1e-10 and det_gap <= 1e-4
    verdict(8, ok, f"ell(r)-X={ell_gap:.1e}, max ell(psi)={psi_gap:.1e}, "
                   f"deterministic fdr-vs-direct={det_gap:.1e}")


def test_criterion_09_quasi_exponential(grid):
    apply_a = lambda h: derivative(h, grid)
    d1 = len(rz.quasi_exp_subspace(apply_a, [np.exp(-0.05 * grid.x)]))
    d2 = len(rz.quasi_exp_subspace(apply_a, [1.0 + grid.x]))
    exceeded = False
    try:
        rz.quasi_exp_subspace(apply_a, [1.0 / (1.0 + grid.x)], max_dim=10)
    except DimensionExceeded:
        exceeded = True
    model = SquareRootModel.two_factor(grid, rho=0.1, gamma=1.0)
    seeds = [model.lam, hjm_drift(model.rho * model.lam, grid)]
    a_sigma = rz.quasi_exp_subspace(apply_a, seeds)
    _, off_v = model.split.v_basis.fit(a_sigma.T)  # V = span(lam, lam^2)
    span_ok = len(a_sigma) == 2 and bool(np.all(
        np.linalg.norm(off_v, axis=0) < 1e-6 * np.linalg.norm(a_sigma, axis=1)))
    ok = d1 == 1 and d2 == 2 and exceeded and span_ok
    verdict(9, ok, f"dims exp={d1}, 1+x={d2}, 1/(1+x)=exceeded({exceeded}), "
                   f"two-factor span(lam, lam^2)={span_ok}")


def test_criterion_10_cli_contract(tmp_path):
    models = resources.files("affinefdr") / "models"

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "affinefdr.cli", *argv],
                              capture_output=True, text=True)

    cir = run("check", str(models / "cir.model"), "--json")
    ex64 = run("check", str(models / "example64.model"), "--json")
    ex64_again = run("check", str(models / "example64.model"), "--json")
    damir_false = json.loads(ex64.stdout)["checks"]["check_damir"] is False

    text = (models / "cir.model").read_text().replace("paths = 2000",
                                                      "paths = 200")
    fast = tmp_path / "fast.model"
    fast.write_text(text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    s1 = run("simulate", str(fast), "--out-dir", str(out1))
    s2 = run("simulate", str(fast), "--out-dir", str(out2))
    identical = s1.returncode == 0 and s2.returncode == 0 and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("paths.npy", "direct_phis.csv", "verify.json",
                     "manifest.json"))
    ok = (cir.returncode == 0 and ex64.returncode == 1 and damir_false
          and cir.stdout == run("check", str(models / "cir.model"),
                                "--json").stdout
          and ex64.stdout == ex64_again.stdout and identical)
    verdict(10, ok, f"cir exit {cir.returncode}, example64 exit "
                    f"{ex64.returncode} with check_damir=false, "
                    f"byte-identical repeated runs={identical}")
