import tracemalloc
from importlib import resources

import numpy as np
import pytest

from affinefdr import simulate
from affinefdr.curves import Grid, PointCombo, Weight, derivative
from affinefdr.errors import (CflViolated, ConstraintViolated, HorizonMismatch,
                              LeftBoundary, NotInInitialSet)
from affinefdr.hjmm import SquareRootModel, riccati_small
from affinefdr.modelfile import parse_model_file
from affinefdr.simulate import (PATH_BLOCK, RECURSION_BLOCK, Foliation, SimConfig,
                                StatePaths, _FactoredOracle, _factored_oracle, _held_windows,
                                _oracle_blocks, _shifted_basis, evolve_psi, fdr_phi_values,
                                path_normals, simulate_state, summarize_direct,
                                verify_invariance)

from conftest import gathered_oracle


@pytest.fixture(scope="module")
def g0(grid):
    return 0.01 * grid.x * np.exp(-grid.x)


@pytest.fixture(scope="module")
def foliation(cir_model, g0):
    return evolve_psi(cir_model, g0, horizon=0.5, dt=0.005)


def realized_curves(foliation, paths, model, step=-1):
    """r = psi + X lam for every path, at a step the leaf and the paths share."""
    assert len(foliation.times) == len(paths.times)
    return foliation.psi[step] + paths.values[:, step][:, None] * model.lam


def direct_curves(model, h0, config):
    """The direct run's final curves, assembled block by block, and its min ell."""
    oracle = _factored_oracle(model, h0, config)
    blocks = list(_oracle_blocks(model, oracle, config))
    return (np.vstack([oracle.curves(coef) for _, coef, _, _ in blocks]),
            min(block_min for *_, block_min in blocks))


def ensemble_phis(curves, model, weight=Weight()):
    """The three comparison functionals of every curve, by whole-array quadrature."""
    d = derivative(curves, model.grid)
    integ = np.trapezoid(d * d * weight.values(model.grid)[None, :], dx=model.grid.dx, axis=-1)
    return {"ell": np.asarray(model.ell_of(curves), dtype=float),
            "eval_at_1": curves[:, model.grid.index_of(1.0)],
            "hw_norm": np.sqrt(curves[:, 0] ** 2 + integ)}


def ensemble_residual(curves, psi, lam):
    """Max distance of r - psi to the span of lam, relative to the curve scale."""
    diff = curves - psi[None, :]
    lam_unit = lam / np.linalg.norm(lam)
    proj = diff - np.outer(diff @ lam_unit, lam_unit)
    scale = max(1.0, float(np.abs(curves).max()))
    return float(np.linalg.norm(proj, axis=1).max() / scale)


def test_evolve_psi_stays_in_kernel(cir_model, foliation, g0):
    assert np.array_equal(foliation.psi[0], g0)
    ell_vals = [float(cir_model.ell_of(p)) for p in foliation.psi]
    assert max(abs(v) for v in ell_vals) <= 1e-10
    assert np.all(foliation.psi_ell_deriv > 0.0)


def test_evolve_psi_step_halving(cir_model, g0):
    # RK4 self-convergence: halving dt must reproduce the coarse solution
    coarse = evolve_psi(cir_model, g0, horizon=0.2, dt=0.005)
    fine = evolve_psi(cir_model, g0, horizon=0.2, dt=0.0025)
    assert np.abs(coarse.psi[-1] - fine.psi[-1]).max() <= 1e-6


def test_evolve_psi_differentiates_once_per_stage(cir_model, g0, monkeypatch):
    # b(t) = ell(psi') and the first RK4 stage share one derivative
    calls = []
    monkeypatch.setattr(simulate, "derivative",
                        lambda values, grid: calls.append(1) or derivative(values, grid))
    fol = evolve_psi(cir_model, g0, horizon=0.05, dt=0.005)
    n_steps = len(fol.times) - 1
    assert n_steps == 10 and len(calls) == 4 * n_steps + 1


def test_evolve_psi_rejections(grid, cir_model):
    with pytest.raises(ConstraintViolated):
        evolve_psi(cir_model, np.full(grid.n, 0.01), horizon=0.1)
    # transported curve whose short-end slope turns negative exits the leaf
    bad = 0.01 * grid.x * np.exp(-grid.x) * np.cos(4.0 * grid.x)
    with pytest.raises(LeftBoundary) as exc:
        evolve_psi(cir_model, bad - float(cir_model.ell_of(bad)) * cir_model.lam,
                   horizon=2.0, dt=0.005)
    assert 0.0 <= exc.value.exit_time <= 2.0


def test_path_normals_counter_based():
    a = path_normals(7, 4, 50)
    b = path_normals(7, 8, 50)
    # a path's increments do not depend on how many paths are drawn
    assert np.array_equal(a, b[:4])
    assert not np.array_equal(path_normals(8, 4, 50), a)
    assert not np.array_equal(path_normals(7, 4, 50, stream=1), a)


@pytest.mark.parametrize("seed,stream", [(7, 0), (7, 1), (2 ** 32 - 3, 1)])
def test_path_normals_match_a_generator_per_path(seed, stream):
    # an odd step count leaves a part-used buffer for the next path to ignore
    n_paths, n_steps = 5, 37
    got = path_normals(seed, n_paths, n_steps, stream)
    for p in range(n_paths):
        gen = np.random.Generator(np.random.Philox(key=[seed + (stream << 32), p]))
        assert np.array_equal(got[p], gen.standard_normal(n_steps)), p


def test_path_normals_shared_and_read_only():
    a = path_normals(11, 3, 20)
    b = path_normals(11, 3, 20)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    with pytest.raises(ValueError):
        b *= 2.0


def test_simulate_state_deterministic_oracle(cir_model, g0):
    # rho = 0 freezes the diffusion; compare against RK4 on dx = b(t) + a x
    det = SquareRootModel.cir(cir_model.grid, 0.0, 0.05)
    dt = 5e-5
    fol0 = evolve_psi(det, g0, horizon=0.2, dt=dt)
    cfg = SimConfig(horizon=0.2, dt=dt, n_paths=1, seed=1)
    paths = simulate_state(det, fol0, x0=0.02, config=cfg)
    a = det.state_drift_slope
    b = fol0.psi_ell_deriv

    x = 0.02
    for k in range(len(b) - 1):
        bm = 0.5 * (b[k] + b[k + 1])
        k1 = b[k] + a * x
        k2 = bm + a * (x + dt / 2 * k1)
        k3 = bm + a * (x + dt / 2 * k2)
        k4 = b[k + 1] + a * (x + dt * k3)
        x += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(paths.final[0] - x) <= 1e-6


def test_simulate_state_mean_against_closed_form(grid, cir_model):
    # constant b: E[X_t] = x0 e^{a t} + b (e^{a t} - 1) / a
    b_const = 0.012
    n_t = 101
    # psi = b x satisfies ell(psi) = 0 and ell(psi') = b for the short end
    fol = Foliation(np.linspace(0.0, 0.5, n_t),
                    np.tile(b_const * grid.x, (n_t, 1)),
                    np.full(n_t, b_const))
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=4000, seed=3)
    paths = simulate_state(cir_model, fol, x0=0.05, config=cfg)
    a = cir_model.state_drift_slope
    expect = 0.05 * np.exp(a * 0.5) + b_const * (np.exp(a * 0.5) - 1.0) / a
    se = paths.final.std(ddof=1) / np.sqrt(cfg.n_paths)
    assert abs(paths.final.mean() - expect) <= 3.0 * se + 5e-5
    assert np.all(paths.values >= 0.0)


def test_simulate_state_schemes_and_errors(cir_model, foliation):
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=16, seed=5,
                    scheme="drift_implicit")
    paths = simulate_state(cir_model, foliation, x0=0.02, config=cfg)
    assert np.all(paths.values >= 0.0)
    with pytest.raises(ConstraintViolated):
        simulate_state(cir_model, foliation, x0=-0.1, config=cfg)
    with pytest.raises(HorizonMismatch):
        simulate_state(cir_model, foliation, x0=0.0,
                       config=SimConfig(horizon=1.0, dt=0.005, n_paths=2))
    with pytest.raises(ConstraintViolated):
        SimConfig(horizon=0.5, dt=0.005, n_paths=2, scheme="euler_exact")


def test_reconstruct_identities(grid, cir_model, foliation):
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=32, seed=9)
    paths = simulate_state(cir_model, foliation, x0=0.02, config=cfg)
    curves = realized_curves(foliation, paths, cir_model)
    # ell(r) recovers the state coordinate exactly: ell is linear and
    # ell(psi) vanishes to rounding
    ell_r = np.array([float(cir_model.ell_of(c)) for c in curves])
    assert np.abs(ell_r - paths.final).max() <= 1e-12
    # identically zero state reproduces the leaf itself
    zero = StatePaths(paths.times, np.zeros((1, len(paths.times))))
    flat = realized_curves(foliation, zero, cir_model)
    assert np.abs(flat[0] - foliation.psi[-1]).max() <= 1e-12
    # time zero reproduces the initial curve
    first = realized_curves(foliation, paths, cir_model, step=0)
    h0 = foliation.psi[0] + 0.02 * cir_model.lam
    assert np.abs(first - h0[None, :]).max() <= 1e-12
    # the mean curve needs only psi(T) and the mean state
    mean = foliation.psi[-1] + paths.final.mean() * cir_model.lam
    np.testing.assert_allclose(mean, curves.mean(axis=0), rtol=1e-12, atol=0.0)


def test_simulate_direct_pure_transport(grid):
    det = SquareRootModel.cir(grid, 0.0, 0.3)
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    cfg = SimConfig(horizon=0.1, dt=0.005, n_paths=1, seed=0)
    run = summarize_direct(det, h0, cfg)
    shift = round(0.1 / grid.dx)
    expect = np.concatenate([h0[shift:], np.full(shift, h0[-1])])
    # at one path the mean curve is that path's final curve
    assert np.abs(run.mean_curve - expect).max() <= 1e-14
    assert not run.negative_short_rate


def test_simulate_direct_rejections(grid, cir_model):
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    with pytest.raises(CflViolated):
        summarize_direct(cir_model, h0, SimConfig(0.1, 0.01, 1))
    with pytest.raises(NotInInitialSet):
        summarize_direct(cir_model, -h0, SimConfig(0.1, 0.005, 1))


def test_seed_determinism(grid, cir_model):
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    cfg = SimConfig(horizon=0.05, dt=0.005, n_paths=8, seed=42)
    r1, _ = direct_curves(cir_model, h0, cfg)
    r2, _ = direct_curves(cir_model, h0, cfg)
    assert np.array_equal(r1, r2)


def test_phi_values_consistency(grid, cir_model, foliation):
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=16, seed=2)
    paths = simulate_state(cir_model, foliation, x0=0.02, config=cfg)
    curves = realized_curves(foliation, paths, cir_model)
    # the closed-form fdr functionals agree with direct evaluation of the
    # reconstructed curves
    via_curves = ensemble_phis(curves, cir_model)
    via_coeffs = fdr_phi_values(foliation, paths, cir_model)
    for name in ("ell", "eval_at_1", "hw_norm"):
        assert np.abs(via_curves[name] - via_coeffs[name]).max() <= 1e-10
    assert ensemble_residual(curves, foliation.psi[-1], cir_model.lam) <= 1e-12


def test_verify_invariance_self_comparison(cir_model, foliation):
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=64, seed=4)
    paths = simulate_state(cir_model, foliation, x0=0.02, config=cfg)
    phis = fdr_phi_values(foliation, paths, cir_model)
    report = verify_invariance(phis, phis, direct_min_ell=0.0,
                               foliation_resid=0.0)
    for entry in report["phis"].values():
        assert entry["weak_error"] == 0.0 and entry["within_3se"]


def test_strong_convergence_rho_zero(grid):
    # deterministic dynamics: halving dt should shrink the state error by
    # about the scheme order (first order for Euler drift handling)
    det = SquareRootModel.cir(grid, 0.0, 0.3)
    g0 = 0.01 * grid.x * np.exp(-grid.x)
    fol = evolve_psi(det, g0, horizon=0.4, dt=0.0025)
    ref = simulate_state(det, fol, 0.02, SimConfig(0.4, 0.0025, 1)).final[0]
    e1 = abs(simulate_state(det, fol, 0.02, SimConfig(0.4, 0.04, 1)).final[0] - ref)
    e2 = abs(simulate_state(det, fol, 0.02, SimConfig(0.4, 0.02, 1)).final[0] - ref)
    assert e1 / e2 >= 1.8


def dense_direct(model, h0, config):
    """Reference stepper: advance every path's full curve one step at a time."""
    noise = path_normals(config.seed, config.n_paths, config.n_steps) * np.sqrt(config.dt)
    r = np.tile(h0, (config.n_paths, 1))
    min_ell = float(np.min(model.ell_of(r)))
    for k in range(config.n_steps):
        mag = np.abs(model.ell_of(r))
        r[:, :-1] = r[:, 1:].copy()  # the CFL check leaves a one-node shift
        r += np.outer(model.rho ** 2 * mag * config.dt, model.lam * model.lam_capital)
        r += np.outer(model.rho * np.sqrt(mag) * noise[:, k], model.lam)
        min_ell = min(min_ell, float(np.min(model.ell_of(r))))
    return r, min_ell


def _points_model(grid):
    c2 = -1.0 / float(riccati_small(np.array([1.0]), 0.1, 0.05)[0])
    return SquareRootModel.cir(grid, 0.1, 0.05, PointCombo((0.0, 1.0), (2.0, c2)))


@pytest.mark.parametrize("case", ["short_end", "points", "high_rho", "mid_rho"])
@pytest.mark.parametrize("n_paths", [1, 16])
def test_simulate_direct_matches_dense_stepper(grid, cir_model, case, n_paths):
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    model = {"short_end": cir_model, "points": _points_model(grid),
             "high_rho": SquareRootModel.cir(grid, 0.3, 0.05),
             "mid_rho": SquareRootModel.cir(grid, 0.2, 0.05)}[case]
    if case == "high_rho":
        h0 = 0.002 + 0.01 * grid.x * np.exp(-grid.x)
    if case == "mid_rho":
        h0 = 0.006 + 0.01 * grid.x * np.exp(-grid.x)
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=n_paths, seed=3)
    run = summarize_direct(model, h0, cfg)
    curves, _ = direct_curves(model, h0, cfg)
    ref_curves, ref_min_ell = dense_direct(model, h0, cfg)
    assert np.abs(curves - ref_curves).max() <= 1e-14
    assert abs(run.min_ell - ref_min_ell) <= 1e-14
    assert run.negative_short_rate == bool(ref_min_ell < -1e-3)
    for name, values in ensemble_phis(ref_curves, model).items():
        np.testing.assert_allclose(run.phis[name], values, rtol=1e-12, atol=0.0, err_msg=name)
    if case == "high_rho":
        # ell turns negative, so the |ell| amplitudes are exercised
        assert ref_min_ell < 0.0
        if n_paths == 16:
            assert run.negative_short_rate
    if case == "mid_rho" and n_paths == 16:
        # below -SCHEME_TOL = -1e-3 but above -1e-2, so a threshold of 1e-2 fails
        assert -1e-2 < ref_min_ell < -1e-3 and run.negative_short_rate


def _held_point_model(grid):
    # ell reads x = 9.9, which S^i moves into the held region once i > 20
    c2 = 0.5 / float(riccati_small(np.array([9.9]), 0.1, 0.05)[0])
    return SquareRootModel.cir(grid, 0.1, 0.05, PointCombo((0.0, 9.9), (0.5, c2)))


@pytest.mark.parametrize("case", ["short_end", "held_point"])
def test_factored_oracle_matches_gathered_reference(grid, cir_model, case):
    model = cir_model if case == "short_end" else _held_point_model(grid)
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=1)
    oracle = _factored_oracle(model, h0, cfg)
    basis, ell_basis, ell_h0, tail = gathered_oracle(model, h0, oracle.shift, cfg.n_steps)
    assert np.array_equal(oracle.basis, basis)
    assert np.array_equal(oracle.ell_basis, ell_basis)
    assert np.array_equal(oracle.ell_h0, ell_h0)
    assert np.array_equal(oracle.tail, tail)
    assert np.array_equal(_shifted_basis(model, oracle.shift, cfg.n_steps, grid.dx),
                          derivative(basis, grid))
    if case == "held_point":
        # the highest shifts read the point from the held region
        assert grid.index_of(9.9) + oracle.shift * (cfg.n_steps - 1) > grid.n - 1


@pytest.mark.parametrize("shift,n", [(2, 40), (7, 300)])
def test_shifted_basis_matches_gathered_reference_at_wider_shifts(grid, cir_model, shift, n):
    # the CFL check admits a shift of one node only; the windows take any
    # shift, and at (7, 300) the last rows lie wholly in the held region
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    basis, _, ell_h0, tail = gathered_oracle(cir_model, h0, shift, n)
    assert np.array_equal(_shifted_basis(cir_model, shift, n), basis)
    assert np.array_equal(_shifted_basis(cir_model, shift, n, grid.dx), derivative(basis, grid))
    _, h0_rows = _held_windows(h0, shift, n)
    assert np.array_equal(cir_model.ell_of(h0_rows), ell_h0)
    assert np.array_equal(h0_rows[n], tail)
    if shift == 7:
        assert np.ptp(basis[0]) == 0.0 and np.ptp(h0_rows[n]) == 0.0


def _sim_inputs(grid, model, n_paths, scale=1.0):
    h0 = scale * (0.02 + 0.01 * grid.x * np.exp(-grid.x))
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=n_paths, seed=12345)
    x0 = float(model.ell_of(h0))
    psi = evolve_psi(model, h0 - x0 * model.lam, cfg.horizon, cfg.dt).psi[-1]
    return h0, cfg, psi


@pytest.mark.parametrize("case,n_paths", [("short_end", 1), ("short_end", PATH_BLOCK + 1),
                                          ("short_end", RECURSION_BLOCK + 1),
                                          ("short_end", 2001), ("points", PATH_BLOCK + 1),
                                          ("large_h0", PATH_BLOCK + 1)])
def test_summarize_direct_matches_materialized_ensemble(grid, cir_model, case, n_paths):
    model = {"short_end": cir_model, "points": _points_model(grid),
             "large_h0": cir_model}[case]
    h0, cfg, psi = _sim_inputs(grid, model, n_paths, scale=60.0 if case == "large_h0" else 1.0)
    weight = Weight(3.0)
    summary = summarize_direct(model, h0, cfg, weight, psi)
    curves, min_ell = direct_curves(model, h0, cfg)
    phis = ensemble_phis(curves, model, weight)
    for name in ("ell", "eval_at_1", "hw_norm"):
        np.testing.assert_allclose(summary.phis[name], phis[name], rtol=1e-12, atol=0.0,
                                   err_msg=name)
        # a phi that viewed a block would keep that block alive
        assert summary.phis[name].flags.owndata, name
    np.testing.assert_allclose(summary.mean_curve, curves.mean(axis=0),
                               rtol=1e-12, atol=0.0)
    assert summary.min_ell == min_ell
    assert summary.negative_short_rate == bool(min_ell < -1e-3)
    # the residual is a quadratic form in the coefficient rows, summed in
    # another order than the curves' distances
    np.testing.assert_allclose(summary.foliation_residual,
                               ensemble_residual(curves, psi, model.lam), rtol=1e-10, atol=0.0)
    # large_h0's curves exceed 1, so its residual is normalized by max|r|
    assert (np.abs(curves).max() > 1.0) == (case == "large_h0")
    assert np.isnan(summarize_direct(model, h0, cfg, weight).foliation_residual)


def test_summarize_direct_builds_only_the_mean_curve(monkeypatch):
    # cir.model's curves stay below 1, so the residual's normalizer needs none
    spec = parse_model_file(resources.files("affinefdr") / "models" / "cir.model")
    model, cfg, h0 = spec.model(), spec.sim, spec.h0
    x0 = float(model.ell_of(h0))
    psi = evolve_psi(model, h0 - x0 * model.lam, cfg.horizon, cfg.dt).psi[-1]
    shapes = []
    curves = _FactoredOracle.curves
    monkeypatch.setattr(_FactoredOracle, "curves",
                        lambda self, coef: shapes.append(coef.shape) or curves(self, coef))
    summary = summarize_direct(model, h0, cfg, spec.weight, psi)
    assert shapes == [(2 * cfg.n_steps,)] and summary.foliation_residual > 0.0


def test_summarize_direct_holds_no_ensemble(grid, cir_model):
    n_paths = 2001
    h0, cfg, psi = _sim_inputs(grid, cir_model, n_paths)
    tracemalloc.start()
    try:
        summarize_direct(cir_model, h0, cfg, Weight(), psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n_paths * grid.n * 8
