import dataclasses
from importlib import resources

import numpy as np
import pytest

from affinefdr import simulate
from affinefdr.curves import Grid, Weight, derivative
from affinefdr.errors import (AffineFdrError, CflViolated, ConstraintViolated, GridMismatch,
                              HorizonMismatch, LeftBoundary, NotInInitialSet)
from affinefdr.hjmm import riccati_capital, riccati_small
from affinefdr.modelfile import parse_model_file
from affinefdr.simulate import (PATH_BLOCK, RECURSION_BLOCK, Foliation, SimConfig,
                                _FactoredOracle, _factored_oracle, _held_windows,
                                _oracle_blocks, evolve_psi, fdr_phi_values, path_normals,
                                simulate_state, summarize_direct, verify_invariance)

from conftest import bundled_model, gathered_oracle, traced_peak


@pytest.fixture(scope="module")
def g0(grid):
    return 0.01 * grid.x * np.exp(-grid.x)


@pytest.fixture(scope="module")
def h0(cir_model, g0):
    # ell(g0) = 0, so h0 splits into the leaf's start g0 and X_0 = 0.02
    return g0 + 0.02 * cir_model.lam


@pytest.fixture(scope="module")
def foliation(cir_model, h0):
    return evolve_psi(cir_model, h0, SimConfig(horizon=0.5, dt=0.005, n_paths=1))


def realized_curves(foliation, paths, model, step=-1):
    """r = psi + X lam for every path, at a step the leaf and the paths share."""
    assert len(foliation.psi) == paths.shape[1]
    return foliation.psi[step] + paths[:, step][:, None] * model.lam


def whole_basis(oracle, dx=None):
    """The oracle's whole (2K, n_x) basis, or its derivative given dx."""
    return oracle.basis(np.empty((len(oracle.ell_basis), len(oracle.tail))), dx)


def direct_curves(model, h0, config):
    """The direct run's final curves, each block's rows times the whole basis
    plus S^K h0, and its min ell."""
    oracle = _factored_oracle(model, h0, config)
    basis = whole_basis(oracle)
    # a yielded slice is valid only until the generator advances
    curves, mins = zip(*((coef @ basis + oracle.tail, block_min)
                         for _, coef, _, block_min in _oracle_blocks(model, oracle, config)))
    return np.vstack(curves), min(mins)


def ensemble_phis(curves, model, weight=Weight()):
    """The three comparison functionals of every curve, by whole-array quadrature."""
    d = derivative(curves, model.grid)
    integ = np.trapezoid(d * d * weight.values(model.grid)[None, :], dx=model.grid.dx, axis=-1)
    return {"ell": np.asarray(model.ell(curves), dtype=float),
            "eval_at_1": curves[:, model.grid.index_of(1.0)],
            "hw_norm": np.sqrt(curves[:, 0] ** 2 + integ)}


def ensemble_residual(curves, psi, lam):
    """Max distance of r - psi to the span of lam, relative to the curve scale."""
    diff = curves - psi[None, :]
    lam_unit = lam / np.linalg.norm(lam)
    proj = diff - np.outer(diff @ lam_unit, lam_unit)
    scale = max(1.0, float(np.abs(curves).max()))
    return float(np.linalg.norm(proj, axis=1).max() / scale)


def test_evolve_psi_stays_in_kernel(cir_model, foliation, h0):
    assert foliation.x0 == 0.02
    assert np.array_equal(foliation.psi[0], h0 - 0.02 * cir_model.lam)
    ell_vals = [float(cir_model.ell(p)) for p in foliation.psi]
    assert max(abs(v) for v in ell_vals) <= 1e-10
    assert np.all(foliation.psi_ell_deriv > 0.0)


def test_evolve_psi_step_halving(cir_model, g0):
    # RK4 self-convergence: halving dt must reproduce the coarse solution
    coarse = evolve_psi(cir_model, g0, SimConfig(horizon=0.2, dt=0.005, n_paths=1))
    fine = evolve_psi(cir_model, g0, SimConfig(horizon=0.2, dt=0.0025, n_paths=1))
    assert np.abs(coarse.psi[-1] - fine.psi[-1]).max() <= 1e-6


def test_evolve_psi_differentiates_once_per_stage(cir_model, g0, monkeypatch):
    # b(t) = ell(psi') and the first RK4 stage share one derivative
    calls = []
    monkeypatch.setattr(simulate, "derivative", lambda values, grid, out=None:
                        calls.append(1) or derivative(values, grid, out=out))
    fol = evolve_psi(cir_model, g0, SimConfig(horizon=0.05, dt=0.005, n_paths=1))
    n_steps = len(fol.psi) - 1
    assert n_steps == 10 and len(calls) == 4 * n_steps + 1


def reference_derivative(f, dx):
    """The derivative's stencils as plain expressions, one new array per operation."""
    d = np.empty_like(f)
    d[..., 2:-2] = (f[..., :-4] - 8 * f[..., 1:-3] + 8 * f[..., 3:-1] - f[..., 4:]) / (12 * dx)
    d[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * dx)
    d[..., 1] = (f[..., 2] - f[..., 0]) / (2 * dx)
    d[..., -2] = (f[..., -1] - f[..., -3]) / (2 * dx)
    d[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * dx)
    return d


def reference_evolve_psi(model, g0, horizon, dt):
    """evolve_psi's RK4 leaf as plain expressions: (psi rows, b(t))."""
    lam, dx = model.lam, model.grid.dx

    def rhs(psi):
        d = reference_derivative(psi, dx)
        return d - float(model.ell(d)) * lam

    n_steps = round(horizon / dt)
    psi, rows, b = g0.copy(), [], []
    for k in range(n_steps + 1):
        rows.append(psi)
        d = reference_derivative(psi, dx)
        b.append(float(model.ell(d)))
        if k == n_steps:
            break
        k1 = d - b[-1] * lam
        k2 = rhs(psi + dt / 2 * k1)
        k3 = rhs(psi + dt / 2 * k2)
        k4 = rhs(psi + dt * k3)
        psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        psi = psi - float(model.ell(psi)) * lam
    return np.array(rows), np.array(b)


@pytest.mark.parametrize("shape", [(2001,), (3, 2001)])
def test_derivative_into_out_matches_plain_expressions(grid, shape):
    f = 0.01 * np.random.default_rng(1).standard_normal(shape)
    ref = reference_derivative(f, grid.dx)
    out = np.full(shape, np.nan)
    assert derivative(f, grid, out=out) is out
    assert np.array_equal(out, ref)
    assert np.array_equal(derivative(f, grid), ref)


def test_evolve_psi_matches_plain_expressions_on_a_two_point_ell(grid):
    # the buffered stages keep every operation of the plain stepper, in order
    model = _points_model()
    h = 0.02 + 0.01 * grid.x * np.exp(-grid.x)   # a member: ell(h) > 0
    fol = evolve_psi(model, h, SimConfig(horizon=0.5, dt=0.005, n_paths=1))
    psi, b = reference_evolve_psi(model, h - float(model.ell(h)) * model.lam, 0.5, 0.005)
    assert np.array_equal(fol.psi, psi)
    assert np.array_equal(fol.psi_ell_deriv, b)


def test_evolve_psi_rejections(grid, cir_model):
    cfg = SimConfig(horizon=0.1, dt=0.005, n_paths=1)
    # h0 is checked before the leaf: ell(h0) < 0 puts it outside the initial set
    with pytest.raises(NotInInitialSet):
        evolve_psi(cir_model, np.full(grid.n, -0.01), cfg)
    with pytest.raises(GridMismatch):
        evolve_psi(cir_model, np.full(grid.n - 1, 0.01), cfg)
    # transported curve whose short-end slope turns negative exits the leaf
    bad = 0.01 * grid.x * np.exp(-grid.x) * np.cos(4.0 * grid.x)
    with pytest.raises(LeftBoundary) as exc:
        evolve_psi(cir_model, bad, SimConfig(horizon=2.0, dt=0.005, n_paths=1))
    assert 0.0 <= exc.value.exit_time <= 2.0
    # the step is checked before any stage: at 2.5 dx the leaf would go
    # unstable and leave the boundary
    with pytest.raises(CflViolated, match=r"^dt = 0.0125 exceeds dx = 0.005$"):
        evolve_psi(cir_model, 0.01 * grid.x * np.exp(-grid.x),
                   SimConfig(horizon=0.5, dt=0.0125, n_paths=1))


@pytest.mark.parametrize("model", [
    lambda grid, cir: bundled_model("two_factor"),
    lambda grid, cir: dataclasses.replace(cir, amplitude="const"),
    lambda grid, cir: dataclasses.replace(cir, lam=2 * cir.lam),
], ids=["two_factor", "const", "ell_lam_2"])
def test_evolve_psi_refuses_a_model_off_its_leaf(grid, cir_model, model):
    # two_factor runs without complaint otherwise, and returns a leaf in
    # ker ell rather than in its G
    with pytest.raises(AffineFdrError, match="the leaf needs V = <lam>"):
        evolve_psi(model(grid, cir_model), 0.01 * grid.x * np.exp(-grid.x),
                   SimConfig(horizon=0.05, dt=0.005, n_paths=1))


def test_path_normals_counter_based():
    a = path_normals(7, 4, 50)
    b = path_normals(7, 8, 50)
    # a path's increments do not depend on how many paths are drawn
    assert np.array_equal(a, b[:4])
    assert not np.array_equal(path_normals(8, 4, 50), a)


@pytest.mark.parametrize("seed", [7, 2 ** 32 - 3])
def test_path_normals_match_a_generator_per_path(seed):
    # an odd step count leaves a part-used buffer for the next path to ignore
    n_paths, n_steps = 5, 37
    got = path_normals(seed, n_paths, n_steps)
    for p in range(n_paths):
        gen = np.random.Generator(np.random.Philox(key=[seed, p]))
        assert np.array_equal(got[p], gen.standard_normal(n_steps)), p


def test_path_normals_keep_seeds_beyond_2_63_apart():
    # a key list cast through float64 merges these seeds, the last into
    # seed 0 with a cast warning, which pytest turns into an error
    assert not np.array_equal(path_normals(2 ** 63, 2, 5), path_normals(2 ** 63 + 5, 2, 5))
    assert not np.array_equal(path_normals(2 ** 64 - 1, 2, 5), path_normals(0, 2, 5))


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
    det = bundled_model("cir", rho=0.0)
    dt = 5e-5
    cfg = SimConfig(horizon=0.2, dt=dt, n_paths=1, seed=1)
    fol0 = evolve_psi(det, g0 + 0.02 * det.lam, cfg)
    paths = simulate_state(det, fol0, cfg)
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
    assert abs(paths[0, -1] - x) <= 1e-6


def test_simulate_state_mean_against_closed_form(grid, cir_model):
    # constant b: E[X_t] = x0 e^{a t} + b (e^{a t} - 1) / a
    b_const = 0.012
    n_t = 101
    # psi = b x satisfies ell(psi) = 0 and ell(psi') = b for the short end
    fol = Foliation(np.tile(b_const * grid.x, (n_t, 1)), np.full(n_t, b_const), 0.05)
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=4000, seed=3)
    paths = simulate_state(cir_model, fol, cfg)
    a = cir_model.state_drift_slope
    expect = 0.05 * np.exp(a * 0.5) + b_const * (np.exp(a * 0.5) - 1.0) / a
    se = paths[:, -1].std(ddof=1) / np.sqrt(cfg.n_paths)
    assert abs(paths[:, -1].mean() - expect) <= 3.0 * se + 5e-5
    assert np.all(paths >= 0.0)


def test_simulate_state_schemes_and_errors(cir_model, foliation):
    # full truncation is the one state scheme: a run names none
    assert [f.name for f in dataclasses.fields(SimConfig)] == ["horizon", "dt", "n_paths", "seed"]
    with pytest.raises(TypeError):
        SimConfig(horizon=0.5, dt=0.005, n_paths=2, scheme="drift_implicit")
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=16, seed=5)
    paths = simulate_state(cir_model, foliation, cfg)
    assert np.all(paths >= 0.0)
    # a hand-built leaf may start below 0
    with pytest.raises(ConstraintViolated):
        simulate_state(cir_model, dataclasses.replace(foliation, x0=-0.1), cfg)
    # the leaf needs one row per step: 101 rows serve neither 200 steps nor 50
    for horizon, dt in ((1.0, 0.005), (0.5, 0.01)):
        with pytest.raises(HorizonMismatch, match="the leaf has 101 rows"):
            simulate_state(cir_model, foliation, SimConfig(horizon=horizon, dt=dt, n_paths=2))


def reference_simulate_state(model, foliation, config):
    """simulate_state's time loop as plain expressions: the (paths, n_t) values."""
    a, dt, n = model.state_drift_slope, config.dt, config.n_steps
    normals = path_normals(config.seed, config.n_paths, n)
    x = np.full(config.n_paths, float(foliation.x0))
    columns = [x]
    for k in range(n):
        b = foliation.psi_ell_deriv[k]
        diffusion = model.rho * np.sqrt(x) * (normals[:, k] * np.sqrt(dt))
        x = np.maximum(x + (b + a * x) * dt + diffusion, 0.0)
        columns.append(x)
    return np.column_stack(columns)


@pytest.mark.parametrize("dt", [0.005, 0.01])
def test_simulate_state_matches_plain_expressions(cir_model, foliation, dt):
    # dt = 0.01 runs on every second row of the 0.005 leaf
    k = round(dt / 0.005)
    leaf = Foliation(foliation.psi[::k], foliation.psi_ell_deriv[::k], foliation.x0)
    cfg = SimConfig(horizon=0.5, dt=dt, n_paths=64, seed=5)
    paths = simulate_state(cir_model, leaf, cfg)
    assert np.array_equal(paths, reference_simulate_state(cir_model, leaf, cfg))


def test_reconstruct_identities(grid, cir_model, foliation):
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=32, seed=9)
    paths = simulate_state(cir_model, foliation, cfg)
    curves = realized_curves(foliation, paths, cir_model)
    # ell(r) recovers the state coordinate exactly: ell is linear and
    # ell(psi) vanishes to rounding
    ell_r = np.array([float(cir_model.ell(c)) for c in curves])
    assert np.abs(ell_r - paths[:, -1]).max() <= 1e-12
    # identically zero state reproduces the leaf itself
    flat = realized_curves(foliation, np.zeros((1, paths.shape[1])), cir_model)
    assert np.abs(flat[0] - foliation.psi[-1]).max() <= 1e-12
    # time zero reproduces the initial curve
    first = realized_curves(foliation, paths, cir_model, step=0)
    h0 = foliation.psi[0] + 0.02 * cir_model.lam
    assert np.abs(first - h0[None, :]).max() <= 1e-12
    # the mean curve needs only psi(T) and the mean state
    mean = foliation.psi[-1] + paths[:, -1].mean() * cir_model.lam
    np.testing.assert_allclose(mean, curves.mean(axis=0), rtol=1e-12, atol=0.0)


def test_simulate_direct_pure_transport(grid):
    det = bundled_model("cir", rho=0.0, gamma=0.3)
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
    # S moves one node per step, so a step below dx is refused as well
    with pytest.raises(CflViolated, match=r"^the direct oracle needs dt = dx; "
                                          r"dt = 0.0025 is below dx = 0.005$"):
        summarize_direct(cir_model, h0, SimConfig(0.1, 0.0025, 1))
    with pytest.raises(NotInInitialSet):
        summarize_direct(cir_model, -h0, SimConfig(0.1, 0.005, 1))
    # the recursion's forcing is the sqrt_ell amplitude's
    with pytest.raises(ConstraintViolated, match="amplitude sqrt_ell"):
        summarize_direct(dataclasses.replace(cir_model, amplitude="const"), h0,
                         SimConfig(0.1, 0.005, 1))


def test_seed_determinism(grid, cir_model):
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    cfg = SimConfig(horizon=0.05, dt=0.005, n_paths=8, seed=42)
    r1, _ = direct_curves(cir_model, h0, cfg)
    r2, _ = direct_curves(cir_model, h0, cfg)
    assert np.array_equal(r1, r2)


def test_phi_values_consistency(grid, cir_model, foliation):
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=16, seed=2)
    paths = simulate_state(cir_model, foliation, cfg)
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
    paths = simulate_state(cir_model, foliation, cfg)
    phis = fdr_phi_values(foliation, paths, cir_model)
    report = verify_invariance(phis, phis, direct_min_ell=0.0,
                               foliation_resid=0.0)
    for entry in report["phis"].values():
        assert entry["weak_error"] == 0.0 and entry["within_3se"]


def test_strong_convergence_rho_zero(grid):
    # deterministic dynamics: halving dt should shrink the state error by
    # about the scheme order (first order for Euler drift handling)
    det = bundled_model("cir", rho=0.0, gamma=0.3)
    h0 = 0.01 * grid.x * np.exp(-grid.x) + 0.02 * det.lam
    fol = evolve_psi(det, h0, SimConfig(0.4, 0.0025, 1))

    def final(dt):
        k = round(dt / 0.0025)   # the state steps on every k-th row of the leaf
        leaf = Foliation(fol.psi[::k], fol.psi_ell_deriv[::k], fol.x0)
        return simulate_state(det, leaf, SimConfig(0.4, dt, 1))[0, -1]

    ref = final(0.0025)
    e1, e2 = abs(final(0.04) - ref), abs(final(0.02) - ref)
    assert e1 / e2 >= 1.8


def dense_direct(model, h0, config):
    """Reference stepper: advance every path's full curve one step at a time."""
    noise = path_normals(config.seed, config.n_paths, config.n_steps) * np.sqrt(config.dt)
    r = np.tile(h0, (config.n_paths, 1))
    min_ell = float(np.min(model.ell(r)))
    for k in range(config.n_steps):
        mag = np.abs(model.ell(r))
        r[:, :-1] = r[:, 1:].copy()  # the CFL check leaves a one-node shift
        r += np.outer(model.rho ** 2 * mag * config.dt, model.lam * model.lam_capital)
        r += np.outer(model.rho * np.sqrt(mag) * noise[:, k], model.lam)
        min_ell = min(min_ell, float(np.min(model.ell(r))))
    return r, min_ell


def _points_model():
    c2 = -1.0 / float(riccati_small(np.array([1.0]), 0.1, 0.05)[0])
    return bundled_model("cir", ell=f"points: 0:2, 1:{c2!r}")


@pytest.mark.parametrize("case", ["short_end", "points", "high_rho", "mid_rho", "near_zero"])
@pytest.mark.parametrize("n_paths", [1, 16])
def test_simulate_direct_matches_dense_stepper(grid, cir_model, case, n_paths):
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    model = {"short_end": cir_model, "points": _points_model(),
             "high_rho": bundled_model("cir", rho=0.3),
             "mid_rho": bundled_model("cir", rho=0.2),
             "near_zero": bundled_model("cir", rho=0.2)}[case]
    # the closed-form Lam: under the trapezoid primitive, a 16-path ell of
    # 9e-7 lands 6.7e-12 relative from the dense stepper's
    model = dataclasses.replace(model, lam_capital=riccati_capital(grid.x, model.rho, 0.05))
    if case in ("high_rho", "near_zero"):
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
        # near_zero's path 7 ends with ell = -8.0e-4, 3.0e-15 from the dense
        # stepper's: 3.8e-12 relative, so its pointwise functionals take the
        # curves' absolute bound
        atol = 1e-14 if case == "near_zero" and name != "hw_norm" else 0.0
        np.testing.assert_allclose(run.phis[name], values, rtol=1e-12, atol=atol, err_msg=name)
    if case == "high_rho":
        # ell turns negative, so the |ell| amplitudes are exercised
        assert ref_min_ell < 0.0
        if n_paths == 16:
            assert run.negative_short_rate
    if case == "mid_rho" and n_paths == 16:
        # below -SCHEME_TOL = -1e-3 but above -1e-2, so a threshold of 1e-2 fails
        assert -1e-2 < ref_min_ell < -1e-3 and run.negative_short_rate


def _held_point_model():
    # ell reads x = 9.9, which S^i moves into the held region once i > 20
    c2 = 0.5 / float(riccati_small(np.array([9.9]), 0.1, 0.05)[0])
    return bundled_model("cir", ell=f"points: 0:0.5, 9.9:{c2!r}")


@pytest.mark.parametrize("case", ["short_end", "held_point"])
def test_factored_oracle_matches_gathered_reference(grid, cir_model, case):
    model = cir_model if case == "short_end" else _held_point_model()
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=1)
    oracle = _factored_oracle(model, h0, cfg)
    basis, ell_basis, ell_h0, tail = gathered_oracle(model, h0, cfg.n_steps)
    built = whole_basis(oracle)
    assert np.array_equal(built, basis)
    assert np.array_equal(oracle.ell_basis, ell_basis)
    assert np.array_equal(oracle.ell_h0, ell_h0)
    assert np.array_equal(oracle.tail, tail)
    assert np.array_equal(whole_basis(oracle, grid.dx), derivative(basis, grid))
    # the oracle holds no basis, only lam Lam and lam held K - 1 nodes past
    # x_max; it writes any column range of the basis
    assert [len(f) for f in oracle.held] == [grid.n + cfg.n_steps - 1] * 2
    held = [oracle.ell_h0, oracle.ell_basis, *oracle.held, oracle.tail]
    assert not any(np.shares_memory(built, a) for a in held)
    for cols in (slice(0, PATH_BLOCK), slice(7 * PATH_BLOCK, None), [0, grid.index_of(1.0)]):
        part = np.empty_like(basis[:, cols])
        assert oracle.basis(part, cols=cols) is part
        assert np.array_equal(part, basis[:, cols])
    # its curves multiply column chunks of the basis, and for the mean row
    # and a full slice they keep the whole product's bits
    coef = 1e-3 * np.random.default_rng(5).standard_normal((PATH_BLOCK, len(basis)))
    for rows in (coef, coef.mean(axis=0)):
        assert np.array_equal(oracle.curves(rows), rows @ basis + tail)
    assert oracle.sup(coef) == float(np.abs(coef @ basis + tail).max())
    if case == "held_point":
        # the highest shifts read the point from the held region
        assert grid.index_of(9.9) + cfg.n_steps - 1 > grid.n - 1


@pytest.mark.parametrize("shift,n", [(2, 40), (7, 300)])
def test_shifted_basis_matches_gathered_reference_at_wider_shifts(grid, shift, n):
    # S moves one node per step, so a shift of `shift` nodes of the fixture
    # grid is one step on a grid `shift` times coarser (201 nodes here); at
    # (7, 300) the last rows lie wholly in the held region
    coarse = Grid(200 * shift * grid.dx, shift * grid.dx)
    model = bundled_model("cir", x_max=repr(coarse.x_max), dx=repr(coarse.dx))
    fine_h0 = (0.02 + 0.01 * grid.x * np.exp(-grid.x))[:200 * shift + 1]
    h0 = fine_h0[::shift]
    # each coarse window is every shift-th node of every shift-th fine window
    assert np.array_equal(_held_windows(h0, n)[1],
                          _held_windows(fine_h0, shift * n)[1][::shift, ::shift])
    oracle = _factored_oracle(model, h0, SimConfig(n * coarse.dx, coarse.dx, 1))
    basis, ell_basis, ell_h0, tail = gathered_oracle(model, h0, n)
    assert np.array_equal(whole_basis(oracle), basis)
    assert np.array_equal(whole_basis(oracle, coarse.dx), derivative(basis, coarse))
    assert np.array_equal(oracle.ell_basis, ell_basis)
    _, h0_rows = _held_windows(h0, n)
    assert np.array_equal(model.ell(h0_rows), ell_h0)
    assert np.array_equal(oracle.ell_h0, ell_h0)
    assert np.array_equal(h0_rows[n], tail)
    assert np.array_equal(oracle.tail, tail)
    assert (n > coarse.n) == (shift == 7)
    if shift == 7:
        assert np.ptp(basis[0]) == 0.0 and np.ptp(h0_rows[n]) == 0.0


def _sim_inputs(grid, model, n_paths, scale=1.0):
    h0 = scale * (0.02 + 0.01 * grid.x * np.exp(-grid.x))
    cfg = SimConfig(horizon=0.5, dt=grid.dx, n_paths=n_paths, seed=12345)
    psi = evolve_psi(model, h0, cfg).psi[-1]
    return h0, cfg, psi


@pytest.mark.parametrize("case,n_paths", [("short_end", 1), ("short_end", PATH_BLOCK + 1),
                                          ("short_end", RECURSION_BLOCK + 1),
                                          ("short_end", 2001), ("points", PATH_BLOCK + 1),
                                          ("large_h0", PATH_BLOCK + 1)])
def test_summarize_direct_matches_materialized_ensemble(grid, cir_model, case, n_paths):
    model = {"short_end": cir_model, "points": _points_model(),
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
    model, cfg, h0 = spec.model, spec.sim, spec.h0
    psi = evolve_psi(model, h0, cfg).psi[-1]
    rows, writes = [], []
    curves, basis = _FactoredOracle.curves, _FactoredOracle.basis
    monkeypatch.setattr(_FactoredOracle, "curves",
                        lambda self, coef: rows.append(coef.copy()) or curves(self, coef))
    monkeypatch.setattr(_FactoredOracle, "basis", lambda self, out, dx=None, cols=slice(None):
                        writes.append((out.shape, dx, cols)) or basis(self, out, dx, cols))
    summary = summarize_direct(model, h0, cfg, spec.weight, psi)
    assert [r.shape for r in rows] == [(2 * cfg.n_steps,)] and summary.foliation_residual > 0.0
    # the Gram phase asks the oracle for its one whole array, the basis and
    # then its derivative; the mean curve for column chunks of the basis
    n_rows, n_x = 2 * cfg.n_steps, model.grid.n
    chunks = [slice(c, c + PATH_BLOCK) for c in range(0, n_x, PATH_BLOCK)]
    whole = slice(None)
    assert writes == [((n_rows, n_x), None, whole), ((n_rows, n_x), model.grid.dx, whole),
                      *(((n_rows, len(range(n_x)[c])), None, c) for c in chunks)]
    # the mean row times the whole basis, bit for bit
    oracle = _factored_oracle(model, h0, cfg)
    assert np.array_equal(summary.mean_curve, rows[0] @ whole_basis(oracle) + oracle.tail)


def test_a_paths_outputs_do_not_depend_on_the_path_count(grid, cir_model):
    # 1100 and 2001 paths cross PATH_BLOCK and RECURSION_BLOCK edges that 200 does not
    h0 = 0.02 + 0.01 * grid.x * np.exp(-grid.x)
    fol = evolve_psi(cir_model, h0, SimConfig(horizon=0.5, dt=0.005, n_paths=1))
    heads = []
    for n_paths in (200, 1100, 2001):
        cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=n_paths, seed=12345)
        paths = simulate_state(cir_model, fol, cfg)
        fdr = fdr_phi_values(fol, paths, cir_model)
        direct = summarize_direct(cir_model, h0, cfg, Weight(), fol.psi[-1]).phis
        heads.append([paths[:200], *(phis[name][:200] for phis in (fdr, direct)
                                             for name in ("ell", "eval_at_1", "hw_norm"))])
    for head in heads[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(heads[0], head))


@pytest.mark.parametrize("dx,n_paths,scale,bound", [
    (0.005, 2000, 1.0, 1.35), (0.005, 20000, 1.0, 1.35), (0.0025, 2000, 1.0, 1.35),
    (0.005, 2000, 60.0, 3.0)], ids=["2000", "20000", "dx0.0025", "large_h0"])
def test_summarize_direct_holds_its_basis_only_for_the_grams(monkeypatch, dx, n_paths,
                                                             scale, bound):
    # the basis array, whose memory also holds its projection and scaled
    # derivative, lives only while the Grams are built; then one coefficient
    # buffer for every block, one slice work array and, where the normalizer
    # needs them (large_h0: 1.3 basis sizes here), one slice's curves.  A run
    # draws its normals once for both simulators, so they are drawn before tracing
    grid = Grid(10.0, dx)
    model = bundled_model("cir", dx=repr(dx))
    h0, cfg, psi = _sim_inputs(grid, model, n_paths, scale)
    path_normals(cfg.seed, n_paths, cfg.n_steps)
    sups = []
    sup = _FactoredOracle.sup
    monkeypatch.setattr(_FactoredOracle, "sup",
                        lambda self, coef: sups.append(len(coef)) or sup(self, coef))
    peak = traced_peak(lambda: summarize_direct(model, h0, cfg, Weight(), psi))
    assert peak < bound * (2 * cfg.n_steps * grid.n * 8)
    assert sum(sups) == (n_paths if scale > 1.0 else 0)


def test_summarize_direct_holds_no_ensemble(grid, cir_model):
    n_paths = 2001
    h0, cfg, psi = _sim_inputs(grid, cir_model, n_paths)
    peak = traced_peak(lambda: summarize_direct(cir_model, h0, cfg, Weight(), psi))
    assert peak < 0.5 * n_paths * grid.n * 8


@pytest.mark.parametrize("rho, draws", [(0.1, 2), (0.0, 0)])
def test_both_simulators_read_one_zero_noise_rule(grid, monkeypatch, rho, draws):
    # each simulator draws through path_normals, called by name, unless
    # rho = 0, where both read one zero column instead
    model = bundled_model("cir", rho=rho)
    h0 = 0.01 * grid.x * np.exp(-grid.x) + 0.02 * model.lam
    cfg = SimConfig(horizon=0.05, dt=0.005, n_paths=3, seed=8)
    fol = evolve_psi(model, h0, cfg)
    calls = []
    monkeypatch.setattr(simulate, "path_normals",
                        lambda *args: calls.append(args) or path_normals(*args))
    simulate_state(model, fol, cfg)
    summarize_direct(model, h0, cfg)
    assert calls == [(8, 3, 10)] * draws


def test_simulate_state_without_noise_holds_no_normals_array(grid):
    # rho = 0 steps one zero column, not a (paths, steps) array of zeros
    det = bundled_model("cir", rho=0.0, gamma=0.3)
    h0 = 0.01 * grid.x * np.exp(-grid.x) + 0.02 * det.lam
    cfg = SimConfig(horizon=0.5, dt=0.005, n_paths=20000)
    fol = evolve_psi(det, h0, cfg)
    peak = traced_peak(lambda: simulate_state(det, fol, cfg))
    assert peak < 1.2 * (cfg.n_paths * (cfg.n_steps + 1) * 8)


def test_direct_run_without_noise_reuses_its_buffers_across_blocks(grid):
    # rho = 0 makes every path the one-path run; two blocks refill one buffer
    det = bundled_model("cir", rho=0.0, gamma=0.3)
    h0 = 0.01 * grid.x * np.exp(-grid.x) + 0.02 * det.lam
    one, many = (SimConfig(horizon=0.5, dt=0.005, n_paths=n) for n in (1, RECURSION_BLOCK + 1))
    psi = evolve_psi(det, h0, one).psi[-1]
    ref, run = (summarize_direct(det, h0, cfg, Weight(), psi) for cfg in (one, many))
    for name, values in run.phis.items():
        assert np.array_equal(values, np.full(many.n_paths, ref.phis[name][0])), name
    assert np.array_equal(run.mean_curve, ref.mean_curve)
    assert (run.min_ell, run.foliation_residual) == (ref.min_ell, ref.foliation_residual)
