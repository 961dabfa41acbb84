"""Simulation through the affine realization, and a direct SPDE oracle.

The realization evolves the boundary curve psi by a deterministic transport
ODE on ker ell and the scalar state X by a time-inhomogeneous square-root
SDE; curves are reconstructed as r = psi + X lam.  The direct oracle
discretizes the full SPDE by method of lines with exact index-shift
transport, evaluated in factored form as shifted rank-one sums, so the
statistics of the two runs can be compared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import realization as rz
from .curves import Grid, Weight, derivative
from .errors import (CflViolated, ConstraintViolated, GridMismatch, HorizonMismatch,
                     LeftBoundary, NotInInitialSet)
from .hjmm import CirModel

SCHEMES = ("full_truncation", "drift_implicit")

# Paths per block in the ensemble functionals, so their temporaries stay a
# few MB instead of several copies of the whole (n_paths, n_x) ensemble.
PATH_BLOCK = 256


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    dt: float
    n_paths: int
    seed: int = 0
    scheme: str = "full_truncation"

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0 or self.n_paths < 1:
            raise ConstraintViolated("dt, horizon and n_paths must be positive")
        if self.scheme not in SCHEMES:
            raise ConstraintViolated(f"scheme must be one of {SCHEMES}")
        if abs(round(self.horizon / self.dt) * self.dt - self.horizon) > 1e-9:
            raise ConstraintViolated("horizon must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass(frozen=True)
class Foliation:
    """Deterministic boundary trajectory psi(t) in G = ker ell."""

    grid: Grid
    times: np.ndarray          # (n_t,)
    psi: np.ndarray            # (n_t, n_x)
    psi_ell_deriv: np.ndarray  # (n_t,), b(t) = ell(d/dx psi(t))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def b_at_step(self, k: int) -> float:
        return float(self.psi_ell_deriv[k])


def _steps_per(dt: float, foliation: Foliation) -> int:
    """Foliation steps per time step dt."""
    return round(dt / (foliation.times[1] - foliation.times[0]))


def evolve_psi(model: CirModel, g0: np.ndarray, horizon: float,
               dt: float | None = None) -> Foliation:
    """Integrate d/dt psi = psi' - ell(psi') lam starting from g0 in ker ell.

    Classical RK4 in time over fourth-order spatial stencils; each step is
    re-projected onto ker ell so the constraint never drifts.  Raises
    LeftBoundary as soon as b(t) = ell(psi') stops being positive, reporting
    the exit time.

    The right-hand side is the G-projection of the full drift: the
    volatility-induced term rho^2 ell(psi) lam Lam vanishes identically on
    ker ell, which the realizability checker verifies independently.
    """
    grid = model.grid
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (grid.n,):
        raise GridMismatch("g0 is not sampled on the model grid")
    if abs(float(model.ell_of(g0))) > 1e-8 * max(1.0, float(np.abs(g0).max())):
        raise ConstraintViolated("g0 must lie in ker ell")
    dt = grid.dx if dt is None else dt
    n_steps = round(horizon / dt)
    if abs(n_steps * dt - horizon) > 1e-9:
        raise ConstraintViolated("horizon must be an integer multiple of dt")
    lam = model.lam

    def rhs(psi):
        d = derivative(psi, grid)
        return d - float(model.ell_of(d)) * lam

    def reproject(psi):
        return psi - float(model.ell_of(psi)) * lam

    times = np.linspace(0.0, horizon, n_steps + 1)
    out = np.empty((n_steps + 1, grid.n))
    b = np.empty(n_steps + 1)
    psi = g0.copy()
    for k in range(n_steps + 1):
        out[k] = psi
        b[k] = float(model.ell_of(derivative(psi, grid)))
        if b[k] <= 0.0:
            raise LeftBoundary(float(times[k]))
        if k == n_steps:
            break
        k1 = rhs(psi)
        k2 = rhs(psi + dt / 2 * k1)
        k3 = rhs(psi + dt / 2 * k2)
        k4 = rhs(psi + dt * k3)
        psi = reproject(psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return Foliation(grid, times, out, b)


@dataclass(frozen=True)
class StatePaths:
    times: np.ndarray   # (n_t,)
    values: np.ndarray  # (n_paths, n_t), cone coordinate of X
    seed: int

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.values[:, -1]


def path_normals(seed: int, n_paths: int, n_steps: int, stream: int = 0) -> np.ndarray:
    """Per-path standard normals from counter-based generators.

    Each path p draws from a Philox generator keyed by (seed, stream, p),
    so a path's increments do not depend on n_paths or scheduling order.
    The last draw is cached, so the realization and the direct oracle of
    one run share it; the array is read-only so neither alters the other's
    noise.
    """
    # a plain function in front of the cache keeps its calls visible to
    # function-level tracing, and passing stream positionally gives keyword
    # and positional calls one cache key
    return _cached_normals(seed, n_paths, n_steps, stream)


@functools.lru_cache(maxsize=1)
def _cached_normals(seed: int, n_paths: int, n_steps: int, stream: int) -> np.ndarray:
    out = np.empty((n_paths, n_steps))
    for p in range(n_paths):
        gen = np.random.Generator(np.random.Philox(
            key=[seed + (stream << 32), p]))
        out[p] = gen.standard_normal(n_steps)
    out.flags.writeable = False
    return out


def _validate_coefficient_reduction(model: CirModel, foliation: Foliation) -> float:
    """Check the reduced state-SDE coefficients against the projected drift.

    The reduction asserts ell(drift(psi + x lam)) = b(t) + a x with
    a = ell(lam') + rho^2 ell(lam Lam).  Evaluated at a few (t, x) pairs;
    the maximal deviation must be at most 1e-8.
    """
    a = model.state_drift_slope
    worst = 0.0
    idx = [0, len(foliation.times) // 2, len(foliation.times) - 1]
    for k in idx:
        psi = foliation.psi[k]
        for x in (0.0, 0.05, 0.4):
            h = psi + x * model.lam
            lhs = float(model.ell_of(derivative(h, model.grid))
                        + model.rho ** 2 * abs(float(model.ell_of(h)))
                        * float(model.ell_of(model.lam * model.lam_capital)))
            rhs = foliation.b_at_step(k) + a * x
            worst = max(worst, abs(lhs - rhs))
    if worst > 1e-8:
        raise ConstraintViolated(
            f"state-SDE coefficient reduction deviates by {worst:.3e}")
    return worst


def simulate_state(model: CirModel, foliation: Foliation, x0: float,
                   config: SimConfig) -> StatePaths:
    """Paths of dX = (b(t) + a X) dt + rho sqrt(X) dW, X_0 = x0 >= 0.

    Full-truncation Euler uses X+ inside drift and diffusion and clamps at 0,
    so every recorded value is nonnegative.  The drift-implicit variant
    solves the linear implicit step for the drift and truncates likewise.
    """
    if x0 < 0:
        raise ConstraintViolated("x0 must be nonnegative")
    if config.horizon > foliation.horizon + 1e-12:
        raise HorizonMismatch("foliation does not cover the requested horizon")
    steps_per = _steps_per(config.dt, foliation)
    if abs(steps_per * (foliation.times[1] - foliation.times[0]) - config.dt) > 1e-12:
        raise HorizonMismatch("config.dt must be a multiple of the foliation step")
    _validate_coefficient_reduction(model, foliation)
    a = model.state_drift_slope
    n, dt = config.n_steps, config.dt
    noise = path_normals(config.seed, config.n_paths, n) * np.sqrt(dt) \
        if model.rho > 0 else np.zeros((config.n_paths, n))
    x = np.full(config.n_paths, float(x0))
    values = np.empty((config.n_paths, n + 1))
    values[:, 0] = x
    for k in range(n):
        b = foliation.b_at_step(k * steps_per)
        xp = np.maximum(x, 0.0)
        diffusion = model.rho * np.sqrt(xp) * noise[:, k]
        if config.scheme == "full_truncation":
            x = x + (b + a * xp) * dt + diffusion
        else:
            x = (x + b * dt + diffusion) / (1.0 - a * dt)
        x = np.maximum(x, 0.0)
        values[:, k + 1] = x
    times = np.linspace(0.0, config.horizon, n + 1)
    return StatePaths(times, values, config.seed)


def reconstruct(foliation: Foliation, paths: StatePaths,
                model: CirModel, at_step: int | None = None) -> np.ndarray:
    """Curves r = psi(t) + X_t lam for every path, at one time step."""
    steps_per = _steps_per(paths.times[1] - paths.times[0], foliation) \
        if len(paths.times) > 1 else 1
    k = (len(paths.times) - 1) if at_step is None else at_step
    fk = k * steps_per
    if fk >= len(foliation.times):
        raise GridMismatch("foliation does not contain the requested time")
    return foliation.psi[fk][None, :] + paths.values[:, k][:, None] * model.lam[None, :]


@dataclass(frozen=True)
class DirectRun:
    """Outcome of the method-of-lines SPDE discretization."""

    grid: Grid
    horizon: float
    final_curves: np.ndarray   # (n_paths, n_x)
    min_ell: float             # min over paths and times of ell(r_t)
    seed: int
    negative_short_rate: bool  # ell(r_t) dipped below the scheme tolerance

    @property
    def n_paths(self) -> int:
        return self.final_curves.shape[0]


def simulate_direct(model: CirModel, h0: np.ndarray, config: SimConfig,
                    scheme_tol: float = 1e-3) -> DirectRun:
    """Method-of-lines simulation of dr = (d/dx r + alpha(r)) dt + sigma(r) dW.

    One explicit step is r_{k+1} = S r_k + a_k D + b_k L.  S is the exact
    transport: a shift by dt/dx nodes that holds the right boundary value
    (curves treated as absorbed past x_max).  The CFL check (dt at most dx
    and an integer multiple of it) leaves a shift of exactly one node.  The
    forcing is rank one along the fixed curves D = lam Lam and L = lam, with
    per-path scalars a_k = rho^2 |ell(r_k)| dt and
    b_k = rho sqrt|ell(r_k)| dW_k.  S is linear, so the steps unroll to

        r_K = S^K h0 + sum_j (a_j S^(K-1-j) D + b_j S^(K-1-j) L).

    Hence ell(r_k), and with it a_k and b_k, is a causal convolution of the
    earlier scalars against ell(S^i D) and ell(S^i L), and the final curves
    are one matrix product.  Only h0, S, lam, Lam and ell enter; nothing of
    the realization does.  Brownian increments use the same counter-based
    per-path streams as the realization run, so equal seeds give coupled
    noise.
    """
    grid = model.grid
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (grid.n,):
        raise GridMismatch("h0 is not sampled on the model grid")
    member, _ = rz.maximal_initial_membership(h0, model.model_data())
    if not member:
        raise NotInInitialSet("h0 fails the initial-set test")
    if config.dt > grid.dx + 1e-12:
        raise CflViolated(f"dt = {config.dt} exceeds dx = {grid.dx}")
    shift = round(config.dt / grid.dx)
    if abs(shift * grid.dx - config.dt) > 1e-12 or shift < 1:
        raise CflViolated("dt must be a positive integer multiple of dx")

    n, n_paths, dt = config.n_steps, config.n_paths, config.dt
    noise = path_normals(config.seed, n_paths, n) * np.sqrt(dt) \
        if model.rho > 0 else np.zeros((n_paths, n))

    # row i gathers S^i: node m reads node min(m + i shift, last)
    idx = np.minimum(np.arange(grid.n) + shift * np.arange(n + 1)[:, None], grid.n - 1)
    ell_h0 = model.ell_of(h0[idx])                       # ell(S^i h0)
    shifted = np.stack([(model.lam * model.lam_capital)[idx], model.lam[idx]],
                       axis=1)                           # (n+1, 2, n_x): S^i D, S^i L
    kernel = model.ell_of(shifted)                       # ell(S^i D), ell(S^i L)

    coef = np.zeros((n_paths, n, 2))   # (a_j, b_j) per path and step
    min_ell = np.inf
    for k in range(n + 1):
        ell_r = ell_h0[k] + coef[:, :k].reshape(n_paths, 2 * k) @ kernel[:k][::-1].ravel()
        min_ell = min(min_ell, float(ell_r.min()))
        if k < n:
            coef[:, k, 0] = model.rho ** 2 * np.abs(ell_r) * dt
            coef[:, k, 1] = model.rho * np.sqrt(np.abs(ell_r)) * noise[:, k]
    r = coef.reshape(n_paths, 2 * n) @ shifted[:n][::-1].reshape(2 * n, grid.n)
    r += h0[idx[n]]
    return DirectRun(grid, config.horizon, r, min_ell, config.seed,
                     negative_short_rate=bool(min_ell < -scheme_tol))


def direct_phi_values(curves: np.ndarray, model: CirModel,
                      weight: Weight = Weight()) -> dict[str, np.ndarray]:
    """The three comparison functionals per path: ell, eval at x=1, hw_norm.

    hw_norm is evaluated over blocks of PATH_BLOCK paths.
    """
    grid = model.grid
    i1 = grid.index_of(1.0)
    ell = np.asarray(model.ell_of(curves), dtype=float)
    at1 = curves[:, i1]
    w = weight.values(grid)
    integ = np.empty(len(curves))
    for s in range(0, len(curves), PATH_BLOCK):
        d = derivative(curves[s:s + PATH_BLOCK], grid)
        integ[s:s + PATH_BLOCK] = np.trapezoid(d * d * w, dx=grid.dx, axis=-1)
    norms = np.sqrt(curves[:, 0] ** 2 + integ)
    return {"ell": ell, "eval_at_1": at1, "hw_norm": norms}


def fdr_phi_values(foliation: Foliation, paths: StatePaths, model: CirModel,
                  weight: Weight = Weight()) -> dict[str, np.ndarray]:
    """Per-path comparison functionals of r_T = psi(T) + X_T lam.

    hw_norm is quadratic in X along the ray psi + X lam, so its per-path
    values come from three precomputed coefficients rather than per-path
    quadrature.
    """
    grid = model.grid
    psi = foliation.psi[(len(paths.times) - 1)
                        * _steps_per(paths.times[1] - paths.times[0], foliation)]
    x_final = paths.final
    lam = model.lam
    ell = np.asarray(model.ell_of(psi) + x_final * model.ell_of(lam), dtype=float)
    i1 = grid.index_of(1.0)
    at1 = psi[i1] + x_final * lam[i1]
    w = weight.values(grid)
    dpsi = derivative(psi, grid)
    dlam = derivative(lam, grid)
    c0 = np.trapezoid(dpsi * dpsi * w, dx=grid.dx)
    c1 = 2.0 * np.trapezoid(dpsi * dlam * w, dx=grid.dx)
    c2 = np.trapezoid(dlam * dlam * w, dx=grid.dx)
    head = psi[0] + x_final * lam[0]
    norms = np.sqrt(head ** 2 + c0 + c1 * x_final + c2 * x_final ** 2)
    return {"ell": ell, "eval_at_1": at1, "hw_norm": norms}


def foliation_residual(curves: np.ndarray, psi: np.ndarray, lam: np.ndarray) -> float:
    """Max distance of r - psi to the span of lam, relative to curve scale.

    Evaluated over blocks of PATH_BLOCK paths.
    """
    lam_unit = lam / np.linalg.norm(lam)
    worst = peak = 0.0
    for s in range(0, len(curves), PATH_BLOCK):
        block = curves[s:s + PATH_BLOCK]
        diff = block - psi[None, :]
        proj = diff - np.outer(diff @ lam_unit, lam_unit)
        worst = max(worst, float(np.linalg.norm(proj, axis=1).max()))
        peak = max(peak, float(np.abs(block).max()))
    return worst / max(1.0, peak)


def verify_invariance(fdr_phis: dict[str, np.ndarray],
                      direct_phis: dict[str, np.ndarray],
                      direct_min_ell: float,
                      foliation_resid: float) -> dict:
    """Weak-error comparison of paired runs plus invariance diagnostics.

    For each functional the report carries the two Monte-Carlo means, the
    combined standard error, and whether the gap is within three of them.
    """
    report = {"foliation_residual": foliation_resid,
              "direct_min_ell": direct_min_ell,
              "phis": {}}
    for name in sorted(fdr_phis):
        a = np.asarray(fdr_phis[name], dtype=float)
        b = np.asarray(direct_phis[name], dtype=float)
        se_a = float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0
        se_b = float(b.std(ddof=1) / np.sqrt(len(b))) if len(b) > 1 else 0.0
        combined = float(np.hypot(se_a, se_b))
        gap = float(abs(a.mean() - b.mean()))
        report["phis"][name] = {
            "fdr_mean": float(a.mean()),
            "direct_mean": float(b.mean()),
            "fdr_se": se_a,
            "direct_se": se_b,
            "combined_se": combined,
            "weak_error": gap,
            "within_3se": bool(gap <= 3.0 * combined + 1e-15),
        }
    return report
