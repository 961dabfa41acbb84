"""Simulation through the affine realization, and a direct SPDE oracle.

The realization evolves the boundary curve psi by a deterministic transport
ODE on ker ell and the scalar state X by a time-inhomogeneous square-root
SDE; curves are reconstructed as r = psi + X lam.  The direct oracle
discretizes the full SPDE by method of lines with exact index-shift
transport, evaluated in factored form as shifted rank-one sums, so the
statistics of the two runs can be compared.  Its shifted curves are windows
of three curves held past x_max.  summarize_direct runs the recursion per
block of RECURSION_BLOCK paths and reduces each slice of PATH_BLOCK rows to
its functionals, coefficient sum (for the mean curve), min ell and foliation
residual, without the slice's curves.  With the realization's mean curve
taken as psi(T) + mean(X_T) lam, simulate holds no (paths, grid) array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import realization as rz
from .curves import Weight, central_stencil, derivative, one_sided_ends
from .errors import (CflViolated, ConstraintViolated, GridMismatch, HorizonMismatch,
                     LeftBoundary, NotInInitialSet)
from .hjmm import SquareRootModel

SCHEMES = ("full_truncation", "drift_implicit")

# The direct oracle's recursion runs per block of RECURSION_BLOCK paths, wide
# to share out its per-step overhead (its rows do not depend on the width).
# Its products run per slice of PATH_BLOCK rows, so temporaries stay a few MB
# and each BLAS call keeps one shape, and so each artifact byte is kept.
PATH_BLOCK = 256
RECURSION_BLOCK = 1024   # a multiple of PATH_BLOCK
# A direct run reports negative_short_rate when some ell(r_k) falls below
# -SCHEME_TOL.
SCHEME_TOL = 1e-3


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

    times: np.ndarray          # (n_t,)
    psi: np.ndarray            # (n_t, n_x)
    psi_ell_deriv: np.ndarray  # (n_t,), b(t) = ell(d/dx psi(t))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _steps_per(dt: float, foliation: Foliation) -> int:
    """Foliation steps per time step dt."""
    return round(dt / (foliation.times[1] - foliation.times[0]))


def evolve_psi(model: SquareRootModel, g0: np.ndarray, horizon: float,
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
        d = derivative(psi, grid)
        b[k] = float(model.ell_of(d))
        if b[k] <= 0.0:
            raise LeftBoundary(float(times[k]))
        if k == n_steps:
            break
        k1 = d - b[k] * lam   # rhs(psi), from the derivative b[k] already took
        k2 = rhs(psi + dt / 2 * k1)
        k3 = rhs(psi + dt / 2 * k2)
        k4 = rhs(psi + dt * k3)
        psi = reproject(psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return Foliation(times, out, b)


@dataclass(frozen=True)
class StatePaths:
    times: np.ndarray   # (n_t,)
    values: np.ndarray  # (n_paths, n_t), cone coordinate of X

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
    # one generator, reset per path to the fresh state of Philox(key=[.., p]):
    # the same stream as a new generator per path, without building one
    bits = np.random.Philox(key=[seed + (stream << 32), 0])
    gen = np.random.Generator(bits)
    fresh = bits.state   # counter 0, empty buffer
    for p in range(n_paths):
        fresh["state"]["key"][1] = p
        bits.state = fresh
        gen.standard_normal(out=out[p])
    out.flags.writeable = False
    return out


def _validate_coefficient_reduction(model: SquareRootModel, foliation: Foliation) -> float:
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
            rhs = foliation.psi_ell_deriv[k] + a * x
            worst = max(worst, abs(lhs - rhs))
    if worst > 1e-8:
        raise ConstraintViolated(
            f"state-SDE coefficient reduction deviates by {worst:.3e}")
    return worst


def simulate_state(model: SquareRootModel, foliation: Foliation, x0: float,
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
    normals = path_normals(config.seed, config.n_paths, n) if model.rho > 0 \
        else np.zeros((config.n_paths, n))
    x = np.full(config.n_paths, float(x0))
    values = np.empty((config.n_paths, n + 1))
    values[:, 0] = x
    for k in range(n):
        b = foliation.psi_ell_deriv[k * steps_per]
        xp = np.maximum(x, 0.0)
        # each step scales its own column: no scaled copy of all the normals
        diffusion = model.rho * np.sqrt(xp) * (normals[:, k] * np.sqrt(dt))
        if config.scheme == "full_truncation":
            x = x + (b + a * xp) * dt + diffusion
        else:
            x = (x + b * dt + diffusion) / (1.0 - a * dt)
        x = np.maximum(x, 0.0)
        values[:, k + 1] = x
    times = np.linspace(0.0, config.horizon, n + 1)
    return StatePaths(times, values)


@dataclass(frozen=True)
class _FactoredOracle:
    """Fixed data of the unrolled direct scheme: r_K = tail + coef @ basis.

    A path's coefficient row is (a_0, b_0, ..., a_(K-1), b_(K-1)), and row
    pair j of the basis is S^(K-1-j) D, S^(K-1-j) L.  So ell(r_k) is
    ell_h0[k] plus the first 2k coefficients against ell_basis[2(K-k):].
    """

    ell_h0: np.ndarray      # (K+1,), ell(S^i h0)
    ell_basis: np.ndarray   # (2K,), ell of each basis row
    basis: np.ndarray       # (2K, n_x)
    tail: np.ndarray        # (n_x,), S^K h0
    shift: int              # nodes per step of S

    def curves(self, coef: np.ndarray) -> np.ndarray:
        r = coef @ self.basis
        r += self.tail
        return r


def _factored_oracle(model: SquareRootModel, h0: np.ndarray, config: SimConfig) -> _FactoredOracle:
    """Validate a direct run's inputs and precompute its fixed data."""
    grid = model.grid
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (grid.n,):
        raise GridMismatch("h0 is not sampled on the model grid")
    member, _ = rz.maximal_initial_membership(h0, model)
    if not member:
        raise NotInInitialSet("h0 fails the initial-set test")
    if config.dt > grid.dx + 1e-12:
        raise CflViolated(f"dt = {config.dt} exceeds dx = {grid.dx}")
    shift = round(config.dt / grid.dx)
    if abs(shift * grid.dx - config.dt) > 1e-12 or shift < 1:
        raise CflViolated("dt must be a positive integer multiple of dx")

    n = config.n_steps
    basis = _shifted_basis(model, shift, n)
    _, h0_rows = _held_windows(h0, shift, n)
    # ell_of may return views; copies keep the held curve from living on
    return _FactoredOracle(ell_h0=np.array(model.ell_of(h0_rows)),
                           ell_basis=np.array(model.ell_of(basis)),
                           basis=basis, tail=h0_rows[n].copy(), shift=shift)


def _held_windows(f: np.ndarray, shift: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """f held at its last value for n shifts, and its windows S^0 f, ..., S^n f."""
    held = np.concatenate([f, np.full(n * shift, f[-1])])
    return held, sliding_window_view(held, len(f))[::shift]


def _shifted_basis(model: SquareRootModel, shift: int, n: int, dx: float | None = None):
    """Rows S^(n-1) D, S^(n-1) L, ..., D, L with D = lam Lam and L = lam, or,
    given dx, derivative(row) entry for entry from one stencil pass per curve."""
    out = np.empty((2 * n, model.grid.n))
    # from the end back, each curve's rows take S^0, S^1, ...
    for rows, f in ((out[-2::-2], model.lam * model.lam_capital), (out[::-2], model.lam)):
        held, windows = _held_windows(f, shift, n - 1)
        if dx is None:
            rows[...] = windows
        else:
            rows[:, 2:-2] = sliding_window_view(central_stencil(held, dx), len(f) - 4)[::shift]
            one_sided_ends(windows, dx, rows)
    return out


def _oracle_blocks(model: SquareRootModel, oracle: _FactoredOracle, config: SimConfig):
    """Run the recursion over blocks of RECURSION_BLOCK paths.

    Yields (first path, coefficient rows (m, 2K), ell(r_K) (m,), min ell(r_k)
    of the block) per PATH_BLOCK slice; a block scales its slice of the normals.
    """
    n, dt, rho = config.n_steps, config.dt, model.rho
    normals = path_normals(config.seed, config.n_paths, n) if rho > 0 else None
    for s in range(0, config.n_paths, RECURSION_BLOCK):
        m = min(RECURSION_BLOCK, config.n_paths - s)
        noise = normals[s:s + m] * np.sqrt(dt) if rho > 0 else np.zeros((m, n))
        coef = np.zeros((m, n, 2))   # (a_j, b_j) per path and step
        min_ell = np.inf
        for k in range(n + 1):
            ell_r = oracle.ell_h0[k] \
                + coef[:, :k].reshape(m, 2 * k) @ oracle.ell_basis[2 * (n - k):]
            min_ell = min(min_ell, float(ell_r.min()))
            if k < n:
                coef[:, k, 0] = rho ** 2 * np.abs(ell_r) * dt
                coef[:, k, 1] = rho * np.sqrt(np.abs(ell_r)) * noise[:, k]
        for t in range(0, m, PATH_BLOCK):
            yield s + t, coef.reshape(m, 2 * n)[t:t + PATH_BLOCK], ell_r[t:t + PATH_BLOCK], min_ell


@dataclass(frozen=True)
class DirectSummary:
    """What simulate keeps of a direct run; it holds no (n_paths, n_x) array."""

    phis: dict[str, np.ndarray]   # ell, eval_at_1, hw_norm per path
    mean_curve: np.ndarray        # (n_x,)
    min_ell: float
    negative_short_rate: bool
    foliation_residual: float     # nan when no leaf psi was given


def summarize_direct(model: SquareRootModel, h0: np.ndarray, config: SimConfig,
                     weight: Weight = Weight(), psi: np.ndarray | None = None) -> DirectSummary:
    """Method-of-lines run of dr = (d/dx r + alpha(r)) dt + sigma(r) dW, summarized.

    One explicit step is r_{k+1} = S r_k + a_k D + b_k L.  S is the exact
    transport: a shift by dt/dx nodes that holds the right boundary value
    (curves absorbed past x_max), so S^i f is a window of f held there.  The
    CFL check (dt at most dx and an integer multiple of it) leaves a shift of
    exactly one node.  The forcing is rank one along the fixed curves
    D = lam Lam and L = lam, with per-path scalars a_k = rho^2 |ell(r_k)| dt
    and b_k = rho sqrt|ell(r_k)| dW_k.  S is linear, so the steps unroll to

        r_K = S^K h0 + sum_j (a_j S^(K-1-j) D + b_j S^(K-1-j) L).

    Hence ell(r_k), and with it a_k and b_k, is a causal convolution of the
    earlier scalars against ell(S^i D) and ell(S^i L).  Only h0, S, lam, Lam
    and ell enter; nothing of the realization does.  Brownian increments use
    the same counter-based per-path streams as the realization run, so equal
    seeds give coupled noise.

    The recursion runs per block of RECURSION_BLOCK paths, wide to share out
    its per-step overhead, and each slice of PATH_BLOCK coefficient rows, a
    fixed shape for every product, gives its paths' three functionals
    without curves: ell is the recursion's last ell(r_K), eval_at_1 and r(0)
    come from two columns of the basis, and the hw_norm integral is a
    quadratic form in the row, since the derivative is linear.  The mean
    curve is the mean row times the basis, plus S^K h0.  The foliation
    residual against psi (skipped when psi is None) is the largest distance
    of r - psi to span lam, divided by max(1, max|r|).  With P the
    projection orthogonal to lam, the squared distance is the quadratic
    form in the row of the Gram matrix of P basis, a cross vector against
    P(S^K h0 - psi), and that vector's squared norm.  A slice's curves are
    built only when its max|r| bound exceeds 1; the normalizer stays exact.
    """
    oracle = _factored_oracle(model, h0, config)
    grid = model.grid
    # trapezoid of r'^2 w with r' = coef @ basis' + tail'
    q = weight.values(grid) * grid.dx
    q[[0, -1]] /= 2.0
    d_basis = _shifted_basis(model, oracle.shift, config.n_steps, grid.dx)
    d_tail = derivative(oracle.tail, grid)
    gram, cross = (d_basis * q) @ d_basis.T, 2.0 * (d_basis @ (q * d_tail))
    const = float(d_tail @ (q * d_tail))
    del d_basis
    nodes = [0, grid.index_of(1.0)]   # r(0) for hw_norm, and eval_at_1
    cols = oracle.basis[:, nodes]
    if psi is not None:
        # |P(coef @ basis + tail - psi)|^2 with P the projection orthogonal
        # to lam, as a quadratic form in coef like the hw_norm integral
        u = model.lam / np.linalg.norm(model.lam)
        perp = np.outer(oracle.basis @ u, u)
        np.subtract(oracle.basis, perp, out=perp)
        e = oracle.tail - psi
        e -= (e @ u) * u
        res_gram, res_cross, res_const = perp @ perp.T, 2.0 * (perp @ e), float(e @ e)
        del perp
        # max|r| of a block is at most tail_sup + max_p |coef_p| @ row_sup
        row_sup, tail_sup = np.abs(oracle.basis).max(axis=1), float(np.abs(oracle.tail).max())

    ell, at1, norms = (np.empty(config.n_paths) for _ in range(3))
    coef_sum = np.zeros(len(oracle.basis))
    min_ell, worst_sq, peak = np.inf, 0.0, 0.0
    for s, coef, ell_r, block_min in _oracle_blocks(model, oracle, config):
        block = slice(s, s + len(coef))
        ell[block] = ell_r
        head, at1[block] = (coef @ cols + oracle.tail[nodes]).T   # r(0), r(1)
        norms[block] = np.sqrt(head ** 2 + np.einsum("pi,pi->p", coef @ gram + cross, coef)
                               + const)
        coef_sum += coef.sum(axis=0)
        min_ell = min(min_ell, block_min)
        if psi is not None:
            dist_sq = np.einsum("pi,pi->p", coef @ res_gram + res_cross, coef) + res_const
            # starting from 0, this also clamps a square that rounding made negative
            worst_sq = max(worst_sq, float(dist_sq.max()))
            # the normalizer max(1, peak) needs max|r| only where it may exceed 1
            if tail_sup + float((np.abs(coef) @ row_sup).max()) > 1.0:
                peak = max(peak, float(np.abs(oracle.curves(coef)).max()))
    return DirectSummary(
        phis={"ell": ell, "eval_at_1": at1, "hw_norm": norms},
        mean_curve=oracle.curves(coef_sum / config.n_paths),
        min_ell=min_ell, negative_short_rate=bool(min_ell < -SCHEME_TOL),
        foliation_residual=float("nan") if psi is None
        else float(np.sqrt(worst_sq)) / max(1.0, peak))


def fdr_phi_values(foliation: Foliation, paths: StatePaths, model: SquareRootModel,
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
