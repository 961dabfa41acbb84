"""Simulation through the affine realization, and a direct SPDE oracle.

The realization evolves the boundary curve psi by a deterministic transport
ODE on ker ell and the scalar state X, a time-inhomogeneous square-root SDE,
by full-truncation Euler; curves are reconstructed as r = psi + X lam.  The
direct oracle discretizes the full SPDE by method of lines with exact
index-shift transport, evaluated in factored form as shifted rank-one sums,
so the statistics of the two runs can be compared.  Its shifted curves are
windows of three curves held past x_max, from which one method writes its
basis, a column range of it or its derivative.  summarize_direct runs the
recursion per block of RECURSION_BLOCK paths and reduces each slice of
PATH_BLOCK rows to its functionals, coefficient sum (for the mean curve), min
ell and foliation residual, without the slice's curves.  So simulate holds
no (paths, grid) array, and the oracle's one (2K, n_x) array, its basis,
lives only while its Gram matrices are built.  The time loops step on
buffers allocated once per run and keep the plain expressions' operations
in their order, so their results are those expressions' bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import realization as rz
from .curves import Grid, Weight, central_stencil, derivative, one_sided_ends
from .errors import (CflViolated, ConstraintViolated, GridMismatch, HorizonMismatch,
                     LeftBoundary, NotInInitialSet)
from .hjmm import SquareRootModel

# The direct oracle's recursion runs per block of RECURSION_BLOCK paths, wide
# to share out its per-step overhead (its rows do not depend on the width).
# Its products run per slice of PATH_BLOCK rows, so temporaries stay a few MB
# and each BLAS call keeps one shape, and so each artifact byte is kept.  Curves
# are multiplied by PATH_BLOCK columns of the basis at a time; for the mean row
# and a full slice, that keeps the bits of the whole basis's product.
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

    def __post_init__(self):
        for key in ("horizon", "dt"):
            if not 0 < getattr(self, key) < np.inf:
                raise ConstraintViolated(f"{key} must be finite and positive")
        if self.n_paths < 1:
            raise ConstraintViolated("paths must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConstraintViolated("seed must lie in [0, 2**64)")
        if abs(round(self.horizon / self.dt) * self.dt - self.horizon) > 1e-9:
            raise ConstraintViolated("horizon must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass(frozen=True)
class Foliation:
    """Deterministic boundary trajectory psi(t) in G = ker ell, one row per
    time step of a run, and the state's start X_0."""

    psi: np.ndarray            # (n_steps + 1, n_x)
    psi_ell_deriv: np.ndarray  # (n_steps + 1,), b(t) = ell(d/dx psi(t))
    x0: float


def _check_step(dt: float, grid: Grid) -> None:
    """The CFL condition dt <= dx that the leaf and the direct oracle need."""
    if dt > grid.dx + 1e-12:
        raise CflViolated(f"dt = {dt} exceeds dx = {grid.dx}")


def _check_h0(model: SquareRootModel, h0: np.ndarray) -> np.ndarray:
    """h0 as floats, once it is sampled on the model grid and lies in the
    maximal initial set."""
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (model.grid.n,):
        raise GridMismatch("h0 is not sampled on the model grid")
    member, _ = rz.maximal_initial_membership(h0, model)
    if not member:
        raise NotInInitialSet("h0 is not in the admissible initial set")
    return h0


def evolve_psi(model: SquareRootModel, h0: np.ndarray, config: SimConfig) -> Foliation:
    """Integrate d/dt psi = psi' - ell(psi') lam from the ker-ell part of h0.

    h0 must be sampled on the model grid and lie in the maximal initial set
    (NotInInitialSet otherwise).  It splits as h0 = psi(0) + ell(h0) lam, and
    the state starts at X_0 = max(ell(h0), 0): a member on the boundary may
    read ell(h0) a rounding below 0, and psi(0) keeps that part.

    Classical RK4 in time over fourth-order spatial stencils, config.n_steps
    steps of config.dt; each step is re-projected onto ker ell so the
    constraint never drifts.  Raises LeftBoundary as soon as b(t) =
    ell(psi') stops being positive, reporting the exit time.

    The right-hand side is the G-projection of the full drift: the
    volatility-induced term rho^2 |ell(psi)| lam Lam vanishes identically on
    ker ell, which the realizability checker verifies independently.  So the
    leaf needs V = <lam>+ with ell(lam) = 1, split along G = ker ell, and the
    sqrt_ell amplitude; any other model raises ConstraintViolated.  A step
    dt above dx, the oracle's CFL bound, raises CflViolated before the first
    stage: past about 2 dx the leaf goes unstable and would leave the boundary.
    """
    h0 = _check_h0(model, h0)
    grid = model.grid
    basis = model.split.v_basis
    if not (basis.dim_v == basis.m == 1 and model.ell_vanishes_on_g
            and model.amplitude == "sqrt_ell" and abs(float(model.ell(model.lam)) - 1.0) <= 1e-8):
        raise ConstraintViolated("the leaf needs V = <lam>+ with ell(lam) = 1, a split "
                                 "along G = ker ell and amplitude sqrt_ell")
    n_steps, dt = config.n_steps, config.dt
    _check_step(dt, grid)
    lam, ell = model.lam, model.ell
    x0 = float(ell(h0))
    out = np.empty((n_steps + 1, grid.n))
    b = np.empty(n_steps + 1)
    # the four stages, the stage argument and a work row, reused every step
    k1, k2, k3, k4, arg, work = np.empty((6, grid.n))

    def rhs(h, into):
        """into = h' - ell(h') lam; returns ell(h')."""
        derivative(h, grid, out=into)
        e = float(ell(into))
        into -= np.multiply(lam, e, out=work)
        return e

    def stage(psi, slope, step):
        """arg = psi + step slope."""
        np.multiply(slope, step, out=arg)
        return np.add(psi, arg, out=arg)

    out[0] = h0 - x0 * lam
    for k in range(n_steps + 1):
        psi = out[k]
        b[k] = rhs(psi, k1)   # k1, and b(t) from the same derivative
        if b[k] <= 0.0:
            raise LeftBoundary(k * dt)
        if k == n_steps:
            break
        rhs(stage(psi, k1, dt / 2), k2)
        rhs(stage(psi, k2, dt / 2), k3)
        rhs(stage(psi, k3, dt), k4)
        # psi + dt/6 (k1 + 2 k2 + 2 k3 + k4), re-projected onto ker ell
        acc = np.add(k1, np.multiply(k2, 2, out=arg), out=arg)
        acc += np.multiply(k3, 2, out=work)
        acc += k4
        acc *= dt / 6
        nxt = np.add(psi, acc, out=out[k + 1])
        nxt -= np.multiply(lam, float(ell(nxt)), out=work)
    return Foliation(out, b, max(x0, 0.0))


def path_normals(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Per-path standard normals from counter-based generators.

    Each path p draws from a Philox generator keyed by (seed, p),
    so a path's increments do not depend on n_paths or scheduling order.
    The last draw is cached, so the realization and the direct oracle of
    one run share it; the array is read-only so neither alters the other's
    noise.
    """
    # a plain function in front of the cache keeps its calls visible to
    # function-level tracing, and passing the arguments positionally gives
    # keyword and positional calls one cache key
    return _cached_normals(seed, n_paths, n_steps)


@functools.lru_cache(maxsize=1)
def _cached_normals(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    out = np.empty((n_paths, n_steps))
    # one generator, reset per path to the fresh state of Philox(key=[.., p]):
    # the same stream as a new generator per path, without building one
    # an explicit uint64 key: numpy casts a list holding ints of 2**63 and
    # more through float64, so distinct seeds would share a key
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state   # counter 0, empty buffer
    for p in range(n_paths):
        fresh["state"]["key"][1] = p
        bits.state = fresh
        gen.standard_normal(out=out[p])
    out.flags.writeable = False
    return out


def _normals(model: SquareRootModel, config: SimConfig) -> np.ndarray:
    """A run's (n_paths, n_steps) normals: path_normals, or, at rho = 0, one
    zero column read as all of them."""
    if model.rho > 0:
        return path_normals(config.seed, config.n_paths, config.n_steps)
    return np.broadcast_to(np.zeros((config.n_paths, 1)), (config.n_paths, config.n_steps))


def _validate_coefficient_reduction(model: SquareRootModel, foliation: Foliation) -> float:
    """Check the reduced state-SDE coefficients against the projected drift.

    The reduction asserts ell(drift(psi + x lam)) = b(t) + a x with
    a = ell(lam') + rho^2 ell(lam Lam).  Evaluated at a few (t, x) pairs;
    the maximal deviation must be at most 1e-8.
    """
    a = model.state_drift_slope
    worst = 0.0
    idx = [0, len(foliation.psi) // 2, len(foliation.psi) - 1]
    for k in idx:
        psi = foliation.psi[k]
        for x in (0.0, 0.05, 0.4):
            h = psi + x * model.lam
            lhs = float(model.ell(derivative(h, model.grid))
                        + model.amp_sq(h) * float(model.ell(model.lam * model.lam_capital)))
            rhs = foliation.psi_ell_deriv[k] + a * x
            worst = max(worst, abs(lhs - rhs))
    if worst > 1e-8:
        raise ConstraintViolated(
            f"state-SDE coefficient reduction deviates by {worst:.3e}")
    return worst


def simulate_state(model: SquareRootModel, foliation: Foliation,
                   config: SimConfig) -> np.ndarray:
    """Paths (n_paths, n_steps + 1) of dX = (b(t) + a X) dt + rho sqrt(X) dW
    from X_0 = foliation.x0 >= 0, one column per row of the leaf.

    Full-truncation Euler: the state is clamped at 0 after each step, so the
    drift and diffusion read X >= 0 and every recorded value is nonnegative.
    """
    if foliation.x0 < 0:
        raise ConstraintViolated("x0 must be nonnegative")
    n, dt = config.n_steps, config.dt
    if len(foliation.psi) != n + 1:
        raise HorizonMismatch(f"the leaf has {len(foliation.psi)} rows, "
                              f"the run's {n} steps need {n + 1}")
    _validate_coefficient_reduction(model, foliation)
    a = model.state_drift_slope
    normals = _normals(model, config)
    x = np.full(config.n_paths, float(foliation.x0))
    diffusion, work = np.empty((2, config.n_paths))
    values = np.empty((config.n_paths, n + 1))
    values[:, 0] = x
    for k in range(n):
        b = foliation.psi_ell_deriv[k]
        # rho sqrt(x) (dW_k sqrt(dt)), scaling only this step's column
        np.sqrt(x, out=diffusion)
        diffusion *= model.rho
        diffusion *= np.multiply(normals[:, k], np.sqrt(dt), out=work)
        # x + (b + a x) dt + diffusion
        drift = np.multiply(x, a, out=work)
        drift += b
        drift *= dt
        x += drift
        x += diffusion
        np.maximum(x, 0.0, out=x)
        values[:, k + 1] = x
    return values


@dataclass(frozen=True)
class _FactoredOracle:
    """Fixed data of the unrolled direct scheme: r_K = tail + coef @ basis.

    A path's coefficient row is (a_0, b_0, ..., a_(K-1), b_(K-1)), and row
    pair j of the basis is S^(K-1-j) D, S^(K-1-j) L.  So ell(r_k) is
    ell_h0[k] plus the first 2k coefficients against ell_basis[2(K-k):].
    The basis itself is not kept: its rows are windows of D and L held past
    x_max, and basis writes it, or a column range of it, into a given buffer.
    """

    ell_h0: np.ndarray      # (K+1,), ell(S^i h0)
    ell_basis: np.ndarray   # (2K,), ell of each basis row
    held: tuple[np.ndarray, np.ndarray]   # (n_x + K - 1,) D = lam Lam and L = lam,
                                          # each held K - 1 nodes past x_max
    tail: np.ndarray        # (n_x,), S^K h0

    def basis(self, out: np.ndarray, dx: float | None = None, cols=slice(None)) -> np.ndarray:
        """Rows S^(K-1) D, S^(K-1) L, ..., D, L into out, their columns cols
        only when given; or, given dx, the derivative of every whole row,
        entry for entry from one stencil pass per held curve."""
        n_x = len(self.tail)
        # from the end back, each curve's rows take S^0, S^1, ...
        for rows, held in zip((out[-2::-2], out[::-2]), self.held):
            windows = sliding_window_view(held, n_x)
            if dx is None:
                rows[...] = windows[:, cols]
            else:
                rows[:, 2:-2] = sliding_window_view(central_stencil(held, dx), n_x - 4)
                one_sided_ends(windows, dx, rows)
        return out

    def curves(self, coef: np.ndarray) -> np.ndarray:
        """coef @ basis + tail, multiplied by C-contiguous chunks of PATH_BLOCK
        basis columns (see PATH_BLOCK)."""
        n_rows, n_x = len(self.ell_basis), len(self.tail)
        r = np.empty(coef.shape[:-1] + (n_x,))
        chunk = np.empty(n_rows * PATH_BLOCK)
        for c in range(0, n_x, PATH_BLOCK):
            cols = slice(c, c + PATH_BLOCK)
            part = chunk[:n_rows * len(self.tail[cols])].reshape(n_rows, -1)
            r[..., cols] = coef @ self.basis(part, cols=cols)
        r += self.tail
        return r

    def sup(self, coef: np.ndarray) -> float:
        """max|r| over curves(coef), without a second array of them."""
        r = self.curves(coef)
        return max(float(r.max()), float(-r.min()))


def _factored_oracle(model: SquareRootModel, h0: np.ndarray,
                     config: SimConfig) -> _FactoredOracle:
    """Validate a direct run's inputs and precompute its fixed data.

    The recursion's forcing a_k and b_k is that of the sqrt_ell amplitude, so
    any other amplitude raises ConstraintViolated.  S moves one node per step,
    so dt must equal dx: either side of it raises CflViolated.
    """
    h0 = _check_h0(model, h0)
    grid = model.grid
    if model.amplitude != "sqrt_ell":
        raise ConstraintViolated("the direct oracle needs amplitude sqrt_ell")
    _check_step(config.dt, grid)
    if config.dt < grid.dx - 1e-12:
        raise CflViolated(f"the direct oracle needs dt = dx; dt = {config.dt} "
                          f"is below dx = {grid.dx}")

    n = config.n_steps
    _, h0_rows = _held_windows(h0, n)
    forcing = [_held_windows(f, n - 1) for f in (model.lam * model.lam_capital, model.lam)]
    ell_basis = np.empty(2 * n)
    # ell of each basis row, laid out as in _FactoredOracle.basis
    for rows, (_, windows) in zip((ell_basis[-2::-2], ell_basis[::-2]), forcing):
        rows[...] = model.ell(windows)
    return _FactoredOracle(ell_h0=model.ell(h0_rows), ell_basis=ell_basis,
                           held=tuple(held for held, _ in forcing), tail=h0_rows[n].copy())


def _held_windows(f: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """f held at its last value for n nodes, and its windows S^0 f, ..., S^n f."""
    held = np.concatenate([f, np.full(n, f[-1])])
    return held, sliding_window_view(held, len(f))


def _oracle_blocks(model: SquareRootModel, oracle: _FactoredOracle, config: SimConfig):
    """Run the recursion over blocks of RECURSION_BLOCK paths.

    Yields (first path, coefficient rows (m, 2K), ell(r_K) (m,), min ell(r_k)
    of the block) per PATH_BLOCK slice.  Every block refills one coefficient
    buffer, so a yielded slice is valid only until the generator advances.
    """
    n, dt, rho = config.n_steps, config.dt, model.rho
    normals = _normals(model, config)
    # (a_j, b_j) per path and step; step k reads only the columns below k
    buf = np.empty((min(RECURSION_BLOCK, config.n_paths), n, 2))
    for s in range(0, config.n_paths, RECURSION_BLOCK):
        coef = buf[:config.n_paths - s]
        m = len(coef)
        ell_r, mag, amp = np.empty((3, m))
        min_ell = np.inf
        for k in range(n + 1):
            np.matmul(coef[:, :k].reshape(m, 2 * k), oracle.ell_basis[2 * (n - k):], out=ell_r)
            ell_r += oracle.ell_h0[k]
            min_ell = min(min_ell, float(ell_r.min()))
            if k < n:
                # a_k = rho^2 |ell| dt and b_k = rho sqrt|ell| (dW_k sqrt(dt))
                np.abs(ell_r, out=mag)
                np.sqrt(mag, out=amp)
                amp *= rho
                np.multiply(normals[s:s + m, k], np.sqrt(dt), out=coef[:, k, 1])
                coef[:, k, 1] *= amp
                mag *= rho ** 2
                np.multiply(mag, dt, out=coef[:, k, 0])
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
    transport at dt = dx: a shift by one node that holds the right boundary
    value (curves absorbed past x_max), so S^i f is a window of f held there.
    The forcing is rank one along the fixed curves D = lam Lam and L = lam,
    with per-path scalars a_k = rho^2 |ell(r_k)| dt and
    b_k = rho sqrt|ell(r_k)| dW_k.  S is linear, so the steps unroll to

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

    The (2K, n_x) basis, which the oracle writes, lives only while the Gram
    matrices are built: its memory holds the basis (for the two columns and
    the row bounds), then its projection P basis (for the residual's Gram
    and cross vector), then its scaled derivative (for hw_norm's).  Each
    Gram is one product w w^T on the whole array.  The basis is released before the
    recursion allocates its coefficient buffer, and the curves (the mean
    curve, and a slice's when the normalizer needs them) are multiplied by
    column chunks of it, which the oracle writes from the held D and L.
    """
    oracle = _factored_oracle(model, h0, config)
    grid = model.grid
    basis = oracle.basis(np.empty((len(oracle.ell_basis), grid.n)))
    nodes = [0, grid.index_of(1.0)]   # r(0) for hw_norm, and eval_at_1
    cols = basis[:, nodes]
    # the basis's memory then holds its projection and its scaled derivative
    if psi is not None:
        # max|r| of a block is at most tail_sup + max_p |coef_p| @ row_sup
        row_sup = np.maximum(basis.max(axis=1), -basis.min(axis=1))
        tail_sup = float(np.abs(oracle.tail).max())
        # |P(coef @ basis + tail - psi)|^2 with P the projection orthogonal
        # to lam, as a quadratic form in coef like the hw_norm integral
        u = model.lam / np.linalg.norm(model.lam)
        for i, v in enumerate(basis @ u):
            basis[i] -= v * u
        e = oracle.tail - psi
        e -= (e @ u) * u
        res_gram, res_cross, res_const = basis @ basis.T, 2.0 * (basis @ e), float(e @ e)
    # trapezoid of r'^2 w with r' = coef @ basis' + tail'
    q = weight.values(grid) * grid.dx
    q[[0, -1]] /= 2.0
    # the Gram of w = sqrt(q) basis' is the symmetric product w w^T, whose
    # sums do not depend on the BLAS thread count
    w = oracle.basis(basis, grid.dx)
    d_tail = derivative(oracle.tail, grid)
    cross, const = 2.0 * (w @ (q * d_tail)), float(d_tail @ (q * d_tail))
    w *= np.sqrt(q)
    gram = w @ w.T
    # the recursion's buffer and the curves' chunks replace the basis
    del basis, w

    ell, at1, norms = (np.empty(config.n_paths) for _ in range(3))
    coef_sum = np.zeros(len(oracle.ell_basis))
    # a slice's quadratic forms and |coef| bound run in one work array
    work = np.empty((PATH_BLOCK, len(coef_sum)))
    min_ell, worst_sq, peak = np.inf, 0.0, 0.0
    for s, coef, ell_r, block_min in _oracle_blocks(model, oracle, config):
        block, tmp = slice(s, s + len(coef)), work[:len(coef)]
        ell[block] = ell_r
        head, at1[block] = (coef @ cols + oracle.tail[nodes]).T   # r(0), r(1)
        np.matmul(coef, gram, out=tmp)
        tmp += cross
        norms[block] = np.sqrt(head ** 2 + np.einsum("pi,pi->p", tmp, coef) + const)
        coef_sum += coef.sum(axis=0)
        min_ell = min(min_ell, block_min)
        if psi is not None:
            np.matmul(coef, res_gram, out=tmp)
            tmp += res_cross
            dist_sq = np.einsum("pi,pi->p", tmp, coef) + res_const
            # starting from 0, this also clamps a square that rounding made negative
            worst_sq = max(worst_sq, float(dist_sq.max()))
            # the normalizer max(1, peak) needs max|r| only where it may exceed 1
            if tail_sup + float((np.abs(coef, out=tmp) @ row_sup).max()) > 1.0:
                peak = max(peak, oracle.sup(coef))
    # the last slice's views would keep the recursion buffer alive
    del coef, ell_r, tmp, work
    return DirectSummary(
        phis={"ell": ell, "eval_at_1": at1, "hw_norm": norms},
        mean_curve=oracle.curves(coef_sum / config.n_paths),
        min_ell=min_ell, negative_short_rate=bool(min_ell < -SCHEME_TOL),
        foliation_residual=float("nan") if psi is None
        else float(np.sqrt(worst_sq)) / max(1.0, peak))


def fdr_phi_values(foliation: Foliation, paths: np.ndarray, model: SquareRootModel,
                  weight: Weight = Weight()) -> dict[str, np.ndarray]:
    """Per-path comparison functionals of r_T = psi(T) + X_T lam.

    hw_norm is quadratic in X along the ray psi + X lam, so its per-path
    values come from three precomputed coefficients rather than per-path
    quadrature.
    """
    grid = model.grid
    psi = foliation.psi[-1]
    x_final = paths[:, -1]
    lam = model.lam
    ell = model.ell(psi) + x_final * model.ell(lam)
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
