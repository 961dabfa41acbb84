"""Declarative model files: INI sections in, assembled model objects out.

Sections: [space] grid and weight, [model] kind and coefficients, [cone] and
[subspace] basis curves as closed-form expressions in x, [check] tolerance
and sampling knobs, [sim] simulation configuration.  Curve expressions are
evaluated in a restricted numpy namespace; parse and validation problems
raise ModelFileError with the offending section and key.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass

import numpy as np

from .curves import (DEFAULT_DX, DEFAULT_X_MAX, SHORT_END, Grid, PointCombo, Weight, hw_norm,
                     primitive)
from .errors import AffineFdrError, GridMismatch, ModelFileError, NotInV
from .hjmm import SquareRootModel, default_boundary_samples, ker_ell_split, riccati_small
from .simulate import SimConfig

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "tanh": np.tanh, "abs": np.abs, "pi": np.pi, "e": np.e,
    "riccati": riccati_small,
}


# the AST nodes of arithmetic; names, constants and calls are vetted one by one
_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add, ast.Sub,
               ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def eval_curve(expr: str, grid: Grid, params: dict[str, float],
               where: str = "curve") -> np.ndarray:
    """Evaluate a closed-form curve expression on the grid.

    The namespace contains x, the model parameters, a small set of numpy
    functions and riccati(x, rho, gamma), the Riccati curve lam of
    hjmm.riccati_small; builtins are disabled.  The expression may hold only
    int and float constants, those names, the operators + - * / ** and
    calls of those functions with positional arguments; anything else is
    rejected, in one walk of the syntax tree, before evaluation.  Every
    constant is evaluated as a float, so no integer power is computed
    exactly and an overflow is an error.
    """
    ns = dict(_EXPR_NAMES)
    ns.update(params)
    ns["x"] = grid.x
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) in (int, float):
                node.value = float(node.value)
            elif not (isinstance(node, _EXPR_NODES)
                      or isinstance(node, ast.Name) and node.id in ns
                      or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords):
                raise ModelFileError(f"{where}: {type(node).__name__} is not allowed in {expr!r}")
    except (SyntaxError, ValueError, RecursionError, OverflowError) as exc:
        raise ModelFileError(f"{where}: cannot parse {expr!r}: {exc}") from exc
    try:
        with np.errstate(all="ignore"):
            values = eval(compile(tree, "<curve>", "eval"),  # noqa: S307
                          {"__builtins__": {}}, ns)
    except Exception as exc:
        raise ModelFileError(f"{where}: cannot evaluate {expr!r}: {exc}") from exc
    if np.iscomplexobj(values):
        raise ModelFileError(f"{where}: expression {expr!r} has a complex value")
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        values = np.full(grid.n, float(values))
    if values.shape != (grid.n,) or not np.all(np.isfinite(values)):
        raise ModelFileError(f"{where}: expression {expr!r} is not a finite curve")
    return values


def require_finite_norm(values: np.ndarray, grid: Grid, weight: Weight, where: str) -> np.ndarray:
    """values, once its H_w norm, computed without numpy warnings, is finite."""
    with np.errstate(all="ignore"):
        if not np.isfinite(hw_norm(values, grid, weight)):
            raise ModelFileError(f"{where}: the curve's H_w norm is not finite")
    return values


def _parse_ell(spec: str, grid: Grid) -> PointCombo:
    spec = spec.strip()
    if spec == "short_end":
        return SHORT_END
    if spec.startswith("points:"):
        points, coeffs = [], []
        for item in spec[len("points:"):].split(","):
            item = item.strip()
            if not item:
                continue
            try:
                xs, cs = item.split(":")
                x0, c = float(xs), float(cs)
                if not np.isfinite([x0, c]).all():
                    raise ValueError("not finite")
                points.append(round(x0 / grid.dx) * grid.dx)  # snap to grid
                coeffs.append(c)
            except ValueError as exc:
                raise ModelFileError(f"[model] ell: bad point entry {item!r}") from exc
        if not points:
            raise ModelFileError("[model] ell: no points given")
        try:
            return PointCombo.at(grid, points, coeffs)
        except GridMismatch as exc:   # a point past either end of the grid
            raise ModelFileError(f"[model] ell: {exc}") from exc
    raise ModelFileError(f"[model] ell: unknown spec {spec!r}")


KINDS = ("linear", "custom")
# the keys some kind reads, per section; None: the section names its curves freely
_SECTION_KEYS = {
    "space": ("x_max", "dx", "weight_alpha"),
    "model": ("kind", "rho", "gamma", "ell", "vol_amplitude", "vol_curve"),
    "check": ("boundary_samples", "max_dim", "span_tol"),
    "sim": ("horizon", "dt", "paths", "seed", "h0"),
    "cone": None,
    "subspace": None,
}


@dataclass(frozen=True)
class ModelSpec:
    """Parsed and validated content of a model file.

    model is the square-root model of a custom file, built once at parse,
    and None for linear; max_dim is [check] max_dim.
    """

    kind: str
    grid: Grid
    weight: Weight
    model: SquareRootModel | None
    vol_curves: tuple[np.ndarray, ...]
    max_dim: int
    sim: SimConfig | None
    h0: np.ndarray | None
    source_text: str


def _get(cfg: configparser.ConfigParser, section: str, key: str, cast,
         default=None, required: bool = False):
    if not cfg.has_option(section, key):
        if required:
            raise ModelFileError(f"[{section}] missing required key {key!r}")
        return default
    raw = cfg.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ModelFileError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def parse_model_text(text: str) -> ModelSpec:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ModelFileError(f"parse error: {exc}") from exc
    if not cfg.has_section("model"):
        raise ModelFileError("missing [model] section")
    for section in cfg.sections():
        if section not in _SECTION_KEYS:
            raise ModelFileError(f"[{section}]: unknown section")
        for key in cfg.options(section):
            if _SECTION_KEYS[section] is not None and key not in _SECTION_KEYS[section]:
                raise ModelFileError(f"[{section}] {key}: unknown key")

    x_max = _get(cfg, "space", "x_max", float, DEFAULT_X_MAX)
    dx = _get(cfg, "space", "dx", float, DEFAULT_DX)
    alpha = _get(cfg, "space", "weight_alpha", float, Weight.alpha)
    try:
        grid = Grid(x_max, dx)
    except Exception as exc:
        raise ModelFileError(f"[space] x_max, dx: {exc}") from exc
    if not 3.0 < alpha < np.inf:
        raise ModelFileError("[space] weight_alpha must be finite and exceed 3")
    with np.errstate(over="ignore"):
        top = np.float64(1.0 + grid.x_max) ** alpha   # the weight's largest value
    if not np.isfinite(top):
        raise ModelFileError(f"[space] weight_alpha = {alpha:g} overflows the weight "
                             f"(1 + x)^alpha at x_max = {grid.x_max:g}")
    weight = Weight(alpha)

    kind = _get(cfg, "model", "kind", str, required=True).strip()
    if kind not in KINDS:
        raise ModelFileError(f"[model] kind must be one of {KINDS}, got {kind!r}")
    rho = _get(cfg, "model", "rho", float, 0.0)
    gamma = _get(cfg, "model", "gamma", float, 0.0)
    params = {"rho": rho, "gamma": gamma}
    for key, value in params.items():
        if not np.isfinite(value):
            raise ModelFileError(f"[model] {key} must be finite")
    if rho < 0:
        raise ModelFileError("[model] rho must be nonnegative")
    ell_spec = _get(cfg, "model", "ell", str, "short_end")
    ell = _parse_ell(ell_spec, grid)

    curves = {}   # expression text -> its curve: each text is evaluated once

    def curve(section: str, key: str) -> np.ndarray:
        expr = cfg.get(section, key)
        if expr not in curves:
            curves[expr] = eval_curve(expr, grid, params, where=f"[{section}] {key}")
        return curves[expr]

    def section_curves(section: str) -> tuple[np.ndarray, ...]:
        if not cfg.has_section(section):
            return ()
        return tuple(curve(section, key) for key in sorted(cfg.options(section)))

    cone_curves = section_curves("cone")
    subspace_curves = section_curves("subspace")

    vol_amp = _get(cfg, "model", "vol_amplitude", str, "sqrt_ell").strip()
    if vol_amp not in ("sqrt_ell", "const"):
        raise ModelFileError(f"[model] vol_amplitude must be sqrt_ell or const, got {vol_amp!r}")
    if not cfg.has_option("model", "vol_curve"):
        raise ModelFileError(f"[model] kind {kind!r} requires vol_curve")
    vol_curves = (curve("model", "vol_curve"),)

    # every [check] default lives here, with or without the section
    n_samples = _get(cfg, "check", "boundary_samples", int, 6)
    max_dim = _get(cfg, "check", "max_dim", int, 20)
    span_tol = _get(cfg, "check", "span_tol", float, 1e-5)
    if n_samples < 1:
        raise ModelFileError("[check] boundary_samples must be at least 1")
    if max_dim < 1:
        raise ModelFileError("[check] max_dim must be at least 1")
    if not 0.0 < span_tol < np.inf:
        raise ModelFileError("[check] span_tol must be finite and positive")

    sim = None
    h0 = None
    if cfg.has_section("sim"):
        horizon = _get(cfg, "sim", "horizon", float, required=True)
        dt = _get(cfg, "sim", "dt", float, grid.dx)
        n_paths = _get(cfg, "sim", "paths", int, 1000)
        seed = _get(cfg, "sim", "seed", int, 0)
        try:
            sim = SimConfig(horizon, dt, n_paths, seed)
        except Exception as exc:
            raise ModelFileError(f"[sim]: {exc}") from exc
        if cfg.has_option("sim", "h0"):
            h0 = require_finite_norm(curve("sim", "h0"), grid, weight, "[sim] h0")

    # the square-root model: the [cone] and [subspace] curves split by
    # ker_ell_split, Lam the primitive of lam, and n = boundary_samples samples
    model = None
    if kind == "custom":
        try:
            split = ker_ell_split(grid, ell, cone_curves, subspace_curves)
        except (AffineFdrError, np.linalg.LinAlgError) as exc:
            raise ModelFileError(f"[cone]/[subspace]: {exc}") from exc
        lam = vol_curves[0]
        try:
            model = SquareRootModel(grid, ell, rho, lam, primitive(lam, grid), split,
                                    tuple(default_boundary_samples(grid, split, n_samples)),
                                    vol_amp, span_tol)
        except NotInV as exc:
            raise ModelFileError(f"[model] vol_curve: {exc}") from exc

    return ModelSpec(kind=kind, grid=grid, weight=weight, model=model,
                     vol_curves=vol_curves, max_dim=max_dim, sim=sim, h0=h0,
                     source_text=text)


def parse_model_file(path: str) -> ModelSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    return parse_model_text(text)
