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
from dataclasses import dataclass, field

import numpy as np

from .cones import ConeBasis, StateBasis, orthogonal_split
from .curves import Grid, PointCombo, ShortEnd, Weight, primitive
from .errors import ModelFileError, NotInV
from .hjmm import SquareRootModel, shape_boundary_samples
from .simulate import SimConfig

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "tanh": np.tanh, "abs": np.abs, "pi": np.pi, "e": np.e,
}


# the AST nodes of arithmetic; names, constants and calls are vetted one by one
_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add, ast.Sub,
               ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def eval_curve(expr: str, grid: Grid, params: dict[str, float],
               where: str = "curve") -> np.ndarray:
    """Evaluate a closed-form curve expression on the grid.

    The namespace contains x, the model parameters, and a small set of
    numpy functions; builtins are disabled.  The expression may hold only
    int and float constants, those names, the operators + - * / ** and
    calls of those functions with positional arguments; anything else is
    rejected before evaluation.
    """
    ns = dict(_EXPR_NAMES)
    ns.update(params)
    ns["x"] = grid.x
    try:
        nodes = list(ast.walk(ast.parse(expr, mode="eval")))
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ModelFileError(f"{where}: cannot parse {expr!r}: {exc}") from exc
    for node in nodes:
        if not (isinstance(node, _EXPR_NODES)
                or isinstance(node, ast.Constant) and type(node.value) in (int, float)
                or isinstance(node, ast.Name) and node.id in ns
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords):
            raise ModelFileError(f"{where}: {type(node).__name__} is not allowed in {expr!r}")
    try:
        with np.errstate(all="ignore"):
            values = eval(expr, {"__builtins__": {}}, ns)  # noqa: S307 - restricted names
    except Exception as exc:
        raise ModelFileError(f"{where}: cannot evaluate {expr!r}: {exc}") from exc
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        values = np.full(grid.n, float(values))
    if values.shape != (grid.n,) or not np.all(np.isfinite(values)):
        raise ModelFileError(f"{where}: expression {expr!r} is not a finite curve")
    return values


def _parse_ell(spec: str, grid: Grid):
    spec = spec.strip()
    if spec == "short_end":
        return ShortEnd()
    if spec.startswith("points:"):
        points, coeffs = [], []
        for item in spec[len("points:"):].split(","):
            item = item.strip()
            if not item:
                continue
            try:
                xs, cs = item.split(":")
                x0 = float(xs)
                points.append(round(x0 / grid.dx) * grid.dx)  # snap to grid
                coeffs.append(float(cs))
            except ValueError as exc:
                raise ModelFileError(f"[model] ell: bad point entry {item!r}") from exc
        if not points:
            raise ModelFileError("[model] ell: no points given")
        return PointCombo(tuple(points), tuple(coeffs))
    raise ModelFileError(f"[model] ell: unknown spec {spec!r}")


KINDS = ("cir", "two_factor", "linear", "custom")


@dataclass(frozen=True)
class ModelSpec:
    """Parsed and validated content of a model file."""

    kind: str
    grid: Grid
    weight: Weight
    rho: float
    gamma: float
    ell: object
    cone_curves: tuple[np.ndarray, ...] = ()
    subspace_curves: tuple[np.ndarray, ...] = ()
    vol_amplitude: str = "sqrt_ell"      # sqrt_ell | const
    vol_curves: tuple[np.ndarray, ...] = ()
    check_options: dict = field(default_factory=dict)
    sim: SimConfig | None = None
    h0: np.ndarray | None = None
    source_text: str = ""

    def model(self) -> SquareRootModel:
        """The square-root model of kind cir, two_factor or custom.

        cir draws n = [check] boundary_samples (default 6) boundary samples
        and two_factor always 2.  custom builds the orthogonal split of its
        [cone] and [subspace] curves and draws min(max(1, n), 3) shape
        samples.
        """
        grid, span_tol = self.grid, self.check_options["span_tol"]
        if self.kind == "cir":
            return SquareRootModel.cir(grid, self.rho, self.gamma, self.ell,
                                       self.check_options["boundary_samples"], span_tol)
        if self.kind == "two_factor":
            return SquareRootModel.two_factor(grid, self.rho, self.gamma, span_tol)
        if self.kind != "custom":
            raise ModelFileError(f"model kind {self.kind!r} has no square-root model")
        cone_rows = np.reshape(self.cone_curves, (-1, grid.n))
        sub_rows = np.reshape(self.subspace_curves, (-1, grid.n))
        try:
            split = orthogonal_split(StateBasis(ConeBasis(cone_rows), subspace=sub_rows))
        except Exception as exc:
            raise ModelFileError(f"[cone]/[subspace]: {exc}") from exc
        n_b = self.check_options["boundary_samples"]
        lam = self.vol_curves[0]
        try:
            return SquareRootModel(grid, self.ell, self.rho, lam, primitive(lam, grid), split,
                                   tuple(shape_boundary_samples(grid, split, max(1, n_b))),
                                   self.vol_amplitude, span_tol)
        except NotInV as exc:
            raise ModelFileError(f"[model] vol_curve: {exc}") from exc


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

    x_max = _get(cfg, "space", "x_max", float, 10.0)
    dx = _get(cfg, "space", "dx", float, 0.005)
    alpha = _get(cfg, "space", "weight_alpha", float, 4.0)
    try:
        grid = Grid(x_max, dx)
    except Exception as exc:
        raise ModelFileError(f"[space]: {exc}") from exc
    if alpha <= 3.0:
        raise ModelFileError("[space] weight_alpha must exceed 3")
    weight = Weight(alpha)

    kind = _get(cfg, "model", "kind", str, required=True).strip()
    if kind not in KINDS:
        raise ModelFileError(f"[model] kind must be one of {KINDS}, got {kind!r}")
    rho = _get(cfg, "model", "rho", float, 0.0)
    gamma = _get(cfg, "model", "gamma", float, 0.0)
    params = {"rho": rho, "gamma": gamma}
    ell_spec = _get(cfg, "model", "ell", str, "short_end")
    ell = _parse_ell(ell_spec, grid)

    def section_curves(section: str) -> tuple[np.ndarray, ...]:
        if not cfg.has_section(section):
            return ()
        return tuple(eval_curve(cfg.get(section, key), grid, params,
                                where=f"[{section}] {key}")
                     for key in sorted(cfg.options(section)))

    cone_curves = section_curves("cone")
    subspace_curves = section_curves("subspace")

    vol_amp = _get(cfg, "model", "vol_amplitude", str, "sqrt_ell").strip()
    if vol_amp not in ("sqrt_ell", "const"):
        raise ModelFileError(f"[model] vol_amplitude must be sqrt_ell or const, got {vol_amp!r}")
    vol_curves = ()
    if cfg.has_option("model", "vol_curve"):
        vol_curves = (eval_curve(cfg.get("model", "vol_curve"), grid, params,
                                 where="[model] vol_curve"),)
    if kind in ("linear", "custom") and not vol_curves:
        raise ModelFileError(f"[model] kind {kind!r} requires vol_curve")
    if kind == "custom" and not cone_curves and not subspace_curves:
        raise ModelFileError("[model] kind custom requires [cone] or [subspace] curves")
    if kind == "cir" and rho < 0:
        raise ModelFileError("[model] rho must be nonnegative")

    # every [check] default lives here, with or without the section
    check_options = {"boundary_samples": _get(cfg, "check", "boundary_samples", int, 6),
                     "max_dim": _get(cfg, "check", "max_dim", int, 20),
                     "span_tol": _get(cfg, "check", "span_tol", float, 1e-5)}

    sim = None
    h0 = None
    if cfg.has_section("sim"):
        horizon = _get(cfg, "sim", "horizon", float, required=True)
        dt = _get(cfg, "sim", "dt", float, grid.dx)
        n_paths = _get(cfg, "sim", "paths", int, 1000)
        seed = _get(cfg, "sim", "seed", int, 0)
        scheme = _get(cfg, "sim", "scheme", str, "full_truncation").strip()
        try:
            sim = SimConfig(horizon, dt, n_paths, seed, scheme)
        except Exception as exc:
            raise ModelFileError(f"[sim]: {exc}") from exc
        if cfg.has_option("sim", "h0"):
            h0 = eval_curve(cfg.get("sim", "h0"), grid, params, where="[sim] h0")

    return ModelSpec(kind=kind, grid=grid, weight=weight, rho=rho, gamma=gamma,
                     ell=ell, cone_curves=cone_curves,
                     subspace_curves=subspace_curves, vol_amplitude=vol_amp,
                     vol_curves=vol_curves, check_options=check_options,
                     sim=sim, h0=h0, source_text=text)


def parse_model_file(path: str) -> ModelSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    return parse_model_text(text)
