"""Command-line front end: generate spirals, solve patches, verify fields,
export edge weights, render SVG figures, and run random-walk experiments.

Every command accepts ``--config FILE`` pointing at a JSON object whose
keys mirror the flag names (underscores for dashes); explicit flags
override the file, and unknown keys are rejected.  Exit codes: 0 success,
2 usage or input error, 3 solver non-convergence.
"""

from __future__ import annotations

import json
import math
import os

import click
import numpy as np
from click.core import ParameterSource

from .harmonic import (
    EdgeWeights,
    Quadrature,
    compute_edge_weights,
    harmonic_residuals,
    random_walk_return,
)
from .lattice import ScalarField, Window, read_field_csv, write_field_csv
from .layout import Anchor, develop, ring_ratio_bound
from .render import COLOR_MAPS, RenderStyle, render_svg
from .solver import (
    INITS,
    MODES,
    InvalidPatch,
    NonConvergence,
    SolveOptions,
    angle_defects,
    solve_patch,
)
from .spiral import SpiralParams, classify, spiral_field


class WindowType(click.ParamType):
    name = "WINDOW"

    def convert(self, value, param, ctx):
        if isinstance(value, Window):
            return value
        try:
            m_part, n_part = str(value).split(",")
            m_min, m_max = (int(x) for x in m_part.split(":"))
            n_min, n_max = (int(x) for x in n_part.split(":"))
            return Window(m_min, m_max, n_min, n_max)
        except ValueError:
            self.fail(
                f"{value!r} is not a window; expected m_min:m_max,n_min:n_max",
                param, ctx,
            )


class VertexType(click.ParamType):
    name = "VERTEX"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            m, n = (int(x) for x in str(value).split(","))
            return (m, n)
        except ValueError:
            self.fail(f"{value!r} is not a vertex; expected m,n", param, ctx)


WINDOW = WindowType()
VERTEX = VertexType()


def _config_option(fn):
    return click.option(
        "--config", type=str, default=None,
        help="JSON file whose keys mirror the flags; flags override it.",
    )(fn)


def _merged_params(ctx: click.Context) -> dict:
    """Merge config-file values under explicitly passed flags."""
    config_path = ctx.params.get("config")
    cfg = {}
    if config_path is not None:
        if not os.path.isfile(config_path):
            raise click.UsageError(f"config file not found: {config_path}")
        try:
            with open(config_path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise click.UsageError("config file must hold a JSON object")
        known = {p.name for p in ctx.command.params} - {"config"}
        for key in cfg:
            if key not in known:
                raise click.UsageError(f"unknown config key: {key!r}")
    merged = {}
    for param in ctx.command.params:
        name = param.name
        if name == "config":
            continue
        value = ctx.params.get(name)
        if name in cfg and ctx.get_parameter_source(name) != ParameterSource.COMMANDLINE:
            value = param.type.convert(cfg[name], param, ctx)
        merged[name] = value
    return merged


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(params: dict, *names: str) -> None:
    for name in names:
        if params[name] is None:
            raise click.UsageError(f"missing required option '{_flag(name)}'")


def _require_positive(params: dict, *names: str) -> None:
    for name in names:
        value = params[name]
        if not (math.isfinite(value) and value > 0):
            raise click.UsageError(f"{_flag(name)} must be positive, got {value}")


def _read_field(path: str) -> ScalarField:
    if not os.path.isfile(path):
        raise click.UsageError(f"input file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return read_field_csv(fh.read())
    except ValueError as exc:
        raise click.UsageError(f"cannot parse field CSV {path}: {exc}") from exc


def _checked(fn, **kwargs):
    """Call ``fn``, mapping the ValueError with which it rejects its input
    to a usage error (exit code 2)."""
    try:
        return fn(**kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _edge_weights(u: ScalarField, order: int) -> EdgeWeights:
    """Edge weights at the given quadrature order; a weight outside (0, 2),
    such as one that underflows to zero, is an input error."""
    return _checked(compute_edge_weights, u=u, quad=_checked(Quadrature, order=order))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@click.group()
def main() -> None:
    """Doyle spirals and circle packings on the hexagonal lattice."""


@main.command()
@click.option("--r0", type=float, default=1.0, show_default=True, help="Base radius.")
@click.option("--x", type=float, default=None, help="Radius ratio per +m step (required).")
@click.option("--y", type=float, default=None, help="Radius ratio per +n step (required).")
@click.option("--window", type=WINDOW, default=None,
              help="Index box m_min:m_max,n_min:n_max (required).")
@click.option("--out", type=str, default=None, help="Output field CSV path (required).")
@_config_option
@click.pass_context
def spiral(ctx: click.Context, **_kwargs) -> None:
    """Write the log-radius field of a Doyle spiral."""
    p = _merged_params(ctx)
    _require(p, "x", "y", "window", "out")
    _require_positive(p, "r0", "x", "y")
    field = spiral_field(SpiralParams(p["r0"], p["x"], p["y"]), p["window"])
    _write_text(p["out"], write_field_csv(field))


@main.command()
@click.option("--in", "in_path", type=str, default=None, help="Input field CSV (required).")
@click.option("--out", type=str, default=None, help="Output field CSV path (required).")
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Largest allowed angle defect, radians.")
@click.option("--max-iter", type=int, default=100000, show_default=True,
              help="Iteration budget.")
@click.option("--mode", type=click.Choice(MODES), default="gauss-seidel",
              show_default=True, help="Update scheme.")
@click.option("--init", type=click.Choice(INITS), default="harmonic",
              show_default=True, help="Interior starting guess.")
@_config_option
@click.pass_context
def solve(ctx: click.Context, **_kwargs) -> None:
    """Solve the packing equation with the boundary held fixed.

    Writes the solved field and prints the solve report as JSON; exits 3
    when the budget runs out (the partial field is still written).
    """
    p = _merged_params(ctx)
    _require(p, "in_path", "out")
    _require_positive(p, "tol")
    u0 = _read_field(p["in_path"])
    opts = _checked(SolveOptions, tolerance=p["tol"], max_iterations=p["max_iter"],
                    mode=p["mode"], init=p["init"])
    try:
        solved, report = solve_patch(u0, opts)
    except InvalidPatch as exc:
        raise click.UsageError(str(exc)) from exc
    except NonConvergence as exc:
        _write_text(p["out"], write_field_csv(exc.field))
        click.echo(exc.report.to_json())
        ctx.exit(3)
    _write_text(p["out"], write_field_csv(solved))
    click.echo(report.to_json())


@main.command()
@click.option("--in", "in_path", type=str, default=None, help="Input field CSV (required).")
@click.option("--order", type=int, default=32, show_default=True,
              help="Quadrature order for edge weights.")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="Classification tolerance.")
@_config_option
@click.pass_context
def verify(ctx: click.Context, **_kwargs) -> None:
    """Print JSON diagnostics: defects, weight bounds, residuals, ratio
    bound, and the field classification."""
    p = _merged_params(ctx)
    _require(p, "in_path")
    _require_positive(p, "tol")
    u = _read_field(p["in_path"])
    window = u.window
    defects = angle_defects(u)
    max_defect = float(np.abs(defects).max()) if defects.size else None

    weights = _edge_weights(u, p["order"])
    etas = [value for (_, _, value) in weights.edges()]
    min_eta = min(etas) if etas else None
    max_eta = max(etas) if etas else None
    residuals = [abs(r) for r in harmonic_residuals(u, weights).values()]
    max_residual = max(residuals) if residuals else None

    min_d1_ratio = ring_ratio_bound(u) if window.m_count >= 2 else None

    if window.m_count >= 2 and window.n_count >= 2:
        cls = classify(u, p["tol"])
        kind, k1, k2, spread = cls.kind, cls.k1, cls.k2, cls.spread
    else:
        kind = k1 = k2 = spread = None

    click.echo(json.dumps({
        "max_defect": max_defect,
        "min_eta": min_eta,
        "max_eta": max_eta,
        "max_harmonic_residual": max_residual,
        "min_d1_ratio": min_d1_ratio,
        "classification": kind,
        "k1": k1,
        "k2": k2,
        "spread": spread,
    }))


@main.command()
@click.option("--in", "in_path", type=str, default=None, help="Input field CSV (required).")
@click.option("--out", type=str, default=None, help="Output weights CSV path (required).")
@click.option("--order", type=int, default=32, show_default=True, help="Quadrature order.")
@_config_option
@click.pass_context
def harmonic(ctx: click.Context, **_kwargs) -> None:
    """Export the harmonic edge weights of a field as CSV."""
    p = _merged_params(ctx)
    _require(p, "in_path", "out")
    u = _read_field(p["in_path"])
    _write_text(p["out"], _edge_weights(u, p["order"]).to_csv())


@main.command()
@click.option("--in", "in_path", type=str, default=None, help="Input field CSV (required).")
@click.option("--out", type=str, default=None, help="Output SVG path (required).")
@click.option("--stroke-width", type=float, default=0.05, show_default=True,
              help="Stroke width in user units.")
@click.option("--color-map", type=click.Choice(COLOR_MAPS), default="uniform",
              show_default=True, help="Per-circle stroke coloring.")
@click.option("--padding", type=float, default=0.05, show_default=True,
              help="Viewport padding as a fraction of the bounding box.")
@click.option("--base", type=VERTEX, default=None,
              help="Base vertex m,n of the development (default: window center).")
@click.option("--order", type=int, default=32, show_default=True,
              help="Quadrature order for the residual color map.")
@_config_option
@click.pass_context
def render(ctx: click.Context, **_kwargs) -> None:
    """Develop a field into circles and write an SVG figure."""
    p = _merged_params(ctx)
    _require(p, "in_path", "out")
    u = _read_field(p["in_path"])
    base = Anchor(p["base"]) if p["base"] is not None else None
    lay = _checked(develop, u=u, base=base)
    style = _checked(RenderStyle, stroke_width=p["stroke_width"], color_map=p["color_map"],
                     padding=p["padding"])
    values = None
    if p["color_map"] == "residual":
        values = harmonic_residuals(u, _edge_weights(u, p["order"]))
    _write_text(p["out"], render_svg(lay, style, values))


@main.command()
@click.option("--in", "in_path", type=str, default=None, help="Input field CSV (required).")
@click.option("--start", type=VERTEX, default="0,0", show_default=True,
              help="Start vertex m,n.")
@click.option("--steps", type=int, default=100, show_default=True,
              help="Walk length per trial.")
@click.option("--trials", type=int, default=10000, show_default=True,
              help="Number of independent trials.")
@click.option("--seed", type=int, default=0, show_default=True, help="Random seed.")
@click.option("--order", type=int, default=32, show_default=True,
              help="Quadrature order for edge weights.")
@_config_option
@click.pass_context
def walk(ctx: click.Context, **_kwargs) -> None:
    """Run weighted random walks and print the return-frequency JSON."""
    p = _merged_params(ctx)
    _require(p, "in_path")
    if p["steps"] < 0:
        raise click.UsageError(f"--steps must be nonnegative, got {p['steps']}")
    if p["trials"] < 1:
        raise click.UsageError(f"--trials must be positive, got {p['trials']}")
    u = _read_field(p["in_path"])
    if not u.window.contains(p["start"]):
        raise click.UsageError(
            f"--start {p['start'][0]},{p['start'][1]} is outside window {u.window}"
        )
    weights = _edge_weights(u, p["order"])
    report = random_walk_return(weights, p["start"], p["steps"], p["trials"], p["seed"])
    click.echo(report.to_json())


if __name__ == "__main__":
    main()
