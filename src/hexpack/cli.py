"""Command-line front end: generate spirals, solve patches, verify fields,
export edge weights, render SVG figures, and run random-walk experiments.

Every command accepts ``--config FILE`` pointing at a JSON object whose
keys are the parameter names (``in_path`` for ``--in``, ``max_iter`` for
``--max-iter``) and whose values are JSON strings, numbers or booleans
(JSON integers or strings for integer options); click reads it as the
command's default map, so explicit flags override the file, and unknown
keys are rejected.  Exit codes: 0 success, 2 usage or input error (an
unwritable output path included), 3 solver non-convergence.
"""

from __future__ import annotations

import json
import math

import click
import numpy as np

from .harmonic import (
    DEFAULT_QUADRATURE,
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
    NonConvergence,
    SolveOptions,
    angle_defects,
    solve_patch,
)
from .spiral import DEFAULT_CLASSIFY_TOL, SpiralParams, classify, spiral_field


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
# numpy's Gauss-Legendre rule allocates order**2 floats.
ORDER = click.IntRange(2, 1024)


def _positive(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be positive, got {value}", ctx, param)
    return value


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Install the JSON object in ``path`` as the command's default map."""
    if path is None:
        return
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read JSON config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise click.UsageError("config file must hold a JSON object")
    known = {p.name: p for p in ctx.command.params if p is not param}
    for key, value in cfg.items():
        if key not in known:
            raise click.UsageError(f"unknown config key: {key!r}")
        # JSON numbers are finite; Python's reader also accepts Infinity and NaN.
        if not (isinstance(value, (str, int))
                or isinstance(value, float) and math.isfinite(value)):
            raise click.UsageError(f"config key {key!r} must be a string, number or boolean")
        # click's int type would truncate 2.7 and 1e300; as flags they exit 2.
        integer = isinstance(known[key].type, click.types.IntParamType)
        if integer and isinstance(value, (bool, float)):
            raise click.UsageError(f"config key {key!r} must be an integer")
    ctx.default_map = cfg


_config_option = click.option(
    "--config", type=str, is_eager=True, expose_value=False, callback=_load_config,
    help="JSON file whose keys are the parameter names; flags override it.",
)


def _read_field(path: str) -> ScalarField:
    try:
        with open(path, encoding="utf-8") as fh:
            return read_field_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read field CSV {path}: {exc}") from exc


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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot write {path}: {exc}") from exc


@click.group()
def main() -> None:
    """Doyle spirals and circle packings on the hexagonal lattice."""


@main.command()
@click.option("--r0", type=float, default=1.0, show_default=True, callback=_positive,
              help="Base radius.")
@click.option("--x", type=float, required=True, callback=_positive,
              help="Radius ratio per +m step.")
@click.option("--y", type=float, required=True, callback=_positive,
              help="Radius ratio per +n step.")
@click.option("--window", type=WINDOW, required=True,
              help="Index box m_min:m_max,n_min:n_max.")
@click.option("--out", type=str, required=True, help="Output field CSV path.")
@_config_option
def spiral(r0: float, x: float, y: float, window: Window, out: str) -> None:
    """Write the log-radius field of a Doyle spiral."""
    field = spiral_field(SpiralParams(r0, x, y), window)
    _write_text(out, write_field_csv(field))


@main.command()
@click.option("--in", "in_path", type=str, required=True, help="Input field CSV.")
@click.option("--out", type=str, required=True, help="Output field CSV path.")
@click.option("--tol", type=float, default=SolveOptions.tolerance, show_default=True,
              callback=_positive, help="Largest allowed angle defect, radians.")
@click.option("--max-iter", type=int, default=SolveOptions.max_iterations, show_default=True,
              help="Iteration budget.")
@click.option("--mode", type=click.Choice(MODES), default=SolveOptions.mode,
              show_default=True, help="Update scheme.")
@click.option("--init", type=click.Choice(INITS), default=SolveOptions.init,
              show_default=True, help="Interior starting guess.")
@_config_option
@click.pass_context
def solve(ctx: click.Context, in_path: str, out: str, tol: float, max_iter: int,
          mode: str, init: str) -> None:
    """Solve the packing equation with the boundary held fixed.

    Writes the solved field and prints the solve report as JSON; exits 3
    when the budget runs out (the partial field is still written).
    """
    u0 = _read_field(in_path)
    opts = _checked(SolveOptions, tolerance=tol, max_iterations=max_iter, mode=mode, init=init)
    try:  # InvalidPatch is the ValueError of a window without interior
        solved, report = _checked(solve_patch, u0=u0, options=opts)
    except NonConvergence as exc:
        _write_text(out, write_field_csv(exc.field))
        click.echo(exc.report.to_json())
        ctx.exit(3)
    _write_text(out, write_field_csv(solved))
    click.echo(report.to_json())


@main.command()
@click.option("--in", "in_path", type=str, required=True, help="Input field CSV.")
@click.option("--order", type=ORDER, default=DEFAULT_QUADRATURE.order, show_default=True,
              help="Quadrature order for edge weights.")
@click.option("--tol", type=float, default=DEFAULT_CLASSIFY_TOL, show_default=True,
              callback=_positive, help="Classification tolerance.")
@_config_option
def verify(in_path: str, order: int, tol: float) -> None:
    """Print JSON diagnostics: defects, weight bounds, residuals, ratio
    bound, and the field classification."""
    u = _read_field(in_path)
    window = u.window
    defects = angle_defects(u)
    max_defect = float(np.abs(defects).max()) if defects.size else None

    weights = _edge_weights(u, order)
    etas = weights.values[~np.isnan(weights.values)]
    min_eta = float(etas.min()) if etas.size else None
    max_eta = float(etas.max()) if etas.size else None
    residuals = np.abs(harmonic_residuals(u, weights))
    max_residual = None if np.isnan(residuals).all() else float(np.nanmax(residuals))

    min_d1_ratio = ring_ratio_bound(u) if window.m_count >= 2 else None

    if window.m_count >= 2 and window.n_count >= 2:
        cls = classify(u, tol)
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
@click.option("--in", "in_path", type=str, required=True, help="Input field CSV.")
@click.option("--out", type=str, required=True, help="Output weights CSV path.")
@click.option("--order", type=ORDER, default=DEFAULT_QUADRATURE.order, show_default=True,
              help="Quadrature order.")
@_config_option
def harmonic(in_path: str, out: str, order: int) -> None:
    """Export the harmonic edge weights of a field as CSV."""
    u = _read_field(in_path)
    _write_text(out, _edge_weights(u, order).to_csv())


@main.command()
@click.option("--in", "in_path", type=str, required=True, help="Input field CSV.")
@click.option("--out", type=str, required=True, help="Output SVG path.")
@click.option("--stroke-width", type=float, default=RenderStyle.stroke_width, show_default=True,
              help="Stroke width in user units.")
@click.option("--color-map", type=click.Choice(COLOR_MAPS), default=RenderStyle.color_map,
              show_default=True, help="Per-circle stroke coloring.")
@click.option("--padding", type=float, default=RenderStyle.padding, show_default=True,
              help="Viewport padding as a fraction of the bounding box.")
@click.option("--base", type=VERTEX, default=None,
              help="Base vertex m,n of the development (default: window center).")
@click.option("--order", type=ORDER, default=DEFAULT_QUADRATURE.order, show_default=True,
              help="Quadrature order for the residual color map.")
@_config_option
def render(in_path: str, out: str, stroke_width: float, color_map: str, padding: float,
           base: tuple[int, int] | None, order: int) -> None:
    """Develop a field into circles and write an SVG figure."""
    u = _read_field(in_path)
    anchor = Anchor(base) if base is not None else None
    lay = _checked(develop, u=u, base=anchor)
    style = _checked(RenderStyle, stroke_width=stroke_width, color_map=color_map,
                     padding=padding)
    values = None
    if color_map == "residual":
        values = harmonic_residuals(u, _edge_weights(u, order))
    _write_text(out, _checked(render_svg, layout=lay, style=style, values=values))


@main.command()
@click.option("--in", "in_path", type=str, required=True, help="Input field CSV.")
@click.option("--start", type=VERTEX, default="0,0", show_default=True,
              help="Start vertex m,n.")
@click.option("--steps", type=click.IntRange(min=0), default=100, show_default=True,
              help="Walk length per trial.")
@click.option("--trials", type=click.IntRange(min=1), default=10000, show_default=True,
              help="Number of independent trials.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Random seed.")
@click.option("--order", type=ORDER, default=DEFAULT_QUADRATURE.order, show_default=True,
              help="Quadrature order for edge weights.")
@_config_option
def walk(in_path: str, start: tuple[int, int], steps: int, trials: int, seed: int,
         order: int) -> None:
    """Run weighted random walks and print the return-frequency JSON."""
    u = _read_field(in_path)
    if not u.window.contains(start):
        raise click.UsageError(f"--start {start[0]},{start[1]} is outside window {u.window}")
    weights = _edge_weights(u, order)
    report = random_walk_return(weights, start, steps, trials, seed)
    click.echo(report.to_json())


if __name__ == "__main__":
    main()
