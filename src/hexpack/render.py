"""Deterministic SVG figures of layouts.

The SVG contains one circle element per placed circle, in vertex order,
with the y axis flipped so counterclockwise faces render counterclockwise.
Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import Layout

COLOR_MAPS = ("uniform", "log-radius", "d1u", "residual")

# Fixed three-stop piecewise-linear palette (low -> mid -> high).
_PALETTE = np.array(((0x21, 0x66, 0xAC), (0xF7, 0xF7, 0xF7), (0xB2, 0x18, 0x2B)), dtype=float)
_UNIFORM_COLOR = "#000000"


@dataclass(frozen=True)
class RenderStyle:
    stroke_width: float = 0.05
    color_map: str = "uniform"
    padding: float = 0.05

    def __post_init__(self) -> None:
        if not (math.isfinite(self.stroke_width) and self.stroke_width > 0):
            raise ValueError(f"stroke width must be positive, got {self.stroke_width!r}")
        if not (math.isfinite(self.padding) and self.padding >= 0):
            raise ValueError(f"padding must be nonnegative, got {self.padding!r}")
        if self.color_map not in COLOR_MAPS:
            raise ValueError(f"color map must be one of {COLOR_MAPS}, got {self.color_map!r}")


def _colors(layout: Layout, style: RenderStyle, values: np.ndarray | None) -> list[str]:
    """Stroke colors of the placed circles, in vertex order."""
    r = layout.radii
    if style.color_map == "uniform":
        return [_UNIFORM_COLOR] * int(np.count_nonzero(~np.isnan(r)))
    if style.color_map == "residual":
        if np.shape(values) != r.shape:  # None has shape ()
            raise ValueError(f"the residual color map needs values of shape {r.shape}")
        data = values
    else:
        data = np.log(r) if style.color_map == "log-radius" else np.pad(
            np.log(r[:, 1:] / r[:, :-1]), ((0, 0), (0, 1)), constant_values=np.nan)
    t = np.array(layout.placed(data)[2], dtype=float)
    known = t[~np.isnan(t)]
    lo, hi = (known.min(), known.max()) if known.size else (0.0, 0.0)
    # a range at rounding level is noise, not signal
    t = (t - lo) / (hi - lo) if hi - lo > 1e-12 * max(abs(lo), abs(hi)) else np.full_like(t, 0.5)
    # piecewise-linear palette over [0, 1], midpoint where a circle has no value
    t = np.where(np.isnan(t), 0.5, t)
    rgb = np.rint([np.interp(t, (0.0, 0.5, 1.0), channel) for channel in _PALETTE.T]).astype(int)
    return [f"#{c:06x}" for c in ((1 << 16, 1 << 8, 1) @ rgb).tolist()]


def render_svg(layout: Layout, style: RenderStyle = RenderStyle(), values=None) -> str:
    """One SVG circle element per circle of the layout.

    The viewBox is the bounding box of all circles grown by the padding
    fraction (a ValueError if it passes the float range).  Colors follow
    the style's map over the data range; vertices without a value get the
    palette midpoint.  ``values`` holds the data of the "residual" map: an
    array shaped like the layout's radii, NaN where a vertex has no value,
    such as the one ``harmonic_residuals`` returns.
    """
    # the y axis flips, so the bounding box flips with it
    _, _, xs, ys, rs = layout.placed(layout.centers.real, -layout.centers.imag, layout.radii)
    box = (0.0, 0.0, 1.0, 1.0)
    if rs:
        x, y, r = np.array([xs, ys, rs])
        with np.errstate(over="ignore"):
            lo, hi = np.min([x - r, y - r], axis=1), np.max([x + r, y + r], axis=1)
            pad = style.padding * (hi - lo)
            box = (*(lo - pad).tolist(), *(hi - lo + 2 * pad).tolist())
        if not np.isfinite(box).all():
            raise ValueError(f"the bounding box {box} of the circles passes the float range")

    colors = _colors(layout, style, values)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{box[0]!r} {box[1]!r} {box[2]!r} {box[3]!r}">',
        f'<g fill="none" stroke-width="{style.stroke_width!r}">',
        *(f'<circle cx="{cx!r}" cy="{cy!r}" r="{r!r}" stroke="{c}"/>'
          for cx, cy, r, c in zip(xs, ys, rs, colors)),
        "</g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
