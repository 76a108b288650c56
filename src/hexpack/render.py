"""Deterministic SVG figures of layouts.

The SVG contains one circle element per placed circle, in vertex order,
with the y axis flipped so counterclockwise faces render counterclockwise.
Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import translate
from .layout import Layout

COLOR_MAPS = ("uniform", "log-radius", "d1u", "residual")

# Fixed three-stop piecewise-linear palette (low -> mid -> high).
_PALETTE = ((0x21, 0x66, 0xAC), (0xF7, 0xF7, 0xF7), (0xB2, 0x18, 0x2B))
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


def _interp_channel(lo: int, hi: int, t: float) -> int:
    return int(round(lo + (hi - lo) * t))


def _palette_color(t: float) -> str:
    """Piecewise-linear palette over [0, 1]."""
    if t <= 0.5:
        lo, hi, s = _PALETTE[0], _PALETTE[1], 2.0 * t
    else:
        lo, hi, s = _PALETTE[1], _PALETTE[2], 2.0 * t - 1.0
    r, g, b = (_interp_channel(a, c, s) for a, c in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def _color_values(layout: Layout, style: RenderStyle, values) -> dict:
    if style.color_map == "uniform":
        return {}
    if style.color_map == "log-radius":
        return {v: math.log(c.radius) for v, c in layout.circles.items()}
    if style.color_map == "d1u":
        out = {}
        for v, c in layout.circles.items():
            w = layout.circles.get(translate(v))
            if w is not None:
                out[v] = math.log(w.radius / c.radius)
        return out
    if values is None:
        raise ValueError("the residual color map needs per-vertex values")
    return dict(values)


def render_svg(layout: Layout, style: RenderStyle = RenderStyle(), values=None) -> str:
    """One SVG circle element per circle of the layout.

    The viewBox is the bounding box of all circles grown by the padding
    fraction.  Colors follow the style's map over the data range; vertices
    without a value get the palette midpoint.  ``values`` supplies the
    per-vertex data for the "residual" map.
    """
    verts = sorted(layout.circles)
    if verts:
        xs_lo = min(layout.circles[v].center.real - layout.circles[v].radius for v in verts)
        xs_hi = max(layout.circles[v].center.real + layout.circles[v].radius for v in verts)
        # y axis flips, so the bounding box flips with it
        ys_lo = min(-layout.circles[v].center.imag - layout.circles[v].radius for v in verts)
        ys_hi = max(-layout.circles[v].center.imag + layout.circles[v].radius for v in verts)
        pad_x = style.padding * (xs_hi - xs_lo)
        pad_y = style.padding * (ys_hi - ys_lo)
        box = (xs_lo - pad_x, ys_lo - pad_y,
               (xs_hi - xs_lo) + 2 * pad_x, (ys_hi - ys_lo) + 2 * pad_y)
    else:
        box = (0.0, 0.0, 1.0, 1.0)

    data = _color_values(layout, style, values)
    if data:
        lo = min(data.values())
        hi = max(data.values())
        span = hi - lo
        # a range at rounding level is noise, not signal
        if span <= 1e-12 * max(abs(lo), abs(hi)):
            span = 0.0
    else:
        lo, span = 0.0, 0.0

    def color_of(v) -> str:
        if style.color_map == "uniform":
            return _UNIFORM_COLOR
        if v not in data or span == 0.0:
            return _palette_color(0.5)
        return _palette_color((data[v] - lo) / span)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{box[0]!r} {box[1]!r} {box[2]!r} {box[3]!r}">',
        f'<g fill="none" stroke-width="{style.stroke_width!r}">',
    ]
    for v in verts:
        c = layout.circles[v]
        lines.append(
            f'<circle cx="{c.center.real!r}" cy="{-c.center.imag!r}" '
            f'r="{c.radius!r}" stroke="{color_of(v)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
