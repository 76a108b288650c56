"""Deterministic SVG figures of layouts.

The SVG contains one circle element per placed circle, in vertex order,
with the y axis flipped so counterclockwise faces render counterclockwise.
Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lattice import _BLOCK
from .layout import Layout

COLOR_MAPS = ("uniform", "log-radius", "d1u", "residual")

# Fixed three-stop piecewise-linear palette (low -> mid -> high).
_PALETTE = np.array(((0x21, 0x66, 0xAC), (0xF7, 0xF7, 0xF7), (0xB2, 0x18, 0x2B)), dtype=float)
_UNIFORM_COLOR = 0x000000


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


def _colors(layout: Layout, style: RenderStyle, values: np.ndarray | None) -> np.ndarray:
    """Stroke colors of the placed circles, in vertex order, as 0xRRGGBB."""
    r = layout.radii
    if style.color_map == "uniform":
        return np.full(np.count_nonzero(~np.isnan(r)), _UNIFORM_COLOR)
    if style.color_map == "residual":
        if np.shape(values) != r.shape:  # None has shape ()
            raise ValueError(f"the residual color map needs values of shape {r.shape}")
        data = values
    elif style.color_map == "log-radius":
        data = np.log(r)
    else:
        # log r(m+1, n) - log r(m, n); a ratio that is not a normal float
        # takes the difference of the logs instead
        with np.errstate(all="ignore"):
            ratio = r[:, 1:] / r[:, :-1]
            d1u = np.where((ratio >= sys.float_info.min) & (ratio < math.inf), np.log(ratio),
                           np.log(r[:, 1:]) - np.log(r[:, :-1]))
        data = np.pad(d1u, ((0, 0), (0, 1)), constant_values=np.nan)
    t = layout._placed(data)[0].astype(float)
    known = t[~np.isnan(t)]
    lo, hi = (known.min(), known.max()) if known.size else (0.0, 0.0)
    # a range at rounding level is noise, not signal
    t = (t - lo) / (hi - lo) if hi - lo > 1e-12 * max(abs(lo), abs(hi)) else np.full_like(t, 0.5)
    # piecewise-linear palette over [0, 1], midpoint where a circle has no value
    t = np.where(np.isnan(t), 0.5, t)
    rgb = np.rint([np.interp(t, (0.0, 0.5, 1.0), channel) for channel in _PALETTE.T]).astype(int)
    return (1 << 16, 1 << 8, 1) @ rgb


def _svg(layout: Layout, style: RenderStyle, values) -> tuple[str, list[np.ndarray]]:
    """``render_svg``'s checks, then its document's header and the columns of
    its circle elements: x, the flipped y, the radius and the stroke color
    of each placed circle, in vertex order."""
    # the y axis flips, so the bounding box flips with it
    columns = x, y, r = layout._placed(layout.centers.real, -layout.centers.imag, layout.radii)
    box = (0.0, 0.0, 1.0, 1.0)
    if r.size:
        with np.errstate(over="ignore"):
            lo, hi = np.min([x - r, y - r], axis=1), np.max([x + r, y + r], axis=1)
            pad = style.padding * (hi - lo)
            box = (*(lo - pad).tolist(), *(hi - lo + 2 * pad).tolist())
        if not np.isfinite(box).all():
            raise ValueError(f"the bounding box {box} of the circles passes the float range")
    header = ('<?xml version="1.0" encoding="UTF-8"?>\n'
              f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'viewBox="{box[0]!r} {box[1]!r} {box[2]!r} {box[3]!r}">\n'
              f'<g fill="none" stroke-width="{style.stroke_width!r}">\n')
    return header, [*columns, _colors(layout, style, values)]


def _svg_blocks(header: str, columns: list[np.ndarray]) -> Iterator[str]:
    """The SVG document from ``_svg``'s parts: the header, one string per
    block of ``_BLOCK`` circle elements, then the closing tags.  A block's
    Python floats and color strings are made when it is formatted."""
    yield header
    for start in range(0, len(columns[0]), _BLOCK):
        yield "".join(f'<circle cx="{cx!r}" cy="{cy!r}" r="{r!r}" stroke="#{c:06x}"/>\n'
                      for cx, cy, r, c in zip(*(a[start:start + _BLOCK].tolist()
                                                for a in columns)))
    yield "</g>\n</svg>\n"


def render_svg(layout: Layout, style: RenderStyle = RenderStyle(), values=None) -> str:
    """One SVG circle element per circle of the layout.

    The viewBox is the bounding box of all circles grown by the padding
    fraction (a ValueError if it passes the float range).  Colors follow
    the style's map over the data range; vertices without a value get the
    palette midpoint.  ``values`` holds the data of the "residual" map: an
    array shaped like the layout's radii, NaN where a vertex has no value,
    such as the one ``harmonic_residuals`` returns.
    """
    return "".join(_svg_blocks(*_svg(layout, style, values)))
