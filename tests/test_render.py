"""SVG rendering determinism and the CSV export path."""

import math
import re

import numpy as np
import pytest

from hexpack.lattice import ScalarField, Window, read_field_csv, write_field_csv
from hexpack.harmonic import compute_edge_weights, harmonic_residuals
from hexpack.layout import Anchor, Layout, develop
from hexpack.render import RenderStyle, render_svg
from hexpack.solver import solve_patch
from hexpack.spiral import SpiralParams, spiral_field

CIRCLE_RE = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)" stroke="([^"]+)"/>')


def regular_layout(half=2):
    u = ScalarField.constant(Window(-half, half, -half, half), 0.0)
    return develop(u, Anchor((0, 0)))


class TestRenderSvg:
    def test_regular_layout_circle_elements(self):
        svg = render_svg(regular_layout())
        found = CIRCLE_RE.findall(svg)
        assert len(found) == 25
        assert all(r == "1.0" for (_, _, r, _) in found)

    def test_spiral_radii_geometric_along_rows(self):
        u = spiral_field(SpiralParams(1.0, 1.2, 0.9), Window(-3, 3, -3, 3))
        svg = render_svg(develop(u))
        radii = [float(r) for (_, _, r, _) in CIRCLE_RE.findall(svg)]
        # circles are emitted in (m, n) vertex order: n varies fastest
        assert len(radii) == 49
        by_vertex = {}
        idx = 0
        for m in range(-3, 4):
            for n in range(-3, 4):
                by_vertex[(m, n)] = radii[idx]
                idx += 1
        for n in range(-3, 4):
            for m in range(-3, 3):
                assert by_vertex[(m + 1, n)] / by_vertex[(m, n)] == pytest.approx(
                    1.2, rel=1e-12
                )

    def test_empty_layout_is_valid_svg(self):
        svg = render_svg(Layout(Window(0, 0, 0, 0), np.full((1, 1), np.nan, dtype=complex),
                                np.full((1, 1), np.nan), Anchor((0, 0))))
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and "</svg>" in svg
        assert "<circle" not in svg

    def test_byte_identical_across_runs(self):
        u = spiral_field(SpiralParams(1.0, 1.1, 0.95), Window(-2, 2, -2, 2))
        style = RenderStyle(color_map="log-radius")
        lay1 = develop(u)
        lay2 = develop(u)
        assert render_svg(lay1, style) == render_svg(lay2, style)

    def test_uniform_color(self):
        svg = render_svg(regular_layout())
        colors = {c for (_, _, _, c) in CIRCLE_RE.findall(svg)}
        assert colors == {"#000000"}

    def test_log_radius_palette_spans_range(self):
        u = spiral_field(SpiralParams(1.0, 1.5, 1.0), Window(-2, 2, -2, 2))
        svg = render_svg(develop(u), RenderStyle(color_map="log-radius"))
        colors = {c for (_, _, _, c) in CIRCLE_RE.findall(svg)}
        assert "#2166ac" in colors  # minimum log radius
        assert "#b2182b" in colors  # maximum log radius
        assert len(colors) > 2

    def test_d1u_map_constant_for_spirals(self):
        u = spiral_field(SpiralParams(1.0, 1.3, 0.9), Window(-2, 2, -2, 2))
        svg = render_svg(develop(u), RenderStyle(color_map="d1u"))
        colors = {c for (_, _, _, c) in CIRCLE_RE.findall(svg)}
        # constant data degenerates to the palette midpoint everywhere
        assert colors == {"#f7f7f7"}

    def test_log_radius_colors_pinned(self):
        u = spiral_field(SpiralParams(1.0, 1.3, 0.8), Window(-2, 2, -2, 1))
        svg = render_svg(develop(u), RenderStyle(color_map="log-radius"))
        assert [c for (_, _, _, c) in CIRCLE_RE.findall(svg)] == [
            "#c8d7e6", "#90b1d3", "#598cbf", "#2166ac", "#f1e4e6", "#d1deea", "#9ab8d6",
            "#6292c3", "#dca0a8", "#eedadd", "#dbe4ed", "#a4bfda", "#c75c69", "#d9969e",
            "#ebd0d3", "#e5ebf1", "#b2182b", "#c45260", "#d68c95", "#e8c6ca"]

    def test_d1u_colors_pinned(self):
        # no D1u in the last column or next to the unplaced circle: palette midpoint
        radii = np.exp([[0.0, 0.3, -0.2, 0.9], [0.5, np.nan, 0.1, -0.4], [1.2, 0.7, 0.75, 0.2]])
        lay = Layout(Window(0, 3, 0, 2), np.arange(4) + 3j * np.arange(3)[:, None], radii,
                     Anchor((0, 0)))
        svg = render_svg(lay, RenderStyle(color_map="d1u"))
        assert [c for (_, _, _, c) in CIRCLE_RE.findall(svg)] == [
            "#f5f0f1", "#f7f7f7", "#2e6fb1", "#2e6fb1", "#bdcfe3", "#b2182b", "#2e6fb1",
            "#2166ac", "#f7f7f7", "#f7f7f7", "#f7f7f7"]

    def test_residual_map_needs_values(self):
        with pytest.raises(ValueError):
            render_svg(regular_layout(), RenderStyle(color_map="residual"))
        svg = render_svg(
            regular_layout(),
            RenderStyle(color_map="residual"),
            values=np.array([[np.nan] * 5, [np.nan] * 5, [np.nan, np.nan, 1.0, -1.0, np.nan],
                             [np.nan] * 5, [np.nan] * 5]),
        )
        assert CIRCLE_RE.findall(svg)

    def test_residual_map_colors(self):
        w = Window(-4, 4, -4, 4)
        u0 = spiral_field(SpiralParams(1.0, 1.2, 0.9), w)
        for v in w.interior_vertices():
            u0[v] = 0.0
        u, _ = solve_patch(u0)
        residuals = harmonic_residuals(u, compute_edge_weights(u))
        lay = develop(u)
        svg = render_svg(lay, RenderStyle(color_map="residual"), values=residuals)
        ms, ns = lay.placed()
        colors = dict(zip(zip(ms, ns), (c for (_, _, _, c) in CIRCLE_RE.findall(svg))))
        at = {v: residuals[v[1] - w.n_min, v[0] - w.m_min] for v in colors}
        known = {v: r for v, r in at.items() if not math.isnan(r)}
        assert 0 < len(known) < len(at)
        assert all(colors[v] == "#f7f7f7" for v in at if v not in known)
        assert colors[min(known, key=known.get)] == "#2166ac"
        assert colors[max(known, key=known.get)] == "#b2182b"

    def test_residual_values_of_the_wrong_shape_raise(self):
        with pytest.raises(ValueError, match="needs values of shape"):
            render_svg(regular_layout(), RenderStyle(color_map="residual"),
                       values=np.zeros((4, 5)))

    def test_viewbox_covers_circles(self):
        lay = regular_layout(1)
        svg = render_svg(lay)
        match = re.search(r'viewBox="([^"]+)"', svg)
        x, y, w, h = (float(t) for t in match.group(1).split())
        for c in lay.circles.values():
            assert x <= c.center.real - c.radius
            assert x + w >= c.center.real + c.radius
            assert y <= -c.center.imag - c.radius
            assert y + h >= -c.center.imag + c.radius

    def test_y_axis_flipped(self):
        lay = regular_layout(1)
        svg = render_svg(lay)
        found = CIRCLE_RE.findall(svg)
        # vertex (0, 1) sits at positive imaginary part, so cy must be negative
        cys = [float(cy) for (_, cy, _, _) in found]
        assert min(cys) < 0

    def test_style_validation(self):
        with pytest.raises(ValueError):
            RenderStyle(stroke_width=0.0)
        with pytest.raises(ValueError):
            RenderStyle(padding=-0.1)
        with pytest.raises(ValueError):
            RenderStyle(color_map="rainbow")


class TestRenderFieldCsv:
    def test_constant_three_by_three(self):
        f = ScalarField.constant(Window(0, 2, 0, 2), 0.0)
        text = write_field_csv(f)
        lines = text.strip().splitlines()
        assert lines[0] == "# window 0 2 0 2"
        assert len(lines) == 4
        for row in lines[1:]:
            assert [float(x) for x in row.split(",")] == [0.0, 0.0, 0.0]

    def test_round_trip_bit_exact(self):
        f = spiral_field(SpiralParams(1.0, 1.2, 0.8), Window(-4, 4, -3, 3))
        assert read_field_csv(write_field_csv(f)) == f

    def test_spiral_cell_values(self):
        f = spiral_field(SpiralParams(2.0, 1.5, 0.75), Window(-2, 2, -2, 2))
        parsed = read_field_csv(write_field_csv(f))
        for v in f.window.vertices():
            expected = math.log(2.0) + v[0] * math.log(1.5) + v[1] * math.log(0.75)
            assert parsed[v] == pytest.approx(expected, abs=1e-14)
            assert parsed[v] == f[v]  # 17 significant digits round trip exactly
