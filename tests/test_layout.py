"""Developing map, univalence checks, and radius-ratio bounds.

The flower-univalence boundary along the one-parameter spiral family
(ratio x, y = 1) sits at x = 5 + 2*sqrt(6) ~ 9.899, where the two
equal-radius petals across the flower first touch; tests pin behavior on
both sides of it.
"""

import cmath
import json
import math

import numpy as np
import pytest

from hexpack.lattice import ScalarField, Window, embed, neighbors
from hexpack.layout import (
    Anchor,
    Circle,
    DefectTooLarge,
    Layout,
    check_local_univalence,
    check_univalent_flower,
    circles_from_json,
    develop,
    develop_flower,
    flower_ratio_check,
    layout_to_json,
    max_tangency_residual,
    min_face_orientation,
    ring_ratio_bound,
)
from hexpack.render import render_svg
from hexpack.solver import angle_defects, solve_patch
from hexpack.spiral import SpiralParams, spiral_field

UNIVALENCE_BREAK_X = 5.0 + 2.0 * math.sqrt(6.0)
# the base at the window's centre or at one of its corners, as unit signs
BASE_CORNERS = pytest.mark.parametrize(
    "corner", [None, (-1, -1), (1, -1), (-1, 1), (1, 1)],
    ids=["centre", "lower-left", "lower-right", "upper-left", "upper-right"])


def spiral(x, y, half=4):
    return spiral_field(SpiralParams(1.0, x, y), Window(-half, half, -half, half))


class TestDevelop:
    def test_regular_packing_centers(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        lay = develop(u, Anchor((0, 0)))
        for v, c in lay.circles.items():
            assert c.radius == 1.0
            assert abs(c.center - 2.0 * embed(v)) <= 1e-12

    def test_every_window_vertex_placed(self):
        u = spiral(1.1, 1.0)
        lay = develop(u)
        assert set(lay.circles) == set(u.window.vertices())

    def test_spiral_tangency_residuals(self):
        lay = develop(spiral(1.1, 1.0))
        assert max_tangency_residual(lay) <= 1e-10

    def test_monodromy_closure(self):
        lay = develop(spiral(1.15, 0.9))
        assert lay.monodromy_residual <= 1e-9

    def test_faces_positively_oriented(self):
        lay = develop(spiral(1.2, 0.85))
        assert min_face_orientation(lay) > 0.0

    def test_rejects_unsolved_fields(self):
        u = spiral(1.1, 1.0)
        u[(0, 0)] = u[(0, 0)] + 0.1
        with pytest.raises(DefectTooLarge) as info:
            develop(u)
        assert info.value.defect > 1e-8

    def test_deterministic(self):
        u = spiral(1.2, 0.9)
        assert layout_to_json(develop(u)) == layout_to_json(develop(u))

    def test_shift_covariance(self):
        # adding a constant to the log radii scales the picture by e^const
        lam = 0.4
        base = develop(spiral(1.1, 0.95))
        w = base.window
        shifted_field = spiral(1.1, 0.95)
        for v in w.vertices():
            shifted_field[v] = shifted_field[v] + lam
        shifted = develop(shifted_field)
        pairs = [((0, 0), (2, 1)), ((-1, 2), (1, -2)), ((0, 0), (3, -3))]
        for a, b in pairs:
            d0 = abs(base.circles[a].center - base.circles[b].center)
            d1 = abs(shifted.circles[a].center - shifted.circles[b].center)
            assert d1 / d0 == pytest.approx(math.exp(lam), rel=1e-10)

    def test_anchor_controls_position_and_direction(self):
        u = ScalarField.constant(Window(-1, 1, -1, 1), 0.0)
        lay = develop(u, Anchor((0, 0), center=3 + 4j, direction=1j))
        assert lay.circles[(0, 0)].center == 3 + 4j
        assert abs(lay.circles[(1, 0)].center - (3 + 6j)) <= 1e-12

    def test_accepts_fields_solved_to_tolerance(self):
        # a patch solved to 1e-10 is not an exact spiral; it must still
        # develop, with the loop-closure gap at the defect level
        from hexpack.solver import SolveOptions, solve_patch

        exact = spiral(1.2, 0.85, half=6)
        u0 = exact.copy()
        for v in u0.window.interior_vertices():
            u0[v] = 0.0
        solved, report = solve_patch(u0, SolveOptions(init="keep"))
        lay = develop(solved)
        assert set(lay.circles) == set(solved.window.vertices())
        assert lay.monodromy_residual <= 10 * report.final_defect + 1e-14

    def test_large_spiral_stays_tangent(self):
        # on the 61x61 window the radii span nine orders of magnitude
        lay = develop(spiral(1.2, 0.85, half=30))
        assert max_tangency_residual(lay) <= 1e-9
        assert min_face_orientation(lay) > 0.0

    @pytest.mark.parametrize("x, y, half", [(1.2, 0.85, 60), (3.0, 1.0, 40), (1.5, 1.5, 60)])
    @BASE_CORNERS
    def test_exact_spiral_tangent_over_the_picture(self, x, y, half, corner):
        # circles of radius ~1e-19 share a float centre with their neighbours
        # on the (3, 1) window; each edge's direction must not come from them.
        # On the (1.5, 1.5) window, placed from its upper left corner, the
        # centres' float error is far above the defects.
        base = None if corner is None else Anchor((corner[0] * half, corner[1] * half))
        lay = develop(spiral(x, y, half), base)
        z, r = lay.centers, lay.radii
        assert np.isfinite(z).all()
        # the larger side of the circles' bounding box
        span = max(np.max(part + r) - np.min(part - r) for part in (z.real, z.imag))
        edges = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1], np.s_[1:]),
                 (np.s_[:-1, 1:], np.s_[1:, :-1]))
        error = max(np.max(np.abs(np.abs(z[a] - z[b]) - (r[a] + r[b]))) for a, b in edges)
        assert error <= 1e-12 * span

    @BASE_CORNERS
    def test_monodromy_is_the_defect_gap_from_every_base(self, corner):
        # the loop gap comes from the defects, not from the centres' float error
        u = spiral(1.4, 1.4, half=60)
        base = None if corner is None else Anchor((corner[0] * 60, corner[1] * 60))
        assert develop(u, base).monodromy_residual <= np.abs(angle_defects(u)).max()

    @pytest.mark.parametrize("window", [Window(0, 4, 0, 0), Window(0, 0, -2, 2)])
    def test_rejects_one_row_or_column(self, window):
        with pytest.raises(ValueError, match="two rows"):
            develop(ScalarField.constant(window, 0.0), Anchor((0, 0)))

    def test_rejects_centres_outside_the_float_range(self):
        # radii exp(708) ~ 3e307 are finite, centres a few diameters from the anchor are not
        with pytest.raises(ValueError, match=r"circle at \(-4, -4\) is placed outside the float range"):
            develop(ScalarField.constant(Window(-4, 4, -4, 4), 708.0))

    @pytest.mark.parametrize("offset", [0, 2**70], ids=["origin", "past-int64"])
    def test_names_a_bad_vertex_without_listing_the_window(self, monkeypatch, offset):
        def shifted(u):
            w = u.window
            return ScalarField(Window(w.m_min + offset, w.m_max + offset,
                                      w.n_min + offset, w.n_max + offset), u.values)

        def at(m, n):
            return f"({m + offset}, {n + offset})"

        unsolved = spiral(1.1, 1.0)
        unsolved[(1, 2)] = unsolved[(1, 2)] + 0.1
        cases = [
            (unsolved, None, f"angle defect 5.722e-02 at {at(1, 1)} exceeds 1e-08"),
            # exp(800) at m = 8 and past it is not a float
            (spiral_field(SpiralParams(1.0, math.exp(100.0), 1.0), Window(-4, 8, -2, 2)), None,
             f"radius exp(800.0) at {at(8, -2)} is not a positive normal float"),
            (spiral_field(SpiralParams(math.exp(709.0), math.exp(0.05), math.exp(0.01)),
                          Window(-4, 4, -4, 4)), None,
             f"tangency distance exp(709.11) + exp(709.1600000000001) from {at(3, -4)} "
             f"to {at(4, -4)} overflows"),
            (ScalarField.constant(Window(-4, 4, -4, 4), 708.0), (-4, -4),
             f"circle at {at(-1, -4)} is placed outside the float range"),
        ]

        def listed(self):
            raise AssertionError("the window's vertices were listed")

        monkeypatch.setattr(Window, "vertices", listed)
        monkeypatch.setattr(Window, "interior_vertices", listed)
        for u, base, message in cases:
            anchor = None if base is None else Anchor((base[0] + offset, base[1] + offset))
            with pytest.raises(ValueError) as info:
                develop(shifted(u), anchor)
            assert str(info.value).startswith(message)

    def test_single_vertex(self):
        lay = develop(ScalarField.constant(Window(3, 3, 5, 5), 0.5), Anchor((3, 5), 1j))
        assert list(lay.circles) == [(3, 5)]
        assert lay.circles[(3, 5)].center == 1j
        assert lay.circles[(3, 5)].radius == pytest.approx(math.exp(0.5), rel=1e-15)


def spiral_centres(x, y):
    """The centres of the spiral r(m, n) = x^m y^n developed with z(0, 0) = 0
    and z(1, 0) = 1 + x, in closed form (Beardon, Dubejko and Stephenson,
    Geom. Dedicata 49, 1994): z(0, 1) and z(1, 1) by the law of cosines on
    the faces A and B at (0, 0); then z(m, n + 1) - O = B (z(m, n) - O) and
    z(m + 1, n) - O = A (z(m, n) - O) about the fixed point O.  Not for
    x = y = 1, where B = 1."""
    def corner(a, b, c):  # the angle between the sides a and b, c opposite
        return math.acos((a * a + b * b - c * c) / (2.0 * a * b))

    z10 = 1.0 + x
    z01 = (1.0 + y) * cmath.exp(1j * corner(1.0 + x, 1.0 + y, x + y))
    # face B = ((1, 0), (1, 1), (0, 1)): (1, 1) lies clockwise of (0, 1) seen from (1, 0)
    turn = cmath.exp(-1j * corner(x + x * y, x + y, y + x * y))
    z11 = z10 + (x + x * y) * (z01 - z10) / abs(z01 - z10) * turn
    b = (z11 - z01) / z10
    o = z01 / (1.0 - b)
    a = 1.0 - z10 / o
    return lambda m, n: o - o * a ** m * b ** n


class TestClosedFormSpiral:
    """``develop`` from (0, 0) against the closed form of the spiral's
    centres, which uses neither ``develop`` nor the angle kernels.  The
    bound is relative to each circle's own radius; (2.0, 0.7) and (3, 1)
    are left out, since from this base their small circles reach the
    float floor ulp(|z|)/r of absolute centres (1.5e-10 and 2.5e-10 at
    21x21)."""

    @pytest.mark.parametrize("x, y, half", [(1.2, 0.85, 20), (0.9, 1.3, 20), (1.05, 1.02, 20),
                                            (0.8, 0.9, 20), (1.4, 1.4, 10), (1.5, 1.5, 10)])
    def test_centres_match_the_closed_form(self, x, y, half):
        lay = develop(spiral(x, y, half), Anchor((0, 0)))
        centre = spiral_centres(x, y)
        assert len(lay.circles) == (2 * half + 1) ** 2
        for (m, n), circle in lay.circles.items():
            assert abs(circle.center - centre(m, n)) <= 1e-10 * circle.radius, (m, n)


class TestBasePositions:
    """One solved 7x9 window developed from its corners, its edge midpoints
    and its center, with the base circle off the origin and a tilted
    anchor direction."""

    ANCHOR_CENTER = 1.5 - 2j
    ANCHOR_DIRECTION = (0.3 + 1j) / abs(0.3 + 1j)

    @pytest.fixture(scope="class")
    def field(self):
        values = np.random.default_rng(71).uniform(-1.5, 1.5, size=(9, 7))
        values[1:-1, 1:-1] = 0.0
        solved, _ = solve_patch(ScalarField(Window(0, 6, 0, 8), values))
        return solved

    @pytest.mark.parametrize("vertex", [(0, 0), (6, 0), (0, 8), (6, 8), (3, 0), (3, 8),
                                        (0, 4), (6, 4), (3, 4),
                                        # numpy integers, as np.argmin returns them
                                        (np.int64(6), np.int64(0)), (np.int64(0), np.int64(0)),
                                        (np.int64(0), np.int64(8)), (np.int64(3), np.int64(4))])
    def test_base_vertex(self, field, vertex):
        lay = develop(field, Anchor(vertex, self.ANCHOR_CENTER, 0.3 + 1j))
        base = lay.circles[vertex]
        assert base.center == self.ANCHOR_CENTER
        first = next(w for w in neighbors(vertex) if field.window.contains(w))
        distance = base.radius + lay.circles[first].radius
        expected = self.ANCHOR_CENTER + distance * self.ANCHOR_DIRECTION
        assert abs(lay.circles[first].center - expected) <= 1e-12 * distance
        assert max_tangency_residual(lay) <= 1e-10
        assert min_face_orientation(lay) > 0.0
        # the same packing as the one based at the center, up to a rigid motion
        z = np.array([c.center for c in lay.circles.values()])
        z_ref = np.array([c.center for c in develop(field).circles.values()])
        pairs = np.abs(z[:, None] - z[None, :])
        pairs_ref = np.abs(z_ref[:, None] - z_ref[None, :])
        off_diagonal = ~np.eye(len(z), dtype=bool)
        assert np.allclose(pairs[off_diagonal], pairs_ref[off_diagonal], rtol=1e-9, atol=0.0)

    def test_non_integer_vertex_rejected(self):
        with pytest.raises(ValueError, match=r"\(1\.5, 0\)"):
            Anchor((1.5, 0))

    @pytest.mark.parametrize("direction", [0j, 0.0, complex(math.nan, 1.0), math.inf])
    def test_direction_must_be_a_nonzero_finite_vector(self, direction):
        with pytest.raises(ValueError, match="direction must be a nonzero vector"):
            Anchor((0, 0), direction=direction)

    @pytest.mark.parametrize("direction", [5e-324 + 5e-324j, 1e-320 + 1e-320j,
                                           1.5e308 + 1.5e308j])
    def test_direction_of_any_finite_size_is_normalised(self, direction):
        anchor = Anchor((0, 0), direction=direction)
        assert abs(anchor.direction - (1 + 1j) / math.sqrt(2.0)) <= 2.3e-16
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        assert max_tangency_residual(develop(u, anchor)) <= 1e-14

    @pytest.mark.parametrize("center", [complex(math.inf, 0.0), complex(0.0, math.nan)])
    def test_center_must_be_finite(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            Anchor((0, 0), center=center)

    @pytest.mark.parametrize("vertex", [None, (-4, -4), (4, 4), (-4, 4)])
    def test_window_of_numpy_integers(self, vertex):
        # the same layout, SVG and JSON as on the window of Python ints
        base = None if vertex is None else Anchor(vertex)
        layouts = [develop(spiral_field(SpiralParams(1.0, 1.2, 0.85), window), base)
                   for window in (Window(*(np.int64(c) for c in (-4, 4, -4, 4))),
                                  Window(-4, 4, -4, 4))]
        assert max_tangency_residual(layouts[0]) <= 1e-12
        assert render_svg(layouts[0]) == render_svg(layouts[1])
        assert layout_to_json(layouts[0]) == layout_to_json(layouts[1])


class TestCircle:
    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            Circle(0j, radius)

    @pytest.mark.parametrize("center", [complex(math.inf, 0.0), complex(0.0, math.nan)])
    def test_center_must_be_finite(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            Circle(center, 1.0)


class TestLocalUnivalence:
    def test_regular_field(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        assert check_local_univalence(u, (0, 0))

    def test_all_spirals_locally_univalent(self):
        win = Window(-2, 2, -2, 2)
        for x in np.linspace(0.5, 2.0, 21):
            for y in np.linspace(0.5, 2.0, 21):
                u = spiral_field(SpiralParams(1.0, x, y), win)
                for v in win.interior_vertices():
                    assert check_local_univalence(u, v)

    def test_detects_angle_sum_failure(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        u[(0, 0)] = 0.5
        assert not check_local_univalence(u, (0, 0))

    def test_needs_interior_vertex(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        with pytest.raises(ValueError):
            check_local_univalence(u, (2, 2))


class TestUnivalentFlower:
    def test_regular_flower(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        assert check_univalent_flower(u, (0, 0))

    def test_mild_spiral_is_univalent(self):
        assert check_univalent_flower(spiral(1.05, 1.0), (0, 0))

    def test_steep_spiral_is_not(self):
        assert not check_univalent_flower(spiral(12.0, 1.0), (0, 0))

    def test_boundary_of_univalence(self):
        below = UNIVALENCE_BREAK_X - 0.05
        above = UNIVALENCE_BREAK_X + 0.05
        assert check_univalent_flower(spiral(below, 1.0), (0, 0))
        assert not check_univalent_flower(spiral(above, 1.0), (0, 0))

    def test_closure_failure_disqualifies(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        u[(0, 0)] = 1.5  # big center circle: petals sparse, sum far below 2*pi
        assert not check_univalent_flower(u, (0, 0))

    def test_petals_tangent_to_center(self):
        circles = develop_flower(spiral(1.3, 0.8), (0, 0))
        center = circles[0]
        for petal in circles[1:]:
            gap = abs(petal.center - center.center) - (petal.radius + center.radius)
            assert abs(gap) <= 1e-12 * (petal.radius + center.radius)

    def test_univalent_flower_implies_local_univalence(self):
        rng = np.random.default_rng(53)
        win = Window(-2, 2, -2, 2)
        cases = 0
        for _ in range(300):
            if rng.random() < 0.5:
                x, y = np.exp(rng.uniform(-2.5, 2.5, size=2))
                u = spiral_field(SpiralParams(1.0, float(x), float(y)), win)
            else:
                u = ScalarField(win, rng.uniform(-1.5, 1.5, size=(5, 5)))
            if check_univalent_flower(u, (0, 0)):
                cases += 1
                assert check_local_univalence(u, (0, 0))
        assert cases > 0


class TestFlowerScale:
    """The flower checks depend on the flower's shape, not on its scale."""

    FLOWERS = {
        "spiral": spiral(1.3, 0.9, half=1),
        "steep spiral": spiral(12.0, 1.0, half=1),
        "random": ScalarField(Window(-1, 1, -1, 1),
                              np.random.default_rng(61).uniform(-1.0, 1.0, size=(3, 3))),
    }
    FLOWERS["solved random"] = solve_patch(FLOWERS["random"])[0]

    @pytest.mark.parametrize("name", sorted(FLOWERS))
    @pytest.mark.parametrize("shift", [710.0, -745.5, 800.0, -800.0, 1e5, -1e5])
    def test_shift_leaves_verdicts_unchanged(self, name, shift):
        u = self.FLOWERS[name]
        shifted = ScalarField(u.window, u.values + shift)
        for check in (check_univalent_flower, check_local_univalence):
            assert check(shifted, (0, 0)) == check(u, (0, 0))

    def test_verdicts_cover_both_outcomes(self):
        verdicts = {check_univalent_flower(u, (0, 0)) for u in self.FLOWERS.values()}
        assert verdicts == {True, False}

    def test_ratio_above_the_float_range_is_inf(self):
        u = ScalarField.constant(Window(-1, 1, -1, 1), 0.0)
        u[(0, 0)] = -800.0
        assert flower_ratio_check(u, (0, 0)) == math.inf

    @pytest.mark.parametrize("value", [710.0, -745.5])
    def test_develop_flower_names_a_radius_outside_the_normal_range(self, value):
        u = ScalarField.constant(Window(-1, 1, -1, 1), value)
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            develop_flower(u, (0, 0))

    def test_develop_flower_names_an_overflowing_tangency_distance(self):
        # every radius exp(709.5) is a normal float, but the sum of two is not
        u = ScalarField.constant(Window(-1, 1, -1, 1), 709.5)
        with pytest.raises(ValueError, match=r"tangency distance .* from \(0, 0\) to \(1, 0\) "
                                             r"overflows"):
            develop_flower(u, (0, 0))


class TestRatioBounds:
    def test_spiral_ratio(self):
        assert ring_ratio_bound(spiral(1.3, 1.0)) == pytest.approx(1.3, abs=1e-12)

    def test_regular_ratio(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        assert ring_ratio_bound(u) == pytest.approx(1.0, abs=1e-14)

    def test_concave_parabola_ratio(self):
        # forward difference of -m^2 is -(2m+1); direct enumeration oracle
        def field_on(m_lo, m_hi):
            w = Window(m_lo, m_hi, 0, 1)
            return ScalarField.from_function(w, lambda v: float(-v[0] ** 2))

        expected = lambda m_lo, m_hi: math.exp(
            min(-(2 * m + 1) for m in range(m_lo, m_hi))
        )
        assert ring_ratio_bound(field_on(-3, 4)) == pytest.approx(
            expected(-3, 4), rel=1e-12
        )
        assert expected(-3, 4) == pytest.approx(math.exp(-7), rel=1e-15)
        assert ring_ratio_bound(field_on(-3, 3)) == pytest.approx(
            expected(-3, 3), rel=1e-12
        )

    def test_flower_ratio_regular(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        assert flower_ratio_check(u, (0, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_flower_ratio_spiral_enumeration(self):
        u = spiral(1.3, 0.9)
        uv = u[(0, 0)]
        expected = min(math.exp(u[w] - uv) for w in neighbors((0, 0)))
        assert flower_ratio_check(u, (0, 0)) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.9 / 1.3, abs=1e-14)

    def test_univalent_flowers_have_bounded_ratio(self):
        rng = np.random.default_rng(59)
        win = Window(-1, 1, -1, 1)
        seen = 0
        for _ in range(1000):
            x, y = np.exp(rng.uniform(-math.log(12), math.log(12), size=2))
            u = spiral_field(SpiralParams(1.0, float(x), float(y)), win)
            if check_univalent_flower(u, (0, 0)):
                seen += 1
                assert flower_ratio_check(u, (0, 0)) >= 0.04
        assert seen > 100


class TestLayoutArrays:
    def test_arrays_of_the_wrong_shape_raise(self):
        w = Window(0, 1, 0, 1)
        with pytest.raises(ValueError, match="do not fit Window"):
            Layout(w, np.zeros((2, 3), dtype=complex), np.ones((2, 2)), Anchor((0, 0)))
        with pytest.raises(ValueError, match="do not fit Window"):
            Layout(w, np.zeros((2, 2), dtype=complex), np.ones((3, 2)), Anchor((0, 0)))

    def test_no_circle_outside_the_window(self):
        # a circle keyed by a vertex outside the window once wrapped to (1, 0)
        w = Window(0, 1, 0, 1)
        with pytest.raises(ValueError, match="do not fit Window"):
            Layout(w, {(-1, 0): 5j}, {(-1, 0): 2.0}, Anchor((0, 0)))
        centers = np.full((2, 2), np.nan, dtype=complex)
        radii = np.full((2, 2), np.nan)
        centers[0, 1], radii[0, 1] = 5j, 2.0
        lay = Layout(w, centers, radii, Anchor((0, 0)))
        assert dict(lay.circles) == {(1, 0): Circle(5j, 2.0)}

    def test_arrays_are_read_only_copies(self):
        centers, radii = np.zeros((2, 2), dtype=complex), np.ones((2, 2))
        lay = Layout(Window(0, 1, 0, 1), centers, radii, Anchor((0, 0)))
        centers[0, 0], radii[0, 0] = 1j, 3.0
        assert lay.centers[0, 0] == 0j and lay.radii[0, 0] == 1.0
        with pytest.raises(ValueError):
            lay.radii[0, 0] = 2.0
        assert centers.flags.writeable and radii.flags.writeable


class TestLayoutJson:
    def test_round_trip_bit_exact(self):
        lay = develop(spiral(1.2, 0.9))
        circles = circles_from_json(layout_to_json(lay))
        assert set(circles) == set(lay.circles)
        for v, c in lay.circles.items():
            assert circles[v].center == c.center
            assert circles[v].radius == c.radius

    def test_json_fields(self):
        lay = develop(ScalarField.constant(Window(0, 1, 0, 1), 0.0), Anchor((0, 0)))
        entries = json.loads(layout_to_json(lay))
        assert all(set(e) == {"m", "n", "cx", "cy", "r"} for e in entries)
        assert len(entries) == 4

    def test_empty_layout_serializes(self):
        lay = Layout(Window(0, 1, 0, 1), np.full((2, 2), np.nan, dtype=complex),
                     np.full((2, 2), np.nan), Anchor((0, 0)))
        assert json.loads(layout_to_json(lay)) == []
