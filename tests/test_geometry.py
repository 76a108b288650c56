"""Angle function, inner angles, and gradient checks against independent
oracles: the law of cosines on explicit side lengths, and central finite
differences; the face kernel on windows and on flowers' ring faces against
the scalar functions."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hexpack.geometry import (
    AngleGradient,
    _edge_partials,
    angle_gradient,
    dtheta_dx1,
    dtheta_dx1_array,
    face_angles,
    face_partials,
    inner_angles,
    theta,
)

SQRT3 = math.sqrt(3.0)


def cosine_law_angles(r1, r2, r3):
    """Oracle: triangle angles from explicit tangent-circle side lengths."""
    side23 = r2 + r3
    side13 = r1 + r3
    side12 = r1 + r2

    def angle(opposite, s1, s2):
        return math.acos((s1 * s1 + s2 * s2 - opposite * opposite) / (2.0 * s1 * s2))

    return (
        angle(side23, side12, side13),
        angle(side13, side12, side23),
        angle(side12, side13, side23),
    )


def fd_dtheta(x1, x2, h=1e-6):
    """Oracle: central finite difference of theta in its first argument."""
    return (theta(x1 + h, x2) - theta(x1 - h, x2)) / (2.0 * h)


class TestTheta:
    def test_equilateral(self):
        assert theta(0.0, 0.0) == pytest.approx(math.pi / 3.0, abs=1e-15)

    def test_double_radii_matches_cosine_law(self):
        # radii (1, 2, 2) give sides (3, 3, 4); angle at the unit circle
        expected = math.acos(1.0 / 9.0)
        assert theta(math.log(2.0), math.log(2.0)) == pytest.approx(expected, abs=1e-14)
        oracle = cosine_law_angles(1.0, 2.0, 2.0)[0]
        assert theta(math.log(2.0), math.log(2.0)) == pytest.approx(oracle, abs=1e-14)

    def test_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = rng.uniform(-3.0, 3.0, size=2)
            assert theta(a, b) == pytest.approx(theta(b, a), abs=1e-14)

    def test_matches_direct_arccos_form(self):
        # oracle: the raw law-of-cosines expression, safe at moderate arguments
        rng = np.random.default_rng(12)
        for _ in range(200):
            x1, x2 = rng.uniform(-5.0, 5.0, size=2)
            p, q = math.exp(x1), math.exp(x2)
            num = (1 + p) ** 2 + (1 + q) ** 2 - (p + q) ** 2
            den = 2.0 * (1 + p) * (1 + q)
            expected = math.acos(max(-1.0, min(1.0, num / den)))
            assert theta(x1, x2) == pytest.approx(expected, abs=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            theta(math.nan, 0.0)
        with pytest.raises(ValueError):
            theta(0.0, math.inf)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_range_open_interval(self, x1, x2):
        t = theta(x1, x2)
        assert 0.0 < t < math.pi

    def test_extreme_arguments_stay_finite(self):
        # far beyond the overflow point of e^x; at these magnitudes the true
        # angle rounds to 0 or pi, so only closed bounds are representable
        for x1, x2 in [(800.0, 0.0), (-800.0, 0.0), (900.0, 900.0), (-900.0, 900.0)]:
            t = theta(x1, x2)
            assert math.isfinite(t)
            assert 0.0 <= t <= math.pi
        # strict interior holds wherever doubles can express it
        assert 0.0 < theta(-100.0, 0.0)
        assert theta(50.0, 50.0) < math.pi

    def test_half_exponent_past_the_exp_range(self):
        # the half exponent of (1500, 1500) is about 749.7, where e^h overflows
        assert theta(1500.0, 1500.0) == math.pi
        angles = inner_angles((0.0, 1500.0, 1500.0))
        assert all(0.0 <= a <= math.pi for a in angles)
        assert sum(angles) == pytest.approx(math.pi, abs=1e-15)


class TestInnerAngles:
    def test_equilateral(self):
        angles = inner_angles((0.0, 0.0, 0.0))
        for a in angles:
            assert a == pytest.approx(math.pi / 3.0, abs=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            u = rng.uniform(-2.0, 2.0, size=3)
            lam = rng.uniform(-10.0, 10.0)
            base = inner_angles(tuple(u))
            shifted = inner_angles(tuple(u + lam))
            for a, b in zip(base, shifted):
                assert a == pytest.approx(b, abs=1e-12)

    def test_against_cosine_law_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            u = rng.uniform(-5.0, 5.0, size=3)
            got = inner_angles(tuple(u))
            expected = cosine_law_angles(*(math.exp(x) for x in u))
            for a, b in zip(got, expected):
                assert abs(a - b) <= 1e-12
            assert abs(sum(got) - math.pi) <= 1e-12

    def test_named_example_vs_oracle(self):
        got = inner_angles((0.0, math.log(2.0), math.log(2.0)))
        expected = cosine_law_angles(1.0, 2.0, 2.0)
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-12


class TestDthetaDx1:
    def test_equilateral_value(self):
        assert dtheta_dx1(0.0, 0.0) == pytest.approx(1.0 / (2.0 * SQRT3), abs=1e-15)

    def test_finite_difference_grid(self):
        for x1 in np.linspace(-3.0, 3.0, 21):
            for x2 in np.linspace(-3.0, 3.0, 21):
                assert abs(dtheta_dx1(x1, x2) - fd_dtheta(x1, x2)) <= 1e-6

    def test_below_one_random(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(-10.0, 10.0, size=(1000, 2))
        for x1, x2 in pts:
            d = dtheta_dx1(x1, x2)
            assert 0.0 < d < 1.0

    def test_decays_for_large_first_argument(self):
        assert dtheta_dx1(30.0, 0.0) < 1e-6

    @pytest.mark.parametrize("x1, x2, exact", [
        # the values rounded from 50-digit arithmetic
        (0.05, 512.0, 0.4998437906797647),
        (2.0, 300.5, 0.3240271368319427),
        (-3.0, 700.0, 0.21254801747114024),
    ])
    def test_large_second_argument_loses_no_digits(self, x1, x2, exact):
        # x2 cancels against log(1 + e^x1 + e^x2); subtracting the two in floats
        # rounds at the scale of x2 and was 1.1e-14 off at x2 = 512
        assert abs(dtheta_dx1(x1, x2) - exact) <= 2e-16

    def test_array_variant_matches_scalar(self):
        rng = np.random.default_rng(32)
        x1 = rng.uniform(-6.0, 6.0, size=64)
        x2 = rng.uniform(-6.0, 6.0, size=64)
        vec = dtheta_dx1_array(x1, x2)
        for a, b, v in zip(x1, x2, vec):
            assert v == pytest.approx(dtheta_dx1(a, b), abs=1e-15)


def ring_corners(x):
    """The corners (centre, petal k, petal k+1) of the six faces of flowers
    with petal offsets x (..., 6)."""
    return 0.0, x, x[..., [1, 2, 3, 4, 5, 0]]


def flower_angles(x):
    """The six angles at flower centres with petal offsets x (..., 6), and
    their partials in petals k and k+1, from the face kernel on the ring faces."""
    corners = ring_corners(np.asarray(x, dtype=float))
    _, d_second, d_first = face_partials(*corners)
    return face_angles(*corners)[0], d_first, d_second


class TestFlowerAngles:
    @given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
    @settings(max_examples=300, derandomize=True, deadline=None)
    # rings of log-radius spread ~500, where the kernel and theta lose the same bits
    @example([0.0, 0.05, 512.0, 0.0, 0.0, 0.0])
    @example([0.0, 0.0, 0.0, 0.0, 510.0, 2.000000000000379])
    def test_faces_match_scalar_reference(self, ring):
        # face k of the ring is theta on the consecutive petals k, k+1
        angles, d_first, d_second = flower_angles(np.array([ring]))
        for k in range(6):
            a, b = ring[k], ring[(k + 1) % 6]
            assert abs(angles[0, k] - theta(a, b)) <= 1e-14
            assert abs(d_first[0, k] - dtheta_dx1(a, b)) <= 1e-14
            assert abs(d_second[0, k] - dtheta_dx1(b, a)) <= 1e-14

    def test_regular_flower(self):
        angles, d_first, d_second = flower_angles(np.zeros((3, 6)))
        assert angles.shape == d_first.shape == d_second.shape == (3, 6)
        assert np.allclose(angles, math.pi / 3.0, rtol=0.0, atol=1e-15)
        assert np.allclose(d_first, dtheta_dx1(0.0, 0.0), rtol=0.0, atol=1e-15)

    def test_extreme_differences_do_not_overflow(self):
        rows = np.array([[s1 * 1e3, s2 * 1e3, s3 * 1e3, -1e3, 0.0, 1e3]
                         for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            angles, d_first, d_second = flower_angles(rows)
        assert np.all((angles >= 0.0) & (angles <= math.pi))
        assert np.all(np.isfinite(d_first)) and np.all(np.isfinite(d_second))


def out_of_place_angles(p, q, r):
    """Oracle: the angles of ``face_angles`` with a fresh array per operation,
    in the kernel's order of operations, so that they agree bit for bit."""
    x1, x2 = q - p, r - p
    m = np.maximum(0.0, np.maximum(x1, x2))
    half = 0.5 * (x1 + x2 - (m + np.log(np.exp(-m) + np.exp(x1 - m) + np.exp(x2 - m))))
    corners = np.stack([half, half - x1, half - x2])
    small = 2.0 * np.arctan(np.exp(-np.abs(corners)))
    return np.where(corners > 0.0, math.pi - small, small)


class TestFaceKernel:
    """``face_angles`` and ``face_partials`` against ``theta`` and
    ``dtheta_dx1``, within 8 ulp times (1 + the spread of the log radii)."""

    @given(st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_scalar_reference(self, u):
        tol = 8.0 * np.finfo(float).eps * (1.0 + max(u) - min(u))
        angles = face_angles(*(np.array([x]) for x in u))[:, 0]
        partials = face_partials(*(np.array([x]) for x in u))[:, 0]
        # corner i with its partners in order, and the edge opposite corner i
        for i, (a, b, c) in enumerate((u, u[1:] + u[:1], u[2:] + u[:2])):
            assert abs(angles[i] - theta(b - a, c - a)) <= tol
            for x, y in ((b, c), (c, b)):
                expected = dtheta_dx1(y - x, a - x)
                assert abs(partials[i] - expected) <= tol * max(expected, sys.float_info.min)
        assert abs(angles.sum() - math.pi) <= tol

    @pytest.mark.parametrize("scale", [1e3, 1e5])
    def test_extreme_log_radii_raise_no_float_errors(self, scale):
        u = np.array(list(itertools.product((-scale, 0.0, scale), repeat=3))).T
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            angles, partials = face_angles(*u), face_partials(*u)
        assert np.all((angles >= 0.0) & (angles <= math.pi))
        assert np.all(np.isfinite(partials) & (partials >= 0.0))

    @pytest.mark.parametrize("spread", [1.0, 30.0, 1e3, 1e5])
    def test_edge_partials_into_a_buffer_match_scalar_reference(self, spread):
        u = np.random.default_rng(int(spread)).uniform(-spread / 2, spread / 2, size=(3, 200))
        u[:, :27] = np.array(list(itertools.product((-spread / 2, 0.0, spread / 2), repeat=3))).T
        p, q, r = u
        out = np.full((3, u.shape[1]), np.nan)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _edge_partials(np.stack([r - q, r - p, q - p]), out=out)
        assert got is out
        for face, (a, b, c) in enumerate(u.T):
            tol = 8.0 * np.finfo(float).eps * (1.0 + max(a, b, c) - min(a, b, c))
            # edge qr opposite p, rp opposite q, pq opposite r
            for k, (opposite, x, y) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
                expected = dtheta_dx1(y - x, opposite - x)
                assert abs(out[k, face] - expected) <= tol * max(expected, sys.float_info.min)

    @pytest.mark.parametrize("spread", [1.0, 30.0, 1e3, 1e300])
    def test_angles_in_place_match_the_out_of_place_form(self, spread):
        u = np.random.default_rng(int(math.log10(spread))).uniform(-spread, spread, (3, 500))
        u[:, :27] = np.array(list(itertools.product((-spread, 0.0, spread), repeat=3))).T
        assert np.array_equal(face_angles(*u), out_of_place_angles(*u))
        ring = u.T.reshape(-1, 6)
        assert np.array_equal(face_angles(*ring_corners(ring)),
                              out_of_place_angles(*ring_corners(ring)))
        u[0, 0] = math.inf
        with np.errstate(invalid="ignore"):
            assert np.array_equal(face_angles(*u), out_of_place_angles(*u), equal_nan=True)

    def test_infinite_differences_give_nan(self):
        corners = [np.zeros((3, 1)) for _ in range(6)]
        for i, c in enumerate(corners):
            c[i // 2] = math.inf if i % 2 else -math.inf
        x = np.zeros((3, 6))
        x[np.arange(6) // 2, np.arange(6)] = np.where(np.arange(6) % 2, math.inf, -math.inf)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for u in corners:
                assert np.isnan(face_partials(*u)).all()
            assert np.isnan(_edge_partials(x)).all()


class TestAngleGradient:
    def test_equilateral_values(self):
        g = angle_gradient((0.0, 0.0, 0.0), 1)
        assert g.d1 == pytest.approx(-1.0 / SQRT3, abs=1e-14)
        assert g.d2 == pytest.approx(1.0 / (2.0 * SQRT3), abs=1e-14)
        assert g.d3 == pytest.approx(1.0 / (2.0 * SQRT3), abs=1e-14)

    def test_finite_difference_cross_check(self):
        u = (0.3, -0.4, 0.1)
        h = 1e-6
        for i in (1, 2, 3):
            g = angle_gradient(u, i)
            for j in (1, 2, 3):
                up = list(u)
                dn = list(u)
                up[j - 1] += h
                dn[j - 1] -= h
                fd = (inner_angles(tuple(up))[i - 1] - inner_angles(tuple(dn))[i - 1]) / (2 * h)
                assert abs(g.as_tuple()[j - 1] - fd) <= 1e-8

    def test_symmetry_of_mixed_partials(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            u = tuple(rng.uniform(-3.0, 3.0, size=3))
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    if i == j:
                        continue
                    dij = angle_gradient(u, i).as_tuple()[j - 1]
                    dji = angle_gradient(u, j).as_tuple()[i - 1]
                    assert abs(dij - dji) <= 1e-12

    def test_zero_row_sum_and_signs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            u = tuple(rng.uniform(-4.0, 4.0, size=3))
            for i in (1, 2, 3):
                g = angle_gradient(u, i)
                assert g.d1 + g.d2 + g.d3 == pytest.approx(0.0, abs=1e-12)
                parts = g.as_tuple()
                assert parts[i - 1] < 0.0
                for j in (1, 2, 3):
                    if j != i:
                        assert 0.0 < parts[j - 1] < 1.0

    def test_bad_vertex_index(self):
        with pytest.raises(ValueError):
            angle_gradient((0.0, 0.0, 0.0), 4)

    def test_is_dataclass_with_tuple_view(self):
        g = AngleGradient(-0.5, 0.25, 0.25)
        assert g.as_tuple() == (-0.5, 0.25, 0.25)
