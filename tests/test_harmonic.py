"""Edge weights by segment quadrature, the harmonicity residual, volume
growth, and random-walk experiments.

The load-bearing oracle here is the difference identity: for any field,
the weighted residual at a vertex equals the angle-sum difference between
the vertex and its translate, which ties the quadrature, the face
bookkeeping, and the gradient formula together end to end.
"""

import json
import math

import numpy as np
import pytest

from hexpack.harmonic import (
    EdgeWeights,
    MissingEdgeError,
    Quadrature,
    WalkReport,
    WindowTooSmallError,
    compute_edge_weights,
    eta,
    harmonic_residual,
    harmonic_residuals,
    random_walk_return,
    segment,
    volume,
)
from hexpack.geometry import face_partials
from hexpack.lattice import (ScalarField, Window, ball, edge_sums, faces, faces_containing_edge,
                             neighbors)
from hexpack.solver import SolveOptions, angle_sum, solve_patch
from hexpack.spiral import SpiralParams, spiral_field

SQRT3 = math.sqrt(3.0)


def wavy_field(window, amp=0.3):
    """A smooth non-spiral field for generic-position checks."""
    return ScalarField.from_function(
        window,
        lambda v: amp * math.sin(0.4 * v[0]) + 0.25 * math.cos(0.3 * v[1])
        + 0.005 * v[0] * v[1],
    )


class TestSegment:
    def test_endpoints(self):
        u = wavy_field(Window(-4, 5, -4, 4))
        face = faces_containing_edge((0, 0), (1, 0))[0]
        assert segment(u, face, 0.0) == tuple(u[v] for v in face)
        assert segment(u, face, 1.0) == tuple(u[(v[0] + 1, v[1])] for v in face)

    def test_spiral_segments_shift_by_log_ratio(self):
        u = spiral_field(SpiralParams(1.0, 1.4, 0.9), Window(-3, 4, -3, 3))
        face = faces_containing_edge((0, 0), (0, 1))[0]
        start = segment(u, face, 0.0)
        for t in (0.25, 0.5, 0.75):
            got = segment(u, face, t)
            for a, b in zip(got, start):
                assert a - b == pytest.approx(t * math.log(1.4), abs=1e-13)

    def test_translate_outside_window(self):
        u = wavy_field(Window(0, 2, 0, 2))
        face = faces_containing_edge((1, 1), (2, 1))[0]
        with pytest.raises(WindowTooSmallError):
            segment(u, face, 0.5)

    def test_parameter_range(self):
        u = wavy_field(Window(-3, 3, -3, 3))
        face = faces_containing_edge((0, 0), (1, 0))[0]
        with pytest.raises(ValueError):
            segment(u, face, 1.5)


class TestEta:
    def test_uniform_field_value(self):
        u = ScalarField.constant(Window(-3, 4, -3, 3), 0.0)
        for w in neighbors((0, 0)):
            assert eta(u, (0, 0), w) == pytest.approx(1.0 / SQRT3, abs=1e-14)
        # constant integrand: the quadrature order cannot matter
        assert eta(u, (0, 0), (1, 0), Quadrature(order=64)) == pytest.approx(
            1.0 / SQRT3, abs=1e-15
        )

    def test_orientation_symmetry(self):
        u = wavy_field(Window(-4, 5, -4, 4))
        for w in neighbors((0, 0)):
            assert abs(eta(u, (0, 0), w) - eta(u, w, (0, 0))) <= 1e-12

    def test_bounds_on_spiral_fields(self):
        rng = np.random.default_rng(3)
        win = Window(-3, 4, -3, 3)
        for _ in range(20):
            x, y = rng.uniform(0.4, 2.5, size=2)
            u = spiral_field(SpiralParams(1.0, x, y), win)
            for w in neighbors((0, 0)):
                value = eta(u, (0, 0), w)
                assert 0.0 < value < 2.0

    def test_quadrature_convergence(self):
        u = wavy_field(Window(-4, 5, -4, 4))
        v, w = (0, 0), (1, 0)
        assert abs(
            eta(u, v, w, Quadrature(order=32)) - eta(u, v, w, Quadrature(order=16))
        ) <= 1e-12
        assert abs(
            eta(u, v, w, Quadrature(order=64)) - eta(u, v, w, Quadrature(order=32))
        ) <= 1e-13

    def test_spiral_integrand_is_constant(self):
        u = spiral_field(SpiralParams(1.0, 1.3, 0.8), Window(-3, 4, -3, 3))
        v, w = (0, 0), (0, 1)
        assert abs(
            eta(u, v, w, Quadrature(order=2)) - eta(u, v, w, Quadrature(order=64))
        ) <= 1e-14

    def test_adjacency_required(self):
        u = ScalarField.constant(Window(-3, 3, -3, 3), 0.0)
        with pytest.raises(ValueError):
            eta(u, (0, 0), (2, 0))

    def test_edge_too_close_to_window_edge(self):
        u = ScalarField.constant(Window(0, 3, 0, 3), 0.0)
        with pytest.raises(WindowTooSmallError):
            eta(u, (2, 1), (3, 1))

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            Quadrature(order=1)
        with pytest.raises(ValueError):
            Quadrature(rule="simpson")


class TestHarmonicResidual:
    def test_zero_on_constant_field(self):
        u = ScalarField.constant(Window(-3, 4, -3, 3), 0.0)
        assert harmonic_residual(u, (0, 0)) == 0.0

    def test_zero_on_spiral_field(self):
        u = spiral_field(SpiralParams(1.0, 1.2, 0.9), Window(-3, 4, -3, 3))
        assert abs(harmonic_residual(u, (0, 0))) <= 1e-12

    def test_difference_identity_on_arbitrary_field(self):
        # residual == angle_sum(translate(v)) - angle_sum(v), for any field
        u = wavy_field(Window(-5, 6, -5, 5))
        for v in [(0, 0), (1, -2), (-2, 2)]:
            lhs = harmonic_residual(u, v)
            rhs = angle_sum(u, (v[0] + 1, v[1])) - angle_sum(u, v)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_small_on_solved_patch(self):
        w = Window(-4, 4, -4, 4)
        exact = spiral_field(SpiralParams(1.0, 1.15, 0.9), w)
        u0 = exact.copy()
        rng = np.random.default_rng(9)
        for v in w.interior_vertices():
            u0[v] = exact[v] + rng.uniform(-0.2, 0.2)
        solved, _ = solve_patch(u0, SolveOptions(init="keep"))
        weights = compute_edge_weights(solved)
        for v in [(0, 0), (-1, 1), (1, 0)]:
            assert abs(harmonic_residual(solved, v, weights=weights)) <= 1e-9

    def test_small_on_generic_solved_boundary(self):
        # the residual vanishes on any solved patch, spiral or not
        rng = np.random.default_rng(10)
        w = Window(-5, 5, -5, 5)
        u0 = ScalarField.constant(w, 0.0)
        for v in w.boundary_vertices():
            u0[v] = rng.uniform(-0.5, 0.5)
        solved, report = solve_patch(u0)
        assert report.converged
        weights = compute_edge_weights(solved)
        for v in [(0, 0), (2, -2), (-3, 1), (1, 3)]:
            assert abs(harmonic_residual(solved, v, weights=weights)) <= 1e-9

    def test_window_too_small(self):
        # neighbor (2, 1) translates to (3, 1), outside this window
        u = ScalarField.constant(Window(0, 2, 0, 2), 0.0)
        with pytest.raises(WindowTooSmallError):
            harmonic_residual(u, (1, 1))


class TestEdgeWeights:
    def test_uniform_constructor_and_lookup(self):
        w = Window(-2, 2, -2, 2)
        ew = EdgeWeights.uniform(w, 0.25)
        assert ew.get((0, 0), (1, 0)) == 0.25
        assert ew.get((1, 0), (0, 0)) == 0.25
        assert ew.complete_at((0, 0))
        assert not ew.complete_at((2, 2))

    def test_bounds_validation(self):
        w = Window(-1, 1, -1, 1)
        with pytest.raises(ValueError):
            EdgeWeights.uniform(w, 2.5)
        with pytest.raises(ValueError):
            EdgeWeights.uniform(w, 0.0)

    def test_missing_edge(self):
        ew = EdgeWeights(Window(-1, 1, -1, 1), np.full((3, 3, 3), np.nan))
        with pytest.raises(MissingEdgeError):
            ew.get((0, 0), (1, 0))

    def test_computed_weights_are_symmetrized_averages(self):
        u = wavy_field(Window(-4, 5, -4, 4))
        ew = compute_edge_weights(u)
        v, w = (0, 0), (1, 0)
        expected = 0.5 * (eta(u, v, w) + eta(u, w, v))
        assert ew.get(v, w) == pytest.approx(expected, abs=1e-15)

    def test_values_of_the_wrong_shape_raise(self):
        w = Window(-1, 1, -1, 1)
        with pytest.raises(ValueError, match="do not fit window"):
            EdgeWeights(w, np.full((3, 3, 4), 0.5))
        with pytest.raises(ValueError, match="do not fit window"):
            EdgeWeights(w, {((0, 0), (1, 0)): 0.5})

    def test_slots_of_edges_leaving_the_window_are_dropped(self):
        w = Window(-1, 2, -1, 1)
        ew = EdgeWeights(w, np.full((3, w.n_count, w.m_count), 0.5))
        assert ew.to_csv() == EdgeWeights.uniform(w, 0.5).to_csv()
        assert all(w.contains(a) and w.contains(b) for a, b, _ in ew.edges())
        assert len(ew) == 4 * 2 + 3 * 2 + 3 * 3  # along (0, 1), (1, -1) and (1, 0)

    def test_constructor_copies_values(self):
        values = np.full((3, 3, 3), np.nan)
        ew = EdgeWeights(Window(-1, 1, -1, 1), values)
        values[2, 1, 1] = 0.5
        assert not ew.has((0, 0), (1, 0))

    def test_stored_weight_out_of_range_names_its_edge(self):
        values = np.full((3, 3, 3), np.nan)
        values[2, 1, 1] = 2.0
        with pytest.raises(ValueError, match=r"edge weight on \(\(0, 0\), \(1, 0\)\) must lie in "
                                             r"\(0, 2\), got 2\.0"):
            EdgeWeights(Window(-1, 1, -1, 1), values)

    def test_csv_format(self):
        ew = EdgeWeights.uniform(Window(0, 1, 0, 0), 1.0 / SQRT3)
        text = ew.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "m1,n1,m2,n2,eta"
        assert lines[1].startswith("0,0,1,0,")
        assert float(lines[1].split(",")[-1]) == pytest.approx(1.0 / SQRT3, abs=1e-16)


def test_weights_overflowing_to_nan_raise():
    # differences of log radii +-9e307 overflow to inf and the partials to NaN
    signs = np.where(np.indices((5, 5)).sum(axis=0) % 2, -1.0, 1.0)
    u = ScalarField(Window(-2, 2, -2, 2), 9e307 * signs)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="edge weight on"):
        compute_edge_weights(u)
    # a NaN weight on an edge with two faces is not a missing one
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^edge weight on \(\(-2, -1\), \(-1, -2\)\) must lie in \(0, 2\), "
                              r"got nan$"):
        compute_edge_weights(u)


def window_edges(window):
    return [(v, (v[0] + dm, v[1] + dn)) for v in window.vertices()
            for dm, dn in ((0, 1), (1, -1), (1, 0)) if window.contains((v[0] + dm, v[1] + dn))]


REFERENCE_FIELDS = {
    "wavy": wavy_field(Window(-5, 5, -5, 6)),
    "random": ScalarField(Window(-5, 5, -5, 6),
                          np.random.default_rng(12).uniform(-3.0, 3.0, size=(12, 11))),
    "spiral": spiral_field(SpiralParams(1.0, 1.3, 0.8), Window(-5, 5, -5, 6)),
}


class TestBatchedWeights:
    """The window-wide weights against the per-edge ``eta`` reference."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_FIELDS))
    def test_matches_per_edge_reference(self, name):
        u = REFERENCE_FIELDS[name]
        ew = compute_edge_weights(u)
        expected = {}
        for v, w in window_edges(u.window):
            try:
                expected[(v, w)] = 0.5 * (eta(u, v, w) + eta(u, w, v))
            except WindowTooSmallError:
                continue
        edges = ew.edges()
        assert [(v, w) for v, w, _ in edges] == sorted(expected)
        assert len(ew) == len(expected)
        for v, w, value in edges:
            assert abs(value - expected[(v, w)]) <= 1e-15

    @pytest.mark.parametrize("name", sorted(REFERENCE_FIELDS))
    def test_around_keeps_edges_touching_the_set(self, name):
        u = REFERENCE_FIELDS[name]
        full = {(v, w): value for v, w, value in compute_edge_weights(u).edges()}
        around = ball((1, 0), 2) | {(-5, -5), (40, 40)}
        kept = {(v, w): value for v, w, value in compute_edge_weights(u, around=around).edges()}
        assert kept == {e: value for e, value in full.items() if e[0] in around or e[1] in around}

    @pytest.mark.parametrize("name", sorted(REFERENCE_FIELDS))
    def test_residuals_match_per_vertex_reference(self, name):
        u = REFERENCE_FIELDS[name]
        ew = compute_edge_weights(u)
        expected = {}
        for v in u.window.interior_vertices():
            try:
                expected[v] = harmonic_residual(u, v, weights=ew)
            except (WindowTooSmallError, MissingEdgeError):
                continue
        assert expected
        got = harmonic_residuals(u, ew)
        assert got.shape == u.values.shape
        for v in u.window.vertices():
            at = got[v[1] - u.window.n_min, v[0] - u.window.m_min]
            assert at == expected[v] if v in expected else math.isnan(at)

    def test_walk_matches_rebuilt_weights(self):
        u = REFERENCE_FIELDS["spiral"]
        ew = compute_edge_weights(u)
        values = np.full((3, u.window.n_count, u.window.m_count), np.nan)
        for v, w, value in ew.edges():
            values[ew._slot(v, w)] = value
        rebuilt = EdgeWeights(u.window, values)
        assert rebuilt.to_csv() == ew.to_csv()
        a = random_walk_return(ew, (0, 0), 20, 3000, seed=8)
        assert a == random_walk_return(rebuilt, (0, 0), 20, 3000, seed=8)
        assert a.censored < a.trials

    def test_spiral_weights_are_the_angle_sum_jacobian(self):
        # the segment integrand is constant on a Doyle spiral, so every
        # weight is the per-edge partial sum at the field itself
        u = spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-10, 10, -10, 10))
        ew = compute_edge_weights(u)
        stored = ~np.isnan(ew.values)
        jacobian = edge_sums(face_partials(*faces(u.values)))
        assert np.count_nonzero(stored) == len(ew) > 0
        assert np.abs(ew.values[stored] - jacobian[stored]).max() <= 1e-15

    def test_underflowing_weight_names_its_edge(self):
        u = ScalarField.constant(Window(-4, 4, -4, 4), 0.0)
        u[(0, 0)] = 4000.0
        with pytest.raises(ValueError, match=r"edge weight on \(\(-?\d+, -?\d+\), "):
            compute_edge_weights(u)


class TestVolume:
    def test_uniform_flower_volume(self):
        # 7 vertices, 6 incident edges each, weight 1/sqrt(3) apiece
        w = Window(-3, 3, -3, 3)
        ew = EdgeWeights.uniform(w, 1.0 / SQRT3)
        got = volume(ew, ball((0, 0), 1))
        assert got == pytest.approx(42.0 / SQRT3, abs=1e-12)
        # direct enumeration oracle
        direct = sum(ew.get(v, x) for v in ball((0, 0), 1) for x in neighbors(v))
        assert got == pytest.approx(direct, abs=1e-12)

    def test_empty_set(self):
        ew = EdgeWeights.uniform(Window(-1, 1, -1, 1), 0.5)
        assert volume(ew, set()) == 0.0

    def test_missing_edge_raises(self):
        ew = EdgeWeights.uniform(Window(-1, 1, -1, 1), 0.5)
        with pytest.raises(MissingEdgeError):
            volume(ew, {(1, 1)})  # incident edges leave the window

    def test_growth_bound_on_solved_spiral(self):
        w = Window(-8, 8, -8, 8)
        u, _ = solve_patch(spiral_field(SpiralParams(1.0, 1.1, 0.95), w))
        weights = compute_edge_weights(u, around=ball((0, 0), 5))
        for n in range(1, 6):
            cap = 12.0 * (3 * n * n + 3 * n + 1)
            assert volume(weights, ball((0, 0), n)) <= cap


    def test_missing_interior_weight_raises(self):
        # vertices at distance 4 are interior, but only the edges touching
        # the ball of radius 2 carry weights
        u = spiral_field(SpiralParams(1.0, 1.1, 0.95), Window(-8, 8, -8, 8))
        weights = compute_edge_weights(u, around=ball((0, 0), 2))
        with pytest.raises(MissingEdgeError, match=r"no weight stored for edge \(\("):
            volume(weights, ball((0, 0), 4))

    def test_matches_per_vertex_sum(self):
        u = wavy_field(Window(-6, 7, -6, 6))
        weights = compute_edge_weights(u)
        vertices = ball((0, 0), 4)
        direct = sum(weights.get(v, x) for v in vertices for x in neighbors(v))
        assert volume(weights, vertices) == pytest.approx(direct, rel=1e-14)


class TestRandomWalk:
    @pytest.fixture()
    def uniform_weights(self):
        return EdgeWeights.uniform(Window(-6, 6, -6, 6), 1.0 / SQRT3)

    def test_single_step_cannot_return(self, uniform_weights):
        report = random_walk_return(uniform_weights, (0, 0), 1, 5000, seed=2)
        assert report.returned == 0
        assert report.frequency == 0.0

    def test_two_step_return_probability(self, uniform_weights):
        trials = 100_000
        report = random_walk_return(uniform_weights, (0, 0), 2, trials, seed=1)
        sigma = math.sqrt((1.0 / 6.0) * (5.0 / 6.0) / trials)
        assert abs(report.frequency - 1.0 / 6.0) <= 3.0 * sigma
        assert report.censored == 0

    def test_two_step_return_with_nonuniform_weights(self):
        # exact two-step return probability from the transition matrix;
        # the uniform case cannot catch row-normalization mistakes
        u = spiral_field(SpiralParams(1.0, 1.4, 0.8), Window(-6, 7, -6, 6))
        weights = compute_edge_weights(u)
        start = (0, 0)

        def prob(a, b):
            total = sum(weights.get(a, x) for x in neighbors(a))
            return weights.get(a, b) / total

        exact_p = sum(prob(start, w) * prob(w, start) for w in neighbors(start))
        trials = 100_000
        report = random_walk_return(weights, start, 2, trials, seed=4)
        sigma = math.sqrt(exact_p * (1.0 - exact_p) / trials)
        assert report.censored == 0
        assert abs(report.frequency - exact_p) <= 3.0 * sigma

    def test_monotone_in_steps(self, uniform_weights):
        freqs = [
            random_walk_return(uniform_weights, (0, 0), steps, 20_000, seed=7).frequency
            for steps in (2, 4, 8)
        ]
        assert freqs[0] <= freqs[1] <= freqs[2]

    def test_deterministic_given_seed(self, uniform_weights):
        a = random_walk_return(uniform_weights, (0, 0), 10, 5000, seed=99)
        b = random_walk_return(uniform_weights, (0, 0), 10, 5000, seed=99)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_censoring_near_window_edge(self):
        ew = EdgeWeights.uniform(Window(-2, 2, -2, 2), 0.5)
        report = random_walk_return(ew, (0, 0), 50, 2000, seed=5)
        assert report.censored > 0
        assert report.trials == 2000

    def test_all_trials_censored_at_unsteppable_start(self):
        # the corner vertex has incident edges leaving the window, so no
        # trial can take even one step
        ew = EdgeWeights.uniform(Window(-2, 2, -2, 2), 0.5)
        report = random_walk_return(ew, (2, 2), 3, 500, seed=6)
        assert report.censored == 500
        assert report.returned == 0
        assert report.frequency == 0.0

    @pytest.mark.parametrize("around, start, steps, trials, seed, returned, censored", [
        (None, (0, 0), 100, 10_000, 7, 5376, 3610),
        (None, (7, 0), 4, 1000, 4, 252, 191),
        (None, (-9, 9), 6, 1000, 2, 129, 675),
        (None, (10, 0), 5, 100, 3, 0, 100),  # boundary start: censored on the first step
        (None, (0, 0), 0, 10, 1, 0, 0),
        (3, (0, 0), 50, 2000, 5, 828, 1171),  # weights only around ball((0, 0), 3)
    ])
    def test_reports_pinned(self, around, start, steps, trials, seed, returned, censored):
        # the calibration tests above cannot see a changed draw; these pin
        # every report bit for bit
        u = spiral_field(SpiralParams(1, 1.2, 0.85), Window(-10, 10, -10, 10))
        weights = compute_edge_weights(u, around=None if around is None else ball((0, 0), around))
        effective = trials - censored
        assert random_walk_return(weights, start, steps, trials, seed) == WalkReport(
            trials, returned, censored, returned / effective if effective else 0.0, seed)

    def test_report_json_shape(self, uniform_weights):
        report = random_walk_return(uniform_weights, (0, 0), 2, 100, seed=0)
        parsed = json.loads(report.to_json())
        assert list(parsed) == ["trials", "returned", "censored", "frequency", "seed"]
        assert parsed["trials"] == 100
        assert parsed["seed"] == 0

    def test_validation(self, uniform_weights):
        with pytest.raises(ValueError):
            random_walk_return(uniform_weights, (0, 0), -1, 10, seed=0)
        with pytest.raises(ValueError):
            random_walk_return(uniform_weights, (0, 0), 2, 0, seed=0)
        with pytest.raises(ValueError):
            random_walk_return(uniform_weights, (99, 99), 2, 10, seed=0)
