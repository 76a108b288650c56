"""Packing-equation solver: angle sums and defects, the two update modes,
boundary preservation, empirical uniqueness, and the numerical range."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexpack.geometry import angle_gradient
from hexpack import solver
from hexpack.lattice import ScalarField, Window
from hexpack.solver import (
    DEFAULT_TOLERANCE,
    InvalidPatch,
    NonConvergence,
    SolveOptions,
    SolveReport,
    angle_defect,
    angle_defects,
    angle_sum,
    harmonic_interpolation,
    solve_patch,
)
from hexpack.spiral import SpiralParams, spiral_field

TWO_PI = 2.0 * math.pi


def random_interior(field, rng, scale=1.0):
    out = field.copy()
    for v in out.window.interior_vertices():
        out[v] = rng.uniform(-scale, scale)
    return out


class TestAngleSum:
    def test_regular(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        assert angle_sum(u, (0, 0)) == pytest.approx(TWO_PI, abs=1e-14)

    def test_spiral_satisfies_packing_equation(self):
        u = spiral_field(SpiralParams(1.0, 1.3, 0.9), Window(-4, 4, -4, 4))
        for v in [(0, 0), (1, -2), (-3, 3)]:
            assert angle_sum(u, v) == pytest.approx(TWO_PI, abs=1e-12)

    def test_big_center_circle_shrinks_angle_sum(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        u[(0, 0)] = 10.0
        assert angle_sum(u, (0, 0)) < TWO_PI

    def test_needs_interior_vertex(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        with pytest.raises(ValueError):
            angle_sum(u, (2, 0))


class TestAngleDefect:
    def test_zero_on_regular(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        assert angle_defect(u, (0, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_zero_on_spiral(self):
        u = spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-3, 3, -3, 3))
        assert angle_defect(u, (1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_growing_a_circle_makes_defect_positive(self):
        u = ScalarField.constant(Window(-2, 2, -2, 2), 0.0)
        u[(0, 0)] = 0.2
        assert angle_defect(u, (0, 0)) > 0.0


class TestMonotonicity:
    def test_diagonal_gradient_negative_at_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            u = tuple(rng.uniform(-3.0, 3.0, size=3))
            i = int(rng.integers(1, 4))
            assert angle_gradient(u, i).as_tuple()[i - 1] < 0.0


class TestSolvePatch:
    @pytest.mark.parametrize("mode", ["gauss-seidel", "newton"])
    def test_constant_boundary_recovers_regular(self, mode):
        rng = np.random.default_rng(29)
        u0 = random_interior(ScalarField.constant(Window(-3, 3, -3, 3), 0.0), rng)
        solved, report = solve_patch(u0, SolveOptions(mode=mode, init="keep"))
        assert report.converged
        assert float(np.abs(solved.values).max()) <= 1e-9

    def test_spiral_boundary_recovers_spiral(self):
        exact = spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-5, 5, -5, 5))
        u0 = exact.copy()
        for v in u0.window.interior_vertices():
            u0[v] = 0.0
        solved, report = solve_patch(u0, SolveOptions(init="keep"))
        assert report.converged
        err = max(abs(solved[v] - exact[v]) for v in u0.window.interior_vertices())
        assert err <= 1e-8

    def test_no_interior_vertices(self):
        with pytest.raises(InvalidPatch):
            solve_patch(ScalarField.constant(Window(0, 1, 0, 5), 0.0))

    def test_boundary_preserved_bit_exactly(self):
        rng = np.random.default_rng(31)
        w = Window(-3, 3, -3, 3)
        u0 = ScalarField.constant(w, 0.0)
        for v in w.boundary_vertices():
            u0[v] = rng.uniform(-0.5, 0.5)
        solved, _ = solve_patch(u0)
        for v in w.boundary_vertices():
            assert solved[v] == u0[v]

    def test_already_solved_field_converges_immediately(self):
        u = spiral_field(SpiralParams(1.0, 1.1, 0.95), Window(-3, 3, -3, 3))
        _, report = solve_patch(u, SolveOptions(init="keep"))
        assert report.iterations <= 1

    def test_defect_small_at_every_interior_vertex(self):
        # spiral boundary, noisy interior
        rng = np.random.default_rng(37)
        w = Window(-3, 3, -3, 3)
        u0 = random_interior(spiral_field(SpiralParams(1.0, 1.15, 0.9), w), rng, scale=0.3)
        solved, report = solve_patch(u0, SolveOptions(init="keep"))
        assert report.converged
        for v in w.interior_vertices():
            assert abs(angle_defect(solved, v)) <= report.final_defect + 1e-15
            assert abs(angle_defect(solved, v)) <= 1e-10

    def test_uniqueness_of_the_solution(self):
        w = Window(-3, 3, -3, 3)
        boundary = spiral_field(SpiralParams(1.0, 1.25, 0.8), w)
        rng = np.random.default_rng(41)
        opts = SolveOptions(init="keep")
        a0 = random_interior(boundary, rng)
        b0 = random_interior(boundary, rng)
        for v in w.boundary_vertices():
            a0[v] = boundary[v]
            b0[v] = boundary[v]
        sa, _ = solve_patch(a0, opts)
        sb, _ = solve_patch(b0, opts)
        gap = max(abs(sa[v] - sb[v]) for v in w.interior_vertices())
        assert gap <= 10 * opts.tolerance

    def test_non_convergence_carries_partial_field(self):
        exact = spiral_field(SpiralParams(1.0, 1.4, 0.7), Window(-4, 4, -4, 4))
        u0 = exact.copy()
        for v in u0.window.interior_vertices():
            u0[v] = 0.0
        with pytest.raises(NonConvergence) as info:
            solve_patch(u0, SolveOptions(max_iterations=1, init="keep"))
        exc = info.value
        assert not exc.report.converged
        assert exc.report.iterations == 1
        assert exc.field.window == u0.window
        # boundary still intact on the partial iterate
        for v in u0.window.boundary_vertices():
            assert exc.field[v] == u0[v]

    def test_newton_mode_non_convergence(self):
        exact = spiral_field(SpiralParams(1.0, 1.5, 0.7), Window(-4, 4, -4, 4))
        u0 = exact.copy()
        for v in u0.window.interior_vertices():
            u0[v] = 0.0
        with pytest.raises(NonConvergence) as info:
            solve_patch(u0, SolveOptions(max_iterations=1, init="keep", mode="newton"))
        assert info.value.report.iterations == 1
        assert not info.value.report.converged

    def test_single_interior_vertex_window(self):
        rng = np.random.default_rng(53)
        w = Window(-1, 1, -1, 1)
        u0 = ScalarField.constant(w, 0.0)
        for v in w.boundary_vertices():
            u0[v] = rng.uniform(-0.4, 0.4)
        solved, report = solve_patch(u0)
        assert report.converged
        assert abs(angle_defect(solved, (0, 0))) <= report.final_defect + 1e-15

    def test_all_modes_agree_on_generic_boundary(self):
        # no analytic solution here; both schemes must still land on the
        # same field
        rng = np.random.default_rng(47)
        w = Window(-3, 3, -3, 3)
        u0 = ScalarField.constant(w, 0.0)
        for v in w.boundary_vertices():
            u0[v] = rng.uniform(-0.7, 0.7)
        fields = {}
        for mode in ("gauss-seidel", "newton"):
            solved, report = solve_patch(u0, SolveOptions(mode=mode, init="harmonic"))
            assert report.converged
            fields[mode] = solved
        gap = max(
            abs(fields["gauss-seidel"][v] - fields["newton"][v])
            for v in w.interior_vertices()
        )
        assert gap <= 1e-9


class TestLargeBoundaryJump:
    """One boundary log radius 800 above its zero neighbors: exp of the
    neighbor difference is past the double range."""

    @staticmethod
    def jump_field():
        u0 = ScalarField.constant(Window(-3, 3, -3, 3), 0.0)
        u0[(3, 0)] = 800.0
        return u0

    @pytest.mark.parametrize("mode, init", [
        ("gauss-seidel", "harmonic"), ("gauss-seidel", "keep"), ("gauss-seidel", "zero"),
        ("newton", "keep"), ("newton", "zero"),
    ])
    def test_converges(self, mode, init):
        u0 = self.jump_field()
        solved, report = solve_patch(u0, SolveOptions(mode=mode, init=init))
        assert report.converged
        for v in u0.window.interior_vertices():
            assert abs(angle_defect(solved, v)) <= 1e-10
        for v in u0.window.boundary_vertices():
            assert solved[v] == u0[v]

    def test_newton_from_harmonic_start_ends_finite(self):
        # the harmonic start puts neighbors hundreds apart, where the
        # Jacobian underflows; the solve must stop, not spin or emit NaN
        start = time.perf_counter()
        try:
            field, _ = solve_patch(
                self.jump_field(),
                SolveOptions(mode="newton", init="harmonic", max_iterations=50),
            )
        except NonConvergence as exc:
            field = exc.field
        assert time.perf_counter() - start < 5.0
        assert np.all(np.isfinite(field.values))

    def test_default_mode_converges_from_harmonic_start(self):
        u0 = self.jump_field()
        solved, report = solve_patch(u0)
        assert report.converged
        assert report.mode == "newton"
        for v in u0.window.interior_vertices():
            assert abs(angle_defect(solved, v)) <= 1e-10


def test_newton_resumes_after_a_gauss_seidel_fallback():
    # boundary log radii 300 apart: from the harmonic start one Newton
    # iterate has a vertex whose Jacobian row underflows to zero
    w = Window(-3, 3, -3, 3)
    u0 = ScalarField.constant(w, 0.0)
    for v, value in zip(w.boundary_vertices(), [
        1, 1, 1, 1, -1, 0, -1, -1, 0, 0, 1, -1, 1, 1, 0, 0, 1, 0, -1, 1, -1, 1, -1, 1,
    ]):
        u0[v] = 300.0 * value
    solved, report = solve_patch(u0)
    assert report.converged
    assert report.fallback == "gauss-seidel"
    # Gauss-Seidel alone takes 322 sweeps here
    assert report.iterations <= 50
    reference, _ = solve_patch(u0, SolveOptions(mode="gauss-seidel"))
    for v in w.interior_vertices():
        assert abs(solved[v] - reference[v]) <= 1e-8


class TestNewtonWithoutAStep:
    """Newton's two exits without a step, each reached by a real input: the
    first iteration drops the step before any line search and is one
    Gauss-Seidel sweep, the report records it, and the solve converges."""

    @staticmethod
    def first_step(monkeypatch, values):
        # the first Newton step's defects and its step (or the factor's error)
        events = []
        solve, defects = solver._Grid.solve, solver._defects

        def spy(mat, rhs):
            try:
                step = solve(mat, rhs)
            except RuntimeError as exc:
                events.append((rhs, exc))
                raise
            events.append((rhs, step))
            return step

        monkeypatch.setattr(solver._Grid, "solve", staticmethod(spy))
        monkeypatch.setattr(solver, "_defects", lambda v: events.append("defects") or defects(v))
        rows, cols = np.shape(values)
        u0 = ScalarField(Window(0, cols - 1, 0, rows - 1), np.array(values, dtype=float))
        solved, report = solve_patch(u0, SolveOptions(init="keep"))
        # no line search: the next defects are the fallback sweep's, then a new step
        assert events[0] == events[2] == "defects" and events[3:4] != ["defects"]
        assert report.converged and report.fallback == "gauss-seidel"
        assert np.abs(angle_defects(solved)).max() <= DEFAULT_TOLERANCE
        return events[1], report

    def test_singular_factor(self, monkeypatch):
        # every neighbor 800 below the centre: the Jacobian underflows to zero
        values = np.full((3, 3), -800.0)
        values[1, 1] = 0.0
        (_, error), report = self.first_step(monkeypatch, values)
        assert isinstance(error, RuntimeError)
        assert (report.iterations, report.final_defect) == (1, 0.0)

    @pytest.mark.parametrize("values", [
        # the first step is finite but climbs the functional: g(0) > 0
        [[-1000, -1000, 1000, 500], [-1000, -1000, 0, 0], [0, 500, 500, -1000],
         [-1000, 1000, 0, 500]],
        # the first step is not finite
        [[500, 500, 1000, -500], [0, -1000, 0, 1000], [500, -1000, 500, -1000],
         [1000, 500, 500, -1000]],
    ])
    def test_step_not_finite_or_not_descent(self, monkeypatch, values):
        (defects, delta), _ = self.first_step(monkeypatch, values)
        assert not (np.all(np.isfinite(delta)) and defects @ delta < 0.0)


@st.composite
def random_boundaries(draw):
    m_count, n_count = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    u0 = ScalarField.constant(Window(0, m_count - 1, 0, n_count - 1), 0.0)
    for v in u0.window.boundary_vertices():
        u0[v] = draw(st.floats(-3.0, 3.0))
    return u0


@given(u0=random_boundaries(), init=st.sampled_from(["harmonic", "keep", "zero"]))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_newton_and_gauss_seidel_reach_the_same_field(u0, init):
    fields = {}
    for mode in ("newton", "gauss-seidel"):
        fields[mode], report = solve_patch(u0, SolveOptions(mode=mode, init=init))
        assert report.converged
    gap = max(abs(fields["newton"][v] - fields["gauss-seidel"][v])
              for v in u0.window.interior_vertices())
    assert gap <= 1e-8


@pytest.mark.parametrize("mode", ["newton", "gauss-seidel"])
def test_one_defect_evaluation_per_iterate(monkeypatch, mode):
    # Newton's full steps are all accepted here, so every iterate's defects
    # are evaluated once: at the start, or at the accepted point of the step
    calls = []
    defects = solver._defects
    monkeypatch.setattr(solver, "_defects", lambda values: calls.append(1) or defects(values))
    rng = np.random.default_rng(5)
    u0 = ScalarField(Window(0, 10, 0, 10), rng.uniform(-1.0, 1.0, size=(11, 11)))
    _, report = solve_patch(u0, SolveOptions(mode=mode, init="zero", tolerance=1e-8))
    assert len(calls) == report.iterations + 1


def test_gauss_seidel_crosses_a_plateau_of_unchanged_defects(monkeypatch):
    # boundary jumps of ~1000 around a zero interior: well over a hundred
    # consecutive sweeps leave the max defect unchanged bit for bit (at
    # ~2.68) before the sweeps converge, so an exit on an unchanged defect
    # would abort this convergent solve
    maxima = []
    defects = solver._defects

    def spy(values):
        out = defects(values)
        maxima.append(float(np.abs(out).max()))
        return out

    monkeypatch.setattr(solver, "_defects", spy)
    u0 = ScalarField(Window(0, 3, 0, 3), np.array([
        [-1471.284634, -453.077707, -643.220429, 1497.764806],
        [-324.987931, 0.0, 0.0, 489.253455],
        [-1533.160573, 0.0, 0.0, -1631.644137],
        [527.008769, 465.535164, -1871.674606, 1229.691124],
    ]))
    _, report = solve_patch(u0, SolveOptions(mode="gauss-seidel"))
    assert report.converged and report.iterations == 291
    plateau = max((len(list(run)), value) for value, run in itertools.groupby(maxima))
    assert plateau[0] >= 135 and plateau[1] == pytest.approx(2.68034342843, rel=1e-11)


class TestHarmonicInterpolation:
    def test_exact_for_linear_fields(self):
        w = Window(-4, 4, -3, 3)
        exact = ScalarField.from_function(w, lambda v: 0.3 * v[0] - 0.8 * v[1] + 1.0)
        u0 = exact.copy()
        for v in w.interior_vertices():
            u0[v] = 99.0
        out = harmonic_interpolation(u0)
        for v in w.vertices():
            assert out[v] == pytest.approx(exact[v], abs=1e-10)

    def test_boundary_bit_exact(self):
        rng = np.random.default_rng(43)
        w = Window(-3, 3, -3, 3)
        u0 = ScalarField(w, rng.normal(size=(w.n_count, w.m_count)))
        out = harmonic_interpolation(u0)
        for v in w.boundary_vertices():
            assert out[v] == u0[v]


class TestOptionsAndReport:
    def test_report_json(self):
        import json

        rep = SolveReport(iterations=5, final_defect=1.5e-11, converged=True)
        parsed = json.loads(rep.to_json())
        assert parsed == {"iterations": 5, "final_defect": 1.5e-11, "converged": True}

    def test_solve_report_names_mode_and_fallback(self):
        import json

        exact = spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-10, 10, -10, 10))
        _, report = solve_patch(exact, SolveOptions(init="zero"))
        parsed = json.loads(report.to_json())
        assert list(parsed) == ["iterations", "final_defect", "converged", "mode", "fallback"]
        assert parsed["mode"] == "newton"
        assert parsed["fallback"] is None

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tolerance=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=0)
        for mode in ("sor", "jacobi"):
            with pytest.raises(ValueError):
                SolveOptions(mode=mode)
        with pytest.raises(ValueError):
            SolveOptions(init="random")
