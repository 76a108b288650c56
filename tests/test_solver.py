"""Packing-equation solver: angle sums and defects, the two update modes,
boundary preservation, empirical uniqueness, and the numerical range."""

import math
import time

import numpy as np
import pytest

from hexpack.geometry import angle_gradient
from hexpack.lattice import ScalarField, Window
from hexpack.solver import (
    InvalidPatch,
    NonConvergence,
    SolveOptions,
    SolveReport,
    angle_defect,
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
