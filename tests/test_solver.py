"""Packing-equation solver: angle sums and defects, the two update modes,
boundary preservation, empirical uniqueness, and the numerical range."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexpack.geometry import angle_gradient, face_partials
from hexpack import solver
from hexpack.lattice import (DIRECTIONS, NEIGHBOR_OFFSETS, ScalarField, Window, edge_sums, faces,
                             neighbor_values, neighbors)
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
        # the report's defect is the window-wide sum's, bit for bit; the
        # scalar flower sum rounds in its own order
        assert report.final_defect == np.abs(angle_defects(solved)).max()
        for v in w.interior_vertices():
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
    # boundary log radii 300 apart: at the harmonic start some Hessian
    # coefficients are ~1e-100, and neither conjugate gradients nor the
    # exact factor give a step; after one sweep Newton steps converge
    w = Window(-3, 3, -3, 3)
    u0 = ScalarField.constant(w, 0.0)
    for v, value in zip(w.boundary_vertices(), [
        0, 1, 1, -1, -1, -1, 0, 1, 1, 1, 1, 0, 1, -1, -1, 0, 0, 0, 0, 1, 0, 0, 0, -1,
    ]):
        u0[v] = 300.0 * value
    solved, report = solve_patch(u0)
    assert report.converged
    assert report.fallback == "gauss-seidel"
    # Gauss-Seidel alone takes 174 sweeps here
    assert report.iterations <= 50
    reference, _ = solve_patch(u0, SolveOptions(mode="gauss-seidel"))
    for v in w.interior_vertices():
        assert abs(solved[v] - reference[v]) <= 1e-8


class TestNewtonWithoutAStep:
    """Newton's two exits without a step, each reached by a real input:
    conjugate gradients stop on a non-positive curvature, the exact factor's
    step fails too, the first iteration drops it before any line search and
    is one Gauss-Seidel sweep, the report records it, and the solve
    converges."""

    @staticmethod
    def first_step(monkeypatch, values):
        # the first Newton step's defects and its step (or the factor's error)
        events, cg_steps = [], []
        linear_solve, defects, pcg = solver._solve, solver._defects, solver._pcg
        monkeypatch.setattr(solver, "_pcg", lambda *args: cg_steps.append(pcg(*args)) or cg_steps[-1])

        def spy(grid, edges, rhs, rtol):
            try:
                step = linear_solve(grid, edges, rhs, rtol)
            except RuntimeError as exc:
                events.append((-rhs, exc))
                raise
            events.append((-rhs, step))
            return step

        monkeypatch.setattr(solver, "_solve", spy)
        monkeypatch.setattr(solver, "_defects", lambda v: events.append("defects") or defects(v))
        rows, cols = np.shape(values)
        u0 = ScalarField(Window(0, cols - 1, 0, rows - 1), np.array(values, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solved, report = solve_patch(u0, SolveOptions(init="keep"))
        # no line search: the next defects are the fallback sweep's, then a new step
        assert events[0] == events[2] == "defects" and events[3:4] != ["defects"]
        assert cg_steps[0] is None
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
        [[1000, 0, -500, 500], [500, -1000, -1000, -500], [500, -1000, -1000, 1000],
         [-500, 1000, 500, 0]],
        # the first step is not finite
        [[500, 500, 1000, -500], [0, -1000, 0, 1000], [500, -1000, 500, -1000],
         [1000, 500, 500, -1000]],
    ])
    def test_step_not_finite_or_not_descent(self, monkeypatch, values):
        (defects, delta), _ = self.first_step(monkeypatch, values)
        assert not (np.all(np.isfinite(delta)) and defects @ delta < 0.0)


@pytest.mark.parametrize("window", [pytest.param(Window(-3, 3, -3, 3), id="7x7"),
                                    pytest.param(Window(-3, 3, -1, 1), id="3x7")])
def test_newton_step_without_an_accepted_step_restores_the_values(monkeypatch, window):
    # g(s) = defects(s) @ delta alternates between -g(0), above the target
    # -g(0) / 2, and 2 g(0), below -(-g(0) / 2): every one of the line
    # search's 101 trial points is rejected, and s closes in on 2/3, not 0.
    # A ravel of the 3x7 window's one-row interior is a view of the values,
    # not a copy.
    rng = np.random.default_rng(12)
    u0 = random_interior(spiral_field(SpiralParams(1.0, 1.2, 0.9), window), rng)
    grid = solver._Grid(u0.window)
    vals = u0.values.copy()
    defects = solver._defects(vals)
    calls = []

    def alternating(values):
        calls.append(values.copy())
        return (-1.0 if len(calls) % 2 else 2.0) * defects

    monkeypatch.setattr(solver, "_defects", alternating)
    assert solver._newton_step(vals, grid, defects) is None
    assert len(calls) == 101
    assert not np.array_equal(calls[-1], u0.values)  # the last trial point moved
    assert vals.tobytes() == u0.values.tobytes()


def count_factors(monkeypatch):
    # every exact solve a solve makes: only the exact steps taken when
    # conjugate gradients miss, for the harmonic start or a Newton step
    factors, solve_exact = [], solver._Grid.solve_exact
    monkeypatch.setattr(solver._Grid, "solve_exact",
                        lambda *args: factors.append(1) or solve_exact(*args))
    return factors


@pytest.mark.parametrize("mode", solver.MODES)
@pytest.mark.parametrize("init", solver.INITS)
def test_one_grid_and_at_most_one_laplacian_factor_per_solve(monkeypatch, mode, init):
    # conjugate gradients finish the harmonic start and every Newton step
    # here, so the solve makes no factor at all
    grids, grid_init = [], solver._Grid.__init__
    monkeypatch.setattr(solver._Grid, "__init__",
                        lambda self, window: grids.append(window) or grid_init(self, window))
    factors = count_factors(monkeypatch)
    rng = np.random.default_rng(5)
    u0 = ScalarField(Window(0, 10, 0, 10), rng.uniform(-1.0, 1.0, size=(11, 11)))
    _, report = solve_patch(u0, SolveOptions(mode=mode, init=init))
    assert report.converged and report.fallback is None
    assert len(grids) == 1
    assert len(factors) == 0


@pytest.mark.parametrize("mode", solver.MODES)
def test_only_a_sweep_builds_the_colour_classes(monkeypatch, mode):
    grids, grid_init = [], solver._Grid.__init__
    monkeypatch.setattr(solver._Grid, "__init__",
                        lambda self, window: grids.append(self) or grid_init(self, window))
    u0 = ScalarField(Window(0, 10, 0, 10),
                     np.random.default_rng(6).uniform(-1.0, 1.0, size=(11, 11)))
    _, report = solve_patch(u0, SolveOptions(mode=mode))
    assert report.converged and report.fallback is None
    assert ("colours" in vars(grids[0])) == (mode == "gauss-seidel")


def random_window(half, amplitude, seed):
    size = 2 * half + 1
    values = np.random.default_rng(seed).uniform(-amplitude, amplitude, size=(size, size))
    return ScalarField(Window(-half, half, -half, half), values)


@pytest.mark.parametrize("half", [10, 20])
@pytest.mark.parametrize("amplitude", [2.0, 10.0])
def test_conjugate_gradient_steps_match_exact_newton_steps(monkeypatch, half, amplitude):
    u0 = random_window(half, amplitude, seed=half + int(amplitude))
    factors = count_factors(monkeypatch)
    fast, fast_report = solve_patch(u0)
    assert len(factors) == 0  # every solve came from conjugate gradients
    monkeypatch.setattr(solver, "_pcg", lambda *args: None)
    exact, exact_report = solve_patch(u0)
    # L's factor for the harmonic start, then one per Newton step
    assert len(factors) == 1 + exact_report.iterations
    for field, report in ((fast, fast_report), (exact, exact_report)):
        assert report.converged and report.fallback is None
        assert np.abs(angle_defects(field)).max() <= DEFAULT_TOLERANCE
    assert np.abs(fast.values - exact.values).max() <= 1e-10


def test_a_missed_conjugate_gradient_cap_takes_the_exact_step(monkeypatch):
    monkeypatch.setattr(solver, "_CG_STEPS", 1)
    factors = count_factors(monkeypatch)
    u0 = random_window(10, 10.0, seed=3)
    solved, report = solve_patch(u0)
    assert len(factors) == 1 + report.iterations
    assert report.converged and report.fallback is None
    assert np.abs(angle_defects(solved)).max() <= DEFAULT_TOLERANCE


def five_point_laplacian(rows, cols):
    # M on a rows x cols grid with zero Dirichlet values around it, dense
    eye = np.eye(rows * cols)
    grid = eye.reshape(rows, cols, rows * cols)
    out = 4.0 * grid
    out[1:] -= grid[:-1]
    out[:-1] -= grid[1:]
    out[:, 1:] -= grid[:, :-1]
    out[:, :-1] -= grid[:, 1:]
    return out.reshape(rows * cols, rows * cols)


def coefficient_matrix(window, edges):
    # The matrix of per-edge coefficients in edge_sums' layout, dense, from
    # its definition: at interior v, the sum of v's six coefficients on the
    # diagonal and -c_vw at each interior neighbor w
    def coefficient(v, w):
        v, w = min(v, w), max(v, w)
        k = DIRECTIONS.index((w[0] - v[0], w[1] - v[1]))
        return edges[k, v[1] - window.n_min, v[0] - window.m_min]

    interior = window.interior_vertices()
    number = {v: i for i, v in enumerate(interior)}
    out = np.zeros((len(interior), len(interior)))
    for v in interior:
        out[number[v], number[v]] = sum(coefficient(v, w) for w in neighbors(v))
        for w in neighbors(v):
            if w in number:
                out[number[v], number[w]] = -coefficient(v, w)
    return out


@pytest.mark.parametrize("rows, cols", [(7, 7), (3, 9), (12, 3), (3, 3), (5, 11)])
def test_stencil_product_matches_the_sparse_matrix(rows, cols):
    # Newton's coefficients on a random field, as edge_sums returns them: the
    # NaN it leaves on edges with one face lies on the border, which the
    # matrix never reads
    rng = np.random.default_rng([rows, cols])
    window = Window(0, cols - 1, 0, rows - 1)
    grid = solver._Grid(window)
    edges = edge_sums(face_partials(*faces(rng.uniform(-2.0, 2.0, size=(rows, cols)))))
    mat = coefficient_matrix(window, edges)
    for _ in range(3):
        p = rng.normal(size=grid.size)
        expected = mat @ p
        assert np.abs(grid.product(edges, p) - expected).max() <= 1e-13 * np.abs(expected).max()


def edges_with_an_interior_end(rows, cols):
    # (3, rows, cols) in edge_sums' layout: the edge from v to
    # v + DIRECTIONS[k] has an interior end at v or at that neighbor
    interior = np.zeros((rows, cols), dtype=bool)
    interior[1:-1, 1:-1] = True
    near = neighbor_values(interior)
    return np.array([interior | near[NEIGHBOR_OFFSETS.index(d)] for d in DIRECTIONS])


@pytest.mark.parametrize("rows, cols", [(3, 3), (7, 7), (3, 9), (12, 3), (5, 11)])
def test_edges_without_an_interior_end_are_never_read(rows, cols):
    # NaN, +inf and -inf in turn on every edge without an interior end: the
    # product and the exact solve equal, bit for bit, those of the same
    # coefficients with those edges zeroed
    rng = np.random.default_rng([rows, cols])
    grid = solver._Grid(Window(0, cols - 1, 0, rows - 1))
    inner = edges_with_an_interior_end(rows, cols)
    zeroed = np.where(inner, rng.uniform(0.5, 2.0, size=inner.shape), 0.0)
    edges = zeroed.copy()
    edges[~inner] = np.resize([math.nan, math.inf, -math.inf], np.count_nonzero(~inner))
    p = rng.normal(size=grid.size)
    with np.errstate(invalid="ignore"):  # as inside _pcg: inf * 0 on the border
        product = grid.product(edges, p)
    assert product.tobytes() == grid.product(zeroed, p).tobytes()
    assert grid.solve_exact(edges, p).tobytes() == grid.solve_exact(zeroed, p).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_coefficient_not_finite_inside_leaves_no_newton_step(monkeypatch, bad):
    # on an edge with an interior end, unlike on the border, it ends the step
    values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(5, 5))
    before, grid = values.copy(), solver._Grid(Window(0, 4, 0, 4))

    def spoiled(f):
        edges = edge_sums(f)
        edges[2, 2, 1] = bad  # the edge from (1, 2) to (2, 2), both interior
        return edges

    monkeypatch.setattr(solver, "edge_sums", spoiled)
    assert solver._newton_step(values, grid, solver._defects(values)) is None
    assert np.array_equal(values, before)


def test_an_exact_step_out_of_memory_leaves_no_newton_step(monkeypatch):
    # the exact step keeps (n - 1) n^2 floats, 4.1 GB at 801 x 801: a
    # MemoryError there ends the step, as a singular matrix does
    values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(5, 5))
    before, grid = values.copy(), solver._Grid(Window(0, 4, 0, 4))

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(solver, "_pcg", lambda *args: None)
    monkeypatch.setattr(np.linalg, "solve", out_of_memory)
    assert solver._newton_step(values, grid, solver._defects(values)) is None
    assert np.array_equal(values, before)


@pytest.mark.parametrize("newton", [False, True], ids=["uniform", "newton"])
@pytest.mark.parametrize("rows, cols", [(3, 3), (3, 12), (9, 3), (8, 13), (21, 17)])
def test_exact_solve_matches_a_dense_solve(rows, cols, newton):
    # random coefficients in [0.5, 2], or Newton's on a random field, against
    # a dense LU solve of the matrix built from its definition
    rng = np.random.default_rng([rows, cols])
    window = Window(0, cols - 1, 0, rows - 1)
    grid = solver._Grid(window)
    if newton:
        edges = edge_sums(face_partials(*faces(rng.uniform(-3.0, 3.0, size=(rows, cols)))))
    else:
        edges = rng.uniform(0.5, 2.0, size=(3, rows, cols))
    b = rng.normal(size=grid.size)
    expected = np.linalg.solve(coefficient_matrix(window, edges), b)
    x = grid.solve_exact(edges, b)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("v", [(1, 1), (2, 3), (4, 2)])
def test_exact_solve_of_a_vertex_without_coefficients_raises(v):
    # all six coefficients at v are 0: its row and column of the matrix are 0
    window = Window(0, 5, 0, 4)
    edges = np.ones((3, window.n_count, window.m_count))
    for w in neighbors(v):
        a, b = min(v, w), max(v, w)
        edges[DIRECTIONS.index((b[0] - a[0], b[1] - a[1])), a[1], a[0]] = 0.0
    grid = solver._Grid(window)
    with pytest.raises(RuntimeError):
        grid.solve_exact(edges, np.ones(grid.size))


@pytest.mark.parametrize("rows, cols", [(3, 3), (3, 12), (9, 3), (8, 13), (21, 17)])
def test_sine_preconditioner_inverts_the_five_point_laplacian(rows, cols):
    grid = solver._Grid(Window(0, cols - 1, 0, rows - 1))
    m = five_point_laplacian(rows - 2, cols - 2)
    r = np.random.default_rng([rows, cols]).normal(size=grid.size)
    assert np.abs(m @ grid.precondition(r) - r).max() <= 1e-12 * np.abs(r).max()
    assert np.abs(grid.precondition(m @ r) - r).max() <= 1e-12 * np.abs(r).max()


@pytest.mark.parametrize("scale", [1.0, 1e300])
@pytest.mark.parametrize("half", [3, 12])
def test_harmonic_start_matches_an_exact_solve_of_the_laplacian(half, scale):
    # boundary values of +-scale: conjugate gradients on the scaled system
    # against the exact solve of L itself
    rng = np.random.default_rng([half, int(math.log10(scale))])
    u0 = ScalarField(Window(-half, half - 1, -half, half),
                     scale * rng.choice([-1.0, 1.0], size=(2 * half + 1, 2 * half)))
    out = harmonic_interpolation(u0)
    grid = solver._Grid(u0.window)
    # b_v: the sum of u0 over v's boundary neighbors
    b = np.array([sum(u0[w] for w in neighbors(v) if not u0.window.is_interior(w))
                  for v in u0.window.interior_vertices()]) / scale
    exact = grid.solve_exact(np.ones((3, *grid.shape)), b)
    assert np.abs(out.values[1:-1, 1:-1].ravel() / scale - exact).max() <= 1e-12


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

    def test_window_without_interior_returns_an_equal_copy(self):
        u0 = ScalarField(Window(0, 4, 0, 1), np.arange(10.0).reshape(2, 5))
        out = harmonic_interpolation(u0)
        assert out == u0 and out is not u0
        out[(0, 0)] = 99.0
        assert u0[(0, 0)] == 0.0


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
