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

from hexpack import harmonic
from hexpack.harmonic import (
    EdgeWeights,
    MissingEdgeError,
    Quadrature,
    WalkReport,
    WindowTooSmallError,
    _check_range,
    _listed,
    _weights_csv_blocks,
    compute_edge_weights,
    eta,
    harmonic_residual,
    harmonic_residuals,
    random_walk_return,
    segment,
    volume,
)
from hexpack.geometry import _edge_partials, dtheta_dx1, face_partials
from hexpack.lattice import (DIRECTIONS, ScalarField, Window, _BLOCK, _face_differences,
                             _ring_edges, ball, edge_sums, faces, faces_containing_edge,
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

    def test_window_too_small_names_the_vertex(self):
        u = ScalarField.constant(Window(0, 2, 0, 2), 0.0)
        with pytest.raises(WindowTooSmallError, match=r"^translated vertex \(3, 1\) is outside"):
            harmonic_residual(u, (1, 1))
        with pytest.raises(WindowTooSmallError, match=r"^vertex \(-1, 2\) is outside"):
            harmonic_residual(u, (0, 1))


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

    @pytest.mark.parametrize("x, y", [(1.2, 0.85), (3.0, 1.0), (0.5, 2.0)])
    def test_spiral_weights_in_closed_form(self, x, y):
        # on a spiral the segment is constant, so each weight is the two
        # faces' partials d(angle at v)/d(u_w) at the field itself
        u = spiral_field(SpiralParams(1.0, x, y), Window(-6, 6, -6, 6))
        weights = compute_edge_weights(u)
        for stored, (dm, dn) in zip(weights.values, DIRECTIONS):
            v, w = (0, 0), (dm, dn)
            expected = sum(dtheta_dx1(u[w] - u[v], u[next(t for t in face if t not in (v, w))]
                                      - u[v])
                           for face in faces_containing_edge(v, w))
            values = stored[~np.isnan(stored)]
            assert values.size > 0
            assert np.abs(values - expected).max() <= 4e-15 * expected

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


@pytest.mark.parametrize("seed", range(12))
def test_range_check_names_the_first_listed_edge(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 7, size=2)
    m_min = int(rng.choice([-3, 0, 99999999999999999999]))
    window = Window(m_min, m_min + int(cols) - 1, -2, int(rows) - 3)
    values = rng.uniform(-1.0, 3.0, size=(3, rows, cols))
    values[rng.random(values.shape) < 0.1] = np.nan
    stored = rng.random(values.shape) < rng.uniform(0.1, 1.0)
    bad = stored & ~((values > 0.0) & (values < 2.0))
    if not bad.any():
        _check_range(window, values, stored)
        stored[0, 0, 0], values[0, 0, 0] = True, 2.0
        bad = stored & ~((values > 0.0) & (values < 2.0))
    v, w, value = _listed(window, bad, values)[0]
    with pytest.raises(ValueError) as info:
        _check_range(window, values, stored)
    assert str(info.value) == f"edge weight on {(v, w)} must lie in (0, 2), got {value!r}"


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


def reference_csv(weights):
    """The weights CSV written the earlier way, one f-string per edge."""
    lines = ["m1,n1,m2,n2,eta"]
    for v, w, value in weights.edges():
        lines.append(f"{v[0]},{v[1]},{w[0]},{w[1]},{value:.16e}")
    return "\n".join(lines) + "\n"


def whole_csv(weights):
    """The weights CSV written the earlier way, one ``%`` over an (E, 5)
    object array of every edge."""
    window, values = weights.window, weights.values
    col, row, k = np.nonzero(~np.isnan(values).transpose(2, 1, 0))
    cells = np.empty((col.size, 5), dtype=object)
    cells[:, 0] = col.astype(object) + window.m_min
    cells[:, 1] = row.astype(object) + window.n_min
    cells[:, 2:4] = cells[:, :2] + np.array(DIRECTIONS, dtype=object)[k]
    cells[:, 4] = values[k, row, col]
    return "m1,n1,m2,n2,eta\n" + "%d,%d,%d,%d,%.16e\n" * len(cells) % tuple(cells.ravel())


def window_edges(window):
    return [(v, (v[0] + dm, v[1] + dn)) for v in window.vertices()
            for dm, dn in ((0, 1), (1, -1), (1, 0)) if window.contains((v[0] + dm, v[1] + dn))]


REFERENCE_FIELDS = {
    "wavy": wavy_field(Window(-5, 5, -5, 6)),
    "random": ScalarField(Window(-5, 5, -5, 6),
                          np.random.default_rng(12).uniform(-3.0, 3.0, size=(12, 11))),
    "spiral": spiral_field(SpiralParams(1.0, 1.3, 0.8), Window(-5, 5, -5, 6)),
}


def mixed_field(window):
    """A spiral with +-1 noise on two rows next to the middle one: the faces
    that touch those rows have long steps, the others short ones."""
    u = spiral_field(SpiralParams(1.0, 1.3, 0.8), window)
    middle = window.n_count // 2
    u.values[middle - 1:middle + 1] += np.random.default_rng(3).uniform(
        -1.0, 1.0, size=(2, window.m_count))
    return u


# The reference fields and one whose faces take both rules.
WEIGHT_FIELDS = {**REFERENCE_FIELDS, "mixed": mixed_field(Window(-5, 5, -5, 6))}


def random_field(window):
    return ScalarField(window, np.random.default_rng(window.n_count).uniform(
        -3.0, 3.0, size=(window.n_count, window.m_count)))


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

    @pytest.mark.parametrize("name", sorted(WEIGHT_FIELDS))
    @pytest.mark.parametrize("around", [
        pytest.param({(-5, -5)}, id="corner"),
        pytest.param({(5, 6)}, id="opposite-corner"),
        pytest.param({(5, 0), (5, 1), (0, 6)}, id="border"),
        pytest.param(set(), id="empty"),
        pytest.param({(-4, -4), (0, 0), (4, 5)}, id="apart"),
        pytest.param(ball((-5, 2), 2) | {(9, 9), (-6, 0)}, id="partly-outside"),
    ])
    def test_around_equals_the_full_weights_masked(self, name, around):
        # only the faces near the set are integrated, to the same bits;
        # "apart" leaves gaps between the rows and columns integrated
        u = WEIGHT_FIELDS[name]
        full = compute_edge_weights(u).values
        expected = np.full_like(full, np.nan)
        for k, (dm, dn) in enumerate(DIRECTIONS):
            for v in u.window.vertices():
                if v in around or (v[0] + dm, v[1] + dn) in around:
                    slot = k, v[1] - u.window.n_min, v[0] - u.window.m_min
                    expected[slot] = full[slot]
        assert compute_edge_weights(u, around=around).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("u", [
        pytest.param(random_field(Window(-4, 4, -4, 4)), id="9x9"),
        pytest.param(random_field(Window(-3, 3, -5, 6)), id="7x12"),
        # bands of long faces, of short ones and of both
        pytest.param(mixed_field(Window(-4, 4, -4, 4)), id="mixed"),
    ])
    @pytest.mark.parametrize("around", [
        pytest.param(None, id="all"),
        pytest.param(ball((0, 0), 1), id="ball"),
        pytest.param({(-2, -3), (0, 0), (1, 1), (2, 4)}, id="apart"),
    ])
    def test_bands_give_the_bits_of_one_band(self, monkeypatch, rows, u, around):
        # bands of one and two face rows; each around set spans several
        # rows of faces, so a band edge runs through it
        window = u.window
        assert harmonic._band_rows(2 * (window.m_count - 2)) >= window.n_count - 1
        one_band = compute_edge_weights(u, around=around).values
        monkeypatch.setattr(harmonic, "_band_rows", lambda faces_per_row: rows)
        banded = compute_edge_weights(u, around=around).values
        assert np.count_nonzero(~np.isnan(one_band)) > 0
        assert np.array_equal(banded, one_band, equal_nan=True)

    @pytest.mark.parametrize("name", ["spiral", "wavy", "past-int64"])
    def test_csv_matches_the_per_edge_reference(self, name):
        big = Window(99999999999999999999, 100000000000000000002, -2, 2)
        u = (ScalarField(big, np.random.default_rng(5).uniform(-1.0, 1.0, size=(5, 4)))
             if name == "past-int64" else REFERENCE_FIELDS[name])
        ew = compute_edge_weights(u)
        assert len(ew) > 0
        assert ew.to_csv() == reference_csv(ew)

    @pytest.mark.parametrize("corner", [-30, 99999999999999999999])
    def test_csv_blocks_join_to_the_whole_csv(self, corner):
        u = spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-30, 30, -30, 30))
        ew = compute_edge_weights(ScalarField(Window(corner, corner + 60, -30, 30), u.values))
        blocks = list(_weights_csv_blocks(ew))
        assert len(ew) > 2 * _BLOCK
        assert len(blocks) == 1 + -(-len(ew) // _BLOCK)
        assert all(b.count("\n") == _BLOCK for b in blocks[1:-1])
        assert "".join(blocks) == ew.to_csv() == whole_csv(ew)

    def test_spreads_past_the_exp_range_match_per_edge_reference(self):
        # log radii near 1000, so e^u overflows, with jumps in the hundreds
        rng = np.random.default_rng(19)
        u = ScalarField(Window(-3, 3, -3, 3), 1000.0 + rng.uniform(-300.0, 300.0, size=(7, 7)))
        ew = compute_edge_weights(u)
        assert len(ew) == 79
        # the face kernel's bound: 8 ulp times (1 + the spread of the log radii)
        tol = 8.0 * np.finfo(float).eps * (1.0 + np.ptp(u.values))
        for v, w, value in ew.edges():
            expected = 0.5 * (eta(u, v, w) + eta(u, w, v))
            assert abs(value - expected) <= tol * expected

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

    def test_residuals_reject_weights_of_another_window(self):
        u = REFERENCE_FIELDS["spiral"]
        other = EdgeWeights.uniform(Window(-1, 1, -1, 1), 0.5)
        with pytest.raises(ValueError, match="do not match field window"):
            harmonic_residuals(u, other)

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


def coloured_steps(window, scale, seed):
    """A field with random starts whose every face has one step difference
    of 2 * scale (1 +- 2^-12) in magnitude and two smaller ones: D1u is
    0.3 + scale (w + noise), with w = 0, 1, -1 by the three-colouring
    (m + 2n) mod 3, so the three corners of a face carry the three values."""
    rng = np.random.default_rng(seed)
    n, m = np.indices((window.n_count, window.m_count - 1))
    w = np.array([0.0, 1.0, -1.0])[(m + 2 * n) % 3]
    d1u = 0.3 + scale * (w + 2.0 ** -12 * rng.uniform(-1.0, 1.0, size=w.shape))
    values = np.empty((window.n_count, window.m_count))
    values[:, 0] = rng.uniform(-1.0, 1.0, size=window.n_count)
    values[:, 1:] = values[:, :1] + np.cumsum(d1u, axis=1)
    return ScalarField(window, values)


def order_32_weights(values):
    """The weights of every face by the order-32 Gauss-Legendre rule, node
    by node: the kernel of ``face_partials`` at start + t * step, times the
    node's weight, added up."""
    x, w = np.polynomial.legendre.leggauss(32)
    start = _face_differences(values[:, :-1])
    step = _face_differences(np.diff(values, axis=1))
    total = np.zeros_like(start)
    for t, wt in zip(0.5 * (x + 1.0), 0.5 * w):
        total += _edge_partials(step * t + start) * wt
    return edge_sums(total)


class TestShortFaces:
    """A face whose step differences are all at most ``_SHORT_STEP`` takes
    the partials at its segment's midpoint; every other face the
    Gauss-Legendre sum."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("factor, short", [(1 - 2.0 ** -10, True), (1 + 2.0 ** -10, False)],
                             ids=["below", "above"])
    def test_at_the_threshold(self, seed, factor, short):
        # below the threshold within 4 ulp of relative error of the order-32
        # sum, above it its bits
        u = coloured_steps(Window(-8, 8, -8, 8), 0.5 * harmonic._SHORT_STEP * factor, seed)
        steps = np.abs(_face_differences(np.diff(u.values, axis=1))).max(axis=0)
        assert np.all(steps <= harmonic._SHORT_STEP) if short else np.all(
            steps > harmonic._SHORT_STEP)
        got = compute_edge_weights(u).values[:, :, :-1]
        want = order_32_weights(u.values)
        stored = ~np.isnan(got)
        assert np.array_equal(stored, ~np.isnan(want))
        if short:
            error = np.abs(got[stored] - want[stored])
            assert np.all(error <= 4.0 * np.finfo(float).eps * want[stored])
            assert np.count_nonzero(error) > 0  # the midpoint value, not the sum
        else:
            assert got.tobytes() == want.tobytes()

    def test_partials_bend_at_most_k_times_the_step_squared(self):
        # _SHORT_STEP's bound: |phi''| <= K phi s^2 along a segment, K = 1, s
        # the largest step difference.  The second difference with spacing h
        # is phi'' at a point within h, where phi is at most e^h times phi
        # at the centre (|(log phi)'| <= s = 1), so it is at most K e^h phi.
        # The rounding of the three values, below 1e-7 of phi over h^2
        # here, lies well inside the factor e^h.
        rng = np.random.default_rng(0)
        corners = rng.uniform(-40.0, 40.0, size=(3, 200_000)) * rng.uniform(size=200_000)
        direction = rng.normal(size=corners.shape)

        def differences(c):
            p, q, r = c
            return np.stack([r - q, r - p, q - p])

        x, d = differences(corners), differences(direction)
        d /= np.abs(d).max(axis=0)
        h = 2.0 ** -8
        below, at, above = (_edge_partials(x + k * h * d) for k in (-1, 0, 1))
        ratio = np.abs(above - 2.0 * at + below) / h ** 2 / at
        k = 1.0
        assert ratio.max() <= k * math.exp(h)
        assert ratio.max() > 0.9 * k  # the bound is nearly reached
        assert k * harmonic._SHORT_STEP ** 2 / 24 <= 2.0 ** -60

    def test_mixed_field_takes_both_rules(self):
        for u in (WEIGHT_FIELDS["mixed"], mixed_field(Window(-4, 4, -4, 4))):
            short = np.abs(_face_differences(np.diff(u.values, axis=1))) <= harmonic._SHORT_STEP
            rows = short.all(axis=(0, 1, 3))
            assert rows.any() and not rows.all()


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

    def test_window_past_int64(self):
        ew = EdgeWeights.uniform(Window(99999999999999999999, 100000000000000000004, -2, 2), 0.5)
        assert volume(ew, {(100000000000000000001, 0)}) == 3.0

    def test_matches_per_vertex_sum(self):
        u = wavy_field(Window(-6, 7, -6, 6))
        weights = compute_edge_weights(u)
        vertices = ball((0, 0), 4)
        direct = sum(weights.get(v, x) for v in vertices for x in neighbors(v))
        assert volume(weights, vertices) == pytest.approx(direct, rel=1e-14)


def walk_reference(weights, start, steps, trials, seed):
    """The walk's earlier step loop: each step compares one draw per trial
    with all six cumulative probabilities of its state and sums the row.
    The chain is built vertex by vertex from ``neighbors`` and
    ``EdgeWeights.get``."""
    window = weights.window
    index = {v: i for i, v in enumerate(window.vertices())}
    returned, censored = window.num_vertices, window.num_vertices + 1
    nbr_idx = np.full((window.num_vertices + 2, 6), censored, dtype=np.int64)
    cum = np.ones((window.num_vertices + 2, 6))
    for v in window.interior_vertices():
        try:
            etas = np.array([weights.get(v, w) for w in neighbors(v)])
        except MissingEdgeError:
            continue
        cum[index[v]] = np.cumsum(etas / etas.sum())
        nbr_idx[index[v]] = [returned if w == start else index[w] for w in neighbors(v)]
    cum[:, -1] = 1.0
    nbr_idx[returned] = returned
    start_idx = index[start]
    rng = np.random.default_rng(seed)
    state = np.full(trials, start_idx, dtype=np.int64)
    for _ in range(steps):
        state = nbr_idx[state, (rng.random(trials)[:, None] > cum[state]).sum(axis=1)]
    n_returned = int(np.count_nonzero(state == returned))
    n_censored = int(np.count_nonzero(state == censored))
    effective = trials - n_censored
    return WalkReport(trials, n_returned, n_censored,
                      n_returned / effective if effective else 0.0, seed)


@pytest.mark.parametrize("window", [Window(0, 2, 0, 2), Window(-3, 5, -1, 1), Window(0, 2, 0, 6),
                                    Window(-4, 5, -3, 4)])
def test_ring_gather_reads_every_interior_edge(window):
    # a distinct weight on every edge, NaN on the edges that leave the window
    rng = np.random.default_rng([window.m_count, window.n_count])
    weights = EdgeWeights(window, rng.uniform(0.1, 1.9, size=(3, window.n_count, window.m_count)))
    got = np.stack(_ring_edges(weights.values), axis=-1).reshape(-1, 6)
    assert got.shape == (len(window.interior_vertices()), 6)
    for i, v in enumerate(window.interior_vertices()):
        assert got[i].tolist() == [weights.get(v, w) for w in neighbors(v)]


def walk_law(weights, start, steps):
    """The probabilities of ``returned`` and ``censored`` after ``steps``
    steps of the walk's absorbing chain, propagated exactly.  The rows are
    built vertex by vertex from ``neighbors`` and ``EdgeWeights.get``."""
    vertices = weights.window.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    returned, censored = len(vertices), len(vertices) + 1
    chain = np.zeros((len(vertices) + 2, len(vertices) + 2))
    chain[returned, returned] = chain[censored, censored] = 1.0
    for v in vertices:
        try:
            etas = [weights.get(v, w) for w in neighbors(v)]
        except MissingEdgeError:
            chain[index[v], censored] = 1.0
            continue
        for w, value in zip(neighbors(v), etas):
            chain[index[v], returned if w == start else index[w]] += value / sum(etas)
    p = np.zeros(len(vertices) + 2)
    p[index[start]] = 1.0
    for _ in range(steps):
        p = p @ chain
    return p[returned], p[censored]


WALK_WINDOW = Window(-8, 8, -8, 8)
WALK_WEIGHTS = {
    "spiral": compute_edge_weights(spiral_field(SpiralParams(1.0, 1.2, 0.85), WALK_WINDOW)),
    "wavy": compute_edge_weights(wavy_field(WALK_WINDOW)),
    "spiral-ball": compute_edge_weights(spiral_field(SpiralParams(1.0, 1.2, 0.85), WALK_WINDOW),
                                        around=ball((1, -1), 3)),
}


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

    @pytest.mark.parametrize("field, steps, trials, seed", [
        (spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-10, 10, -10, 10)), 2, 100_000, 1),
        (spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-10, 10, -10, 10)), 30, 20_000, 3),
        (ScalarField.constant(Window(-6, 6, -6, 6), 0.0), 50, 20_000, 5),
    ], ids=["spiral-2-steps", "spiral-30-steps", "regular-50-steps"])
    def test_counts_follow_the_exact_law(self, field, steps, trials, seed):
        # returned and censored are binomial counts with the chain's exact law
        weights = compute_edge_weights(field, Quadrature(order=8))
        report = random_walk_return(weights, (0, 0), steps, trials, seed)
        for count, p in zip((report.returned, report.censored),
                            walk_law(weights, (0, 0), steps)):
            if p == 0.0:
                assert count == 0
            else:
                assert abs(count - trials * p) <= 5.0 * math.sqrt(trials * p * (1.0 - p))

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

    @pytest.mark.parametrize("name", sorted(WALK_WEIGHTS))
    @pytest.mark.parametrize("start", [(0, 0), (1, -1), (-7, 7), (6, -6), (8, 0), (-8, -8)])
    def test_matches_the_six_column_reference(self, name, start):
        # 6 steps/trials pairs x 3 seeds x 18 parametrizations: 324 reports,
        # from boundary and corner starts, empty walks and single trials
        weights = WALK_WEIGHTS[name]
        for steps, trials in ((0, 5), (1, 1), (9, 1), (2, 400), (25, 300), (60, 50)):
            for seed in (0, 3, 11):
                assert random_walk_return(weights, start, steps, trials, seed) == \
                    walk_reference(weights, start, steps, trials, seed)

    def test_stops_drawing_once_every_trial_is_absorbed(self, monkeypatch):
        # returned and censored both absorb, so a long walk on a small window
        # ends long before its step budget, with the report of the full budget
        weights = compute_edge_weights(spiral_field(SpiralParams(1.0, 1.2, 0.85),
                                                    Window(-3, 3, -3, 3)))
        draws = []
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, size):
                draws.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        report = random_walk_return(weights, (0, 0), 10**4, 20, seed=3)
        assert 0 < len(draws) < 200
        assert report.returned + report.censored == 20
        monkeypatch.undo()
        assert report == walk_reference(weights, (0, 0), 10**4, 20, seed=3)
        assert report == random_walk_return(weights, (0, 0), len(draws), 20, seed=3)

    @pytest.mark.parametrize("trials", [7, 2 * 7 + 3])
    @pytest.mark.parametrize("case", ["wavy", "censored", "early-stop"])
    def test_blocks_of_trials_match_the_reference(self, monkeypatch, trials, case):
        # seven trials per block: one whole block, or two and a part
        monkeypatch.setattr(harmonic, "_TRIAL_BLOCK", 7)
        weights, start, steps = {
            "wavy": (WALK_WEIGHTS["wavy"], (0, 0), 60),
            "censored": (WALK_WEIGHTS["spiral-ball"], (1, -1), 25),
            "early-stop": (compute_edge_weights(spiral_field(SpiralParams(1.0, 1.2, 0.85),
                                                             Window(-3, 3, -3, 3))), (0, 0), 10**4),
        }[case]
        for seed in (0, 3, 11):
            report = random_walk_return(weights, start, steps, trials, seed)
            assert report == walk_reference(weights, start, steps, trials, seed)
            if case != "wavy":
                assert report.censored > 0
            if case == "early-stop":
                assert report.returned + report.censored == trials

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
