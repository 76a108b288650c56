"""Lattice combinatorics: neighbors, faces, differences, balls, windows,
and the field CSV format; the faces' edge differences against the stacked
corners.  Ball sizes are checked against a breadth-first
enumeration oracle and orientation against the planar embedding."""

import gc
import math
import re
import sys

import numpy as np
import pytest

from hexpack.geometry import (TWO_PI, _edge_differences, _edge_partials, _face_angles, face_angles,
                              face_partials)
from hexpack.harmonic import EdgeWeights
from hexpack.lattice import (
    DIRECTIONS,
    EDGE_ENDS,
    ScalarField,
    Window,
    _BLOCK,
    _face_differences,
    _field_csv_blocks,
    _ring_differences,
    ball,
    canonical_face,
    corner_sums,
    d1,
    d2,
    edge_sums,
    embed,
    faces,
    faces_at,
    faces_containing_edge,
    graph_distance,
    neighbor_values,
    neighbors,
    read_field_csv,
    translate,
    write_field_csv,
)
from hexpack.layout import develop
from hexpack.solver import _defects, _Grid
from hexpack.spiral import SpiralParams, spiral_field


def bfs_ball(v, radius):
    """Oracle: breadth-first enumeration of the combinatorial ball."""
    seen = {v}
    frontier = {v}
    for _ in range(radius):
        frontier = {w for x in frontier for w in neighbors(x)} - seen
        seen |= frontier
    return seen


class TestNeighbors:
    def test_origin(self):
        assert neighbors((0, 0)) == [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]

    def test_unit_distance_under_embedding(self):
        v = (2, -1)
        for w in neighbors(v):
            assert abs(embed(w) - embed(v)) == pytest.approx(1.0, abs=1e-12)

    def test_adjacency_is_symmetric(self):
        v = (3, 5)
        for w in neighbors(v):
            assert v in neighbors(w)

    def test_degree_six_distinct(self):
        ws = neighbors((-4, 7))
        assert len(ws) == 6
        assert len(set(ws)) == 6


WINDOWS = [Window(0, 0, 0, 0), Window(-2, 2, 0, 0), Window(0, 0, -2, 2), Window(0, 1, 0, 1),
           Window(-1, 1, -1, 1), Window(-4, 4, 1, 6)]


class TestNeighborValues:
    """``neighbor_values``, and the solver's colour classes made from it,
    against ``neighbors`` at every vertex of windows 1x1, 1x5, 5x1, 2x2, 3x3
    and 6x9 (rows x columns); the classes also on windows whose corners make
    (m + 2n) mod 3 = 2 and pass int64."""

    @staticmethod
    def field(window):
        return ScalarField.from_function(window, lambda v: 100 * v[0] + v[1] + 0.5)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_values_at_each_neighbor_or_zero(self, window):
        u = self.field(window)  # never 0 on the window
        got = neighbor_values(u.values)
        assert [a.shape for a in got] == [u.values.shape] * 6
        for v in window.vertices():
            i, j = v[1] - window.n_min, v[0] - window.m_min
            assert [a[i, j] for a in got] == [u[w] if window.contains(w) else 0.0
                                              for w in neighbors(v)]

    @pytest.mark.parametrize("window", [*WINDOWS, Window(0, 6, 1, 7),
                                        Window(2**63 + 1, 2**63 + 7, -2, 3)])
    def test_rings_in_interior_vertex_order(self, window):
        # each class's rings: the flat indices of its vertices' neighbors
        index = {v: k for k, v in enumerate(window.vertices())}
        interior = window.interior_vertices()
        classes = []
        for mask, ring in _Grid(window).colours:
            members = [v for v, inside in zip(interior, mask.ravel().tolist()) if inside]
            assert ring.shape == (len(members), 6)
            assert ring.tolist() == [[index[w] for w in neighbors(v)] for v in members]
            classes.append(set(members))
        assert sum(map(len, classes)) == len(interior) and set().union(*classes) == set(interior)
        assert not any(w in members for members in classes for v in members for w in neighbors(v))


class TestFaces:
    def test_face_at_origin_contains_first_pair(self):
        assert ((0, 0), (1, 0), (0, 1)) in faces_at((0, 0))

    def test_six_faces_everywhere(self):
        for v in [(0, 0), (2, -1), (-3, 4)]:
            fs = faces_at(v)
            assert len(fs) == 6
            assert len(set(fs)) == 6

    def test_face_incidence_consistency(self):
        v = (1, 2)
        for face in faces_at(v):
            for w in face:
                assert face in faces_at(w)

    def test_faces_positively_oriented_in_embedding(self):
        for face in faces_at((0, 0)) + faces_at((5, -2)):
            a = embed(face[1]) - embed(face[0])
            b = embed(face[2]) - embed(face[0])
            assert a.real * b.imag - a.imag * b.real > 0

    def test_faces_containing_edge_example(self):
        left, right = faces_containing_edge((0, 0), (1, 0))
        assert left == ((0, 0), (1, 0), (0, 1))
        assert right == ((0, 0), (1, -1), (1, 0))

    def test_every_edge_has_two_faces(self):
        v = (4, -3)
        for w in neighbors(v):
            fs = faces_containing_edge(v, w)
            assert len(fs) == 2
            assert fs[0] != fs[1]

    def test_matches_filtered_face_enumeration(self):
        # oracle: take the faces at v that also contain w
        v = (1, -2)
        for w in neighbors(v):
            expected = {f for f in faces_at(v) if w in f}
            assert set(faces_containing_edge(v, w)) == expected

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            faces_containing_edge((0, 0), (2, 0))

    @pytest.mark.parametrize("corners, reason", [
        (((0, 0), (2, 0), (0, 1)), "pairwise adjacent"),
        (((0, 0), (1, 0), (1, 1)), "pairwise adjacent"),
        (((0, 0), (0, 1), (1, 0)), "positively oriented"),
        (((0, 0), (1, -1), (0, -1)), "positively oriented"),
    ])
    def test_canonical_face_rejects_non_faces(self, corners, reason):
        with pytest.raises(ValueError, match=reason):
            canonical_face(*corners)


class TestFaceArrays:
    """``faces``, ``corner_sums`` and ``edge_sums`` against the tuple
    combinatorics of ``faces_at`` and ``faces_containing_edge``."""

    WINDOW = Window(-2, 3, 1, 5)  # 6 columns, 5 rows

    def slots(self):
        """Each face of the slicing: its flat slot and its corners p, q, r."""
        w = self.WINDOW
        m, n = np.meshgrid(np.arange(w.m_min, w.m_max + 1), np.arange(w.n_min, w.n_max + 1))
        corners = list(zip(*(zip(a.ravel().tolist(), b.ravel().tolist())
                             for a, b in zip(faces(m), faces(n)))))
        return {canonical_face(*c): (s, c) for s, c in enumerate(corners)}

    def index(self, v):
        return v[1] - self.WINDOW.n_min, v[0] - self.WINDOW.m_min

    def test_slicing_holds_each_window_face_once(self):
        w = self.WINDOW
        inside = {f for v in w.vertices() for f in faces_at(v) if all(map(w.contains, f))}
        assert set(self.slots()) == inside
        assert len(inside) == 2 * (w.n_count - 1) * (w.m_count - 1)

    def test_corner_sums_match_faces_at(self):
        slots = self.slots()
        values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 2, 4, 5))
        flat = values.reshape(3, -1)
        got = corner_sums(values)
        assert got.shape == (5, 6)
        for v in self.WINDOW.vertices():
            expected = sum(flat[corners.index(v), s]
                           for s, corners in (slots[f] for f in faces_at(v) if f in slots))
            assert got[self.index(v)] == pytest.approx(expected, abs=1e-15)

    def test_edge_sums_match_faces_containing_edge(self):
        slots = self.slots()
        values = np.random.default_rng(6).uniform(-1.0, 1.0, size=(3, 2, 4, 5))
        flat = values.reshape(3, -1)
        got = edge_sums(values)
        assert got.shape == (3, 5, 6)
        for v in self.WINDOW.vertices():
            for k, (dm, dn) in enumerate(DIRECTIONS):
                w = (v[0] + dm, v[1] + dn)
                two = faces_containing_edge(v, w)
                if not all(f in slots for f in two):
                    assert math.isnan(got[(k, *self.index(v))])
                    continue
                # entry e of a face is on the edge opposite its corner e
                expected = sum(flat[next(e for e, x in enumerate(corners) if x not in (v, w)), s]
                               for s, corners in (slots[f] for f in two))
                assert got[(k, *self.index(v))] == pytest.approx(expected, abs=1e-15)


class TestEdgeEnds:
    """``EDGE_ENDS`` holds each window edge once, at its slot of the
    (3, rows, cols) per-edge arrays."""

    @staticmethod
    def v_slices(window):
        """True at [k] and v's row and column for each slice of the table."""
        mask = np.zeros((3, window.n_count, window.m_count), dtype=bool)
        for slots, (v, _) in zip(mask, EDGE_ENDS):
            slots[v] = True
        return mask

    @pytest.mark.parametrize("window", WINDOWS)
    def test_pairs_lie_one_direction_apart(self, window):
        m, n = np.meshgrid(np.arange(window.m_min, window.m_max + 1),
                           np.arange(window.n_min, window.n_max + 1))
        for (dm, dn), (v, w) in zip(DIRECTIONS, EDGE_ENDS, strict=True):
            assert (m[w] - m[v] == dm).all() and (n[w] - n[v] == dn).all()
            ends = list(zip(m[v].ravel().tolist(), n[v].ravel().tolist()))
            assert ends == [x for x in window.vertices()
                            if window.contains((x[0] + dm, x[1] + dn))]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_uniform_weights_are_stored_on_the_v_slices(self, window):
        weights = EdgeWeights.uniform(window, 0.5)
        assert np.array_equal(np.isnan(weights.values), ~self.v_slices(window))

    @pytest.mark.parametrize("window", [w for w in WINDOWS if min(w.n_count, w.m_count) >= 2])
    def test_edge_sums_store_inside_the_v_slices(self, window):
        got = edge_sums(np.zeros((3, 2, window.n_count - 1, window.m_count - 1)))
        assert not (~np.isnan(got) & ~self.v_slices(window)).any()


def window_of_magnitudes(rows, cols):
    """Values of magnitude 1e-300 to 1e300 with both signs, reaching +-1e300."""
    rng = np.random.default_rng([rows, cols])
    a = rng.uniform(-1.0, 1.0, (rows, cols)) * 10.0 ** rng.integers(-300, 301, (rows, cols))
    a[0, 0], a[-1, -1] = 1e300, -1e300
    return a


class TestFaceDifferences:
    """``_face_differences`` against ``_edge_differences`` of the stacked
    ``faces`` corners, and the angles and partials read from it against the
    kernel on those corners, all bit for bit."""

    @pytest.mark.parametrize("rows, cols", [(2, 2), (2, 7), (9, 5)])
    def test_real_windows_up_to_1e300(self, rows, cols):
        a = window_of_magnitudes(rows, cols)
        x = _face_differences(a)
        assert x.shape == (3, 2, rows - 1, cols - 1)
        assert np.array_equal(x, _edge_differences(*faces(a)))
        assert np.array_equal(_face_angles(x), face_angles(*faces(a)))
        assert np.array_equal(_edge_partials(x), face_partials(*faces(a)))

    def test_complex_centres(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        x = _face_differences(z)
        assert x.dtype == complex
        assert np.array_equal(x, _edge_differences(*faces(z)))

    def test_an_infinite_entry_keeps_the_nan_angles_and_partials(self):
        a = np.random.default_rng(8).uniform(-2.0, 2.0, (5, 6))
        a[2, 3] = math.inf
        x = _face_differences(a)
        assert np.array_equal(x, _edge_differences(*faces(a)))
        with np.errstate(invalid="ignore"):
            angles, expected = _face_angles(x), face_angles(*faces(a))
        assert np.isnan(angles).any()
        assert np.array_equal(angles, expected, equal_nan=True)
        partials = _edge_partials(x)
        assert np.array_equal(partials, face_partials(*faces(a)), equal_nan=True)
        # the six faces at the infinite entry, and only they, get NaN partials
        assert np.count_nonzero(np.isnan(partials).all(axis=0)) == 6

    @pytest.mark.parametrize("rows, cols", [(3, 3), (9, 5)])
    def test_defects_read_the_angles_of_the_faces(self, rows, cols):
        a = window_of_magnitudes(rows, cols) * 1e-298  # within +-100
        expected = TWO_PI - corner_sums(face_angles(*faces(a)))[1:-1, 1:-1].ravel()
        assert np.array_equal(_defects(a), expected)

    def test_develop_reads_the_angles_of_the_faces(self):
        u = spiral_field(SpiralParams(1.0, 1.2, 0.85), Window(-6, 5, -4, 4))
        defects = TWO_PI - corner_sums(face_angles(*faces(u.values)))[1:-1, 1:-1]
        assert develop(u).monodromy_residual == np.max(2.0 * np.sin(0.5 * np.abs(defects)))


class TestRingDifferences:
    """``_ring_differences`` against ``_edge_differences`` of the ring
    corners (centre 0, petal k, petal k+1), sign bits included, and the
    angles and partials read from it against the kernel on those corners."""

    @staticmethod
    def rings_and_corners():
        x = np.random.default_rng(9).uniform(-5.0, 5.0, (41, 6))
        x[-1] = [-0.0, 0.0, 1e300, -1e300, math.inf, math.nan]
        return x, (0.0, x, x[..., [1, 2, 3, 4, 5, 0]])

    def test_differences_bit_for_bit(self):
        x, corners = self.rings_and_corners()
        got, expected = _ring_differences(x), _edge_differences(*corners)
        assert got.shape == expected.shape == (3, 41, 6)
        assert got.tobytes() == expected.tobytes()
        # one flower, as _flower and the spiral closure pass it
        assert _ring_differences(x[-1]).tobytes() == expected[:, -1].tobytes()

    def test_angles_and_partials(self):
        x, corners = self.rings_and_corners()
        d = _ring_differences(x)
        with np.errstate(invalid="ignore"):  # the kernel's inf - inf at the infinite petal
            angles, expected = _face_angles(d), face_angles(*corners)
        assert np.array_equal(angles, expected, equal_nan=True)
        assert np.array_equal(_edge_partials(d), face_partials(*corners), equal_nan=True)
        # only the last ring, at its infinite and NaN petals, has NaN angles
        assert np.isnan(angles[:, -1]).any() and not np.isnan(angles[:, :-1]).any()


class TestTranslate:
    def test_basic(self):
        assert translate((0, 0)) == (1, 0)

    def test_commutes_with_neighbors(self):
        v = (2, 3)
        assert [translate(w) for w in neighbors(v)] == neighbors(translate(v))

    def test_iteration(self):
        v = (-2, 5)
        for _ in range(7):
            v = translate(v)
        assert v == (5, 5)


class TestDifferences:
    def test_constant_field(self):
        w = Window(-2, 2, -2, 2)
        f = ScalarField.constant(w, 3.25)
        assert np.all(d1(f).values == 0.0)
        assert np.all(d2(f).values == 0.0)

    def test_linear_field(self):
        w = Window(-3, 3, -2, 4)
        f = ScalarField.from_function(w, lambda v: 0.5 * v[0] - 1.25 * v[1])
        assert np.allclose(d1(f).values, 0.5, atol=1e-14)
        assert np.allclose(d2(f).values, -1.25, atol=1e-14)

    def test_difference_windows(self):
        w = Window(0, 3, 0, 2)
        f = ScalarField.constant(w, 1.0)
        assert d1(f).window == Window(0, 2, 0, 2)
        assert d2(f).window == Window(0, 3, 0, 1)

    def test_commute(self):
        w = Window(-2, 3, -3, 2)
        rng = np.random.default_rng(7)
        f = ScalarField(w, rng.normal(size=(w.n_count, w.m_count)))
        a, b = d1(d2(f)), d2(d1(f))
        assert a.window == b.window
        assert np.allclose(a.values, b.values, atol=1e-13, rtol=0.0)

    def test_empty_difference_window(self):
        f = ScalarField.constant(Window(0, 0, 0, 3), 1.0)
        with pytest.raises(ValueError):
            d1(f)
        g = ScalarField.constant(Window(0, 3, 1, 1), 1.0)
        with pytest.raises(ValueError):
            d2(g)


class TestBall:
    def test_radius_zero_and_one(self):
        assert ball((2, 2), 0) == {(2, 2)}
        b1 = ball((2, 2), 1)
        assert b1 == {(2, 2), *neighbors((2, 2))}
        assert len(b1) == 7

    def test_matches_bfs_oracle(self):
        for radius in range(9):
            assert ball((0, 0), radius) == bfs_ball((0, 0), radius)
        assert ball((3, -5), 4) == bfs_ball((3, -5), 4)

    def test_size_formula_against_bfs(self):
        for radius in (0, 1, 2, 5, 10, 25, 50):
            expected = 3 * radius * radius + 3 * radius + 1
            assert len(bfs_ball((0, 0), radius)) == expected
            assert len(ball((0, 0), radius)) == expected

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball((0, 0), -1)

    def test_graph_distance(self):
        assert graph_distance((0, 0), (1, 1)) == 2
        assert graph_distance((0, 0), (1, -1)) == 1
        assert graph_distance((2, -1), (2, -1)) == 0


class TestWindow:
    def test_classification_partition(self):
        w = Window(-2, 3, -1, 2)
        interior = set(w.interior_vertices())
        boundary = set(w.boundary_vertices())
        assert interior | boundary == set(w.vertices())
        assert not interior & boundary

    def test_interior_means_all_neighbors_inside(self):
        w = Window(-2, 3, -1, 2)
        for v in w.vertices():
            expected = all(w.contains(x) for x in neighbors(v))
            assert w.is_interior(v) == expected

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Window(1, 0, 0, 0)

    def test_counts(self):
        w = Window(-10, 10, -10, 10)
        assert w.num_vertices == 441
        assert len(w.interior_vertices()) == 361

    def test_numpy_corners_are_stored_as_python_ints(self):
        w = Window(np.int32(-50000), np.int32(50000), np.int32(-50000), np.int32(50000))
        assert all(type(c) is int for c in (w.m_min, w.m_max, w.n_min, w.n_max))
        assert w.num_vertices == 10_000_200_001  # no int32 overflow

    @pytest.mark.parametrize("corners", [(0.5, 1.5, 0, 1), (0, 1, 0.0, 1), (0, 1, "0", 1)])
    def test_non_integer_corners_rejected(self, corners):
        with pytest.raises(ValueError, match=r"window corners must be integers, got Window\("):
            Window(*corners)


class TestScalarField:
    def test_get_set(self):
        w = Window(0, 2, 0, 2)
        f = ScalarField.constant(w, 0.0)
        f[(1, 2)] = 4.5
        assert f[(1, 2)] == 4.5
        assert f[(0, 0)] == 0.0

    def test_outside_window(self):
        f = ScalarField.constant(Window(0, 1, 0, 1), 0.0)
        with pytest.raises(KeyError):
            f[(5, 5)]

    def test_rejects_non_finite(self):
        w = Window(0, 1, 0, 1)
        with pytest.raises(ValueError):
            ScalarField(w, np.array([[1.0, np.nan], [0.0, 0.0]]))
        f = ScalarField.constant(w, 0.0)
        with pytest.raises(ValueError):
            f[(0, 0)] = math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScalarField(Window(0, 2, 0, 1), np.zeros((3, 3)))


def whole_field_csv(f):
    """The field CSV written the earlier way, one ``%`` over every value."""
    w = f.window
    row = ",".join(["%.16e"] * w.m_count) + "\n"
    return (f"# window {w.m_min} {w.m_max} {w.n_min} {w.n_max}\n"
            + row * w.n_count % tuple(f.values[::-1].ravel().tolist()))


class TestFieldCsv:
    @pytest.mark.parametrize("window, blocks", [
        (Window(-3, 4, -2, 2), 1),
        (Window(-50, 49, -3, 96), 3),  # 40 rows of 100 values per block
        (Window(0, _BLOCK, 10**20, 10**20 + 2), 3),  # a row longer than a block
    ])
    def test_blocks_of_whole_rows_join_to_the_whole_csv(self, window, blocks):
        rng = np.random.default_rng(window.m_count)
        f = ScalarField(window, rng.normal(scale=5.0, size=(window.n_count, window.m_count)))
        parts = list(_field_csv_blocks(f))
        assert len(parts) == 1 + blocks
        per_block = max(_BLOCK, window.m_count)
        assert all(p.endswith("\n") and p.count("\n") * window.m_count <= per_block
                   for p in parts[1:])
        assert "".join(parts) == write_field_csv(f) == whole_field_csv(f)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(13)
        # a one-row, a one-column and a one-vertex window too
        for w in (Window(-3, 4, -2, 2), Window(0, 6, 5, 5), Window(3, 3, -4, 2),
                  Window(1, 1, 1, 1)):
            f = ScalarField(w, rng.normal(scale=5.0, size=(w.n_count, w.m_count)))
            again = read_field_csv(write_field_csv(f))
            assert again == f

    def test_header_and_row_order(self):
        w = Window(0, 2, 0, 1)
        f = ScalarField.from_function(w, lambda v: float(v[0] + 10 * v[1]))
        text = write_field_csv(f)
        lines = text.strip().splitlines()
        assert lines[0] == "# window 0 2 0 1"
        # first data row is n = n_max
        assert [float(x) for x in lines[1].split(",")] == [10.0, 11.0, 12.0]
        assert [float(x) for x in lines[2].split(",")] == [0.0, 1.0, 2.0]

    def test_seventeen_significant_digits(self):
        w = Window(0, 0, 0, 0)
        f = ScalarField.constant(w, math.pi)
        text = write_field_csv(f)
        assert "3.1415926535897931e+00" in text

    def test_bytes_pinned(self):
        f = ScalarField(Window(-1, 0, 0, 1), np.array([[-0.0, 5e-324], [-1e300, math.pi]]))
        assert write_field_csv(f) == (
            "# window -1 0 0 1\n"
            "-1.0000000000000001e+300,3.1415926535897931e+00\n"
            "-0.0000000000000000e+00,4.9406564584124654e-324\n")
        row = ScalarField(Window(0, 2, 5, 5), np.array([[1.5, -2.0, 1e-7]]))
        assert write_field_csv(row) == (
            "# window 0 2 5 5\n"
            "1.5000000000000000e+00,-2.0000000000000000e+00,9.9999999999999995e-08\n")
        column = ScalarField(Window(3, 3, -1, 1), np.array([[0.1], [0.2], [-0.3]]))
        assert write_field_csv(column) == (
            "# window 3 3 -1 1\n"
            "-2.9999999999999999e-01\n2.0000000000000001e-01\n1.0000000000000001e-01\n")

    def test_leaves_no_cyclic_garbage(self):
        f = ScalarField(Window(-3, 4, -2, 2), np.random.default_rng(3).normal(size=(5, 8)))
        gc.collect()
        write_field_csv(f)
        assert gc.collect() == 0

    def test_values_past_1e300_name_their_vertex(self):
        w = Window(-1, 1, 0, 1)
        f = ScalarField(w, np.array([[1e300, -1e300, 0.0], [0.0, 0.0, 0.0]]))
        assert read_field_csv(write_field_csv(f)) == f
        for value in (1e301, -sys.float_info.max, math.inf, math.nan):
            text = write_field_csv(f).replace("0.0000000000000000e+00", repr(value), 1)
            with pytest.raises(ValueError, match=r"at \(-1, 1\)"):
                read_field_csv(text)

    @pytest.mark.parametrize("token", ["x1", "", "1.0.0", "0x10", "#", "1_0"])
    def test_a_cell_that_is_not_a_number_names_its_token(self, token):
        # numpy's reader, unlike float, also rejects digit-grouping underscores
        with pytest.raises(ValueError, match=f"'{re.escape(token)}'"):
            read_field_csv(f"# window 0 2 0 1\n0,0,0\n0,{token},0\n")

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            read_field_csv("no header\n1.0\n")
        with pytest.raises(ValueError):
            read_field_csv("# window 0 1 0 0\n1.0\n")  # wrong cell count
        with pytest.raises(ValueError):
            read_field_csv("# window 0 0 0 1\n1.0\n")  # missing row
        # a header claiming 10^10 columns is rejected before anything is allocated
        with pytest.raises(ValueError, match="row 0 has 1 cells"):
            read_field_csv("# window 0 9999999999 0 0\n1.0\n")
        # the header's first two tokens are exactly "#" and "window"
        with pytest.raises(ValueError, match="must start with a '# window ...' header"):
            read_field_csv("# windowed 0 2 0 2\n" + "0,0,0\n" * 3)
        for header in ("# window 0 2 0", "# window 0 2 0 2 7", "# window 0 2.0 0 2",
                       "# window 0 two 0 2"):
            with pytest.raises(ValueError, match="malformed window header"):
                read_field_csv(header + "\n" + "0,0,0\n" * 3)
