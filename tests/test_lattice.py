"""Lattice combinatorics: neighbors, faces, differences, balls, windows,
and the field CSV format.  Ball sizes are checked against a breadth-first
enumeration oracle and orientation against the planar embedding."""

import math
import sys

import numpy as np
import pytest

from hexpack.lattice import (
    DIRECTIONS,
    ScalarField,
    Window,
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
    neighbors,
    read_field_csv,
    translate,
    write_field_csv,
)


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


class TestFieldCsv:
    def test_round_trip_bit_exact(self):
        w = Window(-3, 4, -2, 2)
        rng = np.random.default_rng(13)
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

    def test_values_past_1e300_name_their_vertex(self):
        w = Window(-1, 1, 0, 1)
        f = ScalarField(w, np.array([[1e300, -1e300, 0.0], [0.0, 0.0, 0.0]]))
        assert read_field_csv(write_field_csv(f)) == f
        for value in (1e301, -sys.float_info.max, math.inf, math.nan):
            text = write_field_csv(f).replace("0.0000000000000000e+00", repr(value), 1)
            with pytest.raises(ValueError, match=r"at \(-1, 1\)"):
                read_field_csv(text)

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
