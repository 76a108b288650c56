"""Combinatorics of the triangulated hexagonal lattice.

Vertices are integer pairs (m, n) embedded in the plane at m + n e^{i pi/3},
so every vertex has six neighbors at unit distance.  Faces are positively
oriented triples of pairwise adjacent vertices.  Scalar fields (log radii,
mostly) live on rectangular index windows and are stored densely;
``faces``, ``corner_sums`` and ``edge_sums`` map them to faces and back,
and ``neighbor_values`` and ``EDGE_ENDS`` to neighbors and to edge ends.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

Vertex = tuple[int, int]
Face = tuple[Vertex, Vertex, Vertex]

# Counterclockwise neighbor offsets, starting at (1, 0).
NEIGHBOR_OFFSETS: tuple[Vertex, ...] = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

_OFFSET_INDEX = {off: k for k, off in enumerate(NEIGHBOR_OFFSETS)}
_NEXT_PETAL = np.array([1, 2, 3, 4, 5, 0])

# Edge directions in the order that sorts the far endpoints of a fixed v.
DIRECTIONS: tuple[Vertex, ...] = ((0, 1), (1, -1), (1, 0))

# Slices of a window-shaped array at the ends v, w = v + DIRECTIONS[k] of the
# window's edges; v's also indexes [k] of a (3, rows, cols) per-edge array.
EDGE_ENDS = ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[1:, :-1], np.s_[:-1, 1:]),
             (np.s_[:, :-1], np.s_[:, 1:]))

# Slices of a (3, rows, cols) per-edge array at the edges v -> v + DIRECTIONS[k]
# of a window-shaped array's ``faces`` that have a face on either side: the
# slots ``edge_sums`` fills.
TWO_FACE_EDGES = (np.s_[:-1, 1:-1], np.s_[1:, :-1], np.s_[1:-1, :-1])

# Largest magnitude of a value in a field CSV: the angle kernels subtract
# log radii and add two such differences, and the harmonic start solves a
# linear system in them, so values near the float range would overflow.
MAX_FIELD_VALUE = 1e300

# Field values, edges or circles per block of a written CSV or SVG: a
# block's Python numbers and strings exist only while it is formatted, so
# memory does not grow with the file.
_BLOCK = 4096


def embed(v: Vertex) -> complex:
    """Planar position of a lattice vertex: m + n e^{i pi/3}."""
    return v[0] + v[1] * cmath.exp(1j * math.pi / 3.0)


def neighbors(v: Vertex) -> list[Vertex]:
    """The six neighbors of ``v`` in counterclockwise order, starting at (m+1, n)."""
    m, n = v
    return [(m + dm, n + dn) for dm, dn in NEIGHBOR_OFFSETS]


def are_adjacent(v: Vertex, w: Vertex) -> bool:
    return (w[0] - v[0], w[1] - v[1]) in _OFFSET_INDEX


def translate(v: Vertex) -> Vertex:
    """Shift one step in the m direction: (m, n) -> (m+1, n)."""
    return (v[0] + 1, v[1])


def canonical_face(v1: Vertex, v2: Vertex, v3: Vertex) -> Face:
    """Validate a positively oriented face and rotate it so the smallest
    vertex comes first (faces equal up to cyclic rotation compare equal)."""
    verts = (v1, v2, v3)
    for a, b in ((v1, v2), (v2, v3), (v3, v1)):
        if not are_adjacent(a, b):
            raise ValueError(f"face vertices must be pairwise adjacent: {verts}")
    am, an = v2[0] - v1[0], v2[1] - v1[1]
    bm, bn = v3[0] - v1[0], v3[1] - v1[1]
    # Signed area under the embedding is (sqrt(3)/2) * (am*bn - an*bm).
    if am * bn - an * bm <= 0:
        raise ValueError(f"face must be positively oriented: {verts}")
    k = min(range(3), key=lambda idx: verts[idx])
    return (verts[k], verts[(k + 1) % 3], verts[(k + 2) % 3])


def faces_at(v: Vertex) -> list[Face]:
    """The six positively oriented faces containing ``v``, one per pair of
    consecutive neighbors."""
    nbrs = neighbors(v)
    return [canonical_face(v, nbrs[k], nbrs[(k + 1) % 6]) for k in range(6)]


def faces_containing_edge(v: Vertex, w: Vertex) -> tuple[Face, Face]:
    """The two faces sharing the edge {v, w}: first the one to the left of
    the directed edge v -> w, then the one to the right."""
    off = (w[0] - v[0], w[1] - v[1])
    k = _OFFSET_INDEX.get(off)
    if k is None:
        raise ValueError(f"{v} and {w} are not adjacent")
    nbrs = neighbors(v)
    return canonical_face(v, w, nbrs[(k + 1) % 6]), canonical_face(v, nbrs[k - 1], w)


def graph_distance(v: Vertex, w: Vertex) -> int:
    """Combinatorial distance on the lattice."""
    dm, dn = w[0] - v[0], w[1] - v[1]
    return max(abs(dm), abs(dn), abs(dm + dn))


def ball(v: Vertex, radius: int) -> set[Vertex]:
    """All vertices within combinatorial distance ``radius`` of ``v``."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    m, n = v
    return {
        (m + dm, n + dn)
        for dm in range(-radius, radius + 1)
        for dn in range(-radius, radius + 1)
        if max(abs(dm), abs(dn), abs(dm + dn)) <= radius
    }


@dataclass(frozen=True)
class Window:
    """Rectangular index box m_min..m_max, n_min..n_max (inclusive).

    A vertex is interior when all six of its neighbors lie in the box,
    which for this neighbor set is exactly the strict interior of the box.
    """

    m_min: int
    m_max: int
    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        try:  # Python ints: numpy corners overflow counts and make flags that cannot index lists
            for corner in fields(self):
                object.__setattr__(self, corner.name, operator.index(getattr(self, corner.name)))
        except TypeError:
            raise ValueError(f"window corners must be integers, got {self}") from None
        if self.m_min > self.m_max or self.n_min > self.n_max:
            raise ValueError(f"empty window: {self}")

    @property
    def m_count(self) -> int:
        return self.m_max - self.m_min + 1

    @property
    def n_count(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def num_vertices(self) -> int:
        return self.m_count * self.n_count

    def contains(self, v: Vertex) -> bool:
        return self.m_min <= v[0] <= self.m_max and self.n_min <= v[1] <= self.n_max

    def is_interior(self, v: Vertex) -> bool:
        return self.m_min < v[0] < self.m_max and self.n_min < v[1] < self.n_max

    def vertices(self) -> list[Vertex]:
        return [(m, n) for n in range(self.n_min, self.n_max + 1)
                for m in range(self.m_min, self.m_max + 1)]

    def interior_vertices(self) -> list[Vertex]:
        return [(m, n) for n in range(self.n_min + 1, self.n_max)
                for m in range(self.m_min + 1, self.m_max)]

    def boundary_vertices(self) -> list[Vertex]:
        return [v for v in self.vertices() if not self.is_interior(v)]

    def center_vertex(self) -> Vertex:
        return ((self.m_min + self.m_max) // 2, (self.n_min + self.n_max) // 2)


class ScalarField:
    """A real value per vertex of a window, stored as a dense float64 array.

    Row i holds the values at n = n_min + i, column j those at m = m_min + j.
    Every entry must be finite.
    """

    __slots__ = ("window", "values")

    def __init__(self, window: Window, values: np.ndarray) -> None:
        arr = np.array(values, dtype=float)
        if arr.shape != (window.n_count, window.m_count):
            raise ValueError(
                f"values shape {arr.shape} does not match window "
                f"{(window.n_count, window.m_count)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must all be finite")
        self.window = window
        self.values = arr

    @classmethod
    def from_function(cls, window: Window, fn) -> "ScalarField":
        vals = [[fn((m, n)) for m in range(window.m_min, window.m_max + 1)]
                for n in range(window.n_min, window.n_max + 1)]
        return cls(window, np.array(vals, dtype=float))

    @classmethod
    def constant(cls, window: Window, value: float) -> "ScalarField":
        return cls(window, np.full((window.n_count, window.m_count), float(value)))

    def _index(self, v: Vertex) -> tuple[int, int]:
        if not self.window.contains(v):
            raise KeyError(f"vertex {v} is outside window {self.window}")
        return v[1] - self.window.n_min, v[0] - self.window.m_min

    def __getitem__(self, v: Vertex) -> float:
        i, j = self._index(v)
        return float(self.values[i, j])

    def __setitem__(self, v: Vertex, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"field values must be finite, got {value!r}")
        i, j = self._index(v)
        self.values[i, j] = value

    def copy(self) -> "ScalarField":
        return ScalarField(self.window, self.values.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.window == other.window and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"ScalarField({self.window}, shape={self.values.shape})"


def neighbor_values(a: np.ndarray) -> list[np.ndarray]:
    """The values of a window-shaped array, or of a stack of them (..., rows,
    cols), at the six neighbors of every vertex, 0 (False) off the window:
    six views shaped like ``a``, in ``NEIGHBOR_OFFSETS`` order."""
    rows, cols = a.shape[-2:]
    padded = np.zeros((*a.shape[:-2], rows + 2, cols + 2), dtype=a.dtype)
    padded[..., 1:-1, 1:-1] = a
    return [padded[..., 1 + dn:rows + 1 + dn, 1 + dm:cols + 1 + dm] for dm, dn in NEIGHBOR_OFFSETS]


def _ring_edges(edges: np.ndarray) -> list[np.ndarray]:
    """Per-edge values, stored as ``edge_sums`` returns them, on the edges
    from the interior vertices to their six neighbors: six (rows - 2,
    cols - 2) views of ``edges``, in ``NEIGHBOR_OFFSETS`` order."""
    rows, cols = edges.shape[1:]
    # Neighbor k lies at DIRECTIONS[(2, 0, 1, 2, 0, 1)[k]], negated for
    # k = 2, 3, 4, where the edge is stored at the neighbor.
    return [edges[d, 1 + dn:rows - 1 + dn, 1 + dm:cols - 1 + dm] if 2 <= k <= 4
            else edges[d, 1:-1, 1:-1]
            for k, (d, (dm, dn)) in enumerate(zip((2, 0, 1, 2, 0, 1), NEIGHBOR_OFFSETS))]


def faces(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counterclockwise corners p, q, r of the faces of a window-shaped array,
    each (2, rows - 1, cols - 1): A(v) = (v, v+(1,0), v+(0,1)) at [0, i, j] and
    B(v) = (v+(1,0), v+(1,1), v+(0,1)) at [1, i, j], for v in row i, column j."""
    return (np.stack([a[:-1, :-1], a[:-1, 1:]]), np.stack([a[:-1, 1:], a[1:, 1:]]),
            np.stack([a[1:, :-1], a[1:, :-1]]))


def _face_differences(a: np.ndarray) -> np.ndarray:
    """The edge differences (r - q, r - p, q - p) of the ``faces`` of a
    window-shaped array, real or complex, in one (3, 2, rows - 1, cols - 1)
    array, without stacking the corners."""
    out = np.empty((3, 2, a.shape[0] - 1, a.shape[1] - 1), dtype=a.dtype)
    for f, (p, q, r) in enumerate(((a[:-1, :-1], a[:-1, 1:], a[1:, :-1]),
                                   (a[:-1, 1:], a[1:, 1:], a[1:, :-1]))):
        np.subtract(r, q, out=out[0, f])
        np.subtract(r, p, out=out[1, f])
        np.subtract(q, p, out=out[2, f])
    return out


def _ring_differences(x: np.ndarray) -> np.ndarray:
    """The edge differences (r - q, r - p, q - p) = (x[k+1] - x[k], x[k+1], x[k])
    of the faces (p, q, r) = (centre, petal k, petal k+1) of flowers with petal
    offsets u(w) - u(v) ``x`` (..., 6), in ``NEIGHBOR_OFFSETS`` order, stacked
    (3, ..., 6): the centre's angles are ``_face_angles[0]``, their partials in
    petals k and k+1 ``_edge_partials[2]`` and ``[1]``."""
    after = x[..., _NEXT_PETAL]
    return np.stack([after - x, after, x])


def corner_sums(f: np.ndarray) -> np.ndarray:
    """Values at the corners p, q, r of the ``faces``, stacked (3, 2, rows - 1,
    cols - 1), summed at each vertex: (rows, cols)."""
    (pa, pb), (qa, qb), (ra, rb) = f
    out = np.zeros((f.shape[2] + 1, f.shape[3] + 1))
    out[:-1, :-1] += pa
    out[:-1, 1:] += qa + pb
    out[1:, 1:] += qb
    out[1:, :-1] += ra + rb
    return out


def edge_sums(f: np.ndarray) -> np.ndarray:
    """Values on the edges qr, rp, pq of the ``faces``, stacked (3, 2, rows - 1,
    cols - 1), summed over the two faces at each edge: (3, rows, cols), the
    edge from v to v + DIRECTIONS[k] at [k] and v's row and column, NaN
    where the edge has fewer than two faces."""
    (qra, qrb), (rpa, rpb), (pqa, pqb) = f
    out = np.full((3, f.shape[2] + 1, f.shape[3] + 1), np.nan)
    out[0][TWO_FACE_EDGES[0]] = rpa[:, 1:] + pqb[:, :-1]
    out[1][TWO_FACE_EDGES[1]] = qra + rpb
    out[2][TWO_FACE_EDGES[2]] = pqa[1:] + qrb[:-1]
    return out


def d1(f: ScalarField) -> ScalarField:
    """Forward difference in m: out(m, n) = f(m+1, n) - f(m, n)."""
    w = f.window
    if w.m_max == w.m_min:
        raise ValueError("d1 needs a window at least two columns wide")
    out = Window(w.m_min, w.m_max - 1, w.n_min, w.n_max)
    return ScalarField(out, f.values[:, 1:] - f.values[:, :-1])


def d2(f: ScalarField) -> ScalarField:
    """Forward difference in n: out(m, n) = f(m, n+1) - f(m, n)."""
    w = f.window
    if w.n_max == w.n_min:
        raise ValueError("d2 needs a window at least two rows tall")
    out = Window(w.m_min, w.m_max, w.n_min, w.n_max - 1)
    return ScalarField(out, f.values[1:, :] - f.values[:-1, :])


def _field_csv_blocks(f: ScalarField) -> Iterator[str]:
    """``write_field_csv``'s text: the header, then one string per group of
    whole rows holding at most ``_BLOCK`` values (one row if a row is longer),
    each group under the same row template.  A group's Python floats exist
    only while it is formatted."""
    w = f.window
    row = ",".join(["%.16e"] * w.m_count) + "\n"
    yield f"# window {w.m_min} {w.m_max} {w.n_min} {w.n_max}\n"
    rows, per_block = f.values[::-1], max(1, _BLOCK // w.m_count)
    for start in range(0, w.n_count, per_block):
        block = rows[start:start + per_block]
        yield row * len(block) % tuple(block.ravel().tolist())


def write_field_csv(f: ScalarField) -> str:
    """Serialize a field: a window header, then one CSV row per n from
    n_max down to n_min, values in m order with 17 significant digits
    (exact round trip for doubles)."""
    return "".join(_field_csv_blocks(f))


def read_field_csv(text: str) -> ScalarField:
    """Parse the output of :func:`write_field_csv`.  A value that is not a
    number of magnitude at most ``MAX_FIELD_VALUE`` raises a ValueError
    naming its vertex."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    parts = lines[0].split() if lines else []
    if parts[:2] != ["#", "window"]:
        raise ValueError("field CSV must start with a '# window ...' header")
    if len(parts) != 6:
        raise ValueError(f"malformed window header: {lines[0]!r}")
    try:
        m_min, m_max, n_min, n_max = (int(p) for p in parts[2:])
    except ValueError as exc:
        raise ValueError(f"malformed window header: {lines[0]!r}") from exc
    window = Window(m_min, m_max, n_min, n_max)
    rows = lines[1:]
    if len(rows) != window.n_count:
        raise ValueError(f"expected {window.n_count} rows, got {len(rows)}")
    for r, line in enumerate(rows):  # before allocating what the header claims
        cells = line.count(",") + 1
        if cells != window.m_count:
            raise ValueError(f"row {r} has {cells} cells, expected {window.m_count}")
    data = np.empty((window.n_count, window.m_count), dtype=float)
    for r, line in enumerate(rows):
        data[window.n_count - 1 - r] = [float(c) for c in line.split(",")]
    bad = np.argwhere(~(np.abs(data) <= MAX_FIELD_VALUE))
    if bad.size:
        i, j = bad[0].tolist()
        raise ValueError(f"value {float(data[i, j])!r} at {(window.m_min + j, window.n_min + i)}"
                         f" is not a number of magnitude at most {MAX_FIELD_VALUE:.0e}")
    return ScalarField(window, data)
