"""Developing map from log radii to planar circle configurations, plus the
local univalence, flower univalence, and radius-ratio checks.

A layout holds window-shaped arrays of circle centers and radii.  Every
edge's direction is a sum of inner angles, never a difference of placed
centers: along row 0 the row edges turn, vertex by vertex, by pi minus the
three inner angles above the row, and up each column by the angles of the
two faces between two row edges; one turn puts the base's first edge
along the anchor's direction.  The base circle sits at the anchor, its row
follows by a cumulative sum of edge vectors, and every other row by
cumulative sums up and down the columns.  Walking the six inner angles
around an interior circle turns its first petal by the angle defect d, so
the loop misses by the chord 2 sin(|d|/2) in tangency distances (the
flower's holonomy).  The gap is read from the defects: placed centers
carry a float error of about ulp(|z|)/r, far above it on small circles.

The flower functions read a vertex's petal offsets u(w) - u(v) and its six
inner angles from ``solver._flower``.  The univalence and ratio checks
depend on the flower's shape only: ``check_univalent_flower`` places the
seven circles in units of the flower's largest circle, and the ratio is
inf above the float range.  ``develop_flower`` is the one flower function
at absolute scale.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .geometry import TWO_PI, _face_angles
from .lattice import (
    EDGE_ENDS,
    NEIGHBOR_OFFSETS,
    ScalarField,
    Vertex,
    Window,
    _face_differences,
    corner_sums,
    d1,
    neighbor_values,
    neighbors,
)
from .solver import _flower

# Largest angle defect a field may carry into the developing map.
DEVELOP_DEFECT_TOL = 1e-8
# Angle-sum tolerance of the local univalence test and the flower closure.
LOCAL_UNIVALENCE_TOL = 1e-9
# Relative slack allowed in pairwise tangency / disjointness tests.
OVERLAP_TOL = 1e-9
# Largest log radius whose radius exp(u) is a float.
_LOG_MAX = math.log(sys.float_info.max)


class DefectTooLarge(ValueError):
    def __init__(self, vertex: Vertex, defect: float) -> None:
        super().__init__(
            f"angle defect {defect:.3e} at {vertex} exceeds {DEVELOP_DEFECT_TOL:.0e};"
            " solve the field before developing it"
        )
        self.vertex = vertex
        self.defect = defect


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise ValueError(f"center must be finite, got {self.center!r}")


@dataclass(frozen=True)
class Anchor:
    """Base vertex of the development, the point its circle is centered on,
    and the direction toward its first placed neighbor."""

    vertex: Vertex
    center: complex = 0j
    direction: complex = 1 + 0j

    def __post_init__(self) -> None:
        try:  # Python ints: develop's flags from numpy integers cannot index a list
            object.__setattr__(self, "vertex", tuple(map(operator.index, self.vertex)))
        except TypeError:
            raise ValueError(f"vertex must be a pair of integers, got {self.vertex!r}") from None
        if not cmath.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        # Scaled to a largest component of 1, so that abs neither overflows nor underflows.
        scale = max(abs(self.direction.real), abs(self.direction.imag))
        if not (cmath.isfinite(self.direction) and scale > 0):
            raise ValueError(f"direction must be a nonzero vector, got {self.direction!r}")
        unit = self.direction / scale
        object.__setattr__(self, "direction", unit / abs(unit))


class Layout:
    """Circles on a window as read-only copies of the arrays ``centers``
    (complex) and ``radii``, shaped like a field's values (else a ValueError),
    NaN where no circle sits.  ``monodromy_residual`` is the worst flower
    loop gap over the interior vertices, 2 sin(|d|/2) in tangency distances
    for an angle defect d."""

    def __init__(self, window: Window, centers: np.ndarray, radii: np.ndarray, base: Anchor,
                 monodromy_residual: float = 0.0) -> None:
        if not np.shape(centers) == np.shape(radii) == (window.n_count, window.m_count):
            raise ValueError(f"shapes {np.shape(centers)}, {np.shape(radii)} do not fit {window}")
        self.window, self.base, self.monodromy_residual = window, base, monodromy_residual
        self.centers, self.radii = np.array(centers, dtype=complex), np.array(radii, dtype=float)
        self.centers.flags.writeable = self.radii.flags.writeable = False

    def placed(self, *arrays: np.ndarray) -> list[list]:
        """Lists over the placed circles, in vertex order (m, then n): their
        m, their n, then the entries of each window-shaped array."""
        w = self.window
        grids = (np.arange(w.m_min, w.m_max + 1), np.arange(w.n_min, w.n_max + 1)[:, None])
        return [a.tolist() for a in self._placed(*grids, *arrays)]

    def _placed(self, *arrays: np.ndarray) -> list[np.ndarray]:
        """The entries of each array, window-shaped or broadcast to the
        window, at the placed circles, in vertex order, as arrays."""
        keep = ~np.isnan(self.radii)
        return [np.broadcast_to(a, keep.shape).T[keep.T] for a in arrays]

    @cached_property
    def circles(self) -> MappingProxyType[Vertex, Circle]:
        """Read-only map from vertex to circle, in vertex order."""
        ms, ns, cs, rs = self.placed(self.centers, self.radii)
        return MappingProxyType({(m, n): Circle(c, r) for m, n, c, r in zip(ms, ns, cs, rs)})


def _distance_overflow(u: ScalarField, v: Vertex, w: Vertex) -> ValueError:
    """The error for a tangency distance exp(u(v)) + exp(u(w)) past the float
    range."""
    return ValueError(f"tangency distance exp({u[v]!r}) + exp({u[w]!r}) from {v} to {w} "
                      "overflows")


def _vertex_at(window: Window, index: int, inset: int = 0) -> Vertex:
    """The vertex at a flat index into a window-shaped array, or with ``inset``
    1 into its interior, in Python ints, without listing the window."""
    n, m = divmod(int(index), window.m_count - 2 * inset)
    return window.m_min + inset + m, window.n_min + inset + n


def develop(u: ScalarField, base: Anchor | None = None) -> Layout:
    """Place one circle per window vertex, consistent with all tangencies.

    The window must be one vertex or at least two rows by two columns (else
    a ValueError), and every interior angle defect at most
    ``DEVELOP_DEFECT_TOL`` (else :class:`DefectTooLarge`).  The worst gap
    of the flower loops around the interior vertices, 2 sin(|d|/2) for a
    defect d, is stored on the layout.  A radius exp(u) that is not a
    positive normal float (a subnormal one has too few bits for the
    tangencies to close), an overflowing tangency distance r_v + r_w and an
    overflowing center raise a ValueError naming the vertex.

    Centers are absolute, with a float64 error of about ulp(|z|): a circle
    of radius r far from the base has a relative tangency error of about
    ulp(|z|)/r (3.0e-4 on the exact 161x161 spiral x = 1.2, y = 0.85 from
    its center, yet at most 1.6e-15 of the picture's span).
    """
    window = u.window
    rows, cols = window.n_count, window.m_count
    if min(rows, cols) < 2 and window.num_vertices > 1:
        raise ValueError(f"develop needs a single vertex or a window at least two rows "
                         f"tall and two columns wide, got {window}")
    angles = _face_angles(_face_differences(u.values))
    defects = (TWO_PI - corner_sums(angles)[1:-1, 1:-1]).ravel()  # as angle_defects(u)
    bad = np.flatnonzero(np.abs(defects) > DEVELOP_DEFECT_TOL)
    if bad.size:
        raise DefectTooLarge(_vertex_at(window, bad[0], 1), abs(float(defects[bad[0]])))

    base = Anchor(window.center_vertex()) if base is None else base
    if not window.contains(base.vertex):
        raise ValueError(f"base vertex {base.vertex} is outside window {window}")

    with np.errstate(all="ignore"):
        radii = np.exp(u.values)
        bad = np.flatnonzero(~((radii >= sys.float_info.min) & (radii < math.inf)))
        if bad.size:
            v = _vertex_at(window, bad[0])
            raise ValueError(f"radius exp({u[v]!r}) at {v} is not a positive normal float")
        # 0 off the window: no radius outside it
        over = np.isinf([radii + w for w in neighbor_values(radii)]).reshape(6, -1)
        bad = np.flatnonzero(over.any(axis=0))
        if bad.size:
            v = _vertex_at(window, bad[0])
            dm, dn = NEIGHBOR_OFFSETS[int(np.argmax(over[:, bad[0]]))]
            raise _distance_overflow(u, v, (v[0] + dm, v[1] + dn))
        centers = np.full((rows, cols), base.center, dtype=complex)
        ib, jb = base.vertex[1] - window.n_min, base.vertex[0] - window.m_min
        first = next((w for w in neighbors(base.vertex) if window.contains(w)), None)
        if first is not None:
            at_p, at_q, at_r = angles
            # The angle of each row edge, up to one common turn: along row 0,
            # pi minus the angles above the row at each vertex; up a column,
            # across the faces A and B between two row edges.
            turns = math.pi - at_p[0, 0, 1:] - at_p[1, 0, :-1] - at_q[0, 0, :-1]
            phi = np.vstack([np.append(0.0, turns.cumsum()), at_r[1] - at_q[0]]).cumsum(axis=0)
            # The turn that puts the base's edge to its first neighbor, (1, 0),
            # (-1, 0) or (0, 1), along the anchor's direction.
            offset = (first[0] - base.vertex[0], first[1] - base.vertex[1])
            edge, turn = (jb, base.direction) if offset == (1, 0) else (jb - 1, -base.direction)
            if offset == (0, 1):
                turn *= cmath.exp(1j * (at_p[1, ib, edge] + at_q[0, ib, edge]))
            along = turn * np.exp(1j * (phi - phi[ib, edge]))
            row_steps = (radii[:, :-1] + radii[:, 1:]) * along
            # The (0, 1) edges: each row edge turned by the angle at p of its face A.
            up_steps = (radii[:-1, :-1] + radii[1:, :-1]) * along[:-1] * np.exp(1j * at_p[0])
            # Out from the base along its row, then up and down the columns
            # from the base row; each row's last circle along its last edge.
            for z, steps, k in ((centers[ib], row_steps[ib], jb), (centers[:, :-1], up_steps, ib)):
                z[k + 1:] = z[k] + np.cumsum(steps[k:], axis=0)
                z[:k] = z[k] - np.cumsum(steps[:k][::-1], axis=0)[::-1]
            others = np.arange(rows) != ib
            centers[others, -1] = centers[others, -2] + row_steps[others, -1]

    bad = np.flatnonzero(~np.isfinite(centers))
    if bad.size:
        raise ValueError(f"circle at {_vertex_at(window, bad[0])} is placed outside the "
                         "float range")
    return Layout(window, centers, radii, base,
                  float(np.max(2.0 * np.sin(0.5 * np.abs(defects)), initial=0.0)))


def max_tangency_residual(layout: Layout) -> float:
    """Largest relative tangency error over the layout's edges."""
    z, r = layout.centers, layout.radii
    err = np.concatenate([(np.abs(np.abs(z[v] - z[w]) - (r[v] + r[w])) / (r[v] + r[w])).ravel()
                          for v, w in EDGE_ENDS])
    return float(np.max(err, initial=0.0, where=~np.isnan(err)))


def min_face_orientation(layout: Layout) -> float:
    """Smallest signed area of the center triangles of the layout's faces,
    taken at each corner; positive for a correctly oriented development."""
    qr, rp, pq = _face_differences(layout.centers)
    # at p: (q - p)* (r - p); at q: (r - q)* (p - q); at r: (p - r)* (q - r)
    areas = np.array([0.5 * (a.conjugate() * b).imag
                      for a, b in ((pq, rp), (qr, -pq), (-rp, -qr))])
    return float(np.min(areas, initial=math.inf, where=~np.isnan(areas)))


def check_local_univalence(u: ScalarField, v: Vertex) -> bool:
    """True when the six carrier triangles at ``v`` have disjoint interiors:
    every inner angle in (0, pi) and the angle sum within 1e-9 of 2*pi."""
    angles = _flower(u, v)[1]
    return bool(np.all((0.0 < angles) & (angles < math.pi))
                and abs(angles.sum() - TWO_PI) <= LOCAL_UNIVALENCE_TOL)


def develop_flower(u: ScalarField, v: Vertex) -> list[Circle]:
    """The center circle of ``v`` at the origin plus its six petals, placed
    by accumulating the inner angles counterclockwise from the +x axis; a
    radius exp(u) that is not a positive normal float raises a ValueError
    naming its vertex, and an overflowing tangency distance r_v + r_w one
    naming the centre and the petal."""
    angles = _flower(u, v)[1]
    verts = [v, *neighbors(v)]
    radii = [math.exp(u[w]) if u[w] <= _LOG_MAX else math.inf for w in verts]
    for w, r in zip(verts, radii):
        if not sys.float_info.min <= r < math.inf:
            raise ValueError(f"radius exp({u[w]!r}) at {w} is not a positive normal float")
    for w, r in zip(verts[1:], radii[1:]):
        if radii[0] + r == math.inf:
            raise _distance_overflow(u, v, w)
    phi = np.cumsum([0.0, *angles[:-1]]).tolist()
    return [Circle(0j, radii[0]),
            *(Circle(cmath.rect(radii[0] + r, p), r) for r, p in zip(radii[1:], phi))]


def check_univalent_flower(u: ScalarField, v: Vertex) -> bool:
    """True when the flower of ``v``, developed on its own, is a valid
    packing of seven circles with pairwise disjoint interiors.

    The development closes (last petal tangent to the first) exactly when
    the angle sum is 2*pi, so a closure failure beyond tolerance already
    disqualifies the flower; otherwise every pair of circles must be
    tangent or disjoint up to ``OVERLAP_TOL`` relative slack.  The circles
    are placed in units of the flower's largest circle, so no radius
    overflows and the verdict does not depend on the scale of ``u``.
    """
    x, angles = _flower(u, v)
    radii = np.exp(np.append(0.0, x) - max(0.0, x.max()))
    phi = np.cumsum([0.0, *angles[:-1]])
    centers = np.append(0j, (radii[0] + radii[1:]) * np.exp(1j * phi))
    i, j = np.triu_indices(7, 1)
    overlap = np.abs(centers[i] - centers[j]) < (radii[i] + radii[j]) * (1.0 - OVERLAP_TOL)
    return bool(abs(angles.sum() - TWO_PI) <= LOCAL_UNIVALENCE_TOL and not overlap.any())


def ring_ratio_bound(u: ScalarField) -> float:
    """Smallest radius ratio r(m+1, n) / r(m, n) over the window (inf above
    the float range)."""
    with np.errstate(over="ignore"):
        return float(np.exp(d1(u).values.min()))


def flower_ratio_check(u: ScalarField, v: Vertex) -> float:
    """Smallest neighbor-to-center radius ratio in the flower of ``v`` (inf
    above the float range)."""
    with np.errstate(over="ignore"):
        return float(np.exp(_flower(u, v)[0].min()))


def layout_to_json(layout: Layout) -> str:
    """Serialize the circles as a JSON array of {m, n, cx, cy, r} records,
    sorted by vertex."""
    columns = layout.placed(layout.centers.real, layout.centers.imag, layout.radii)
    return json.dumps([{"m": m, "n": n, "cx": cx, "cy": cy, "r": r}
                       for m, n, cx, cy, r in zip(*columns)])


def circles_from_json(text: str) -> dict[Vertex, Circle]:
    """Parse the output of :func:`layout_to_json`."""
    return {(int(e["m"]), int(e["n"])): Circle(complex(e["cx"], e["cy"]), float(e["r"]))
            for e in json.loads(text)}
