"""Developing map from log radii to planar circle configurations, plus the
local univalence, flower univalence, and radius-ratio checks.

A layout holds window-shaped arrays of circle centers and radii.  The base
circle sits at the anchor; the base row's edges turn, vertex by vertex, by
pi minus the three inner angles on one side, and each further row follows
from its predecessor in one step, every new circle turned off a placed
edge by a face's inner angle.  Walking the six inner angles around each
interior circle must return the first petal to its starting position; the
gap of that loop stays at the local angle defect.

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

from .geometry import TWO_PI, face_angles
from .lattice import (
    NEIGHBOR_OFFSETS,
    ScalarField,
    Vertex,
    Window,
    d1,
    faces,
    interior_rings,
    neighbors,
)
from .solver import _flower, angle_defects

# Largest angle defect a field may carry into the developing map.
DEVELOP_DEFECT_TOL = 1e-8
# Loop-closure gap (relative to the tangency distance) around one vertex
# beyond which the development is declared inconsistent; ten times the
# defect precondition, so it cannot fire for admissible fields.
PLACEMENT_TOL = 1e-7
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


class InconsistentPlacement(RuntimeError):
    def __init__(self, vertex: Vertex, discrepancy: float) -> None:
        super().__init__(
            f"developing around {vertex} misses its starting circle by "
            f"{discrepancy:.3e} (relative); the development does not close up"
        )
        self.vertex = vertex
        self.discrepancy = discrepancy


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
        mag = abs(self.direction)
        if not (math.isfinite(mag) and mag > 0):
            raise ValueError(f"direction must be a nonzero vector, got {self.direction!r}")
        object.__setattr__(self, "direction", self.direction / mag)


class Layout:
    """Circles on a window as read-only copies of the arrays ``centers``
    (complex) and ``radii``, shaped like a field's values (else a ValueError),
    NaN where no circle sits.  ``monodromy_residual`` is the worst relative
    loop-closure gap over the interior vertices."""

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
        w, keep = self.window, ~np.isnan(self.radii)
        grids = (np.arange(w.m_min, w.m_max + 1), np.arange(w.n_min, w.n_max + 1)[:, None])
        return [np.broadcast_to(a, keep.shape).T[keep.T].tolist() for a in (*grids, *arrays)]

    @cached_property
    def circles(self) -> MappingProxyType[Vertex, Circle]:
        """Read-only map from vertex to circle, in vertex order."""
        ms, ns, cs, rs = self.placed(self.centers, self.radii)
        return MappingProxyType({(m, n): Circle(c, r) for m, n, c, r in zip(ms, ns, cs, rs)})


def _apex(c: np.ndarray, to: np.ndarray, d: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Centers at distance ``d`` from ``c``, in the direction of ``to``
    turned counterclockwise by ``angle``."""
    return c + d * ((to - c) / np.abs(to - c) * np.exp(1j * angle))


def _distance_overflow(u: ScalarField, v: Vertex, w: Vertex) -> ValueError:
    """The error for a tangency distance exp(u(v)) + exp(u(w)) past the float
    range."""
    return ValueError(f"tangency distance exp({u[v]!r}) + exp({u[w]!r}) from {v} to {w} "
                      "overflows")


def develop(u: ScalarField, base: Anchor | None = None) -> Layout:
    """Place one circle per window vertex, consistent with all tangencies.

    The window must be one vertex or at least two rows by two columns (else
    a ValueError), and every interior angle defect at most
    ``DEVELOP_DEFECT_TOL`` (else :class:`DefectTooLarge`).  The worst gap
    of the flower loops around the interior vertices is stored on the
    layout; one above ``PLACEMENT_TOL`` raises :class:`InconsistentPlacement`,
    which admissible fields cannot reach.  A radius exp(u) that is not a
    positive normal float (a subnormal one has too few bits for the
    tangencies to close), an overflowing tangency distance r_v + r_w and an
    overflowing center raise a ValueError naming the vertex.

    Centers are absolute, with a float64 error of about ulp(|z|): a circle
    of radius r far from the base has a relative tangency error of about
    ulp(|z|)/r (5.1e-3 on the exact 161x161 spiral x = 1.2, y = 0.85 from
    its center, yet at most 4.8e-10 of the picture's span).
    """
    window = u.window
    rows, cols = window.n_count, window.m_count
    if min(rows, cols) < 2 and window.num_vertices > 1:
        raise ValueError(f"develop needs a single vertex or a window at least two rows "
                         f"tall and two columns wide, got {window}")
    centre, ring = interior_rings(window)
    defects = angle_defects(u)
    bad = np.flatnonzero(np.abs(defects) > DEVELOP_DEFECT_TOL)
    if bad.size:
        raise DefectTooLarge(window.interior_vertices()[bad[0]], abs(float(defects[bad[0]])))

    base = Anchor(window.center_vertex()) if base is None else base
    if not window.contains(base.vertex):
        raise ValueError(f"base vertex {base.vertex} is outside window {window}")

    with np.errstate(all="ignore"):
        radii = np.exp(u.values)
        bad = np.flatnonzero(~((radii >= sys.float_info.min) & (radii < math.inf)))
        if bad.size:
            v = window.vertices()[bad[0]]
            raise ValueError(f"radius exp({u[v]!r}) at {v} is not a positive normal float")
        outer = np.pad(radii, 1)  # no radius outside the window
        over = np.isinf([radii + outer[1 + dn:rows + 1 + dn, 1 + dm:cols + 1 + dm]
                         for dm, dn in NEIGHBOR_OFFSETS]).reshape(6, -1)
        bad = np.flatnonzero(over.any(axis=0))
        if bad.size:
            v = window.vertices()[bad[0]]
            dm, dn = NEIGHBOR_OFFSETS[int(np.argmax(over[:, bad[0]]))]
            raise _distance_overflow(u, v, (v[0] + dm, v[1] + dn))
        centers = np.full((rows, cols), base.center, dtype=complex)

        def frame(s: tuple) -> tuple:
            at_p, at_q, _ = face_angles(*faces(u.values[s]))
            return centers[s], radii[s], at_p, at_q

        # Reversed axes turn the lattice by pi, (m, n) -> (-m, -n): faces stay
        # counterclockwise, and the rows below the base come above it.
        frames = [frame(np.s_[:, :]), frame(np.s_[::-1, ::-1])]
        ib, jb = base.vertex[1] - window.n_min, base.vertex[0] - window.m_min
        first = next((w for w in neighbors(base.vertex) if window.contains(w)), None)
        if first is not None:
            # The base row, in the frame where a row lies above it, turned to
            # the anchor's first neighbor: (1, 0), (-1, 0) or (0, 1) there.
            flip = ib == rows - 1
            z, rad, at_p, at_q = frames[flip]
            i, j = (rows - 1 - ib, cols - 1 - jb) if flip else (ib, jb)
            phi = np.cumsum([0.0, *(math.pi - at_p[0, i, 1:] - at_p[1, i, :-1] - at_q[0, i, :-1])])
            offset = tuple((-1 if flip else 1) * (a - b) for a, b in zip(first, base.vertex))
            edge, direction = (j, base.direction) if offset == (1, 0) else (j - 1, -base.direction)
            if offset == (0, 1):
                direction *= cmath.exp(1j * (at_p[1, i, edge] + at_q[0, i, edge]))
            step = (rad[i, :-1] + rad[i, 1:]) * direction * np.exp(1j * (phi - phi[edge]))
            z[i, j + 1:] += np.cumsum(step[j:])
            z[i, :j] -= np.cumsum(step[:j][::-1])[::-1]
            # Each further row from the one below: the corners opposite the
            # row edges in the faces A, and the last circle from a face B.
            for (z, rad, at_p, _), i0 in zip(frames, (ib, rows - 1 - ib)):
                for i in range(i0, rows - 1):
                    z[i + 1, :-1] = _apex(z[i, :-1], z[i, 1:], rad[i, :-1] + rad[i + 1, :-1],
                                          at_p[0, i])
                    z[i + 1, -1] = _apex(z[i, -1], z[i + 1, -2], rad[i, -1] + rad[i + 1, -1],
                                         -at_p[1, i, -1])

    bad = np.flatnonzero(~np.isfinite(centers))
    if bad.size:
        raise ValueError(f"circle at {window.vertices()[bad[0]]} is placed outside the "
                         "float range")
    worst = 0.0
    if centre.size:
        # How far the first petal misses itself, turned by the six angles:
        # by e^(i (2 pi - defect)) = e^(-i defect).
        z, rad, petal = centers.ravel(), radii.ravel(), ring[:, 0]
        closed = z[centre] + (z[petal] - z[centre]) * np.exp(-1j * defects)
        gaps = np.abs(closed - z[petal]) / (rad[centre] + rad[petal])
        bad = np.flatnonzero(gaps > PLACEMENT_TOL)
        if bad.size:
            raise InconsistentPlacement(window.interior_vertices()[bad[0]], float(gaps[bad[0]]))
        worst = float(gaps.max())
    return Layout(window, centers, radii, base, worst)


def max_tangency_residual(layout: Layout) -> float:
    """Largest relative tangency error over the layout's edges."""
    z, r = layout.centers, layout.radii
    # the edges along (1, 0), (0, 1) and (-1, 1)
    edges = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1], np.s_[1:]),
             (np.s_[:-1, 1:], np.s_[1:, :-1]))
    err = np.concatenate([(np.abs(np.abs(z[a] - z[b]) - (r[a] + r[b])) / (r[a] + r[b])).ravel()
                          for a, b in edges])
    return float(np.max(err, initial=0.0, where=~np.isnan(err)))


def min_face_orientation(layout: Layout) -> float:
    """Smallest signed area of the center triangles of the layout's faces,
    taken at each corner; positive for a correctly oriented development."""
    p, q, r = faces(layout.centers)
    areas = np.array([0.5 * ((b - a).conjugate() * (c - a)).imag
                      for a, b, c in ((p, q, r), (q, r, p), (r, p, q))])
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
