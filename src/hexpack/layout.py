"""Developing map from log radii to planar circle configurations, plus the
local univalence, flower univalence, and radius-ratio checks.

Circles are placed breadth first: the base circle sits at the anchor, its
first neighbor follows the anchor direction at the tangency distance, and
every further circle is reached by rotating around an already placed one
by the inner angles of the tangent-circle triangles (the first placement
of a circle wins).  Consistency is measured per interior vertex: walking
the six inner angles around a placed circle must return the first petal to
its starting position, and that loop-closure gap stays at the local angle
defect, not at the accumulated route error of far-apart placements.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import flower_angles, theta
from .lattice import (
    NEIGHBOR_OFFSETS,
    ScalarField,
    Vertex,
    Window,
    d1,
    interior_rings,
    neighbors,
)
from .solver import TWO_PI

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
        mag = abs(self.direction)
        if not (math.isfinite(mag) and mag > 0):
            raise ValueError(f"direction must be a nonzero vector, got {self.direction!r}")
        object.__setattr__(self, "direction", self.direction / mag)


@dataclass
class Layout:
    window: Window
    circles: dict[Vertex, Circle]
    base: Anchor
    # Worst loop-closure gap (relative) over the interior vertices.
    monodromy_residual: float = field(default=0.0)


def develop(u: ScalarField, base: Anchor | None = None) -> Layout:
    """Place one circle per window vertex, consistent with all tangencies.

    Requires every interior angle defect to be at most ``DEVELOP_DEFECT_TOL``
    (raises :class:`DefectTooLarge` otherwise).  After placement the flower
    loop around every interior vertex is closed up and the worst gap stored
    on the layout; a gap above ``PLACEMENT_TOL`` raises
    :class:`InconsistentPlacement`, which cannot happen for fields passing
    the defect precondition.  A radius exp(u) that is not a positive finite
    float raises a ValueError naming its vertex.
    """
    window = u.window
    centre, ring = interior_rings(window)
    vals = u.values.ravel()
    angles = flower_angles(vals[ring] - vals[centre, None])[0]
    defects = np.abs(TWO_PI - angles.sum(axis=1))
    bad = np.flatnonzero(defects > DEVELOP_DEFECT_TOL)
    if bad.size:
        raise DefectTooLarge(window.interior_vertices()[bad[0]], float(defects[bad[0]]))

    if base is None:
        base = Anchor(window.center_vertex())
    if not window.contains(base.vertex):
        raise ValueError(f"base vertex {base.vertex} is outside window {window}")

    radius = {}
    for v in window.vertices():
        try:
            radius[v] = math.exp(u[v])
        except OverflowError:
            radius[v] = math.inf
        if not 0.0 < radius[v] < math.inf:
            raise ValueError(f"radius exp({u[v]!r}) at {v} is not a positive finite float")
    centers: dict[Vertex, complex] = {base.vertex: base.center}

    first = next((w for w in neighbors(base.vertex) if window.contains(w)), None)
    if first is not None:
        centers[first] = base.center + (radius[base.vertex] + radius[first]) * base.direction
        queue: deque[tuple[Vertex, Vertex]] = deque(
            [(base.vertex, first), (first, base.vertex)]
        )
        while queue:
            v, w = queue.popleft()
            k = NEIGHBOR_OFFSETS.index((w[0] - v[0], w[1] - v[1]))
            dm, dn = NEIGHBOR_OFFSETS[(k + 1) % 6]
            z = (v[0] + dm, v[1] + dn)
            if not window.contains(z) or z in centers:
                continue
            angle = theta(u[w] - u[v], u[z] - u[v])
            direction = (centers[w] - centers[v]) / abs(centers[w] - centers[v])
            centers[z] = centers[v] + (radius[v] + radius[z]) * direction * cmath.exp(1j * angle)
            for nb in neighbors(z):
                if nb in centers:
                    queue.append((z, nb))
                    queue.append((nb, z))

    circles = {v: Circle(centers[v], radius[v]) for v in sorted(centers)}
    worst = 0.0
    if centre.size:
        # Turn the first petal around each interior circle by its six inner
        # angles and measure how far the walk misses that petal.
        verts = window.vertices()
        z = np.array([centers[v] for v in verts])
        r = np.array([radius[v] for v in verts])
        petal = ring[:, 0]
        closed = z[centre] + (z[petal] - z[centre]) * np.exp(1j * angles.sum(axis=1))
        gaps = np.abs(closed - z[petal]) / (r[centre] + r[petal])
        bad = np.flatnonzero(gaps > PLACEMENT_TOL)
        if bad.size:
            raise InconsistentPlacement(window.interior_vertices()[bad[0]], float(gaps[bad[0]]))
        worst = float(gaps.max())
    return Layout(window, circles, base, worst)


def max_tangency_residual(layout: Layout) -> float:
    """Largest relative tangency error over the layout's edges."""
    worst = 0.0
    for v, cv in layout.circles.items():
        for dm, dn in ((1, 0), (0, 1), (-1, 1)):
            w = (v[0] + dm, v[1] + dn)
            cw = layout.circles.get(w)
            if cw is None:
                continue
            expected = cv.radius + cw.radius
            err = abs(abs(cv.center - cw.center) - expected) / expected
            if err > worst:
                worst = err
    return worst


def min_face_orientation(layout: Layout) -> float:
    """Smallest signed area over the center triangles of the layout's faces;
    positive everywhere for a correctly oriented development."""
    best = math.inf
    for v in layout.circles:
        for k in range(6):
            dm1, dn1 = NEIGHBOR_OFFSETS[k]
            dm2, dn2 = NEIGHBOR_OFFSETS[(k + 1) % 6]
            w1 = (v[0] + dm1, v[1] + dn1)
            w2 = (v[0] + dm2, v[1] + dn2)
            if w1 not in layout.circles or w2 not in layout.circles:
                continue
            a = layout.circles[w1].center - layout.circles[v].center
            b = layout.circles[w2].center - layout.circles[v].center
            best = min(best, 0.5 * (a.real * b.imag - a.imag * b.real))
    return best


def _flower_angles(u: ScalarField, v: Vertex) -> list[float]:
    if not u.window.is_interior(v):
        raise ValueError(f"flower checks need an interior vertex, got {v}")
    x = np.array([[u[w] for w in neighbors(v)]]) - u[v]
    return flower_angles(x)[0][0].tolist()


def check_local_univalence(u: ScalarField, v: Vertex) -> bool:
    """True when the six carrier triangles at ``v`` have disjoint interiors:
    every inner angle in (0, pi) and the angle sum within 1e-9 of 2*pi."""
    angles = _flower_angles(u, v)
    if any(not 0.0 < a < math.pi for a in angles):
        return False
    return abs(sum(angles) - TWO_PI) <= LOCAL_UNIVALENCE_TOL


def develop_flower(u: ScalarField, v: Vertex) -> list[Circle]:
    """The center circle of ``v`` at the origin plus its six petals, placed
    by accumulating the inner angles counterclockwise from the +x axis."""
    angles = _flower_angles(u, v)
    rv = math.exp(u[v])
    circles = [Circle(0j, rv)]
    phi = 0.0
    for w, angle in zip(neighbors(v), angles):
        rw = math.exp(u[w])
        circles.append(Circle(cmath.rect(rv + rw, phi), rw))
        phi += angle
    return circles


def check_univalent_flower(u: ScalarField, v: Vertex) -> bool:
    """True when the flower of ``v``, developed on its own, is a valid
    packing of seven circles with pairwise disjoint interiors.

    The development closes (last petal tangent to the first) exactly when
    the angle sum is 2*pi, so a closure failure beyond tolerance already
    disqualifies the flower; otherwise every pair of circles must be
    tangent or disjoint up to ``OVERLAP_TOL`` relative slack.
    """
    angles = _flower_angles(u, v)
    if abs(sum(angles) - TWO_PI) > LOCAL_UNIVALENCE_TOL:
        return False
    circles = develop_flower(u, v)
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            ci, cj = circles[i], circles[j]
            gap = ci.radius + cj.radius
            if abs(ci.center - cj.center) < gap * (1.0 - OVERLAP_TOL):
                return False
    return True


def ring_ratio_bound(u: ScalarField) -> float:
    """Smallest radius ratio r(m+1, n) / r(m, n) over the window."""
    return math.exp(float(d1(u).values.min()))


def flower_ratio_check(u: ScalarField, v: Vertex) -> float:
    """Smallest neighbor-to-center radius ratio in the flower of ``v``."""
    if not u.window.is_interior(v):
        raise ValueError(f"flower checks need an interior vertex, got {v}")
    uv = u[v]
    return math.exp(min(u[w] - uv for w in neighbors(v)))


def layout_to_json(layout: Layout) -> str:
    """Serialize the circles as a JSON array of {m, n, cx, cy, r} records,
    sorted by vertex."""
    entries = [
        {
            "m": v[0],
            "n": v[1],
            "cx": c.center.real,
            "cy": c.center.imag,
            "r": c.radius,
        }
        for v, c in sorted(layout.circles.items())
    ]
    return json.dumps(entries)


def circles_from_json(text: str) -> dict[Vertex, Circle]:
    """Parse the output of :func:`layout_to_json`."""
    entries = json.loads(text)
    return {
        (int(e["m"]), int(e["n"])): Circle(complex(e["cx"], e["cy"]), float(e["r"]))
        for e in entries
    }
