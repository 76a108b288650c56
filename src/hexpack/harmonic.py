"""Edge weights that make the m-difference of a solved field harmonic,
plus volume growth and random-walk experiments on the weighted lattice.

Shifting a face one step in m and integrating the angle gradient along the
straight segment between the two log-radius triples turns the difference of
the packing equations at v and at its m-translate into a linear identity

    sum_w  eta_{vw} (D1u_w - D1u_v)  =  angle_sum(R v) - angle_sum(v),

where eta_{vw} collects, over the two faces sharing the edge {v, w}, the
integral of d(angle at v)/d(u_w) along the segment.  On a solved field the
right side vanishes, so D1u is harmonic for these weights.  The integrand
is analytic in the segment parameter, so Gauss-Legendre quadrature
converges spectrally; for spiral fields it is constant and any order is
exact.  The weights are symmetric and lie strictly between 0 and 2.

``compute_edge_weights`` integrates ``geometry.face_partials`` over every
face of the window in one pass, summed at each edge by ``lattice.edge_sums``
(at the field itself that sum is the Newton solver's Jacobian), and stores
the weights as three window-shaped arrays, one per edge direction; the
residuals and the random walk read those arrays.  The per-edge ``eta`` and
per-vertex ``harmonic_residual`` are the scalar reference implementations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .geometry import dtheta_dx1_array, face_partials
from .lattice import (
    DIRECTIONS,
    Face,
    ScalarField,
    Vertex,
    Window,
    are_adjacent,
    edge_sums,
    faces,
    faces_containing_edge,
    interior_rings,
    neighbors,
    ring_gather,
    translate,
)


class MissingEdgeError(LookupError):
    """A required edge weight is not present."""


class WindowTooSmallError(ValueError):
    """The window does not contain every value the computation needs."""


@dataclass(frozen=True)
class Quadrature:
    rule: str = "gauss-legendre"
    order: int = 32

    def __post_init__(self) -> None:
        if self.rule != "gauss-legendre":
            raise ValueError(f"unsupported quadrature rule: {self.rule!r}")
        if self.order < 2:
            raise ValueError(f"quadrature order must be >= 2, got {self.order}")


DEFAULT_QUADRATURE = Quadrature()


@lru_cache(maxsize=None)
def _nodes_weights_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _require_translatable(u: ScalarField, face: Face) -> None:
    window = u.window
    for v in face:
        if not window.contains(v):
            raise WindowTooSmallError(f"face vertex {v} is outside window {window}")
        if not window.contains(translate(v)):
            raise WindowTooSmallError(
                f"translated face vertex {translate(v)} is outside window {window}"
            )


def segment(u: ScalarField, face: Face, t: float) -> tuple[float, float, float]:
    """Componentwise linear interpolation between the log radii on a face
    and those on its m-translate, at parameter t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"segment parameter must lie in [0, 1], got {t}")
    _require_translatable(u, face)
    a, b, c = (u[v] + (u[translate(v)] - u[v]) * t for v in face)
    return a, b, c


def _face_integral(u: ScalarField, face: Face, v: Vertex, w: Vertex,
                   quad: Quadrature) -> float:
    """Integral over t in [0, 1] of d(angle at v)/d(u_w) on the segment."""
    nodes, wts = _nodes_weights_01(quad.order)
    iv = face.index(v)
    iw = face.index(w)
    ik = 3 - iv - iw
    a = np.array([u[x] for x in face])
    b = np.array([u[translate(x)] for x in face])
    interp = a[:, None] + (b - a)[:, None] * nodes[None, :]
    x1 = interp[iw] - interp[iv]
    x2 = interp[ik] - interp[iv]
    return float(np.dot(wts, dtheta_dx1_array(x1, x2)))


def eta(u: ScalarField, v: Vertex, w: Vertex,
        quad: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Edge weight for {v, w}: the segment integral of d(angle at v)/d(u_w),
    summed over the two faces containing the edge.  Strictly in (0, 2)."""
    if not are_adjacent(v, w):
        raise ValueError(f"{v} and {w} are not adjacent")
    total = 0.0
    for face in faces_containing_edge(v, w):
        _require_translatable(u, face)
        total += _face_integral(u, face, v, w, quad)
    return total


def _listed(window: Window, mask: np.ndarray, values: np.ndarray) -> list:
    """(v, w, value) for each true entry of a mask shaped like ``values``,
    sorted by edge."""
    col, row, k = np.nonzero(mask.transpose(2, 1, 0))
    m, n = (window.m_min + col).tolist(), (window.n_min + row).tolist()
    return [((a, b), (a + DIRECTIONS[d][0], b + DIRECTIONS[d][1]), x)
            for a, b, d, x in zip(m, n, k.tolist(), values[k, row, col].tolist())]


def _check_range(window: Window, values: np.ndarray, stored: np.ndarray) -> None:
    """Raise a ValueError naming the first stored edge whose weight is not in (0, 2)."""
    bad = stored & ~((values > 0.0) & (values < 2.0))
    if bad.any():
        v, w, value = _listed(window, bad, values)[0]
        raise ValueError(f"edge weight on {(v, w)} must lie in (0, 2), got {value!r}")


class EdgeWeights:
    """Symmetric positive weights on the undirected edges of a window.

    ``values`` (3, n_count, m_count) holds at [k] and v's row and column the
    weight of the edge from v to v + DIRECTIONS[k], NaN where none is stored.
    The constructor copies it and drops the slots of edges that leave the
    window; a stored weight outside (0, 2) raises a ValueError naming its edge.
    """

    def __init__(self, window: Window, values: np.ndarray) -> None:
        if np.shape(values) != (3, window.n_count, window.m_count):
            raise ValueError(f"weights of shape {np.shape(values)} do not fit window {window}")
        self.window, self.values = window, np.array(values, dtype=float)
        # Off-window edges: (0, 1) from the last row, (1, -1) the first, (1, *) the last column.
        self.values[0, -1] = self.values[1, 0] = self.values[1:, :, -1] = np.nan
        _check_range(window, self.values, ~np.isnan(self.values))

    def _slot(self, v: Vertex, w: Vertex) -> tuple[int, int, int] | None:
        """Index of the edge {v, w} into ``values``; None if it is not an
        edge of the window."""
        v, w = min(v, w), max(v, w)
        d = (w[0] - v[0], w[1] - v[1])
        if d in DIRECTIONS and self.window.contains(v) and self.window.contains(w):
            return DIRECTIONS.index(d), v[1] - self.window.n_min, v[0] - self.window.m_min
        return None

    @classmethod
    def uniform(cls, window: Window, value: float) -> "EdgeWeights":
        return cls(window, np.full((3, window.n_count, window.m_count), value))

    def has(self, v: Vertex, w: Vertex) -> bool:
        slot = self._slot(v, w)
        return slot is not None and not math.isnan(self.values[slot])

    def get(self, v: Vertex, w: Vertex) -> float:
        slot = self._slot(v, w)
        if slot is None or math.isnan(self.values[slot]):
            raise MissingEdgeError(f"no weight stored for edge {(min(v, w), max(v, w))}")
        return float(self.values[slot])

    def edges(self) -> list[tuple[Vertex, Vertex, float]]:
        return _listed(self.window, ~np.isnan(self.values), self.values)

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.values)))

    def complete_at(self, v: Vertex) -> bool:
        return all(self.has(v, w) for w in neighbors(v))

    def to_csv(self) -> str:
        lines = ["m1,n1,m2,n2,eta"]
        for v, w, value in self.edges():
            lines.append(f"{v[0]},{v[1]},{w[0]},{w[1]},{value:.16e}")
        return "\n".join(lines) + "\n"


def compute_edge_weights(u: ScalarField, quad: Quadrature = DEFAULT_QUADRATURE,
                         around: set | None = None) -> EdgeWeights:
    """Weights for every window edge whose two faces and their m-translates
    fit inside the window (others are skipped).  The faces on m_min ..
    m_max - 1 are integrated in one pass, node by node so that temporaries
    stay window-sized.  ``around`` keeps only the edges incident to that
    vertex set, but every face is still integrated.  A weight outside (0, 2),
    such as one that underflows to zero or a NaN from overflowing log radii,
    raises a ValueError naming its edge.
    """
    window, rows, cols = u.window, u.window.n_count, u.window.m_count
    values = np.full((3, rows, cols), np.nan)
    stored = np.zeros(values.shape, dtype=bool)
    if cols >= 2:
        nodes, wts = _nodes_weights_01(quad.order)
        start, step = u.values[:, :-1], np.diff(u.values, axis=1)
        partials = sum(wt * face_partials(*faces(start + step * t)) for t, wt in zip(nodes, wts))
        values[:, :, :-1] = edge_sums(partials)
        # The edges with two faces on m_min .. m_max - 1, whatever their weights.
        stored[:, :, :-1] = ~np.isnan(edge_sums(np.zeros_like(partials)))
    if around is not None:
        # The edges from v to v + DIRECTIONS[k] with either end in the set.
        at = np.pad(ScalarField.from_function(window, around.__contains__).values, 1) > 0
        stored &= [at[1:-1, 1:-1] | at[1 + dn:rows + 1 + dn, 1 + dm:cols + 1 + dm]
                   for dm, dn in DIRECTIONS]
    _check_range(window, values, stored)
    return EdgeWeights(window, np.where(stored, values, np.nan))


def harmonic_residual(u: ScalarField, v: Vertex,
                      quad: Quadrature = DEFAULT_QUADRATURE,
                      weights: EdgeWeights | None = None) -> float:
    """Weighted sum over the neighbors of (D1u_w - D1u_v); zero, up to
    solver and quadrature tolerance, wherever the packing equation holds
    at both ``v`` and its m-translate."""
    window = u.window
    for x in [v, *neighbors(v)]:
        if not window.contains(x) or not window.contains(translate(x)):
            raise WindowTooSmallError(
                f"residual at {v} needs {x} and its translate inside {window}"
            )
    d1u_v = u[translate(v)] - u[v]
    total = 0.0
    for w in neighbors(v):
        weight = weights.get(v, w) if weights is not None else eta(u, v, w, quad)
        total += weight * ((u[translate(w)] - u[w]) - d1u_v)
    return total


def harmonic_residuals(u: ScalarField, weights: EdgeWeights) -> np.ndarray:
    """``harmonic_residual(u, v, weights=weights)`` at every vertex v, in an
    array shaped like ``u.values``: NaN unless v is interior, v, its
    neighbors and their m-translates lie in the window, and its six
    incident weights are stored."""
    if weights.window != u.window:
        raise ValueError(f"weights on {weights.window} do not match field window {u.window}")
    d1u = np.pad(np.diff(u.values, axis=1), ((0, 0), (0, 1)), constant_values=np.nan).ravel()
    centre, ring = interior_rings(u.window)
    etas = ring_gather(weights.values, centre, ring)
    out = np.full(u.values.shape, np.nan)
    out.flat[centre] = sum(etas[:, k] * (d1u[ring[:, k]] - d1u[centre]) for k in range(6))
    return out


def volume(weights: EdgeWeights, vertices: set) -> float:
    """Sum over the vertex set of all incident edge weights (interior edges
    count twice); one that is not stored raises :class:`MissingEdgeError`."""
    window, verts = weights.window, list(vertices)
    # Offsets (m, n) from the first interior vertex, and their interior rows.
    at = np.array(verts, dtype=np.int64).reshape(-1, 2) - (window.m_min + 1, window.n_min + 1)
    inner = ((0 <= at) & (at < (window.m_count - 2, window.n_count - 2))).all(axis=1)
    i = at[inner] @ (1, window.m_count - 2)
    etas = np.full((len(verts), 6), np.nan)
    etas[inner] = ring_gather(weights.values, *(a[i] for a in interior_rings(window)))
    for j in np.flatnonzero(np.isnan(etas).any(axis=1))[:1]:
        for w in neighbors(verts[j]):  # raises at the first missing edge
            weights.get(verts[j], w)
    return float(etas.sum())


@dataclass(frozen=True)
class WalkReport:
    trials: int
    returned: int
    censored: int
    frequency: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def random_walk_return(weights: EdgeWeights, start: Vertex, steps: int,
                       trials: int, seed: int) -> WalkReport:
    """Fraction of weighted random walks from ``start`` that revisit it
    within ``steps`` steps.

    Transition probabilities at a vertex are proportional to its incident
    edge weights.  A trial that would step from a vertex with incomplete
    incident weights is censored: counted, but excluded from the frequency.
    The walk is one absorbing Markov chain on the window's flat vertex
    indices plus the states ``returned`` and ``censored``: a step into
    ``start`` enters ``returned``, every row of a vertex without six weights
    leads to ``censored``, and both loop to themselves.  One generator seeded
    with ``seed`` draws once per step for all trials, so the result is
    reproducible bit for bit.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    window = weights.window
    if not window.contains(start):
        raise ValueError(f"start vertex {start} is outside window {window}")

    start_idx = (start[1] - window.n_min) * window.m_count + start[0] - window.m_min
    returned, censored = window.num_vertices, window.num_vertices + 1
    nbr_idx = np.full((window.num_vertices + 2, 6), censored, dtype=np.int64)
    cum = np.ones((window.num_vertices + 2, 6))
    # Only interior vertices can have all six weights, so only they step.
    centre, ring = interior_rings(window)
    etas = ring_gather(weights.values, centre, ring)
    full = ~np.isnan(etas).any(axis=1)
    cum[centre[full]] = np.cumsum(etas[full] / etas[full].sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    nbr_idx[centre[full]] = np.where(ring[full] == start_idx, returned, ring[full])
    nbr_idx[returned] = returned

    rng = np.random.default_rng(seed)
    state = np.full(trials, start_idx, dtype=np.int64)
    for _ in range(steps):
        state = nbr_idx[state, (rng.random(trials)[:, None] > cum[state]).sum(axis=1)]
    n_returned = int(np.count_nonzero(state == returned))
    n_censored = int(np.count_nonzero(state == censored))
    effective = trials - n_censored
    frequency = n_returned / effective if effective > 0 else 0.0
    return WalkReport(trials, n_returned, n_censored, frequency, seed)
