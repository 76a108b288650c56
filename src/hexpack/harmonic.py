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

``compute_edge_weights`` integrates every face of the window in one pass
and stores the weights as three window-shaped arrays, one per edge
direction; the residuals and the random walk read those arrays.  The
per-edge ``eta`` and per-vertex ``harmonic_residual`` are the scalar
reference implementations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import dtheta_dx1_array
from .lattice import (
    Face,
    ScalarField,
    Vertex,
    Window,
    are_adjacent,
    faces_containing_edge,
    interior_rings,
    neighbors,
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


# Edge directions in the order that sorts the far endpoints of a fixed v.
DIRECTIONS: tuple[Vertex, ...] = ((0, 1), (1, -1), (1, 0))


class EdgeWeights:
    """Symmetric positive weights on the undirected edges of a window.

    ``values[k]`` is window-shaped like ``ScalarField.values`` and holds
    the weight of the edge from each vertex v to v + DIRECTIONS[k] (v is
    the smaller endpoint), NaN where no weight is stored.
    """

    def __init__(self, window: Window, weights: dict) -> None:
        self.window = window
        values = np.full((3, window.n_count, window.m_count), np.nan)
        stored = np.zeros(values.shape, dtype=bool)
        for (v, w), value in weights.items():
            slot = self._slot(v, w)
            if slot is None:
                raise ValueError(f"{(v, w)} is not an edge of window {window}")
            values[slot], stored[slot] = value, True
        self._store(values, stored)

    def _store(self, values: np.ndarray, stored: np.ndarray) -> None:
        """Keep ``values`` where ``stored``; each of those must lie in (0, 2)."""
        bad = stored & ~((values > 0.0) & (values < 2.0))
        if bad.any():
            v, w, value = self._listed(bad, values)[0]
            raise ValueError(f"edge weight on {(v, w)} must lie in (0, 2), got {value!r}")
        self.values = np.where(stored, values, np.nan)

    def _listed(self, mask: np.ndarray, values: np.ndarray) -> list:
        """(v, w, value) for each true entry of a mask shaped like
        ``values``, sorted by edge."""
        col, row, k = np.nonzero(mask.transpose(2, 1, 0))
        m = (self.window.m_min + col).tolist()
        n = (self.window.n_min + row).tolist()
        return [((a, b), (a + DIRECTIONS[d][0], b + DIRECTIONS[d][1]), x)
                for a, b, d, x in zip(m, n, k.tolist(), values[k, row, col].tolist())]

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
        edges = [(v, (v[0] + dm, v[1] + dn)) for v in window.vertices() for dm, dn in DIRECTIONS]
        return cls(window, {e: value for e in edges if window.contains(e[1])})

    def has(self, v: Vertex, w: Vertex) -> bool:
        slot = self._slot(v, w)
        return slot is not None and not math.isnan(self.values[slot])

    def get(self, v: Vertex, w: Vertex) -> float:
        slot = self._slot(v, w)
        if slot is None or math.isnan(self.values[slot]):
            raise MissingEdgeError(f"no weight stored for edge {(min(v, w), max(v, w))}")
        return float(self.values[slot])

    def edges(self) -> list[tuple[Vertex, Vertex, float]]:
        return self._listed(~np.isnan(self.values), self.values)

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.values)))

    def complete_at(self, v: Vertex) -> bool:
        return all(self.has(v, w) for w in neighbors(v))

    def to_csv(self) -> str:
        lines = ["m1,n1,m2,n2,eta"]
        for v, w, value in self.edges():
            lines.append(f"{v[0]},{v[1]},{w[0]},{w[1]},{value:.16e}")
        return "\n".join(lines) + "\n"


# The six directed corner pairs (i, j) of a face and the third corner k:
# the angle at corner i has the partial dtheta_dx1(u_j - u_i, u_k - u_i)
# in u_j.
_I, _J = np.array([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]).T
_K = 3 - _I - _J


def _face_partials(values: np.ndarray, quad: Quadrature) -> np.ndarray:
    """Segment integrals of the directed partials on every face
    A(v) = (v, v+(1,0), v+(0,1)) and B(v) = (v, v+(1,-1), v+(1,0)) whose
    corners and their m-translates lie in the window.

    Entry [0, i, j] (face A) or [1, i, j] (face B) is window-shaped, less
    one row and two columns, and holds the integral of d(angle at corner
    i)/d(u at corner j) at the row and column of v (for B, one row less).
    Nodes are visited one at a time, so every temporary stays window-sized.
    """
    nodes, wts = _nodes_weights_01(quad.order)
    start = values[:, :-1]
    step = values[:, 1:] - start
    out = np.zeros((2, 3, 3, values.shape[0] - 1, values.shape[1] - 2))
    for t, wt in zip(nodes, wts):
        s = start + step * t  # the interpolated field, on m_min .. m_max - 1
        corners = np.stack([s[:-1, :-1], s[:-1, 1:], s[1:, :-1],
                            s[1:, :-1], s[:-1, 1:], s[1:, 1:]]).reshape(2, 3, *out.shape[3:])
        out[:, _I, _J] += wt * dtheta_dx1_array(corners[:, _J] - corners[:, _I],
                                                corners[:, _K] - corners[:, _I])
    return out


def compute_edge_weights(u: ScalarField, quad: Quadrature = DEFAULT_QUADRATURE,
                         around: set | None = None) -> EdgeWeights:
    """Weights for every window edge whose two faces and their m-translates
    fit inside the window (others are skipped).  Each stored weight is the
    average of the two directional integrals, which are equal analytically;
    averaging removes the last bits of quadrature asymmetry.  All faces are
    integrated in one window-wide pass; with ``around`` given, only edges
    incident to that vertex set are kept.  A weight outside (0, 2), such as
    one that underflows to zero, raises a ValueError naming its edge.
    """
    out = EdgeWeights(u.window, {})
    values = np.full(out.values.shape, np.nan)
    stored = np.zeros(values.shape, dtype=bool)
    if u.window.n_count >= 2 and u.window.m_count >= 3:
        a, b = _face_partials(u.values, quad)
        # The faces left and right of v -> w are B(v+(-1,1)) and A(v) for
        # (0, 1), B(v) and A(v+(0,-1)) for (1, -1), A(v) and B(v) for (1, 0);
        # eta(v, w) and eta(w, v) each sum their left face first.
        for slot, weight in (
                (np.s_[0, :-1, 1:-2],
                 (b[1, 2][:, :-1] + a[0, 2][:, 1:]) + (a[2, 0][:, 1:] + b[2, 1][:, :-1])),
                (np.s_[1, 1:, :-2], (b[0, 1] + a[2, 1]) + (a[1, 2] + b[1, 0])),
                (np.s_[2, 1:-1, :-2], (a[0, 1][1:] + b[0, 2][:-1]) + (b[2, 0][:-1] + a[1, 0][1:]))):
            values[slot], stored[slot] = 0.5 * weight, True
    if around is not None:
        near = np.zeros(stored.shape, dtype=bool)
        for v in around:
            for slot in filter(None, (out._slot(v, w) for w in neighbors(v))):
                near[slot] = True
        stored &= near
    out._store(values, stored)
    return out


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


def _ring_weights(weights: EdgeWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``interior_rings`` of the weights' window, and each interior
    vertex's six incident weights in neighbor order, NaN where missing."""
    centre, ring = interior_rings(weights.window)
    # Neighbor k lies at DIRECTIONS[(2, 0, 1, 2, 0, 1)[k]], negated for
    # k = 2, 3, 4, where the edge is stored at the neighbor.
    anchor = ring.copy()
    anchor[:, [0, 1, 5]] = centre[:, None]
    return centre, ring, weights.values.reshape(3, -1)[(2, 0, 1, 2, 0, 1), anchor]


def harmonic_residuals(u: ScalarField, weights: EdgeWeights) -> dict[Vertex, float]:
    """``harmonic_residual(u, v, weights=weights)`` at every interior vertex
    v where it is defined: v, its neighbors and their m-translates lie in
    the window, and its six incident weights are stored."""
    if weights.window != u.window:
        raise ValueError(f"weights on {weights.window} do not match field window {u.window}")
    d1u = np.pad(np.diff(u.values, axis=1), ((0, 0), (0, 1)), constant_values=np.nan).ravel()
    centre, ring, etas = _ring_weights(weights)
    total = sum(etas[:, k] * (d1u[ring[:, k]] - d1u[centre]) for k in range(6))
    verts = u.window.interior_vertices()
    return {verts[i]: float(total[i]) for i in np.flatnonzero(~np.isnan(total))}


def volume(weights: EdgeWeights, vertices: set) -> float:
    """Sum over the vertex set of all incident edge weights (interior edges
    therefore count twice)."""
    total = 0.0
    for v in vertices:
        for w in neighbors(v):
            total += weights.get(v, w)
    return total


@dataclass(frozen=True)
class WalkReport:
    trials: int
    returned: int
    censored: int
    frequency: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "returned": self.returned,
            "censored": self.censored,
            "frequency": self.frequency,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def random_walk_return(weights: EdgeWeights, start: Vertex, steps: int,
                       trials: int, seed: int) -> WalkReport:
    """Fraction of weighted random walks from ``start`` that revisit it
    within ``steps`` steps.

    Transition probabilities at a vertex are proportional to its incident
    edge weights.  A trial reaching a vertex with incomplete incident
    weights is censored: counted, but excluded from the frequency.  All
    trials are driven by one generator seeded with ``seed``, so the result
    is reproducible bit for bit.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    window = weights.window
    if not window.contains(start):
        raise ValueError(f"start vertex {start} is outside window {window}")

    # Only interior vertices can have all six weights, so only they step.
    nbr_idx = np.full((window.num_vertices, 6), -1, dtype=np.int64)
    cum = np.ones((window.num_vertices, 6))
    centre, ring, etas = _ring_weights(weights)
    full = ~np.isnan(etas).any(axis=1)
    c = np.cumsum(etas[full] / etas[full].sum(axis=1, keepdims=True), axis=1)
    c[:, -1] = 1.0
    cum[centre[full]] = c
    nbr_idx[centre[full]] = ring[full]
    steppable = nbr_idx[:, 0] >= 0

    rng = np.random.default_rng(seed)
    start_idx = (start[1] - window.n_min) * window.m_count + start[0] - window.m_min
    state = np.full(trials, start_idx, dtype=np.int64)
    returned = np.zeros(trials, dtype=bool)
    censored = np.zeros(trials, dtype=bool)
    for _ in range(steps):
        active = ~(returned | censored)
        censored |= active & ~steppable[state]
        active &= ~censored
        draws = rng.random(trials)
        k = (draws[:, None] > cum[state]).sum(axis=1)
        nxt = nbr_idx[state, k]
        exits = active & (nxt < 0)
        censored |= exits
        move = active & ~exits
        state = np.where(move, nxt, state)
        returned |= move & (state == start_idx)

    n_returned = int(returned.sum())
    n_censored = int(censored.sum())
    effective = trials - n_censored
    frequency = n_returned / effective if effective > 0 else 0.0
    return WalkReport(trials, n_returned, n_censored, frequency, seed)
