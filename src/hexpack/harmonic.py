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
converges spectrally.  On a spiral field the segment's step is zero up to
rounding, the integrand is constant, and a face whose step differences
are all at most ``_SHORT_STEP`` = 2^-30 in magnitude takes the partials at
its segment's midpoint instead (see ``_integrated_partials``): equal to
the order-N rule within rounding, not bit for bit.  The weights are
symmetric and lie strictly between 0 and 2.

``compute_edge_weights`` integrates the face partials of ``geometry``'s
one kernel over every face of the window, summed at each edge by
``lattice.edge_sums`` (at the field itself that sum is the Newton
solver's Jacobian), and stores the weights as three window-shaped arrays,
one per edge direction; the residuals and the random walk read those
arrays.  The segment is linear in the faces' edge differences, so each
quadrature node costs one multiply-add of the start's and the step's
differences and one kernel call.  The faces go in bands of whole rows,
each with its own buffers, so the quadrature's working memory is bounded
by the band, not the window.  The random walk builds its absorbing chain
one neighbour column at a time and steps its trials in blocks, so it
holds one state per trial.  The per-edge ``eta`` and per-vertex
``harmonic_residual`` are the scalar reference implementations.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .geometry import _edge_partials, dtheta_dx1_array
from .lattice import (
    DIRECTIONS,
    EDGE_ENDS,
    NEIGHBOR_OFFSETS,
    TWO_FACE_EDGES,
    Face,
    ScalarField,
    Vertex,
    Window,
    _BLOCK,
    _face_differences,
    _ring_edges,
    edge_sums,
    faces_containing_edge,
    neighbor_values,
    neighbors,
    translate,
)

# Faces per band of the edge-weight quadrature: a band's four buffers of
# edge differences and partials (24 bytes per face each) stay a few MB, and
# windows up to 61x61 are one band.
_BAND_FACES = 1 << 14

# Largest magnitude of a face's step differences for which the face takes
# the partials at its segment's midpoint rather than the Gauss-Legendre sum;
# its relative error is at most 2^-60 / 24 (``_integrated_partials``).
_SHORT_STEP = 2.0 ** -30

# Trials per block of a walk step: a block's draws, thresholds and counts
# live in buffers reused across blocks, so a trial holds only its state.
_TRIAL_BLOCK = 1 << 14


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


def _require_translatable(u: ScalarField, vertices: list[Vertex] | Face) -> None:
    window = u.window
    for v in vertices:
        if not window.contains(v):
            raise WindowTooSmallError(f"vertex {v} is outside window {window}")
        if not window.contains(translate(v)):
            raise WindowTooSmallError(
                f"translated vertex {translate(v)} is outside window {window}"
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
    total = 0.0
    for face in faces_containing_edge(v, w):
        _require_translatable(u, face)
        total += _face_integral(u, face, v, w, quad)
    return total


def _by_edge(mask: np.ndarray) -> np.ndarray:
    """A mask shaped like ``values`` viewed as (col, row, k), so that its
    entries run in edge order."""
    return mask.transpose(2, 1, 0)


def _cells(window: Window, index: tuple, values: np.ndarray) -> np.ndarray:
    """(m1, n1, m2, n2, value) for each edge (col, row, k) of ``index``, an
    index into ``_by_edge``: an (E, 5) array of Python ints and floats."""
    col, row, k = index
    cells = np.empty((col.size, 5), dtype=object)
    # The corner is added to Python ints, so coordinates past int64 stay exact.
    cells[:, 0] = col.astype(object) + window.m_min
    cells[:, 1] = row.astype(object) + window.n_min
    cells[:, 2:4] = cells[:, :2] + np.array(DIRECTIONS, dtype=object)[k]
    cells[:, 4] = values[k, row, col]
    return cells


def _listed(window: Window, mask: np.ndarray, values: np.ndarray) -> list:
    """(v, w, value) for each true entry of a mask shaped like ``values``,
    sorted by edge."""
    return [((a, b), (c, d), x)
            for a, b, c, d, x in _cells(window, np.nonzero(_by_edge(mask)), values).tolist()]


def _check_range(window: Window, values: np.ndarray, stored: np.ndarray) -> None:
    """Raise a ValueError naming the first stored edge whose weight is not in (0, 2)."""
    bad = stored & ~((values > 0.0) & (values < 2.0))
    if bad.any():
        order = _by_edge(bad)
        first = np.unravel_index([np.argmax(order)], order.shape)
        a, b, c, d, value = _cells(window, first, values)[0].tolist()
        raise ValueError(f"edge weight on {((a, b), (c, d))} must lie in (0, 2), got {value!r}")


def _weights_csv_blocks(weights: EdgeWeights) -> Iterator[str]:
    """``EdgeWeights.to_csv``'s text: the header, then one string per block
    of ``_BLOCK`` edges.  A block's Python ints and floats exist only while
    it is formatted."""
    yield "m1,n1,m2,n2,eta\n"
    window, values = weights.window, weights.values
    index = np.nonzero(_by_edge(~np.isnan(values)))
    for start in range(0, index[0].size, _BLOCK):
        cells = _cells(window, tuple(i[start:start + _BLOCK] for i in index), values)
        yield "%d,%d,%d,%d,%.16e\n" * len(cells) % tuple(cells.ravel())


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
        self.window, self.values = window, np.full((3, window.n_count, window.m_count), np.nan)
        for stored, given, (v, _) in zip(self.values, np.asarray(values, dtype=float), EDGE_ENDS):
            stored[v] = given[v]  # the slots of the window's edges; the others stay NaN
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
        return "".join(_weights_csv_blocks(self))


def _band_rows(faces_per_row: int) -> int:
    """Face rows per band of ``_integrated_partials``: about ``_BAND_FACES``
    faces, and at least one row."""
    return max(1, _BAND_FACES // max(1, faces_per_row))


def _integrated_partials(values: np.ndarray, quad: Quadrature) -> np.ndarray:
    """The face partials integrated along the segments from the faces on
    the first cols - 1 columns of ``values`` to their m-translates, in the
    layout of ``face_partials(*faces(values[:, :-1]))``.  The segments are
    linear in the edge differences, so the differences at each node are
    one multiply-add of the start's and the step's, into one buffer.  The
    face rows are integrated in bands of ``_band_rows`` rows, each with its
    own buffers: every operation is elementwise, so the bands give the
    bits of one window-wide pass.

    A short face, one whose three step differences are all at most
    ``_SHORT_STEP`` = 2^-30 in magnitude, takes the partials at its
    segment's midpoint, start + 0.5 * step, with weight 1; every other face,
    a NaN or infinite step included, takes the Gauss-Legendre sum.  A band
    of short faces makes one kernel call and fetches no nodes; a mixed band
    makes one call more than the nodes and copies the midpoint values into
    its short faces.  The choice is per face, so the bands do not change it.

    The midpoint rule's error on [0, 1] is phi''(xi) / 24 (Davis and
    Rabinowitz, *Methods of Numerical Integration*, 1984, 2.5).  A partial
    is phi = e^((a - L)/2) / (2 cosh((b - c)/2)) in the face's log radii
    a, b, c (see ``geometry``).  Along the segment, with s the largest step
    difference, (log phi)' = (a' - L')/2 - tanh((b - c)/2) (b' - c')/2 is
    at most s in magnitude, since L' is a mean of the corners' steps, and
    (log phi)'' = -L''/2 - sech^2((b - c)/2) (b' - c')^2/4 lies in
    [-3 s^2/8, 0], since L'' is their variance, at most s^2/4.  So
    phi''/phi = (log phi)'' + (log phi)'^2 is at most K s^2 in magnitude,
    K = 1, and a short face's relative error is at most K 2^-60 / 24 (times
    e^(s/2), about 1): far below the half ulp, 2^-54 or more, to which the
    order-N sum is rounded.
    """
    total = np.zeros((3, 2, values.shape[0] - 1, values.shape[1] - 2))
    band = _band_rows(2 * total.shape[3])
    for top in range(0, total.shape[2], band):
        rows = values[top:top + band + 1]
        start = _face_differences(rows[:, :-1])
        step = _face_differences(np.diff(rows, axis=1))
        x, f, out = np.abs(step), np.empty_like(start), total[:, :, top:top + band]
        short = (x <= _SHORT_STEP).all(axis=0)
        if not short.all():
            nodes, wts = _nodes_weights_01(quad.order)
            for t, wt in zip(nodes, wts):
                np.multiply(step, t, out=x)
                x += start
                _edge_partials(x, out=f)
                f *= wt
                out += f
        if short.any():
            np.multiply(step, 0.5, out=x)
            x += start
            if short.all():  # straight into the band's partials
                _edge_partials(x, out=out)
            else:
                np.copyto(out, _edge_partials(x, out=f), where=short)
    return total


def compute_edge_weights(u: ScalarField, quad: Quadrature = DEFAULT_QUADRATURE,
                         around: set | None = None) -> EdgeWeights:
    """Weights for every window edge whose two faces and their m-translates
    fit inside the window (others are skipped).  The faces on m_min ..
    m_max - 1 are integrated in bands of face rows, node by node, so that
    temporaries stay band-sized.  A face whose step differences are all at
    most ``_SHORT_STEP`` = 2^-30 in magnitude, as on a spiral, takes the
    partials at its segment's midpoint, within 2^-60 / 24 relative of the
    integral, whatever ``quad.order`` is: its weights equal the order-N
    rule's within rounding, not bit for bit.  ``around`` keeps only the
    edges incident to that vertex set, and only the faces that reach them
    are integrated.
    A weight outside (0, 2), such as one that underflows to zero or a NaN
    from overflowing log radii, raises a ValueError naming its edge.
    """
    window = u.window
    # The rows and columns whose faces are integrated, and those of the
    # edges they give: the same but the last column.
    (rows, cols), (edge_rows, edge_cols) = np.s_[:, :], np.s_[:, :-1]
    if around is not None:
        at = np.zeros((window.n_count, window.m_count), dtype=bool)
        for v in around:
            if window.contains(v):
                at[v[1] - window.n_min, v[0] - window.m_min] = True
        # The faces of the edges at a vertex lie within one row and one
        # column of it, and their m-translates reach two columns right of
        # it.  A face across a gap between the chosen rows or columns joins
        # vertices that are not neighbors, but none of its edges is kept.
        i, j = np.nonzero(at)
        near_rows = np.unique(np.clip(i[:, None] + np.arange(-1, 2), 0, window.n_count - 1))
        near_cols = np.unique(np.clip(j[:, None] + np.arange(-1, 3), 0, window.m_count - 1))
        rows, cols = np.ix_(near_rows, near_cols)
        edge_rows, edge_cols = np.ix_(near_rows, near_cols[:-1])
    block = u.values[rows, cols]
    fits = block.shape[0] > 0 and block.shape[1] > 1
    # Summed, and the integrated partials freed, before the window's arrays exist.
    sums = edge_sums(_integrated_partials(block, quad)) if fits else None
    values = np.full((3, window.n_count, window.m_count), np.nan)
    stored = np.zeros(values.shape, dtype=bool)
    if fits:
        values[:, edge_rows, edge_cols] = sums
        del sums  # before the constructor's copy
        # The edges with two faces in the block, whatever their weights.
        two_faces = np.zeros((3, block.shape[0], block.shape[1] - 1), dtype=bool)
        for slots, inside in zip(two_faces, TWO_FACE_EDGES):
            slots[inside] = True
        stored[:, edge_rows, edge_cols] = two_faces
    if around is not None:
        for slots, (v, w) in zip(stored, EDGE_ENDS):
            slots[v] &= at[v] | at[w]
    _check_range(window, values, stored)
    values[~stored] = np.nan
    return EdgeWeights(window, values)


def harmonic_residual(u: ScalarField, v: Vertex,
                      quad: Quadrature = DEFAULT_QUADRATURE,
                      weights: EdgeWeights | None = None) -> float:
    """Weighted sum over the neighbors of (D1u_w - D1u_v); zero, up to
    solver and quadrature tolerance, wherever the packing equation holds
    at both ``v`` and its m-translate."""
    _require_translatable(u, [v, *neighbors(v)])
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
    d1u = np.pad(np.diff(u.values, axis=1), ((0, 0), (0, 1)), constant_values=np.nan)
    centre = d1u[1:-1, 1:-1]
    out = np.full(u.values.shape, np.nan)
    # One neighbour at a time, summed in ``NEIGHBOR_OFFSETS`` order.
    out[1:-1, 1:-1] = sum(eta * (near[1:-1, 1:-1] - centre)
                          for eta, near in zip(_ring_edges(weights.values), neighbor_values(d1u)))
    return out


def volume(weights: EdgeWeights, vertices: set) -> float:
    """Sum over the vertex set of all incident edge weights (interior edges
    count twice), read one by one with :meth:`EdgeWeights.get`, so the first
    one that is not stored raises :class:`MissingEdgeError` naming its edge."""
    return float(sum(weights.get(v, w) for v in vertices for w in neighbors(v)))


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
    with ``seed`` draws once per step for each trial in trial order, so the
    result is reproducible bit for bit.  Each step visits the trials in
    blocks of ``_TRIAL_BLOCK``, in buffers reused across blocks: the
    draws come in the same order as one draw for all trials, and the
    working memory is one state per trial.

    A trial at state s with draw r steps to the neighbour numbered by how
    many of the row's cumulative probabilities lie below r.  The last one
    is exactly 1.0 and every draw is below 1, so the count runs over the
    first five columns only, one column at a time for a block of trials,
    into one int8 count: it picks the same neighbour as a count over all
    six.
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
    # The chain, one neighbour column k at a time: cols[k, s] is the
    # cumulative probability of neighbours 0..k of state s, nbr[s * 6 + k]
    # the state that neighbour k leads to.  Only interior vertices can have
    # all six weights, so only they step; every other row stays censored.
    cols = np.ones((5, window.num_vertices + 2))
    nbr = np.full((window.num_vertices + 2, 6), censored, dtype=np.intp)
    nbr[returned] = returned
    etas = _ring_edges(weights.values)
    # Summed in the order of a row sum.  Stored weights lie in (0, 2), so the
    # total is NaN exactly where a weight is missing.
    total = sum(etas[1:], etas[0])
    full = ~np.isnan(total)
    total = total[full]
    index = np.arange(window.num_vertices).reshape(window.n_count, window.m_count)
    centre = index[1:-1, 1:-1][full]
    cum = np.zeros(centre.size)
    for k, eta in enumerate(etas[:5]):  # the sixth threshold is 1.0
        cum += eta[full] / total  # cumsum's additions, so the same bits
        cols[k, centre] = cum
    for k, (dm, dn) in enumerate(NEIGHBOR_OFFSETS):
        near = centre + (dn * window.m_count + dm)
        nbr[centre, k] = np.where(near == start_idx, returned, near)
    nbr = nbr.ravel()

    rng = np.random.default_rng(seed)
    state = np.full(trials, start_idx, dtype=np.intp)
    block = min(trials, _TRIAL_BLOCK)
    buffers = (np.empty(block), np.empty(block, dtype=bool), np.empty(block, dtype=np.int8),
               np.empty(block, dtype=np.intp))
    for _ in range(steps):
        if state.min() >= returned:  # every trial absorbed: no state moves again
            break
        # Every block draws, absorbed or not, so the stream is the one a
        # single draw for all trials would give.
        for lo in range(0, trials, block):
            s = state[lo:lo + block]
            below, above, count, flat = (buf[:s.size] for buf in buffers)
            r = rng.random(s.size)
            np.take(cols[0], s, out=below, mode="clip")
            np.greater(r, below, out=count.view(bool))
            for col in cols[1:]:
                np.take(col, s, out=below, mode="clip")
                np.greater(r, below, out=above)
                count += above.view(np.int8)
            np.multiply(s, 6, out=flat)
            flat += count
            np.take(nbr, flat, out=s, mode="clip")
    n_returned = int(np.count_nonzero(state == returned))
    n_censored = int(np.count_nonzero(state == censored))
    effective = trials - n_censored
    frequency = n_returned / effective if effective > 0 else 0.0
    return WalkReport(trials, n_returned, n_censored, frequency, seed)
