"""Boundary-value solver for the packing equation on a window.

At every interior vertex the six inner angles collected from its incident
faces must sum to 2*pi.  With the boundary log radii held fixed this is a
nonlinear system in the interior log radii.  The local angle sum is
strictly decreasing in the vertex's own log radius (growing the circle
shrinks all six angles at it), so each one-dimensional subproblem has a
unique root, and it lies between the smallest and the largest neighbor
value: theta increases in both arguments and theta(0, 0) = pi/3.

Two modes share one engine built on ``geometry.flower_angles``:

- "gauss-seidel" (default) is the per-vertex iteration of Collins and
  Stephenson, "A circle packing algorithm" (Comput. Geom. 25, 2003),
  ordered by the colouring (m + 2n) mod 3 of the triangular lattice, in
  which no two neighbors share a colour.  Each sweep solves the 1-D
  problems of one colour at a time, all of its vertices at once, with
  Newton steps kept inside the neighbor bracket and bisection as the
  fallback.
- "newton" solves the assembled sparse linear system per iteration
  (Orick, Stephenson and Collins, "A linearized circle packing
  algorithm", Comput. Geom. 64, 2017), with a backtracking line search on
  the largest defect.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .geometry import flower_angles
from .lattice import ScalarField, Vertex, Window, interior_rings, neighbors

TWO_PI = 2.0 * math.pi

MODES = ("gauss-seidel", "newton")
INITS = ("harmonic", "keep", "zero")

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000

# Residual target of the per-vertex 1-D solves; well below any sensible
# field tolerance and above angle-evaluation noise.
_VERTEX_TOL = 1e-14


class InvalidPatch(ValueError):
    """The window has no interior vertices to solve for."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_defect: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_defect": self.final_defect,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class NonConvergence(RuntimeError):
    """Raised when the iteration budget runs out, or when a Newton step is
    not finite; carries the last iterate."""

    def __init__(self, report: SolveReport, field: ScalarField) -> None:
        super().__init__(
            f"no convergence after {report.iterations} iterations "
            f"(final defect {report.final_defect:.3e})"
        )
        self.report = report
        self.field = field


@dataclass(frozen=True)
class SolveOptions:
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    mode: str = "gauss-seidel"
    init: str = "harmonic"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")


def angle_sum(u: ScalarField, v: Vertex) -> float:
    """Sum of the six inner angles at an interior vertex."""
    if not u.window.is_interior(v):
        raise ValueError(f"angle sum needs an interior vertex, got {v}")
    x = np.array([[u[w] for w in neighbors(v)]]) - u[v]
    return float(flower_angles(x)[0].sum())


def angle_defect(u: ScalarField, v: Vertex) -> float:
    """2*pi minus the angle sum; zero exactly when the packing equation
    holds at ``v``."""
    return TWO_PI - angle_sum(u, v)


def angle_defects(u: ScalarField) -> np.ndarray:
    """``angle_defect`` at every interior vertex, in ``interior_vertices()``
    order."""
    centre, ring = interior_rings(u.window)
    return _defects(u.values.ravel(), centre, ring)


def _defects(vals: np.ndarray, centre: np.ndarray, ring: np.ndarray) -> np.ndarray:
    return TWO_PI - flower_angles(vals[ring] - vals[centre, None])[0].sum(axis=1)


class _Grid:
    """Flat-index view of a window: the interior vertices, their six
    neighbors, each neighbor's position among the interior vertices (-1 on
    the boundary), and the interior split into the three colour classes."""

    def __init__(self, window: Window) -> None:
        self.centre, self.ring = interior_rings(window)
        pos = np.full(window.num_vertices, -1)
        pos[self.centre] = np.arange(self.centre.size)
        self.ring_pos = pos[self.ring]
        m = window.m_min + self.centre % window.m_count
        n = window.n_min + self.centre // window.m_count
        colour = (m + 2 * n) % 3
        self.colours = [(self.centre[colour == c], self.ring[colour == c]) for c in range(3)]


def _max_defect(vals: np.ndarray, grid: _Grid) -> float:
    return float(np.abs(_defects(vals, grid.centre, grid.ring)).max())


def harmonic_interpolation(u0: ScalarField) -> ScalarField:
    """Replace the interior by the graph-harmonic interpolation of the
    boundary values (each interior value the mean of its six neighbors).

    Exact for fields linear in (m, n), hence for spiral boundaries.
    Boundary entries are returned bit for bit.
    """
    grid = _Grid(u0.window)
    n = grid.centre.size
    if n == 0:
        return u0.copy()
    vals = u0.values.ravel()
    inner = grid.ring_pos >= 0
    b = np.where(inner, 0.0, vals[grid.ring]).sum(axis=1)
    mat = _interior_matrix(grid, np.full(n, 6.0), np.full(inner.shape, -1.0))
    out = vals.copy()
    out[grid.centre] = scipy.sparse.linalg.spsolve(mat, b)
    return ScalarField(u0.window, out.reshape(u0.values.shape))


def _interior_matrix(grid: _Grid, diag: np.ndarray, coeff: np.ndarray):
    """CSR matrix over the interior with ``diag`` on the diagonal and
    ``coeff[a, k]`` in row a at the column of interior neighbor k."""
    n = grid.centre.size
    inner = grid.ring_pos >= 0
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), 6)[inner.ravel()]])
    cols = np.concatenate([np.arange(n), grid.ring_pos[inner]])
    data = np.concatenate([diag, coeff[inner]])
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def _solve_colour(vals: np.ndarray, centre: np.ndarray, ring: np.ndarray) -> None:
    """Set every vertex of one colour class to the root of its monotone
    1-D problem angle_sum(t) = 2*pi, its neighbors held fixed.

    Newton steps are kept inside a bracket that starts at the smallest and
    largest neighbor value, with bisection as the fallback, so convergence
    is unconditional.  A vertex whose residual is already within
    ``_VERTEX_TOL`` keeps its value bit for bit.
    """
    petals = vals[ring]
    t = vals[centre]
    lo = petals.min(axis=1)
    hi = petals.max(axis=1)
    active = np.arange(centre.size)
    for _ in range(100):
        ta = t[active]
        angles, d_first, d_second = flower_angles(petals[active] - ta[:, None])
        f = angles.sum(axis=1) - TWO_PI
        slope = -(d_first + d_second).sum(axis=1)
        unsolved = np.abs(f) > _VERTEX_TOL
        active, ta, f, slope = active[unsolved], ta[unsolved], f[unsolved], slope[unsolved]
        if active.size == 0:
            break
        # The sum decreases in t, so f > 0 means the root lies above t.
        above = f > 0.0
        lo_a = np.where(above, np.maximum(lo[active], ta), lo[active])
        hi_a = np.where(above, hi[active], np.minimum(hi[active], ta))
        step = np.divide(f, slope, out=np.full_like(f, np.nan), where=slope != 0.0)
        t_new = ta - step
        t_new = np.where((lo_a < t_new) & (t_new < hi_a), t_new, 0.5 * (lo_a + hi_a))
        lo[active], hi[active], t[active] = lo_a, hi_a, t_new
        narrow = hi_a - lo_a <= 4.0 * np.spacing(np.maximum(np.abs(lo_a), np.abs(hi_a)))
        active = active[~narrow]
    vals[centre] = t


def _sweep(vals: np.ndarray, grid: _Grid, defect: float) -> bool:
    """One Gauss-Seidel sweep: the three colour classes in turn."""
    for centre, ring in grid.colours:
        _solve_colour(vals, centre, ring)
    return True


def _newton_update(vals: np.ndarray, grid: _Grid, defect: float) -> bool:
    """One Newton step, halved until the largest defect drops below
    ``defect`` (at most 40 times).  Returns False, leaving ``vals`` as it
    was, when the step is not finite."""
    centre = grid.centre
    angles, d_first, d_second = flower_angles(vals[grid.ring] - vals[centre, None])
    resid = angles.sum(axis=1) - TWO_PI
    # d(angle sum)/d(u of neighbor k): the two faces sharing that edge,
    # face k (first argument) and face k-1 (second argument).
    coeff = d_first + np.roll(d_second, 1, axis=1)
    jac = _interior_matrix(grid, -coeff.sum(axis=1), coeff)
    with warnings.catch_warnings():
        # A singular Jacobian shows up as a non-finite step, handled below.
        warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
        delta = scipy.sparse.linalg.spsolve(jac, -resid)
    if not np.all(np.isfinite(delta)):
        return False
    base = vals[centre]
    scale = 1.0
    for _ in range(40):
        vals[centre] = base + scale * delta
        if _max_defect(vals, grid) < defect:
            break
        scale *= 0.5
    return True


def solve_patch(u0: ScalarField, options: SolveOptions | None = None):
    """Solve the packing equation on the interior of ``u0``'s window with
    its boundary values held fixed.

    The interior start is chosen by ``options.init``: "harmonic" (default)
    interpolates the boundary harmonically in (m, n), "keep" uses the
    interior of ``u0`` as given, "zero" starts from zero.  Returns the
    solved field and a report; raises :class:`NonConvergence` (which still
    carries the last iterate) when the budget runs out or a Newton step is
    not finite, and :class:`InvalidPatch` when the window has no interior.
    """
    opts = options or SolveOptions()
    window = u0.window
    grid = _Grid(window)
    if grid.centre.size == 0:
        raise InvalidPatch(f"window {window} has no interior vertices")

    u = harmonic_interpolation(u0) if opts.init == "harmonic" else u0
    vals = u.values.ravel().copy()
    if opts.init == "zero":
        vals[grid.centre] = 0.0

    update = _newton_update if opts.mode == "newton" else _sweep
    iterations = 0
    while True:
        defect = _max_defect(vals, grid)
        converged = defect <= opts.tolerance
        if converged or iterations >= opts.max_iterations:
            break
        if not update(vals, grid, defect):
            break
        iterations += 1

    solved = ScalarField(window, vals.reshape(u0.values.shape))
    report = SolveReport(iterations=iterations, final_defect=defect, converged=converged)
    if not converged:
        raise NonConvergence(report, solved)
    return solved, report
