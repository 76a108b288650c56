"""Boundary-value solver for the packing equation on a window.

At every interior vertex the six inner angles collected from its incident
faces must sum to 2*pi.  With the boundary log radii held fixed this is a
nonlinear system in the interior log radii.  The local angle sum is
strictly decreasing in the vertex's own log radius (growing the circle
shrinks all six angles at it), so each one-dimensional subproblem has a
unique root, and it lies between the smallest and the largest neighbor
value: theta increases in both arguments and theta(0, 0) = pi/3.

The defects are the gradient of a convex functional of the interior log
radii (Colin de Verdiere, Invent. Math. 104, 1991), whose Hessian is minus
the symmetric Jacobian.  Everything comes from one angle kernel,
``geometry.face_angles`` and ``face_partials``: the defects and the
Jacobian from one evaluation per face of the window, the per-vertex solves
and the flower of ``_flower`` (its petal offsets and six angles, which
``angle_sum`` and the flower checks of ``layout`` read) from the six faces
around each flower.  Each iterate's defects are evaluated once.

A solve builds one ``_Grid`` and factors the interior graph Laplacian L
(6 on the diagonal, -1 per interior neighbor) at most once, with SuperLU's
diagonal pivots in a symmetric minimum-degree ordering, and only when the
harmonic start or a Newton step needs it.  That factor gives the harmonic
start, and it preconditions Newton's systems: the Hessian is a weighted
interior Laplacian whose weights the paper's ratio bound keeps uniformly
elliptic, so it is spectrally equivalent to L.  This module is the only
one that uses scipy, and it imports scipy inside ``_Grid``: the first
``solve_patch`` or ``harmonic_interpolation`` call loads it, and importing
hexpack does not.  There are two modes:

- "newton" (default) is inexact Newton (Dembo, Eisenstat and Steihaug,
  SIAM J. Numer. Anal. 19, 1982; Orick, Stephenson and Collins, Comput.
  Geom. 64, 2017).  Each step solves hessian @ delta = -defects by
  conjugate gradients preconditioned with L's factor, to the forcing
  tolerance ||r|| <= eta ||defects||, eta = min(0.1, max |defect|), a
  forcing term in the style of Eisenstat and Walker (SIAM J. Sci. Comput.
  17, 1996).  When CG meets a non-positive curvature or runs out of steps,
  the step comes from an exact SuperLU factor of the Hessian instead.  The
  step is followed by a search along delta, where the functional's slope
  g(s) = sum(defect(u + s delta) * delta) increases:
  s = 1 when g(1) <= 0 or |g(1)| <= |g(0)| / 2, else bisection for
  |g(s)| <= |g(0)| / 2.  When there is no step (a singular exact factor, a
  step not finite or not a descent direction, a failed bisection), the
  iteration is one Gauss-Seidel sweep instead, which brings every vertex
  inside its neighbors' range, and the report records the fallback.
- "gauss-seidel" is the per-vertex iteration of Collins and Stephenson
  (Comput. Geom. 25, 2003), ordered by the colouring (m + 2n) mod 3 of the
  lattice, in which no two neighbors share a colour.  Each sweep solves
  the 1-D problems of one colour at once, with Newton steps kept inside
  the neighbor bracket and bisection as the fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .geometry import TWO_PI, face_angles, face_partials
from .lattice import (ScalarField, Vertex, Window, _ring_faces, corner_sums, edge_sums, faces,
                      interior_rings, neighbors, ring_gather)

if TYPE_CHECKING:
    from collections.abc import Callable

    import scipy.sparse
    import scipy.sparse.linalg

MODES = ("gauss-seidel", "newton")
INITS = ("harmonic", "keep", "zero")

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000

# Residual target of the per-vertex 1-D solves; well below any sensible
# field tolerance and above angle-evaluation noise.
_VERTEX_TOL = 1e-14

# Conjugate-gradient steps per Newton step before the exact factor is used.
_CG_STEPS = 200


class InvalidPatch(ValueError):
    """The window has no interior vertices to solve for."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_defect: float
    converged: bool
    mode: str | None = None
    fallback: str | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.mode is None:
            del out["mode"], out["fallback"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class NonConvergence(RuntimeError):
    """Raised when the iteration budget runs out; carries the last iterate."""

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
    mode: str = "newton"
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


def _flower(u: ScalarField, v: Vertex) -> tuple[np.ndarray, np.ndarray]:
    """The petal offsets x = u(w) - u(v) of an interior vertex v, in
    ``NEIGHBOR_OFFSETS`` order, and the six inner angles at v."""
    if not u.window.is_interior(v):
        raise ValueError(f"a flower needs an interior vertex, got {v}")
    x = np.array([u[w] for w in neighbors(v)]) - u[v]
    return x, face_angles(*_ring_faces(x))[0]


def angle_sum(u: ScalarField, v: Vertex) -> float:
    """Sum of the six inner angles at an interior vertex."""
    return float(_flower(u, v)[1].sum())


def angle_defect(u: ScalarField, v: Vertex) -> float:
    """2*pi minus the angle sum; zero exactly when the packing equation
    holds at ``v``."""
    return TWO_PI - angle_sum(u, v)


def angle_defects(u: ScalarField) -> np.ndarray:
    """``angle_defect`` at every interior vertex, in ``interior_vertices()``
    order."""
    return _defects(u.values)


def _defects(values: np.ndarray) -> np.ndarray:
    return TWO_PI - corner_sums(face_angles(*faces(values)))[1:-1, 1:-1].ravel()


class _Grid:
    """Flat-index view of a window: the interior vertices, their six
    neighbors, the interior split into the three colour classes, and the
    sparsity pattern of matrices over the interior.  scipy is imported
    here and in the methods, so only a solve loads it."""

    def __init__(self, window: Window) -> None:
        import scipy.sparse

        self.shape = (window.n_count, window.m_count)
        self.centre, self.ring = interior_rings(window)
        size = self.centre.size
        pos = np.full(window.num_vertices, -1)
        pos[self.centre] = np.arange(size)
        m = window.m_min + self.centre % window.m_count
        n = window.n_min + self.centre // window.m_count
        colour = (m + 2 * n) % 3
        self.colours = [(self.centre[colour == c], self.ring[colour == c]) for c in range(3)]
        # The pattern of a matrix over the interior: the diagonal, then each
        # row's interior neighbors, numbered in that order.
        self.inner = pos[self.ring] >= 0
        index = np.arange(size)
        rows = np.concatenate([index, np.repeat(index, 6)[self.inner.ravel()]])
        cols = np.concatenate([index, pos[self.ring][self.inner]])
        self.pattern = scipy.sparse.csc_matrix((np.arange(1.0, rows.size + 1), (rows, cols)),
                                               shape=(size, size))
        self.csc_order = self.pattern.data.astype(int) - 1

    def matrix(self, diag: np.ndarray, coeff: np.ndarray) -> scipy.sparse.csc_matrix:
        """CSC matrix over the interior with ``diag`` on the diagonal and
        ``coeff[a, k]`` in row a at the column of interior neighbor k."""
        import scipy.sparse

        data = np.concatenate([diag, coeff[self.inner]])[self.csc_order]
        p = self.pattern
        return scipy.sparse.csc_matrix((data, p.indices, p.indptr), shape=p.shape)

    @staticmethod
    def factor(mat: scipy.sparse.csc_matrix) -> scipy.sparse.linalg.SuperLU:
        """Factor a symmetric, diagonally dominant matrix over the interior:
        diagonal pivots in a symmetric minimum-degree ordering.  Raises
        RuntimeError when the factor is exactly singular."""
        import scipy.sparse.linalg

        return scipy.sparse.linalg.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                        options={"SymmetricMode": True})

    @cached_property
    def laplacian(self) -> scipy.sparse.linalg.SuperLU:
        """The factor of the interior graph Laplacian L (6 on the diagonal,
        -1 per interior neighbor), made on first use."""
        return self.factor(self.matrix(np.full(self.centre.size, 6.0),
                                       np.full(self.inner.shape, -1.0)))


def _harmonic(vals: np.ndarray, grid: _Grid) -> None:
    """Set the interior of the flat values to the graph-harmonic
    interpolation of their boundary, leaving the boundary untouched."""
    b = np.where(grid.inner, 0.0, vals[grid.ring]).sum(axis=1)
    vals[grid.centre] = grid.laplacian.solve(b)


def harmonic_interpolation(u0: ScalarField) -> ScalarField:
    """Replace the interior by the graph-harmonic interpolation of the
    boundary values (each interior value the mean of its six neighbors).

    Exact for fields linear in (m, n), hence for spiral boundaries.
    Boundary entries are returned bit for bit.
    """
    grid = _Grid(u0.window)
    if grid.centre.size == 0:
        return u0.copy()
    vals = u0.values.ravel().copy()
    _harmonic(vals, grid)
    return ScalarField(u0.window, vals.reshape(u0.values.shape))


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
        f = face_angles(*_ring_faces(petals[active] - ta[:, None]))[0].sum(axis=1) - TWO_PI
        unsolved = np.abs(f) > _VERTEX_TOL
        active, ta, f = active[unsolved], ta[unsolved], f[unsolved]
        if active.size == 0:
            break
        _, d_next, d_petal = face_partials(*_ring_faces(petals[active] - ta[:, None]))
        slope = -(d_petal + d_next).sum(axis=1)
        # The sum decreases in t, so f > 0 means the root lies above t.
        above = f > 0.0
        lo_a = np.where(above, np.maximum(lo[active], ta), lo[active])
        hi_a = np.where(above, hi[active], np.minimum(hi[active], ta))
        with np.errstate(over="ignore"):  # an infinite step fails the bracket test below
            step = np.divide(f, slope, out=np.full_like(f, np.nan), where=slope != 0.0)
        t_new = ta - step
        t_new = np.where((lo_a < t_new) & (t_new < hi_a), t_new, 0.5 * (lo_a + hi_a))
        lo[active], hi[active], t[active] = lo_a, hi_a, t_new
        narrow = hi_a - lo_a <= 4.0 * np.spacing(np.maximum(np.abs(lo_a), np.abs(hi_a)))
        active = active[~narrow]
    vals[centre] = t


def _sweep(vals: np.ndarray, grid: _Grid) -> None:
    """One Gauss-Seidel sweep: the three colour classes in turn."""
    for centre, ring in grid.colours:
        _solve_colour(vals, centre, ring)


def _pcg(mat: scipy.sparse.csc_matrix, precondition: Callable[[np.ndarray], np.ndarray],
         b: np.ndarray, rtol: float) -> np.ndarray | None:
    """Conjugate gradients from zero for ``mat @ x = b``, preconditioned by
    ``precondition`` (r -> M^-1 r), to ||r|| <= rtol ||b||.  Returns None on
    a non-positive curvature or after ``_CG_STEPS`` steps."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p, rz, target = z, r @ z, rtol * np.linalg.norm(b)
    # A nearly singular matrix can overflow x; the caller rejects a step
    # that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CG_STEPS):
            q = mat @ p
            curvature = p @ q
            if not curvature > 0.0:
                return None
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * q
            if np.linalg.norm(r) <= target:
                return x
            z = precondition(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
    return None


def _direction(grid: _Grid, hessian: scipy.sparse.csc_matrix, defects: np.ndarray) -> np.ndarray:
    """Newton's step delta, a solution of hessian @ delta = -defects: by
    conjugate gradients preconditioned with L's factor, to the forcing
    tolerance min(0.1, max |defect|), else by an exact factor of the
    Hessian.  Raises RuntimeError when that factor is exactly singular."""
    rtol = min(0.1, float(np.abs(defects).max()))
    delta = _pcg(hessian, grid.laplacian.solve, -defects, rtol)
    return grid.factor(hessian).solve(-defects) if delta is None else delta


def _newton_step(vals: np.ndarray, grid: _Grid, defects: np.ndarray) -> np.ndarray | None:
    """One Newton step from the point with these ``defects``, with the line
    search of the module docstring.  Returns the defects at the accepted
    point, or None, leaving ``vals`` as it was, when it finds no step."""
    centre, values = grid.centre, vals.reshape(grid.shape)  # a view of vals
    # d(angle sum)/d(u of neighbor k): the partials of the two faces at that edge.
    with np.errstate(over="ignore"):  # an infinite partial in the Hessian leaves no step
        coeff = ring_gather(edge_sums(face_partials(*faces(values))), centre, grid.ring)
    # The functional's Hessian, minus the Jacobian of the angle sums.
    hessian = grid.matrix(coeff.sum(axis=1), -coeff)
    try:
        delta = _direction(grid, hessian, defects)
    except RuntimeError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite: rejected below
        g0 = defects @ delta
    if not (np.all(np.isfinite(delta)) and -np.inf < g0 < 0.0):
        return None
    base = vals[centre]
    target, lo, hi, s = -0.5 * g0, 0.0, 1.0, 1.0
    for _ in range(101):  # s down to 2**-100: a nearly singular Jacobian needs ~1e-17
        vals[centre] = base + s * delta
        defects = _defects(values)
        g = defects @ delta
        # g(1) <= 0 takes the full step; otherwise |g(s)| <= |g(0)| / 2 is needed.
        if g <= target and (s == 1.0 or g >= -target):
            return defects
        lo, hi = (s, hi) if g < 0.0 else (lo, s)
        s = 0.5 * (lo + hi)
    vals[centre] = base
    return None


def solve_patch(u0: ScalarField, options: SolveOptions | None = None):
    """Solve the packing equation on the interior of ``u0``'s window with
    its boundary values held fixed.

    The interior start is chosen by ``options.init``: "harmonic" (default)
    interpolates the boundary harmonically in (m, n), "keep" uses the
    interior of ``u0`` as given, "zero" starts from zero.  Returns the
    solved field and a report; raises :class:`NonConvergence` (which still
    carries the last iterate) when the budget runs out, and
    :class:`InvalidPatch` when the window has no interior.
    """
    opts = options or SolveOptions()
    window = u0.window
    grid = _Grid(window)
    if grid.centre.size == 0:
        raise InvalidPatch(f"window {window} has no interior vertices")

    vals = u0.values.ravel().copy()
    if opts.init == "harmonic":
        _harmonic(vals, grid)
    elif opts.init == "zero":
        vals[grid.centre] = 0.0

    newton = opts.mode == "newton"
    fallback = None
    iterations = 0
    defects = _defects(vals.reshape(grid.shape))
    while True:
        defect = float(np.abs(defects).max())
        converged = defect <= opts.tolerance
        if converged or iterations >= opts.max_iterations:
            break
        defects = _newton_step(vals, grid, defects) if newton else None
        if defects is None:
            fallback = "gauss-seidel" if newton else None
            _sweep(vals, grid)
            defects = _defects(vals.reshape(grid.shape))
        iterations += 1

    solved = ScalarField(window, vals.reshape(u0.values.shape))
    report = SolveReport(iterations=iterations, final_defect=defect, converged=converged,
                         mode=opts.mode, fallback=fallback)
    if not converged:
        raise NonConvergence(report, solved)
    return solved, report
