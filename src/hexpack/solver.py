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
the symmetric Jacobian.  Everything comes from one angle kernel on edge
differences, ``geometry._face_angles`` and ``_edge_partials``: the defects
and the Jacobian from those of every face of the window, the per-vertex
solves and the flower of ``_flower`` (its petal offsets and six angles,
which ``angle_sum`` and the flower checks of ``layout`` read) from those of
the six faces around each flower.  Each iterate's defects are evaluated once.

A solve builds one ``_Grid``.  Its linear systems, the harmonic start's
in the interior graph Laplacian L (6 on the diagonal, -1 per interior
neighbor) and each Newton step's in the Hessian, are solved by one
preconditioned conjugate-gradient routine over per-edge coefficients,
with a matrix-free product.  The preconditioner is the inverse of the
five-point Laplacian M of the interior rectangle, applied as four
matrix products with the orthonormal sine (DST-I) matrices of its rows
and columns, which diagonalise M (Concus and Golub, SIAM J. Numer. Anal.
10, 1973).  M <= L <= 3M: L - M is the Laplacian of the anti-diagonal
edges, and each of them is bounded by a two-edge lattice path,
(a - c)^2 <= 2 (a - b)^2 + 2 (b - c)^2.  The Hessian is a weighted
interior Laplacian whose weights the paper's ratio bound keeps uniformly
elliptic, so it is spectrally equivalent to M as well (Axelsson,
Iterative Solution Methods, 1994).  Only when conjugate gradients miss
is a system solved exactly, by block elimination over the interior rows,
in which the matrix is block tridiagonal (Golub and Van Loan, Matrix
Computations, 4th ed., 4.5), with one step of iterative refinement.  The
iterate is window-shaped; the linear solves' vectors run over the
interior in ``interior_vertices()`` order.  There are two modes:

- "newton" (default) is inexact Newton (Dembo, Eisenstat and Steihaug,
  SIAM J. Numer. Anal. 19, 1982; Orick, Stephenson and Collins, Comput.
  Geom. 64, 2017).  Each step solves hessian @ delta = -defects by
  conjugate gradients preconditioned with M^-1, to the forcing
  tolerance ||r|| <= eta ||defects||, eta = min(0.1, max |defect|), a
  forcing term in the style of Eisenstat and Walker (SIAM J. Sci. Comput.
  17, 1996).  When CG meets a non-positive curvature or runs out of steps,
  the step comes from an exact solve of the Hessian system instead.  The
  step is followed by a search along delta, where the functional's slope
  g(s) = sum(defect(u + s delta) * delta) increases:
  s = 1 when g(1) <= 0 or |g(1)| <= |g(0)| / 2, else bisection for
  |g(s)| <= |g(0)| / 2.  When there is no step (a singular exact solve, a
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
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np

from .geometry import TWO_PI, _edge_partials, _face_angles
from .lattice import (EDGE_ENDS, ScalarField, Vertex, Window, _face_differences, _ring_differences,
                      _ring_edges, corner_sums, edge_sums, neighbor_values, neighbors)

if TYPE_CHECKING:
    from collections.abc import Callable

MODES = ("gauss-seidel", "newton")
INITS = ("harmonic", "keep", "zero")

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000

# Residual target of the per-vertex 1-D solves; well below any sensible
# field tolerance and above angle-evaluation noise.
_VERTEX_TOL = 1e-14

# Conjugate-gradient steps per linear solve before the exact solve is used.
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
    return x, _face_angles(_ring_differences(x))[0]


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
    return TWO_PI - corner_sums(_face_angles(_face_differences(values)))[1:-1, 1:-1].ravel()


class _Grid:
    """A window's interior: its number of vertices ``size``, its three
    colour classes (an interior-shaped mask and the flat indices of the
    class's rings in the window, made on first use), and the matrices over
    the interior, in ``interior_vertices()`` order, of per-edge coefficients
    stored as ``edge_sums`` returns them.  An edge without an interior end,
    NaN there on the window's border, is never read into an interior row.

    Such a matrix A has at each interior v the sum of v's six coefficients
    on the diagonal and minus the coefficient of the edge vw at each
    interior neighbor w.  ``product`` applies it without building it, and
    ``precondition`` applies the inverse of the five-point Laplacian M of
    the interior rectangle.  The interior graph Laplacian L (every
    coefficient 1) satisfies M <= L <= 3M, and an A whose coefficients lie
    in [c, C] satisfies c M <= A <= 3C M.  ``solve_exact`` solves with A
    by block elimination, for the exact step that conjugate gradients fall
    back to."""

    def __init__(self, window: Window) -> None:
        self.shape = (window.n_count, window.m_count)
        # (m + 2n) % 3 with the window's offset reduced first, as a Python
        # int, so that corners past int64 do not overflow.
        self._offset = (window.m_min + 2 * window.n_min) % 3
        self.size = math.prod(max(n - 2, 0) for n in self.shape)

    @cached_property
    def colours(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The colour classes, for the Gauss-Seidel sweeps: a Newton solve
        that never falls back builds no rings."""
        i, j = np.indices(self.shape)[:, 1:-1, 1:-1]
        colour = (self._offset + j + 2 * i) % 3
        index = np.arange(math.prod(self.shape)).reshape(self.shape)
        # One stack of the rings, then split by class: a stack per class is slower.
        ring = np.stack([w[1:-1, 1:-1] for w in neighbor_values(index)], axis=-1).reshape(-1, 6)
        return [(colour == c, ring[(colour == c).ravel()]) for c in range(3)]

    def product(self, edges: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The matrix of the per-edge coefficients ``edges`` times ``p``: at
        each interior v, the sum of c_vw (p_v - p_w) over v's six edges, with
        p = 0 on the boundary."""
        full = np.zeros(self.shape)
        full[1:-1, 1:-1] = p.reshape(full[1:-1, 1:-1].shape)
        out = np.zeros(self.shape)
        for c, (v, w) in zip(edges, EDGE_ENDS):
            flux = c[v] * (full[v] - full[w])
            out[v] += flux
            out[w] -= flux
        return out[1:-1, 1:-1].ravel()

    @cached_property
    def _sines(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The orthonormal DST-I matrices of the interior's rows and columns,
        which diagonalise the second difference in each axis, and the
        eigenvalues of M on the interior rectangle."""
        def basis(n: int) -> tuple[np.ndarray, np.ndarray]:
            k = np.arange(1, n + 1)
            # j k reduced mod 2(n + 1) first: the sine's argument stays below 2 pi.
            step = np.pi / (n + 1)
            sines = np.sqrt(2.0 / (n + 1)) * np.sin(step * (np.outer(k, k) % (2 * n + 2)))
            return sines, 4.0 * np.sin(0.5 * step * k) ** 2

        (s_rows, e_rows), (s_cols, e_cols) = (basis(n - 2) for n in self.shape)
        return s_rows, s_cols, e_rows[:, None] + e_cols[None, :]

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r: the sine transform diagonalises M in each axis."""
        s_rows, s_cols, eig = self._sines
        return (s_rows @ (s_rows @ r.reshape(eig.shape) @ s_cols / eig) @ s_cols).ravel()

    def solve_exact(self, edges: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The solution of A x = b for the matrix A of the per-edge
        coefficients ``edges``, by block elimination over the interior rows.

        Row i's diagonal block of A is tridiagonal, from its (1, 0) edges,
        and the block B_i that couples it to row i - 1 bidiagonal, from the
        (0, -1) and (1, -1) edges.  The Schur complements S_i = A_ii - B_i
        G_i, G_i = S_i-1^-1 B_i^T, and z_i = S_i^-1 (b_i - B_i z_i-1) are
        made row by row, each block by an LU factor with partial pivoting,
        and only the G_i and z_i are kept: back substitution is x_i = z_i -
        G_i+1 x_i+1.  The G_i take (n - 1) n^2 floats on an interior of n
        rows of n.  One step of iterative refinement follows, which remakes
        each S_i from G_i (Skeel, Math. Comp. 35, 1980: it makes the solve
        componentwise backward stable, which matters for coefficients that
        span hundreds of orders of magnitude).  Raises RuntimeError on a
        diagonal entry that is not positive and finite, on an exactly
        singular block, and when the G_i do not fit in memory."""
        rows, cols = (n - 2 for n in self.shape)
        coeff = _ring_edges(edges)
        diagonal = sum(coeff[1:], coeff[0])  # in NEIGHBOR_OFFSETS order
        if not np.all((diagonal > 0.0) & (diagonal < np.inf)):
            raise RuntimeError("the matrix has a diagonal entry that is not positive and finite")
        # The coefficients of the edges to the neighbors (1, 0), (0, -1) and
        # (1, -1) in the interior: minus the entries above the diagonal
        # blocks' diagonal, and minus those of the B_i.
        right, down, down_right = coeff[0][:, :-1], coeff[4][1:], coeff[5][1:, :-1]

        def sweep(z: np.ndarray, first: bool) -> np.ndarray:
            """The solution for the right side z (rows, cols), which it
            overwrites; the first sweep also makes the G_i."""
            for i in range(rows):
                schur = np.diag(diagonal[i]) - np.diag(right[i], 1) - np.diag(right[i], -1)
                if i:  # S_i, and b_i - B_i z_i-1
                    c, d, g = down[i - 1], down_right[i - 1], gains[i - 1]
                    schur += c[:, None] * g
                    schur[:-1] += d[:, None] * g[1:]
                    z[i] += c * z[i - 1]
                    z[i, :-1] += d * z[i - 1, 1:]
                if first and i < rows - 1:
                    coupling = -np.diag(down[i]) - np.diag(down_right[i], -1)  # B_i+1^T
                    solved = np.linalg.solve(schur, np.column_stack([coupling, z[i]]))
                    gains[i], z[i] = solved[:, :-1], solved[:, -1]
                else:
                    z[i] = np.linalg.solve(schur, z[i])
            for i in range(rows - 2, -1, -1):
                z[i] -= gains[i] @ z[i + 1]
            return z.ravel()

        # A nearly singular matrix can overflow the solution and its
        # residual; the caller rejects a step that is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                gains = np.empty((rows - 1, cols, cols))
                x = sweep(b.reshape(rows, cols).copy(), True)
                x += sweep((b - self.product(edges, x)).reshape(rows, cols), False)
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"the matrix is singular: {exc}") from None
            except MemoryError:
                raise RuntimeError("the exact step does not fit in memory") from None
        return x


def _harmonic(values: np.ndarray, grid: _Grid) -> None:
    """Set the interior of window-shaped values to the graph-harmonic
    interpolation of their boundary, leaving the boundary untouched."""
    inner = values[1:-1, 1:-1]
    inner[...] = 0.0
    near = [w[1:-1, 1:-1] for w in neighbor_values(values)]
    b = sum(near[1:], near[0]).ravel()  # over the boundary neighbors
    # Scaled to a largest entry of 1, so that no norm overflows.
    scale = float(np.abs(b).max())
    if scale:
        x = _solve(grid, np.ones((3, *grid.shape)), b / scale, 1e-14)
        inner[...] = (scale * x).reshape(inner.shape)


def harmonic_interpolation(u0: ScalarField) -> ScalarField:
    """Replace the interior by the graph-harmonic interpolation of the
    boundary values (each interior value the mean of its six neighbors).

    Exact for fields linear in (m, n), hence for spiral boundaries.
    Boundary entries are returned bit for bit.
    """
    grid = _Grid(u0.window)
    if grid.size == 0:
        return u0.copy()
    values = u0.values.copy()
    _harmonic(values, grid)
    return ScalarField(u0.window, values)


def _solve_colour(values: np.ndarray, colour: np.ndarray, ring: np.ndarray) -> None:
    """Set every vertex of one colour class of the window-shaped values (an
    interior-shaped mask and the flat indices of its rings) to the root of
    its monotone 1-D problem angle_sum(t) = 2*pi, its neighbors held fixed.

    Newton steps are kept inside a bracket that starts at the smallest and
    largest neighbor value, with bisection as the fallback, so convergence
    is unconditional.  A vertex whose residual is already within
    ``_VERTEX_TOL`` keeps its value bit for bit.
    """
    inner = values[1:-1, 1:-1]
    petals = values.take(ring)
    t = inner[colour]
    lo = petals.min(axis=1)
    hi = petals.max(axis=1)
    active = np.arange(t.size)
    for _ in range(100):
        ta = t[active]
        x = _ring_differences(petals[active] - ta[:, None])
        f = _face_angles(x)[0].sum(axis=1) - TWO_PI
        unsolved = np.abs(f) > _VERTEX_TOL
        active, ta, f = active[unsolved], ta[unsolved], f[unsolved]
        if active.size == 0:
            break
        # compress, unlike x[:, unsolved], keeps the stack C-ordered for the kernel
        _, d_next, d_petal = _edge_partials(x.compress(unsolved, axis=1))
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
    inner[colour] = t


def _pcg(product: Callable[[np.ndarray], np.ndarray],
         precondition: Callable[[np.ndarray], np.ndarray],
         b: np.ndarray, rtol: float) -> np.ndarray | None:
    """Conjugate gradients from zero for ``product(x) = b``, preconditioned by
    ``precondition`` (r -> M^-1 r), to ||r|| <= rtol ||b||.  Returns None on
    a non-positive curvature or after ``_CG_STEPS`` steps."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p, rz, target = z, r @ z, rtol * np.linalg.norm(b)
    # A nearly singular matrix can overflow x, and an infinite coefficient
    # makes the curvature NaN; the caller rejects a step that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CG_STEPS):
            q = product(p)
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


def _solve(grid: _Grid, edges: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
    """A solution of A x = b for the matrix A of the per-edge coefficients
    ``edges``: by conjugate gradients preconditioned with M^-1, to
    ||A x - b|| <= rtol ||b||, else by ``_Grid.solve_exact``.  Raises
    RuntimeError when that exact solve fails."""
    x = _pcg(partial(grid.product, edges), grid.precondition, b, rtol)
    return grid.solve_exact(edges, b) if x is None else x


def _newton_step(values: np.ndarray, grid: _Grid, defects: np.ndarray) -> np.ndarray | None:
    """One Newton step from the window-shaped ``values``, whose defects are
    ``defects``, with the line search of the module docstring.  Returns the
    defects at the accepted point, or None, leaving ``values`` as they were,
    when it finds no step."""
    # d(angle sum at v)/d(u at w): the partials of the two faces at the edge
    # vw.  Their matrix is the functional's Hessian, minus the Jacobian of
    # the angle sums.
    with np.errstate(over="ignore"):  # an infinite partial in the Hessian leaves no step
        edges = edge_sums(_edge_partials(_face_differences(values)))
    try:
        delta = _solve(grid, edges, -defects, min(0.1, float(np.abs(defects).max())))
    except RuntimeError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite: rejected below
        g0 = defects @ delta
    if not (np.all(np.isfinite(delta)) and -np.inf < g0 < 0.0):
        return None
    inner = values[1:-1, 1:-1]
    base, step = inner.copy(), delta.reshape(inner.shape)  # base: a copy, not a view
    target, lo, hi, s = -0.5 * g0, 0.0, 1.0, 1.0
    for _ in range(101):  # s down to 2**-100: a nearly singular Jacobian needs ~1e-17
        np.multiply(step, s, out=inner)
        inner += base
        defects = _defects(values)
        g = defects @ delta
        # g(1) <= 0 takes the full step; otherwise |g(s)| <= |g(0)| / 2 is needed.
        if g <= target and (s == 1.0 or g >= -target):
            return defects
        lo, hi = (s, hi) if g < 0.0 else (lo, s)
        s = 0.5 * (lo + hi)
    inner[...] = base
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
    if grid.size == 0:
        raise InvalidPatch(f"window {window} has no interior vertices")

    values = u0.values.copy()
    if opts.init == "harmonic":
        _harmonic(values, grid)
    elif opts.init == "zero":
        values[1:-1, 1:-1] = 0.0

    newton = opts.mode == "newton"
    fallback = None
    iterations = 0
    defects = _defects(values)
    while True:
        defect = float(np.abs(defects).max())
        converged = defect <= opts.tolerance
        if converged or iterations >= opts.max_iterations:
            break
        defects = _newton_step(values, grid, defects) if newton else None
        if defects is None:
            fallback = "gauss-seidel" if newton else None
            for colour, ring in grid.colours:
                _solve_colour(values, colour, ring)
            defects = _defects(values)
        iterations += 1

    solved = ScalarField(window, values)
    report = SolveReport(iterations=iterations, final_defect=defect, converged=converged,
                         mode=opts.mode, fallback=fallback)
    if not converged:
        raise NonConvergence(report, solved)
    return solved, report
