"""Doyle spiral log-radius fields, the six-angle flower sum, closure solving,
and field classification.

A spiral assigns radius r0 * x^m * y^n to vertex (m, n); its log-radius
field is linear in the lattice coordinates.  The flower sum is the total
inner angle collected at a vertex whose neighbor log radii follow such a
linear law, and it equals 2*pi for every parameter choice; the closure
solver inverts that relation for the bottom row of a flower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, _face_angles
from .lattice import MAX_FIELD_VALUE, ScalarField, Window, _ring_differences, d1, d2


@dataclass(frozen=True)
class SpiralParams:
    """Base radius and per-step radius ratios (m direction, n direction)."""

    r0: float
    x: float
    y: float

    def __post_init__(self) -> None:
        for name, val in (("r0", self.r0), ("x", self.x), ("y", self.y)):
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be a positive finite real, got {val!r}")


def spiral_field(params: SpiralParams, window: Window) -> ScalarField:
    """Log radii ln r0 + m ln x + n ln y on the window.  Raises a MemoryError
    if a float array cannot hold it, a ValueError if |log radius| > MAX_FIELD_VALUE."""
    if window.num_vertices > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{window} has more vertices than a float array can hold")
    lr0, lx, ly = math.log(params.r0), math.log(params.x), math.log(params.y)
    try:  # the field is monotone in m and n, in floats too: its corners hold its extremes
        ok = all(abs(lr0 + m * lx + n * ly) <= MAX_FIELD_VALUE
                 for m in (window.m_min, window.m_max) for n in (window.n_min, window.n_max))
    except OverflowError:  # a coordinate past the float range
        ok = False
    if not ok:
        raise ValueError(f"{window} has a log radius past {MAX_FIELD_VALUE:.0e} in magnitude")
    # not np.arange, which overflows past int64 where Python's int * float does not
    m = np.array(range(window.m_min, window.m_max + 1), dtype=float)
    n = np.array(range(window.n_min, window.n_max + 1), dtype=float)
    return ScalarField(window, lr0 + m * lx + n[:, None] * ly)


def flower_angle_sum(a: float, b: float) -> float:
    """Total inner angle at a vertex whose log-radius field has constant
    forward differences a (m direction) and b (n direction).

    The six neighbor log-radius offsets are a, b, b-a, -a, -b, a-b in
    counterclockwise order, giving one angle per consecutive pair: the
    closure flower with a1 = b, k1 = a and a2 = -b.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"arguments must be finite, got {(a, b)!r}")
    return _closure_angle_sum(b, a, -b)


def _closure_angle_sum(a1: float, k1: float, a2: float) -> float:
    """Angle sum at (0,0) of the flower with rows u(m,0) = k1*m,
    u(m,1) = a1 + k1*m, u(m,-1) = a2 + k1*m."""
    ring = np.array([k1, a1, a1 - k1, -k1, a2, a2 + k1])
    return float(_face_angles(_ring_differences(ring))[0].sum())


def solve_flower_closure(a1: float, k1: float) -> float:
    """The unique bottom-row offset a2 closing the flower (angle sum 2*pi)
    when the top row offset is a1 and the m-direction slope is k1.

    The three angles that depend on a2 are strictly increasing in it, so
    the residual is monotone.  Its root is -a1 for every k1, the spiral's
    own bottom row (u(m,-1) = -a1 + k1*m).  Bisection on the fixed bracket
    [-50, 50] returns the float at which the residual changes sign.  The
    domain is |a1| < 50: a root outside the bracket, or so near its end
    that the residual there rounds to zero, raises a RuntimeError.
    """
    if not (math.isfinite(a1) and math.isfinite(k1)):
        raise ValueError(f"arguments must be finite, got {(a1, k1)!r}")
    lo, hi = -50.0, 50.0
    if not (_closure_angle_sum(a1, k1, lo) < TWO_PI < _closure_angle_sum(a1, k1, hi)):
        raise RuntimeError(
            f"closure residual does not change sign on [{lo}, {hi}] for a1={a1}, "
            f"k1={k1}: its root a2 = -a1 = {-a1} must lie inside the bracket, "
            f"clear of its ends, so |a1| < {hi} is required"
        )
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _closure_angle_sum(a1, k1, mid) < TWO_PI:
            lo = mid
        else:
            hi = mid
    return mid


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying a log-radius field.

    kind is "regular", "spiral" or "other".  For regular/spiral fields,
    k1 and k2 are the (constant) forward differences in m and n; for
    "other", spread is the larger max-minus-min spread of the two
    difference fields.
    """

    kind: str
    k1: float | None = None
    k2: float | None = None
    spread: float | None = None


DEFAULT_CLASSIFY_TOL = 1e-9


def classify(u: ScalarField, tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Decide whether a field is regular (constant), a spiral (both forward
    difference fields constant to within ``tol``), or something else."""
    w = u.window
    if w.m_count < 2 or w.n_count < 2:
        raise ValueError(f"classification needs a window at least 2x2, got {w}")
    f1, f2 = d1(u), d2(u)
    s1 = float(f1.values.max() - f1.values.min())
    s2 = float(f2.values.max() - f2.values.min())
    if s1 <= tol and s2 <= tol:
        k1 = float(f1.values.mean())
        k2 = float(f2.values.mean())
        if abs(k1) <= tol and abs(k2) <= tol:
            return Classification("regular", k1, k2, None)
        return Classification("spiral", k1, k2, None)
    return Classification("other", None, None, max(s1, s2))
