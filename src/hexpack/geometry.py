"""Inner angles of tangent-circle triangles and their log-radius derivatives.

Three mutually tangent circles with radii r1, r2, r3 span a Euclidean
triangle with side lengths r_i + r_j.  In log radii u_i = ln r_i the inner
angle at vertex 1 depends only on the differences x1 = u2 - u1 and
x2 = u3 - u1, and the law of cosines gives

    theta(x1, x2) = arccos( ((1+e^x1)^2 + (1+e^x2)^2 - (e^x1+e^x2)^2)
                            / (2 (1+e^x1) (1+e^x2)) ).

The expression inside arccos simplifies to
(1 + p + q - p q) / (1 + p + q + p q) with p = e^x1, q = e^x2, so

    tan^2(theta/2) = (1 - cos) / (1 + cos) = p q / (1 + p + q),

and this module evaluates the algebraically identical half-angle form

    theta(x1, x2) = 2 atan( exp((x1 + x2 - L) / 2) ),
    L = log(1 + e^x1 + e^x2),

with L computed in shifted log space, and as pi - 2 atan(e^-h) where the
half exponent h = (x1 + x2 - L) / 2 is positive.  Unlike the raw arccos
route this never overflows (e^x alone would overflow past x ~ 709), and it
keeps full relative accuracy for angles near 0 and pi, which matters for
fields whose log radii span hundreds of units.

The partial derivative with respect to x1 has the closed form

    dtheta/dx1 = 1/(1+e^x1) * sqrt( e^(x1+x2) / (1 + e^x1 + e^x2) ),

evaluated the same way.  It is strictly positive and strictly below 1 for
all finite arguments.

``face_angles`` and ``face_partials`` evaluate arrays of faces from one
half exponent each: in a face with log radii (a, b, c) the corners' half
exponents are T - a, T - b, T - c with 2T = a + b + c - log(e^a + e^b +
e^c), and d(angle at b)/d(c) = d(angle at c)/d(b) = exp(T - log(e^b + e^c)).
They are the one angle kernel: the faces of windows and the six faces
around single flowers are both evaluated through them.  The scalar
``theta`` and ``dtheta_dx1`` are their reference.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Triple = tuple[float, float, float]
TWO_PI = 2.0 * math.pi


def _require_finite(*xs: float) -> None:
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"argument must be finite, got {x!r}")


def _log1p_exp2(x1: float, x2: float) -> float:
    """log(1 + e^x1 + e^x2), evaluated in shifted log space."""
    m = max(0.0, x1, x2)
    return m + math.log(math.exp(-m) + math.exp(x1 - m) + math.exp(x2 - m))


def _softplus(x: float) -> float:
    """log(1 + e^x) without overflow."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def theta(x1: float, x2: float) -> float:
    """Inner angle at a circle from the log-radius differences of its two
    tangent partners.

    Symmetric in its arguments and always in (0, pi).
    """
    _require_finite(x1, x2)
    half = 0.5 * (x1 + x2 - _log1p_exp2(x1, x2))
    small = 2.0 * math.atan(math.exp(-abs(half)))
    return math.pi - small if half > 0.0 else small


def dtheta_dx1(x1: float, x2: float) -> float:
    """Partial derivative of ``theta`` with respect to its first argument.

    Strictly inside (0, 1) for finite inputs; decays to 0 as x1 -> +inf.
    """
    _require_finite(x1, x2)
    ell = _log1p_exp2(x1, x2)
    return math.exp(0.5 * (x1 + x2 - ell) - _softplus(x1))


def _half_exponent(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """(x1 + x2 - log(1 + e^x1 + e^x2)) / 2, evaluated in shifted log space."""
    m = np.maximum(0.0, np.maximum(x1, x2))
    ell = m + np.log(np.exp(-m) + np.exp(x1 - m) + np.exp(x2 - m))
    return 0.5 * (x1 + x2 - ell)


def _softplus_array(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def dtheta_dx1_array(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorized ``dtheta_dx1`` for quadrature along log-radius segments."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return np.exp(_half_exponent(x1, x2) - _softplus_array(x1))


def _angle(half: np.ndarray) -> np.ndarray:
    """The angle 2 atan(e^half), as pi - 2 atan(e^-half) where half > 0."""
    small = 2.0 * np.arctan(np.exp(-np.abs(half)))
    return np.where(half > 0.0, math.pi - small, small)


def face_angles(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Inner angles at the corners of faces with log radii p, q, r, stacked (3, ...)."""
    half = _half_exponent(q - p, r - p)
    return _angle(np.stack([half, half - (q - p), half - (r - p)]))


def face_partials(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Symmetric partials of faces with log radii p, q, r on the edges qr, rp
    and pq, stacked (3, ...): d(angle at q)/d(r) = d(angle at r)/d(q) first."""
    half = _half_exponent(q - p, r - p)
    return np.exp(np.stack([half - (q - p) - _softplus_array(r - q),
                            half - _softplus_array(r - p), half - _softplus_array(q - p)]))


def inner_angles(u: Triple) -> tuple[float, float, float]:
    """The three inner angles of the triangle cut out by tangent circles
    with log radii ``u = (u1, u2, u3)``.

    Invariant under a common shift of all three entries; the angles sum
    to pi up to rounding.
    """
    u1, u2, u3 = u
    _require_finite(u1, u2, u3)
    return (
        theta(u2 - u1, u3 - u1),
        theta(u1 - u2, u3 - u2),
        theta(u1 - u3, u2 - u3),
    )


@dataclass(frozen=True)
class AngleGradient:
    """Gradient of one inner angle with respect to the three log radii.

    ``d1, d2, d3`` are the partials of the angle at the chosen vertex with
    respect to u1, u2, u3.  The entries sum to zero (shift invariance); the
    diagonal entry is negative and the off-diagonal ones lie in (0, 1).
    """

    d1: float
    d2: float
    d3: float

    def as_tuple(self) -> Triple:
        return (self.d1, self.d2, self.d3)


def angle_gradient(u: Triple, i: int) -> AngleGradient:
    """Gradient of the inner angle at vertex ``i`` (1-based) of the
    tangent-circle triangle with log radii ``u``.

    Off-diagonal entries come from the closed form of ``dtheta_dx1``; the
    diagonal entry is minus their sum, which enforces the zero row sum
    exactly.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"vertex index must be 1, 2 or 3, got {i}")
    u1, u2, u3 = u
    _require_finite(u1, u2, u3)
    j, k = [x for x in (1, 2, 3) if x != i]
    vals = {1: u1, 2: u2, 3: u3}
    ui, uj, uk = vals[i], vals[j], vals[k]
    dj = dtheta_dx1(uj - ui, uk - ui)
    dk = dtheta_dx1(uk - ui, uj - ui)
    parts = {j: dj, k: dk}
    parts[i] = -(dj + dk)
    return AngleGradient(parts[1], parts[2], parts[3])
