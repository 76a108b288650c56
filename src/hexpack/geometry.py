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

``_face_angles`` evaluates arrays of faces from one half exponent each: in
a face with log radii (a, b, c) the corners' half exponents are T - a,
T - b, T - c with 2T = a + b + c - L and L = log(e^a + e^b + e^c).  The
angles are computed from the faces' edge differences in place, in one
(3, ...) array, at window sizes cheaper than a fresh array per operation.
``_edge_partials`` gives the symmetric partials on the face's edges in the
cosh form

    d(angle at b)/d(c) = d(angle at c)/d(b) = exp(T - log(e^b + e^c))
                       = e^((a - L)/2) / (2 cosh((b - c)/2)),

evaluated from the edge differences alone.  With M = max(a, b, c),
h = e^((corner - M)/2) in (0, 1], S = h_a^2 + h_b^2 + h_c^2 in [1, 3] and
g = e^(-|b - c|/2), the partial is h_a / sqrt(S) * g / (1 + g^2): every
exponent is at most 0 and every divisor at least 1, so nothing overflows,
and a partial that is too small for a float underflows to 0.  The two are
the one angle kernel: windows and single flowers both enter them as stacked
edge differences, and the edge weights integrate the partials in place.
``face_angles`` and ``face_partials`` are their corner form, which the tests
compare against; the scalar ``theta`` and ``dtheta_dx1`` are their reference.

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
    # x1 + x2 - log(1 + e^x1 + e^x2) = a + b - log1p(e^(a-c) + e^(b-c)): c cancels exactly
    a, b, c = sorted((0.0, x1, x2))
    return math.exp(0.5 * (a + b - math.log1p(math.exp(a - c) + math.exp(b - c))) - _softplus(x1))


def _half_exponent(x1: np.ndarray, x2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(x1 + x2 - log(1 + e^x1 + e^x2)) / 2, evaluated in shifted log space,
    written into ``out[0]`` with ``out[1]`` and ``out[2]`` as scratch; ``out``
    is shaped (3, *broadcast shape of x1 and x2)."""
    half, t, s = (out[k, ...] for k in range(3))  # views, also of a (3,) out
    m = np.maximum(0.0, np.maximum(x1, x2, out=half), out=half)
    np.exp(np.negative(m, out=s), out=s)
    s += np.exp(np.subtract(x1, m, out=t), out=t)
    s += np.exp(np.subtract(x2, m, out=t), out=t)
    np.log(s, out=s)
    s += m  # ell
    np.add(x1, x2, out=half)
    half -= s
    half *= 0.5
    return half


def _softplus_array(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def dtheta_dx1_array(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorized ``dtheta_dx1`` for quadrature along log-radius segments."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    half = _half_exponent(x1, x2, np.empty((3, *np.broadcast_shapes(x1.shape, x2.shape))))
    return np.exp(half - _softplus_array(x1))


def _angle(half: np.ndarray) -> np.ndarray:
    """The angle 2 atan(e^half) of each entry, in place, as pi - 2 atan(e^-half)
    where half > 0."""
    above = half > 0.0
    small = np.abs(half, out=half)
    np.exp(np.negative(small, out=small), out=small)
    np.arctan(small, out=small)
    small *= 2.0
    return np.subtract(math.pi, small, out=small, where=above)


def _face_angles(x: np.ndarray) -> np.ndarray:
    """``face_angles`` from the stacked edge differences x = (r - q, r - p,
    q - p) of faces with log radii p, q, r: the angle at p from its half
    exponent h of (q - p, r - p), and those at q and r from h - (q - p) and
    h - (r - p), in one (3, ...) array."""
    out = np.empty(np.shape(x))
    half = _half_exponent(x[2], x[1], out)
    np.subtract(half, x[2], out=out[1, ...])
    np.subtract(half, x[1], out=out[2, ...])
    return _angle(out)


def face_angles(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The corner form of ``_face_angles``, which the tests compare against: the
    inner angles at the corners of faces with log radii p, q, r, stacked (3, ...)."""
    return _face_angles(_edge_differences(p, q, r))


def _edge_differences(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The corner form of the kernel's input: the edge differences (r - q, r - p, q - p)."""
    return np.stack(np.broadcast_arrays(r - q, r - p, q - p))


def _edge_partials(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``face_partials`` from the stacked edge differences x = (r - q,
    r - p, q - p), shaped (3, faces, ...), of faces with log radii p, q, r,
    written into ``out`` (shaped like x) when it is given.  A face with a
    difference that is not finite gets NaN partials, with no floating-point
    error."""
    qr, rp, pq = x
    out = np.empty_like(x) if out is None else out
    # In place, with two temporaries: at window sizes a fresh array per
    # operation costs more than the arithmetic on it.
    with np.errstate(invalid="ignore"):
        # M - p, the face's largest log radius over p; the term 0 * (qr - rp + pq)
        # is 0 for finite differences and NaN where one is infinite.
        top = np.subtract(qr, rp)
        top += pq
        top *= 0.0
        np.maximum(top, rp, out=top)
        np.maximum(top, pq, out=top)
        # h = e^((corner - M)/2) at the corners opposite the edges: p, q and r.
        np.negative(top, out=out[0])
        np.subtract(pq, top, out=out[1])
        np.subtract(rp, top, out=out[2])
        out *= 0.5
        np.exp(out, out=out)
        # sqrt(S) into top.
        g = np.square(out)
        np.add(g[0], g[1], out=top)
        top += g[2]
        np.sqrt(top, out=top)
        # g = e^(-|difference|/2), and the partial h g / (sqrt(S) (1 + g^2)).
        np.abs(x, out=g)
        g *= -0.5
        np.exp(g, out=g)
        out *= g
        g *= g
        g += 1.0
        g *= top
        out /= g
    return out


def face_partials(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The corner form of ``_edge_partials``, which the tests compare against:
    the symmetric partials of faces with log radii p, q, r on the edges qr, rp
    and pq, stacked (3, ...), d(angle at q)/d(r) = d(angle at r)/d(q) first."""
    return _edge_partials(_edge_differences(p, q, r))


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
    vals = [u1, u2, u3]
    ui, uj, uk = vals[i - 1], vals[i % 3], vals[(i + 1) % 3]
    dj = dtheta_dx1(uj - ui, uk - ui)
    dk = dtheta_dx1(uk - ui, uj - ui)
    vals[i - 1], vals[i % 3], vals[(i + 1) % 3] = -(dj + dk), dj, dk
    return AngleGradient(*vals)
