"""Symmetric triangle quadrature and scalar data fields.

All element integrals in the package go through one fixed rule so that
every derived quantity (data oscillation, load vectors, estimator volume
terms) is computed from the same discrete definition.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "integrate",
    "integrate_many",
    "mu2_elements",
    "element_means",
    "ScalarField",
    "field_from_name",
]

_SQRT15 = math.sqrt(15.0)


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


# Stocked symmetric rules with positive weights (barycentric points,
# weights summing to one).  Degree 3 requests are served by the 6-point
# degree-4 rule: the classical 4-point degree-3 rule has a negative
# weight, which would break the nonnegativity of quadratured squares.
_RULES = {
    1: ([(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)], [1.0]),
    2: (_orbit3(0.5), [1.0 / 3.0] * 3),
    4: (
        _orbit3(0.445948490915965) + _orbit3(0.091576213509771),
        [0.223381589678011] * 3 + [0.109951743655322] * 3,
    ),
    5: (
        [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
        + _orbit3((6.0 - _SQRT15) / 21.0)
        + _orbit3((6.0 + _SQRT15) / 21.0),
        [9.0 / 40.0]
        + [(155.0 - _SQRT15) / 1200.0] * 3
        + [(155.0 + _SQRT15) / 1200.0] * 3,
    ),
}


class QuadratureRule:
    """A fixed point set on the reference triangle, barycentric coordinates.

    Attributes
    ----------
    points : (n, 3) ndarray
        Barycentric coordinates of the evaluation points.
    weights : (n,) ndarray
        Positive weights summing to one (integrals are scaled by area).
    degree : int
        Largest polynomial degree integrated exactly.
    """

    __slots__ = ("points", "weights", "degree")

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = int(degree)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (n, 3) barycentric coordinates")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must match points")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(math.fsum(self.weights.tolist()) - 1.0) > 1e-14:
            raise ValueError("weights must sum to one")
        bad = np.abs(self.points.sum(axis=1) - 1.0) > 1e-14
        if np.any(bad):
            raise ValueError("barycentric coordinates must sum to one")

    def __repr__(self):
        return f"QuadratureRule(degree={self.degree}, npoints={len(self.weights)})"


def triangle_rule(degree: int = 5) -> QuadratureRule:
    """Return the smallest stocked rule exact at least to ``degree``."""
    if not 1 <= degree <= 5:
        raise ValueError(f"quadrature degree must be in 1..5, got {degree}")
    served = min(d for d in _RULES if d >= degree)
    pts, wts = _RULES[served]
    return QuadratureRule(pts, wts, served)


def _tri_array(tri):
    t = np.asarray(tri, dtype=float)
    if t.shape == (3, 2):
        return t[np.newaxis, :, :]
    if t.ndim == 3 and t.shape[1:] == (3, 2):
        return t
    raise ValueError("triangle coordinates must have shape (3, 2) or (n, 3, 2)")


def _areas(tris):
    d1 = tris[:, 1, :] - tris[:, 0, :]
    d2 = tris[:, 2, :] - tris[:, 0, :]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _values_at_points(f, tris, rule):
    # (n, q, 2) cartesian quadrature points
    pts = np.einsum("qb,nbk->nqk", rule.points, tris)
    return f(pts[:, :, 0], pts[:, :, 1])


def integrate(f, tri, rule: QuadratureRule) -> float:
    """Quadrature of ``f`` over one triangle given by (3, 2) vertex coords."""
    return float(integrate_many(f, tri, rule)[0])


def integrate_many(f, tris, rule: QuadratureRule) -> np.ndarray:
    """Quadrature of ``f`` over a batch of triangles, shape (n, 3, 2) -> (n,)."""
    t = _tri_array(tris)
    vals = _values_at_points(f, t, rule)
    return _areas(t) * (vals @ rule.weights)


def element_means(f, tris, rule: QuadratureRule) -> np.ndarray:
    """Elementwise means of ``f`` (the piecewise-constant best approximation)."""
    t = _tri_array(tris)
    vals = _values_at_points(f, t, rule)
    return vals @ rule.weights


def mu2_elements(f, tris, rule: QuadratureRule) -> np.ndarray:
    """Squared data oscillation per element.

    mu^2(K) = ||f - f_K||_{L2(K)}^2 with f_K the quadratured mean of f
    over K.  Evaluated as the quadrature of (f - f_K)^2, which is
    nonnegative by construction (positive weights) and algebraically
    identical to Q(f^2) - area * f_K^2.
    """
    t = _tri_array(tris)
    vals = _values_at_points(f, t, rule)
    means = vals @ rule.weights
    dev = vals - means[:, np.newaxis]
    return _areas(t) * ((dev * dev) @ rule.weights)


class ScalarField:
    """A named scalar data field f(x, y), vectorized over numpy arrays."""

    __slots__ = ("name", "_fn")

    def __init__(self, fn, name: str):
        self._fn = fn
        self.name = name

    def __call__(self, x, y):
        return self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __repr__(self):
        return f"ScalarField({self.name!r})"


def _radial(alpha, cx, cy):
    def fn(x, y):
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        return r2 ** (-0.5 * alpha)

    return fn


def _checkerboard(k):
    def fn(x, y):
        parity = np.floor(k * x) + np.floor(k * y)
        return np.where(np.mod(parity, 2.0) < 0.5, 1.0, -1.0)

    return fn


def field_from_name(spec: str) -> ScalarField:
    """Parse a field name.

    Supported: ``one``, ``linear-x``, ``radial-alpha:<a>`` (optionally
    ``radial-alpha:<a>@cx,cy``; default center is the origin, which is the
    corner vertex of both built-in domains) and ``checkerboard:<k>``.
    """
    s = spec.strip()
    if s == "one":
        return ScalarField(lambda x, y: np.ones_like(x), "one")
    if s == "linear-x":
        return ScalarField(lambda x, y: x, "linear-x")
    if s.startswith("radial-alpha:"):
        body = s.split(":", 1)[1]
        if "@" in body:
            a_part, c_part = body.split("@", 1)
            cx, cy = (float(v) for v in c_part.split(","))
        else:
            a_part, cx, cy = body, 0.0, 0.0
        alpha = float(a_part)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"radial-alpha exponent must be in (0, 1), got {alpha}")
        return ScalarField(_radial(alpha, cx, cy), s)
    if s.startswith("checkerboard:"):
        k = int(s.split(":", 1)[1])
        if k < 1:
            raise ValueError(f"checkerboard cell count must be >= 1, got {k}")
        return ScalarField(_checkerboard(k), s)
    raise ValueError(f"unknown field {spec!r}")
