"""Symmetric triangle quadrature and scalar data fields.

All element integrals in the package go through one fixed rule, the
symmetric 7-point rule exact to degree 5, so that every derived
quantity (data oscillation, load vectors, estimator volume terms) is
computed from the same discrete definition.  Every element also gets
the same arithmetic whatever batch it is evaluated in: the sum over the
quadrature points is taken row by row in a fixed order, so a value
computed for one triangle equals, bit for bit, the value the same
triangle gets among thousands.  Cached values and exact ties of
the greedy data approximation depend on that.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "integrate_many",
    "mu2_elements",
    "ScalarField",
    "field_from_name",
]

_SQRT15 = math.sqrt(15.0)


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


# The symmetric 7-point rule exact to degree 5: barycentric points and
# weights summing to one (integrals are scaled by area).  The weights
# are positive, so quadratured squares are nonnegative.
_POINTS = np.array(
    [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    + _orbit3((6.0 - _SQRT15) / 21.0)
    + _orbit3((6.0 + _SQRT15) / 21.0)
)
_WEIGHTS = np.array(
    [9.0 / 40.0]
    + [(155.0 - _SQRT15) / 1200.0] * 3
    + [(155.0 + _SQRT15) / 1200.0] * 3
)


def _tri_array(tris):
    t = np.asarray(tris, dtype=float)
    if t.ndim != 3 or t.shape[1:] != (3, 2):
        raise ValueError("triangle coordinates must have shape (n, 3, 2)")
    return t


def _areas(tris):
    d1 = tris[:, 1, :] - tris[:, 0, :]
    d2 = tris[:, 2, :] - tris[:, 0, :]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _centroids(tris):
    """(n, 2) centroids (P0 + P1 + P2) / 3 of the (n, 3, 2) triangles ``tris``."""
    out = tris[:, 0, :] + tris[:, 1, :]
    out += tris[:, 2, :]
    out /= 3.0
    return out


def _values_at_points(f, tris):
    # the (n, 7) x and y of the cartesian quadrature points, each coordinate
    # the sum of its three vertex terms in a fixed order, so a triangle
    # gets the same bits in any batch.  A field may return a scalar or any
    # shape that broadcasts to (n, 7).
    x, y = (
        tris[:, 0, c, np.newaxis] * _POINTS[:, 0]
        + tris[:, 1, c, np.newaxis] * _POINTS[:, 1]
        + tris[:, 2, c, np.newaxis] * _POINTS[:, 2]
        for c in (0, 1)
    )
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(f(x, y), x.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = np.nonzero(~finite)
        raise ValueError(
            f"field {f!r} is not finite at the quadrature point "
            f"({x[bad][0].item()!r}, {y[bad][0].item()!r})"
        )
    return vals


def _weighted_sum(vals):
    # the reduction over the quadrature points; a matrix-vector product
    # (BLAS gemv) would sum each row in an order that depends on the
    # other rows of the batch, and einsum's order follows the memory
    # layout, hence the contiguous copy
    return np.einsum("nq,q->n", np.ascontiguousarray(vals), _WEIGHTS)


def integrate_many(f, tris) -> np.ndarray:
    """Quadrature of ``f`` over a batch of triangles, shape (n, 3, 2) -> (n,)."""
    t = _tri_array(tris)
    vals = _values_at_points(f, t)
    return _areas(t) * _weighted_sum(vals)


def mu2_elements(f, tris) -> np.ndarray:
    """Squared data oscillation per element.

    mu^2(K) = ||f - f_K||_{L2(K)}^2 with f_K the quadratured mean of f
    over K.  Evaluated as the quadrature of (f - f_K)^2, which is
    nonnegative by construction (positive weights) and algebraically
    identical to Q(f^2) - area * f_K^2.
    """
    t = _tri_array(tris)
    vals = _values_at_points(f, t)
    means = _weighted_sum(vals)
    dev = vals - means[:, np.newaxis]
    return _areas(t) * _weighted_sum(dev * dev)


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
        a_part, at, c_part = s.split(":", 1)[1].partition("@")
        try:
            alpha = float(a_part)
        except ValueError:
            raise ValueError(f"field {spec!r}: the exponent after ':' must be a number") from None
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"radial-alpha exponent must be in (0, 1), got {alpha}")
        try:
            centre = [float(v) for v in c_part.split(",")] if at else [0.0, 0.0]
        except ValueError:
            centre = []
        if len(centre) != 2 or not all(map(math.isfinite, centre)):
            raise ValueError(f"field {spec!r}: the centre after '@' must be two finite numbers x,y")
        return ScalarField(_radial(alpha, *centre), s)
    if s.startswith("checkerboard:"):
        try:
            k = int(s.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"field {spec!r}: the cell count after ':' must be an integer") from None
        if k < 1:
            raise ValueError(f"checkerboard cell count must be >= 1, got {k}")
        return ScalarField(_checkerboard(k), s)
    raise ValueError(f"unknown field {spec!r}")
