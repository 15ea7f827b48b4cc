"""Output checks that share no code with the program under test.

Everything here works on plain arrays (triangle vertex indices, vertex
coordinates, edge lists and coefficient vectors) with numpy and scipy,
so a fault in the program's own connectivity, assembly or quadrature
cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# (-1, 1)^2 minus [0, 1] x [-1, 0], counterclockwise
L_SHAPE_POLYGON = ((0.0, 0.0), (0.0, -1.0), (-1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (1.0, 0.0))
L_SHAPE_AREA = 3.0


def _edge_table(tris):
    """Sorted vertex pairs of the three edges of every triangle, (3n, 2)."""
    e = np.concatenate((tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]))
    e.sort(axis=1)
    return e


def signed_areas(tris, coords) -> np.ndarray:
    p = coords[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _on_polygon(points, polygon, tol) -> np.ndarray:
    """For each pair of points (m, 2, 2): do both lie on one side of the polygon?"""
    poly = np.asarray(polygon, dtype=float)
    ok = np.zeros(len(points), dtype=bool)
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        d = b - a
        length2 = float(d @ d)
        rel = points - a  # (m, 2, 2)
        cross = rel[:, :, 0] * d[1] - rel[:, :, 1] * d[0]
        t = (rel @ d) / length2
        on = (np.abs(cross) <= tol) & (t >= -tol) & (t <= 1.0 + tol)
        ok |= on.all(axis=1)
    return ok


def mesh_errors(tris, coords, polygon=L_SHAPE_POLYGON, area=L_SHAPE_AREA, tol=1e-12) -> list:
    """Conformity and geometry of a triangulation of a polygon.

    No edge may be held by more than two triangles, every edge held by
    one triangle must lie on a side of the boundary polygon (a hanging
    node leaves interior edges held once), every triangle must be
    positively oriented, and the areas must sum to the polygon's area.
    """
    tris = np.asarray(tris, dtype=np.int64)
    coords = np.asarray(coords, dtype=float)
    errors = []
    edges, counts = np.unique(_edge_table(tris), axis=0, return_counts=True)
    if np.any(counts > 2):
        errors.append(f"{int(np.sum(counts > 2))} edges held by more than two triangles")
    single = edges[counts == 1]
    off = ~_on_polygon(coords[single], polygon, tol)
    if np.any(off):
        errors.append(f"{int(off.sum())} edges held once lie off the boundary")
    a = signed_areas(tris, coords)
    if not np.all(a > 0.0):
        errors.append(f"{int(np.sum(a <= 0.0))} triangles with nonpositive area")
    total = math.fsum(a.tolist())
    if abs(total - area) > tol:
        errors.append(f"areas sum to {total!r}, not {area!r}")
    return errors


def _hat_gradients(P, area):
    """(n, 3, 2) gradients of the P1 hats: rot(P_{i+2} - P_{i+1}) / (2 area) for vertex i."""
    e = P[:, [2, 0, 1]] - P[:, [1, 2, 0]]
    return np.stack((-e[:, :, 1], e[:, :, 0]), axis=2) / (2.0 * area[:, None, None])


def p1_energy(tris, coords, f) -> float:
    """Energy |u_1|^2_{H^1} of the conforming P1 solution of -lap u = f, u = 0 on the boundary.

    The boundary nodes are the endpoints of the edges held by one
    triangle.  The load integrates f against the hat functions with the
    edge-midpoint rule, exact for quadratics; the energy equals the load
    applied to the solution.
    """
    tris = np.asarray(tris, dtype=np.int64)
    coords = np.asarray(coords, dtype=float)
    p = coords[tris]
    area = signed_areas(tris, coords)
    grad = _hat_gradients(p, area)
    kloc = area[:, None, None] * np.einsum("nik,njk->nij", grad, grad)
    mids = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])  # midpoint of the edge opposite vertex i
    fm = np.asarray(f(mids[:, :, 0], mids[:, :, 1]), dtype=float) * np.ones(mids.shape[:2])
    # the hat of vertex i is 1/2 at the two edge midpoints next to it
    bloc = (area / 3.0)[:, None] * 0.5 * (fm.sum(axis=1)[:, None] - fm)

    edges, counts = np.unique(_edge_table(tris), axis=0, return_counts=True)
    nodes = np.unique(tris)
    boundary = np.isin(nodes, edges[counts == 1])
    index = np.full(int(nodes.max()) + 1, -1, dtype=np.int64)
    index[nodes[~boundary]] = np.arange(int((~boundary).sum()))
    dof = index[tris]
    n = int((~boundary).sum())
    rows = np.repeat(dof[:, :, None], 3, axis=2).ravel()
    cols = np.repeat(dof[:, None, :], 3, axis=1).ravel()
    keep = (rows >= 0) & (cols >= 0)
    K = sp.coo_matrix((kloc.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsc()
    own = dof.ravel() >= 0
    b = np.bincount(dof.ravel()[own], weights=bloc.ravel()[own], minlength=n)
    u = spla.splu(K).solve(b)
    return float(b @ u)


def rt0_at_midpoints(tris, coords, edges, p):
    """Values at the three edge midpoints, basis weights and area per triangle.

    ``edges[e] = (a, b)`` with a < b names the edge of coefficient
    ``p[e]``: the constant normal component against the right
    perpendicular of P_b - P_a.  On a triangle the basis function of the
    edge opposite vertex i is |E_i| (x - P_i) / (2 |K|), with unit
    outward normal flux and divergence |E_i| / |K|.  The weights are
    the coefficients of (x - P_i) in the field, so the divergence is
    twice their sum.
    """
    tris = np.asarray(tris, dtype=np.int64)
    coords = np.asarray(coords, dtype=float)
    edges = np.asarray(edges, dtype=np.int64)
    width = int(coords.shape[0])
    keys = edges[:, 0] * width + edges[:, 1]
    order = np.argsort(keys)
    local = _edge_table(tris).reshape(3, -1, 2).transpose(1, 0, 2)  # (n, 3, 2), edge i opposite vertex i
    lkeys = local[:, :, 0] * width + local[:, :, 1]
    pos = order[np.searchsorted(keys, lkeys, sorter=order)]
    if not np.array_equal(keys[pos], lkeys):
        raise ValueError("an element edge has no flux coefficient")

    P = coords[tris]
    a, b = coords[local[:, :, 0]], coords[local[:, :, 1]]
    t = b - a
    length = np.hypot(t[:, :, 0], t[:, :, 1])
    normal = np.stack((t[:, :, 1], -t[:, :, 0]), axis=2) / length[:, :, None]
    mid = 0.5 * (a + b)
    outward = np.einsum("nik,nik->ni", mid - P, normal) > 0.0
    coef = np.where(outward, 1.0, -1.0) * np.asarray(p, dtype=float)[pos]
    area = signed_areas(tris, coords)
    scale = coef * length / (2.0 * area[:, None])
    # q at the midpoint of edge j: sum_i scale_i (m_j - P_i)
    q = np.einsum("ni,njik->njk", scale, mid[:, :, None, :] - P[:, None, :, :])
    return q, scale, area


def rt0_norm2(tris, coords, edges, p) -> float:
    """||q||^2_{L2} of the lowest-order Raviart-Thomas field with edge coefficients p.

    The field is affine on each triangle, so the three-midpoint rule
    integrates its square exactly.
    """
    q, _, area = rt0_at_midpoints(tris, coords, edges, p)
    return math.fsum(((area / 3.0) * np.einsum("njk,njk->n", q, q)).tolist())


def div_gap(tris, coords, edges, p, f) -> float:
    """Largest |div q + f| over the triangles, for a constant f.

    Each triangle's gap is taken relative to the sum of the magnitudes of
    the three basis contributions to div q, the scale at which the
    divergence is computed (they grow like |q| / h on small triangles).
    """
    _, scale, _ = rt0_at_midpoints(tris, coords, edges, p)
    gap = np.abs(2.0 * scale.sum(axis=1) + f) / (2.0 * np.abs(scale).sum(axis=1))
    return float(gap.max())


def ls_value(tris, coords, edges, p, u, f) -> float:
    """||f + div q||^2 + ||q - grad v||^2 for a constant f.

    q is the RT0 field with edge coefficients p (as in ``rt0_norm2``)
    and v the continuous P1 field with value ``u[k]`` at vertex k.  The
    first term is constant and the second quadratic on each triangle,
    so both are exact.
    """
    tris = np.asarray(tris, dtype=np.int64)
    q, scale, area = rt0_at_midpoints(tris, coords, edges, p)
    div = 2.0 * scale.sum(axis=1)
    P = np.asarray(coords, dtype=float)[tris]
    grad = np.einsum("ni,nik->nk", np.asarray(u, dtype=float)[tris], _hat_gradients(P, area))
    d = q - grad[:, None, :]
    per = area * (f + div) ** 2 + (area / 3.0) * np.einsum("njk,njk->n", d, d)
    return math.fsum(per.tolist())


def nested_errors(parent, coarse_ids, fine_ids) -> list:
    """Does every fine leaf descend from a coarse leaf, by the forest's parent links?"""
    parent = np.asarray(parent, dtype=np.int64)
    is_coarse = np.zeros(len(parent), dtype=bool)
    is_coarse[np.asarray(coarse_ids, dtype=np.int64)] = True
    cur = np.asarray(fine_ids, dtype=np.int64).copy()
    while True:
        open_ = (cur >= 0) & ~is_coarse[np.maximum(cur, 0)]
        if not open_.any():
            break
        cur[open_] = parent[cur[open_]]
    orphans = int(np.sum(cur < 0))
    return [f"{orphans} elements descend from no element of the previous mesh"] if orphans else []
