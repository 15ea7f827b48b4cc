"""Edge, sign and node tables for lowest-order FEM assembly.

The flux orientation convention is global and mesh independent: the
fixed normal of edge (a, b) with a < b is the right perpendicular of
P_b - P_a.  Vertex indices live in the bisection forest, so a geometric
edge keeps its normal in every triangulation that contains it.

The forest orients every triangle counterclockwise, and the right
perpendicular of an edge walked counterclockwise points out of the
triangle.  So the global normal of local edge i, walked from local
vertex i + 1 to i + 2, points out of its element exactly when vertex
i + 1 has the smaller index.  The two triangles sharing an edge walk it
in opposite directions, hence hold it with opposite signs, and a
signed sum over the holders of an edge is the jump across it.

The outward RT0 basis function of local edge i is s_i (x - P_i), with
s_i = |E_i| / (2 |K|), so every RT0 field is, on K, an affine pair
a (x - x_K) + pbar about the centroid x_K (``rt_affine``).  As x - x_K
has mean zero on K, its integrals are closed form in the pair and the
second moment J_K, and no quadrature rule or local matrix is stored.
On a fine element inside K the same field is the pair (a, p(x)) at the
fine centroid x (``rt_at_points``), so fields of nested meshes are
compared element by element.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshError, Triangulation, _edge_ends
from .quadrature import _centroids

__all__ = ["Connectivity"]


class Connectivity:
    """Assembled geometry/topology views of one conforming triangulation.

    Local edge i of an element is the edge opposite local vertex i.
    ``elem_signs[k, i]`` is +1 when the global normal of that edge points
    out of element k, read from the vertex order (see the module
    docstring).  ``edge_elem`` is the lowest-numbered element holding
    each edge, and ``keys`` are the mesh's sorted edge keys (see
    ``Triangulation.edge_table``).
    """

    def __init__(self, T: Triangulation):
        # T's forest, leaves and edge keys, not T itself: T keeps its
        # Connectivity (see ``of``), and a reference back would make a
        # cycle that only the garbage collector frees
        self.forest, self.leaf_ids = T.forest, T.leaf_ids
        tris = T.tris()
        self.tris = tris
        self.pts = T.tri_coords()
        self.areas = T.areas()

        self.keys, self.elem_edges, counts = T.edge_table()
        if not T.is_conforming():
            raise MeshError("triangulation is not conforming")
        self.n_edges = len(self.keys)
        lo, hi = _edge_ends(self.keys)
        self.boundary_edge = counts != 2
        self.edge_elem = np.full(self.n_edges, len(tris), dtype=np.int64)
        np.minimum.at(self.edge_elem, self.elem_edges.ravel(), np.arange(len(tris)).repeat(3))

        coords = T.forest.coords()
        pa, pb = coords[lo], coords[hi]
        tang = pb - pa
        self.lengths = np.hypot(tang[:, 0], tang[:, 1])
        self.normals = np.column_stack((tang[:, 1], -tang[:, 0])) / self.lengths[:, np.newaxis]
        self.elem_signs = np.where(tris[:, [1, 2, 0]] < tris[:, [2, 0, 1]], 1.0, -1.0)

        # compact node numbering for nodal spaces, in vertex order
        used = np.zeros(T.forest.n_vertices, dtype=bool)
        used[tris] = True
        number = np.cumsum(used) - 1
        self.node_vertices = np.flatnonzero(used)
        self.n_nodes = len(self.node_vertices)
        self.elem_nodes = number[tris]
        self.boundary_node = np.zeros(self.n_nodes, dtype=bool)
        self.boundary_node[number[lo[self.boundary_edge]]] = True
        self.boundary_node[number[hi[self.boundary_edge]]] = True

        self.elem_edge_lengths = self.lengths[self.elem_edges]

    @classmethod
    def of(cls, T: Triangulation) -> "Connectivity":
        """The Connectivity of ``T``, built on first read and kept with its other tables.

        ``T.release()`` drops it with them, and the next read builds it
        again, bit for bit.
        """
        conn = T._cache.get("connectivity")
        if conn is None:
            conn = T._cache["connectivity"] = cls(T)
        return conn

    @property
    def edges(self) -> np.ndarray:
        """(n_edges, 2) vertex ends (a, b), a < b, of each edge, decoded from the mesh's keys."""
        return np.column_stack(_edge_ends(self.keys))

    def edge_nodes(self) -> np.ndarray:
        """(n_edges, 2) node numbers of the ends (a, b) of each edge, read through ``elem_nodes``."""
        # local edge i joins local vertices i + 1 and i + 2, and node
        # numbers keep the vertex order
        ahead = self.elem_nodes[:, [1, 2, 0]]
        behind = self.elem_nodes[:, [2, 0, 1]]
        ends = np.empty((self.n_edges, 2), dtype=np.int64)
        ends[self.elem_edges, 0] = np.minimum(ahead, behind)
        ends[self.elem_edges, 1] = np.maximum(ahead, behind)
        return ends

    def other_elem(self) -> np.ndarray:
        """(n_edges,) the holder of each edge besides ``edge_elem``; n for a boundary edge."""
        n = len(self.tris)
        total = np.bincount(
            self.elem_edges.ravel(), weights=np.arange(n).repeat(3), minlength=self.n_edges
        )
        return np.where(self.boundary_edge, n, total.astype(np.int64) - self.edge_elem)

    def rt_div(self) -> np.ndarray:
        """(n, 3) divergence 2 s_i of the outward unit-flux basis per element."""
        return self.elem_edge_lengths / self.areas[:, np.newaxis]

    def rt_means(self) -> np.ndarray:
        """(n, 3, 2) element means s_i (x_K - P_i) of the basis, x_K the centroid."""
        offsets = _centroids(self.pts)[:, np.newaxis, :] - self.pts
        return (0.5 * self.rt_div())[:, :, np.newaxis] * offsets

    def second_moments(self) -> np.ndarray:
        """(n,) J_K = int_K |x - x_K|^2 = |K| (|E_1|^2 + |E_2|^2 + |E_3|^2) / 36."""
        return self.areas * (self.elem_edge_lengths**2).sum(axis=1) / 36.0

    def rt_local_mass(self, means=None) -> np.ndarray:
        """(n, 3, 3) local mass s_i s_j J_K + |K| mean(phi_i) . mean(phi_j) (exact).

        ``means`` is ``rt_means()``, passed by a caller that reads it too.
        """
        if means is None:
            means = self.rt_means()
        s = 0.5 * self.rt_div()
        ss = np.einsum("ni,nj,n->nij", s, s, self.second_moments())
        return ss + np.einsum("n,nik,njk->nij", self.areas, means, means)

    def p1_grads(self) -> np.ndarray:
        """(n, 3, 2) constant gradients of the nodal hat functions."""
        e = self.pts[:, [2, 0, 1], :] - self.pts[:, [1, 2, 0], :]  # P_{i+2}-P_{i+1}
        rot = np.stack((-e[:, :, 1], e[:, :, 0]), axis=2)
        return rot / (2.0 * self.areas[:, np.newaxis, np.newaxis])

    def local_flux_dofs(self, p: np.ndarray) -> np.ndarray:
        """(n, 3) outward-oriented local coefficients of a global flux vector."""
        return self.elem_signs * p[self.elem_edges]

    def signed_edge_sum(self, values: np.ndarray) -> np.ndarray:
        """Per edge, the sum over its holders of ``elem_signs`` times ``values``.

        ``values`` is (n, 3) or (n, 3, 2), one entry per local edge.  The
        holders of an interior edge have opposite signs, so the sum is
        the jump of the values across it; a boundary edge gets its one
        side.  Holders are added in element order.
        """
        signed = self.elem_signs.reshape(-1, 1) * values.reshape(self.elem_signs.size, -1)
        idx = self.elem_edges.ravel()
        sums = [np.bincount(idx, weights=col, minlength=self.n_edges) for col in signed.T]
        return np.column_stack(sums).reshape((self.n_edges,) + values.shape[2:])


def rt_affine(
    conn: Connectivity, local_dofs: np.ndarray, means=None
) -> tuple[np.ndarray, np.ndarray]:
    """The pair (a, pbar) of elementwise RT0 fields, p(x) = a (x - x_K) + pbar on K.

    ``local_dofs`` are the (n, 3) outward coefficients d of every
    element; a = sum_i d_i s_i is half the divergence, and
    pbar = sum_i d_i s_i (x_K - P_i) is the element mean.  ``means`` is
    ``conn.rt_means()``, passed by a caller that reads it more than once.
    """
    if means is None:
        means = conn.rt_means()
    a = np.einsum("ni,ni->n", 0.5 * conn.rt_div(), local_dofs)
    return a, np.einsum("ni,nik->nk", local_dofs, means)


def rt_norm2(conn: Connectivity, a: np.ndarray, pbar: np.ndarray) -> np.ndarray:
    """Per element, ||a (x - x_K) + pbar||^2_{L2(K)} = |K| |pbar|^2 + a^2 J_K."""
    return conn.areas * np.einsum("nk,nk->n", pbar, pbar) + a * a * conn.second_moments()


def rt_at_points(pts, a, pbar, points: np.ndarray) -> np.ndarray:
    """(m, q, 2) values a (x - x_K) + pbar of elementwise pairs at q points per element.

    Row r of the (m, q, 2) ``points`` lies in the element with the
    (m, 3, 2) vertex coordinates ``pts[r]`` and the pair ``a[r]``,
    ``pbar[r]`` (see ``rt_affine``).
    """
    offsets = points - _centroids(pts)[:, np.newaxis, :]
    return a[:, np.newaxis, np.newaxis] * offsets + pbar[:, np.newaxis, :]


def tangential_jump_norms(conn: Connectivity, a: np.ndarray, pbar: np.ndarray) -> np.ndarray:
    """Squared L2 norms, per edge, of the tangential inter-element jump.

    ``a`` and ``pbar`` are the elementwise RT0 pairs (see ``rt_affine``).
    The trace is affine along each edge, so with endpoint jump values
    j0, j1 the squared norm is |E| (j0^2 + j0 j1 + j1^2) / 3 exactly.
    Boundary edges use the one-sided trace.
    """
    traces = rt_at_points(conn.pts, a, pbar, conn.pts)
    # the ends of local edge i are local vertices i + 1 and i + 2; the
    # end with the smaller vertex index comes first where the sign is +1
    ahead = traces[:, [1, 2, 0]]
    behind = traces[:, [2, 0, 1]]
    first = conn.elem_signs[:, :, np.newaxis] > 0.0
    jlo = conn.signed_edge_sum(np.where(first, ahead, behind))
    jhi = conn.signed_edge_sum(np.where(first, behind, ahead))
    tangents = np.column_stack((-conn.normals[:, 1], conn.normals[:, 0]))
    j0 = np.einsum("ek,ek->e", jlo, tangents)
    j1 = np.einsum("ek,ek->e", jhi, tangents)
    return conn.lengths * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0
