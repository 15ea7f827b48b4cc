"""Edge, sign and node tables for lowest-order FEM assembly.

The flux orientation convention is global and mesh independent: the
fixed normal of edge (a, b) with a < b is the right perpendicular of
P_b - P_a.  Vertex indices live in the bisection forest, so a geometric
edge keeps its normal in every triangulation that contains it, which
makes flux degrees of freedom transfer verbatim between nested meshes.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshError, Triangulation

__all__ = ["Connectivity", "rt_at_points", "tangential_jump_norms", "prolong_rt0", "prolong_p1"]


class Connectivity:
    """Assembled geometry/topology views of one conforming triangulation.

    Local edge i of an element is the edge opposite local vertex i.
    ``elem_signs[k, i]`` is +1 when the global normal of that edge points
    out of element k.
    """

    def __init__(self, T: Triangulation):
        self.mesh = T
        tris = T.tris()
        self.tris = tris
        self.pts = T.tri_coords()
        self.areas = T.areas()

        keys, self.elem_edges, counts = T.edge_table()
        if not T.is_conforming():
            raise MeshError("triangulation is not conforming")
        self.n_edges = len(keys)
        self.edges = np.column_stack((keys >> 32, keys & ((1 << 32) - 1)))

        order = np.argsort(self.elem_edges.ravel(), kind="stable")
        elems = order // 3
        locals_ = order % 3
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        self.edge_elems = np.full((self.n_edges, 2), -1, dtype=np.int64)
        self.edge_local = np.zeros((self.n_edges, 2), dtype=np.int64)
        self.edge_elems[:, 0] = elems[starts]
        self.edge_local[:, 0] = locals_[starts]
        two = counts == 2
        self.edge_elems[two, 1] = elems[starts[two] + 1]
        self.edge_local[two, 1] = locals_[starts[two] + 1]
        self.boundary_edge = ~two

        coords = T.forest.coords()
        pa = coords[self.edges[:, 0]]
        pb = coords[self.edges[:, 1]]
        tang = pb - pa
        self.lengths = np.hypot(tang[:, 0], tang[:, 1])
        self.tangents = tang / self.lengths[:, np.newaxis]
        self.normals = np.column_stack((self.tangents[:, 1], -self.tangents[:, 0]))
        self.midpoints = 0.5 * (pa + pb)

        # outward sign: the global normal against the direction from the
        # opposite vertex to the edge midpoint (always strictly outward)
        outward = self.midpoints[self.elem_edges] - self.pts  # (n, 3, 2)
        nrm = self.normals[self.elem_edges]
        dots = np.einsum("nik,nik->ni", outward, nrm)
        self.elem_signs = np.where(dots > 0.0, 1.0, -1.0)

        # compact node numbering for nodal spaces
        self.node_vertices = np.unique(tris)
        self.n_nodes = len(self.node_vertices)
        self.elem_nodes = np.searchsorted(self.node_vertices, tris)
        bmask = np.zeros(self.n_nodes, dtype=bool)
        bverts = self.edges[self.boundary_edge].reshape(-1)
        bmask[np.searchsorted(self.node_vertices, np.unique(bverts))] = True
        self.boundary_node = bmask

        self.elem_edge_lengths = self.lengths[self.elem_edges]
        self._rt_mass = None
        self._p1_grads = None

    # -- local matrices -----------------------------------------------------

    def rt_local_mass(self) -> np.ndarray:
        """(n, 3, 3) local mass of the outward unit-flux basis (exact)."""
        if self._rt_mass is None:
            mids = 0.5 * (self.pts[:, [1, 2, 0], :] + self.pts[:, [2, 0, 1], :])
            scale = self.elem_edge_lengths / (2.0 * self.areas[:, np.newaxis])
            # phi[n, i, q, :] = scale_i * (m_q - P_i), the three midpoint
            # values of basis function i side by side in one row of six
            diff = mids[:, np.newaxis, :, :] - self.pts[:, :, np.newaxis, :]
            phi = (scale[:, :, np.newaxis, np.newaxis] * diff).reshape(-1, 3, 6)
            m = (phi @ phi.transpose(0, 2, 1)) * (
                self.areas[:, np.newaxis, np.newaxis] / 3.0
            )
            self._rt_mass = m
        return self._rt_mass

    def rt_div(self) -> np.ndarray:
        """(n, 3) divergence of the outward unit-flux basis per element."""
        return self.elem_edge_lengths / self.areas[:, np.newaxis]

    def p1_grads(self) -> np.ndarray:
        """(n, 3, 2) constant gradients of the nodal hat functions."""
        if self._p1_grads is None:
            e = self.pts[:, [2, 0, 1], :] - self.pts[:, [1, 2, 0], :]  # P_{i+2}-P_{i+1}
            rot = np.stack((-e[:, :, 1], e[:, :, 0]), axis=2)
            d1 = self.pts[:, 1, :] - self.pts[:, 0, :]
            d2 = self.pts[:, 2, :] - self.pts[:, 0, :]
            signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
            self._p1_grads = rot / (2.0 * signed[:, np.newaxis, np.newaxis])
        return self._p1_grads

    def local_flux_dofs(self, p: np.ndarray) -> np.ndarray:
        """(n, 3) outward-oriented local coefficients of a global flux vector."""
        return self.elem_signs * p[self.elem_edges]


def rt_at_points(conn: Connectivity, rows, local_dofs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(m, q, 2) values of elementwise RT0 fields at q points per element.

    Row r of the (m, q, 2) ``points`` lies in element ``rows[r]``, whose
    outward local coefficients are ``local_dofs[r]``; ``rows`` is any
    index of the elements, ``slice(None)`` for all of them.  The field
    is sum_i d_i |E_i| / (2 |K|) (x - P_i).
    """
    scale = conn.elem_edge_lengths[rows] / (2.0 * conn.areas[rows, np.newaxis])
    diff = points[:, :, np.newaxis, :] - conn.pts[rows][:, np.newaxis, :, :]
    return np.einsum("mi,mqik->mqk", local_dofs * scale, diff)


def tangential_jump_norms(conn: Connectivity, local_dofs: np.ndarray) -> np.ndarray:
    """Squared L2 norms, per edge, of the tangential inter-element jump.

    The trace is affine along each edge, so with endpoint jump values
    j0, j1 the squared norm is |E| (j0^2 + j0 j1 + j1^2) / 3 exactly.
    Boundary edges use the one-sided trace.
    """
    traces = rt_at_points(conn, slice(None), local_dofs, conn.pts)

    def side_vals(s):
        k = conn.edge_elems[:, s]
        l = conn.edge_local[:, s]
        va = (l + 1) % 3
        vb = (l + 2) % 3
        ga = conn.tris[k, va]
        ta = traces[k, va, :]
        tb = traces[k, vb, :]
        flip = ga != conn.edges[:, 0]
        lo = np.where(flip[:, np.newaxis], tb, ta)
        hi = np.where(flip[:, np.newaxis], ta, tb)
        return lo, hi

    lo0, hi0 = side_vals(0)
    lo1, hi1 = side_vals(1)
    interior = ~conn.boundary_edge
    jlo = lo0.copy()
    jhi = hi0.copy()
    jlo[interior] -= lo1[interior]
    jhi[interior] -= hi1[interior]
    j0 = np.einsum("ek,ek->e", jlo, conn.tangents)
    j1 = np.einsum("ek,ek->e", jhi, conn.tangents)
    return conn.lengths * (j0 * j0 + j0 * j1 + j1 * j1) / 3.0


def prolong_rt0(coarse: Connectivity, p: np.ndarray, fine: Connectivity) -> np.ndarray:
    """Coefficients of a coarse RT0 field on the edges of a nested fine mesh.

    A coefficient is the constant normal-component value along its edge.
    Edges present in both meshes keep their coefficient verbatim (the
    global normal is vertex based, hence mesh independent); new edges
    sample p(mid) . n of the coarse field, exact because the field is
    affine on the coarse element containing the edge.  Raises ValueError
    when a fine leaf has no ancestor-or-self among the coarse leaves.
    """
    rows = fine.mesh.coarse_rows(coarse.mesh)
    if np.any(rows < 0):
        raise ValueError("fine mesh does not refine the coarse one")
    ckeys = coarse.mesh.edge_table()[0]
    keys = fine.mesh.edge_table()[0]
    pos = np.minimum(np.searchsorted(ckeys, keys), len(ckeys) - 1)
    shared = ckeys[pos] == keys
    out = np.empty(fine.n_edges)
    out[shared] = p[pos[shared]]
    new_rows = np.nonzero(~shared)[0]
    if len(new_rows):
        rows_fine = fine.edge_elems[new_rows, 0]
        anc = rows[rows_fine]
        coords = fine.mesh.forest.coords()
        mids = 0.5 * (
            coords[fine.edges[new_rows, 0]] + coords[fine.edges[new_rows, 1]]
        )
        dofs = coarse.local_flux_dofs(p)[anc]
        vals = rt_at_points(coarse, anc, dofs, mids[:, np.newaxis, :])[:, 0, :]
        out[new_rows] = np.einsum("mk,mk->m", vals, fine.normals[new_rows])
    return out


def prolong_p1(forest, vertex_values: dict, fine: Connectivity) -> np.ndarray:
    """Nodal values, on a fine mesh, of a continuous piecewise-affine field.

    ``vertex_values`` maps forest vertex indices (the coarse nodes) to
    values; every other active vertex is a recorded edge midpoint whose
    value is the parents' average, exact by nestedness.
    """
    vals = dict(vertex_values)
    parents = forest.vertex_parents()

    def value(v):
        out = vals.get(v)
        if out is None:
            a, b = parents[v].tolist()
            if a < 0:
                raise ValueError(f"vertex {v} is not reachable from the coarse nodes")
            out = 0.5 * (value(a) + value(b))
            vals[v] = out
        return out

    return np.asarray([value(int(v)) for v in fine.node_vertices])
