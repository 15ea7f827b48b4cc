"""Div least-squares discretization of the Poisson model problem.

Minimizes LS(f; q, v) = ||f + div q||^2 + ||q - grad v||^2 over the
lowest-order Raviart-Thomas fluxes q and continuous piecewise-affine v
vanishing on the boundary.  The optimality system is symmetric positive
definite.  The natural distance between nested solutions is the
difference of the minima, which is nonnegative because the spaces are
nested and is computed from the functional values directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .edges import Connectivity, rt_at_points, tangential_jump_norms
from .marking import ElementOscillation, IndicatorField
from .mesh import Triangulation
from .quadrature import integrate_many, triangle_rule
from .sparse_direct import _RESIDUAL_TOL, SolverError, _scatter, solve_spd

__all__ = [
    "LsSolution",
    "assemble_ls",
    "solve_ls",
    "ls_functional",
    "eta_ls",
    "delta_ls",
    "LeastSquaresPoisson",
]

_CLAMP_REL = 1e-9

log = logging.getLogger(__name__)


@dataclass
class LsSolution:
    conn: Connectivity
    p: np.ndarray             # constant normal trace per edge, against the global normal
    u: np.ndarray             # nodal values on all nodes (zero on the boundary)
    residual: float           # relative gradient residual of the discrete minimum
    ls_total: float
    unknowns: int = 0         # size of the factored system, 0 if none was
    lu_nnz: int = 0           # and the L+U entries of its factor


def assemble_ls(T: Triangulation, f, rule=None):
    """Assemble the SPD least-squares system and right-hand side.

    Unknowns are all edge fluxes followed by the interior nodal values.
    Blocks: (div q, div r) + (q, r) couples fluxes, -(q, grad w) couples
    flux and potential, (grad v, grad w) is the nodal stiffness; the only
    load is -(f, div r).
    """
    rule = rule if rule is not None else triangle_rule(5)
    conn = Connectivity(T)
    n = len(conn.tris)
    ne = conn.n_edges

    sgn = conn.elem_signs
    mloc = conn.rt_local_mass() * sgn[:, :, np.newaxis] * sgn[:, np.newaxis, :]
    dvec = sgn * conn.rt_div()  # (n, 3) divergences of the global basis
    divloc = conn.areas[:, np.newaxis, np.newaxis] * (
        dvec[:, :, np.newaxis] * dvec[:, np.newaxis, :]
    )
    grads = conn.p1_grads()
    kloc = conn.areas[:, np.newaxis, np.newaxis] * np.einsum(
        "nik,njk->nij", grads, grads
    )
    # int_K phi_i = |E_i| (centroid - P_i) / 2, signed
    centroid = conn.pts.mean(axis=1)
    intphi = (
        sgn[:, :, np.newaxis]
        * conn.elem_edge_lengths[:, :, np.newaxis]
        * (centroid[:, np.newaxis, :] - conn.pts)
        / 2.0
    )
    cloc = np.einsum("nik,njk->nij", intphi, grads)  # flux i, node j

    interior = ~conn.boundary_node
    nint = int(interior.sum())
    int_index = np.full(conn.n_nodes, -1, dtype=np.int64)
    int_index[interior] = np.arange(nint)
    elem_int = int_index[conn.elem_nodes]  # (n, 3), -1 on boundary nodes

    # one (6, 6) block per element on its three fluxes and three nodes
    block = np.empty((n, 6, 6))
    block[:, :3, :3] = mloc + divloc
    block[:, :3, 3:] = -cloc
    block[:, 3:, :3] = -cloc.transpose(0, 2, 1)
    block[:, 3:, 3:] = kloc
    dofs = np.concatenate(
        (conn.elem_edges, np.where(elem_int >= 0, ne + elem_int, -1)), axis=1
    )
    ndof = ne + nint
    S = _scatter(block, dofs, ndof)

    load = integrate_many(f, conn.pts, rule)  # int_K f
    rhs = np.zeros(ndof)
    rhs[:ne] = conn.signed_edge_sum(-conn.rt_div() * load[:, np.newaxis])
    return S, rhs, conn, interior


def solve_ls(T: Triangulation, f, rule=None) -> LsSolution:
    """Minimize the least-squares functional; gradient residual <= 1e-10."""
    rule = rule if rule is not None else triangle_rule(5)
    S, rhs, conn, interior = assemble_ls(T, f, rule)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        x = np.zeros(S.shape[0])
        res = 0.0
        unknowns = lu_nnz = 0
    else:
        coords = np.concatenate(
            (conn.midpoints, T.forest.coords()[conn.node_vertices[interior]])
        )
        x, lu_nnz = solve_spd(S, rhs, coords)
        unknowns = S.shape[0]
        res = float(np.linalg.norm(S @ x - rhs)) / bnorm
    if res > _RESIDUAL_TOL:
        raise SolverError(f"least-squares residual {res:.3e} above {_RESIDUAL_TOL:g}")
    p = x[: conn.n_edges]
    u = np.zeros(conn.n_nodes)
    u[interior] = x[conn.n_edges :]
    total = ls_functional(conn, f, p, u, rule)
    return LsSolution(conn, p, u, res, total, unknowns, lu_nnz)


def _midpoint_norm2(conn: Connectivity, values):
    """Per-element squared L2 norms of fields given by (n, 3, 2) midpoint values.

    The midpoint rule is exact for quadratics.  The sum runs over the
    midpoints in order, so its bits do not depend on the memory layout
    of ``values``.
    """
    sq = values * values
    at = sq[:, :, 0] + sq[:, :, 1]
    return (conn.areas / 3.0) * (at[:, 0] + at[:, 1] + at[:, 2])


def ls_functional(conn: Connectivity, f, p, u, rule=None) -> float:
    """Least-squares functional value LS(f; p, u) on the mesh of ``conn``.

    The divergence part integrates (f + div q)^2 with the fixed rule;
    the flux part |q - grad v|^2 is a quadratic polynomial and uses the
    exact midpoint rule.  The per-element values are summed with fsum.
    """
    rule = rule if rule is not None else triangle_rule(5)
    dl = conn.local_flux_dofs(np.asarray(p))
    divp = np.einsum("ni,ni->n", conn.rt_div(), dl)

    def shifted_sq(x, y):
        v = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape).copy()
        v += divp[:, np.newaxis]
        return v * v

    part_div = integrate_many(shifted_sq, conn.pts, rule)

    u = np.asarray(u, dtype=float)
    if len(u) != conn.n_nodes:
        raise ValueError("u must carry one value per mesh node")
    gradu = np.einsum("ni,nik->nk", u[conn.elem_nodes], conn.p1_grads())
    pm = rt_at_points(conn, slice(None), dl, conn.midpoints[conn.elem_edges])
    diff = pm - gradu[:, np.newaxis, :]
    part_flux = _midpoint_norm2(conn, diff)

    return math.fsum((part_div + part_flux).tolist())


def eta_ls(T: Triangulation, sol: LsSolution) -> IndicatorField:
    """Squared indicators of the least-squares solution.

    eta^2(K) = ||p - mean(p)||_{L2(K)}^2
             + |K|^{1/2} sum_{E in E(K)} ||[p] . t_E||_{L2(E)}^2
             + |K|^{1/2} sum_{E in E(K), E interior} |E| [grad u . n_E]^2
    """
    conn = sol.conn
    dl = conn.local_flux_dofs(sol.p)
    pm = rt_at_points(conn, slice(None), dl, conn.midpoints[conn.elem_edges])
    pbar = pm.mean(axis=1)  # = value at centroid = elementwise mean
    dev = pm - pbar[:, np.newaxis, :]
    t_mean = _midpoint_norm2(conn, dev)

    t_tang = tangential_jump_norms(conn, dl)[conn.elem_edges].sum(axis=1)

    un = sol.u[conn.elem_nodes]
    gradu = np.einsum("ni,nik->nk", un, conn.p1_grads())
    jumps = conn.signed_edge_sum(np.repeat(gradu[:, np.newaxis, :], 3, axis=1))
    jump = np.einsum("ek,ek->e", jumps, conn.normals)
    jn = np.where(conn.boundary_edge, 0.0, conn.lengths * jump * jump)
    t_norm = jn[conn.elem_edges].sum(axis=1)

    values = t_mean + np.sqrt(conn.areas) * (t_tang + t_norm)
    return IndicatorField(T.leaf_ids, values)


def delta_ls(sol_c: LsSolution, sol_f: LsSolution) -> float:
    """Distance between nested solves: the drop of the least-squares minimum.

    Nonnegative for nested spaces; tiny negative values from roundoff are
    clamped at zero, anything below -1e-9 * LS(coarse) is logged loudly.
    """
    d = sol_c.ls_total - sol_f.ls_total
    if d < -_CLAMP_REL * abs(sol_c.ls_total):
        log.warning(
            "least-squares minimum increased under refinement: %.3e -> %.3e",
            sol_c.ls_total,
            sol_f.ls_total,
        )
    return max(d, 0.0)


class LeastSquaresPoisson:
    """Problem instance for the div least-squares discretization."""

    kind = "ls"

    def __init__(self, data_field, quad_degree: int = 5):
        self.field = data_field
        self.rule = triangle_rule(quad_degree)
        self.oscillation = ElementOscillation(data_field, self.rule)

    def solve(self, T: Triangulation) -> LsSolution:
        return solve_ls(T, self.field, self.rule)

    def eta(self, T: Triangulation, sol: LsSolution) -> IndicatorField:
        return eta_ls(T, sol)

    def mu(self, T: Triangulation) -> IndicatorField:
        return self.oscillation.mesh_values2(T)

    def delta(self, Tc, Tf, sol_c, sol_f) -> float:
        if not Tf.refines(Tc):
            raise ValueError("delta requires the second mesh to refine the first")
        return delta_ls(sol_c, sol_f)

    def extras(self, T: Triangulation, sol: LsSolution) -> dict:
        return {
            "ls_total": sol.ls_total,
            "solver_residual": sol.residual,
            "unknowns": sol.unknowns,
            "lu_nnz": sol.lu_nnz,
        }
