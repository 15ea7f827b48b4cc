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

from .edges import Connectivity, rt_affine, rt_norm2, tangential_jump_norms
from .marking import ElementOscillation, IndicatorField
from .mesh import Triangulation
from .quadrature import integrate_many
from .sparse_direct import _RESIDUAL_TOL, SolverError, assemble_spd, solve_spd

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
    mesh: Triangulation
    p: np.ndarray             # constant normal trace per edge, against the global normal
    u: np.ndarray             # nodal values on all nodes (zero on the boundary)
    residual: float           # relative gradient residual of the discrete minimum
    ls_total: float
    unknowns: int = 0         # size of the factored system, 0 if none was
    lu_nnz: int = 0           # and the L+U entries of its factor

    @property
    def conn(self) -> Connectivity:
        """The mesh's Connectivity, kept with its other tables (see ``Connectivity.of``)."""
        return Connectivity.of(self.mesh)


def assemble_ls(T: Triangulation, f):
    """Assemble the SPD least-squares system and right-hand side.

    Unknowns are all edge fluxes followed by the interior nodal values.
    The functional is a sum of squares over the elements, so the matrix
    is the Gram matrix R^T R of four rows per element on its three
    fluxes and three nodes.  With q = a (x - x_K) + qbar on K (see
    ``rt_affine``) and J_K the second moment, the squares are
    |K| (div q)^2 = |K| (2 a)^2, a^2 J_K and the two components of
    |K| |qbar - grad v|^2, as x - x_K has mean zero on K.  The only
    load is -(f, div r).  Returns the matrix in its factor's order and
    that order (see ``assemble_spd``), the right-hand side in the
    unknowns' own order, the connectivity and the mask of interior nodes.
    """
    conn = Connectivity.of(T)
    n = len(conn.tris)
    ne = conn.n_edges

    interior = ~conn.boundary_node
    nint = int(interior.sum())
    int_index = np.full(conn.n_nodes, -1, dtype=np.int64)
    int_index[interior] = np.arange(nint)
    elem_int = int_index[conn.elem_nodes]  # (n, 3), -1 on boundary nodes
    dofs = np.concatenate(
        (conn.elem_edges, np.where(elem_int >= 0, ne + elem_int, -1)), axis=1
    )

    # the rows of R on each element's three fluxes (the global basis,
    # signed) and three nodes: sqrt|K| div q, sqrt(J_K) a and
    # sqrt|K| (qbar - grad v), with a = sum_i s_i d_i and div q = 2 a
    sgn = conn.elem_signs
    sgn_s = sgn * (0.5 * conn.rt_div())
    root = np.sqrt(conn.areas)[:, np.newaxis]
    rows = np.zeros((n, 4, 6))
    rows[:, 0, :3] = 2.0 * root * sgn_s
    rows[:, 1, :3] = np.sqrt(conn.second_moments())[:, np.newaxis] * sgn_s
    rows[:, 2:, :3] = (root * sgn)[:, np.newaxis, :] * conn.rt_means().transpose(0, 2, 1)
    rows[:, 2:, 3:] = -root[:, :, np.newaxis] * conn.p1_grads().transpose(0, 2, 1)
    ndof = ne + nint
    S, perm = assemble_spd(rows, dofs, ndof, conn)

    load = integrate_many(f, conn.pts)  # int_K f
    rhs = np.zeros(ndof)
    rhs[:ne] = conn.signed_edge_sum(-conn.rt_div() * load[:, np.newaxis])
    return S, perm, rhs, conn, interior


def solve_ls(T: Triangulation, f) -> LsSolution:
    """Minimize the least-squares functional; gradient residual <= 1e-10.

    The residual is that of the system in its factor's order, S x[perm]
    - rhs[perm] (see ``assemble_spd``).
    """
    S, perm, rhs, conn, interior = assemble_ls(T, f)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        x = np.zeros(S.shape[0])
        res = 0.0
        unknowns = lu_nnz = 0
    else:
        x, lu_nnz = solve_spd(S, rhs, perm)
        unknowns = S.shape[0]
        res = float(np.linalg.norm(S @ x[perm] - rhs[perm])) / bnorm
    if not res <= _RESIDUAL_TOL:
        raise SolverError(f"least-squares residual {res:.3e} above {_RESIDUAL_TOL:g}")
    p = x[: conn.n_edges]
    u = np.zeros(conn.n_nodes)
    u[interior] = x[conn.n_edges :]
    total = ls_functional(conn, f, p, u)
    return LsSolution(T, p, u, res, total, unknowns, lu_nnz)


def ls_functional(conn: Connectivity, f, p, u) -> float:
    """Least-squares functional value LS(f; p, u) on the mesh of ``conn``.

    The divergence part integrates (f + div q)^2 with the fixed rule,
    div q = 2 a; the flux part is the closed-form norm of the pair
    (a, qbar - grad v), with (a, qbar) that of q (see ``rt_affine``).
    The per-element values are summed with fsum.
    """
    a, pbar = rt_affine(conn, conn.local_flux_dofs(np.asarray(p)))
    divp = 2.0 * a

    def shifted_sq(x, y):
        v = f(x, y) + divp[:, np.newaxis]
        return v * v

    part_div = integrate_many(shifted_sq, conn.pts)

    u = np.asarray(u, dtype=float)
    if len(u) != conn.n_nodes:
        raise ValueError("u must carry one value per mesh node")
    gradu = np.einsum("ni,nik->nk", u[conn.elem_nodes], conn.p1_grads())
    part_flux = rt_norm2(conn, a, pbar - gradu)

    return math.fsum((part_div + part_flux).tolist())


def eta_ls(T: Triangulation, sol: LsSolution) -> IndicatorField:
    """Squared indicators of the least-squares solution.

    eta^2(K) = ||p - mean(p)||_{L2(K)}^2
             + |K|^{1/2} sum_{E in E(K)} ||[p] . t_E||_{L2(E)}^2
             + |K|^{1/2} sum_{E in E(K), E interior} |E| [grad u . n_E]^2

    where the first term is a^2 J_K, p being the pair (a, pbar) on K.
    """
    conn = sol.conn
    a, pbar = rt_affine(conn, conn.local_flux_dofs(sol.p))
    t_mean = a * a * conn.second_moments()

    t_tang = tangential_jump_norms(conn, a, pbar)[conn.elem_edges].sum(axis=1)

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
    Such a rise comes from rough data: under the 7-point rule the minimum
    is J_h + mu^2, J_h the functional for the elementwise means of f, and
    mu^2 need not fall under refinement (the cause of a B2 failure).
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

    def __init__(self, data_field):
        self.field = data_field
        self.oscillation = ElementOscillation(data_field)

    def solve(self, T: Triangulation) -> LsSolution:
        return solve_ls(T, self.field)

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
