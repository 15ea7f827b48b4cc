"""Div least-squares discretization of the Poisson model problem.

Minimizes LS(f; q, v) = ||f + div q||^2 + ||q - grad v||^2 over the
lowest-order Raviart-Thomas fluxes q and continuous piecewise-affine v
vanishing on the boundary.  The functional is a sum of squares of rows
that each element contributes (``assemble_ls``), so its optimality
system is R^T R x = R^T b.  The solver works in the dual tree's basis
of ``mixed_fem``: one tree flux per element, the curls of a P1 stream
function psi and one field per hole.  As v vanishes on the boundary,
(curl psi, grad v) = 0, so psi and v are decoupled, and each is
eliminated with a factor of its P1 stiffness matrix; conjugate
gradients solve the Schur complement in the tree fluxes (see
``solve_ls``).  The gate is the gradient residual of the optimality
system in the unknowns' own basis, edge fluxes and interior nodes,
computed from the rows without forming R^T R.  The load and the
functional read f's 7-point data per forest node
(``marking.ElementOscillation``), the functional's divergence part in
closed form, and the estimate reads the flux's elementwise pair and
grad u that the solve derived for the functional, so each is derived
once per level.  The natural distance between nested solutions is the
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
from .mixed_fem import TreeBasis, p1_rows
from .sparse_direct import (
    _RESIDUAL_TOL,
    SolverError,
    _pcg,
    _row_matrix,
    assemble_nodal,
    solve_spd,
)

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
# conjugate gradients on the tree fluxes stop at this residual, relative
# to the right-hand side's
_CG_TOL = 1e-13

log = logging.getLogger(__name__)


@dataclass
class LsSolution:
    mesh: Triangulation
    p: np.ndarray             # constant normal trace per edge, against the global normal
    u: np.ndarray             # nodal values on all nodes (zero on the boundary)
    residual: float           # relative gradient residual of the discrete minimum
    ls_total: float
    unknowns: int = 0         # size of the two factored P1 systems, 0 if none was
    lu_nnz: int = 0           # and the L+U entries of their factors
    cg_iterations: int = 0    # conjugate-gradient iterations on the tree fluxes
    # the pair (a, pbar) of p and grad u per element (see ``_local_fields``),
    # as the functional derived them, for ``eta_ls``; the problem drops
    # them once it has the estimate, so a finished level keeps only p and u
    fields: tuple | None = None

    @property
    def conn(self) -> Connectivity:
        """The mesh's Connectivity, kept with its other tables (see ``Connectivity.of``)."""
        return Connectivity.of(self.mesh)


def assemble_ls(T: Triangulation, f, grads=None, means=None):
    """The rows of the least-squares functional and the right-hand side.

    Unknowns are all edge fluxes followed by the interior nodal values.
    The functional is a sum of squares over the elements, so the
    optimality matrix is the Gram matrix R^T R of four rows per element
    on its three fluxes and three nodes.  With q = a (x - x_K) + qbar on
    K (see ``rt_affine``) and J_K the second moment, the squares are
    |K| (div q)^2 = |K| (2 a)^2, a^2 J_K and the two components of
    |K| |qbar - grad v|^2, as x - x_K has mean zero on K.  The only
    load is -(f, div r), R^T b for b = -sqrt|K| f_K on each divergence
    row, with int_K f read from f's data (``ElementOscillation.loads``;
    ``f`` is the field or its store).  ``grads`` and ``means`` are
    ``conn.p1_grads()`` and ``conn.rt_means()``, passed by a caller that
    reads them again.
    Returns the (n, 4, 6) rows, the (n, 6) unknowns they sit on (-1 on a
    boundary node), the right-hand side, the connectivity and the mask
    of interior nodes.
    """
    conn = Connectivity.of(T)
    if grads is None:
        grads = conn.p1_grads()
    if means is None:
        means = conn.rt_means()
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
    rows[:, 2:, :3] = (root * sgn)[:, np.newaxis, :] * means.transpose(0, 2, 1)
    rows[:, 2:, 3:] = -p1_rows(conn, grads)

    load = ElementOscillation.of(f).loads(conn)  # int_K f
    rhs = np.zeros(ne + nint)
    rhs[:ne] = conn.signed_edge_sum(-conn.rt_div() * load[:, np.newaxis])
    return rows, dofs, rhs, conn, interior


def _gradient(rows, dofs, x) -> np.ndarray:
    """R^T R x for the elements' ``rows`` on their unknowns ``dofs``, matrix-free."""
    n = len(x)
    cols = np.where(dofs >= 0, dofs, n)
    y = np.einsum("nrq,nq->nr", rows, np.append(x, 0.0)[cols])
    back = np.einsum("nrq,nr->nq", rows, y)
    return np.bincount(cols.ravel(), weights=back.ravel(), minlength=n + 1)[:n]


def _rot(Y) -> np.ndarray:
    """(-y, x) of each element's pair (x, y) of the (2n,) or (2n, m) mean rows.

    The rows of curl phi = (d phi / dy, -d phi / dx) are those of
    grad phi turned by -rot, so R_curl^T Y = R_grad^T rot(Y) and
    R_curl w = -rot(R_grad w).
    """
    pairs = Y.reshape(len(Y) // 2, 2, -1)
    return np.stack((-pairs[:, 1], pairs[:, 0]), axis=1).reshape(Y.shape)


class _Stiffness:
    """One P1 stiffness system R^T R on the ``keep`` nodes, factored as it is made.

    ``S``, ``perm`` and R are as ``assemble_nodal`` gives them, so the
    unknowns are numbered in the factor's order, and the factor's own
    order is the identity (see ``solve_spd``): unknown i is unknown
    ``perm[i]`` of the subset in node order, on node ``nodes[i]``.  S is
    factored with no right-hand side, and not kept.
    """

    def __init__(self, S, perm, R, keep):
        self.perm, self.R, self.RT = perm, R, R.T
        self.nodes = np.flatnonzero(keep)[perm]
        self.unknowns = S.shape[0]
        identity = np.arange(self.unknowns)
        self.factor = solve_spd(S, np.empty((self.unknowns, 0)), identity)[1]

    def project(self, Y):
        """w = (R^T R)^-1 R^T Y and R w, the projection of the rows Y on R's range."""
        w = self.factor.solve(self.RT @ Y)
        return w, self.R @ w


def _solve_tree_basis(rows, rhs, conn: Connectivity, interior):
    """Minimizer x = (p, u) of ||R x - b|| in the dual tree's basis.

    p = tau + sum_j alpha_j z_j + curl psi (see ``mixed_fem.TreeBasis``):
    tau one flux per element on its tree edge, z_j each hole's field
    projected off the curls, psi on the free P1 nodes.  The mean rows
    of R on psi, sqrt|K| curl phi, and on u, -sqrt|K| grad phi, are
    orthogonal, and neither touches the divergence rows, where b lives.
    So for fixed t = (tau, alpha) the best psi and u project the mean
    rows of R t on the two ranges, one P1 factor each (``_Stiffness``),
    and t solves the Schur complement R_t^T (I - Pi) R_t t = R_t^T b.
    Preconditioned conjugate gradients (``_pcg``) solve it from t = 0.
    On tau the divergence row and the row of a = div q / 2 of element K
    sum to (4 |K| + J_K) a^2 = (B tau)_K^2 / W_K: B the tree's matrix
    scaled by the outward lengths and W_K = 4 |K|^2 / (4 |K| + J_K), so
    one sweep down the tree's depths and one up invert that part
    (``TreeBasis.potential``, ``TreeBasis.fluxes``); alpha is
    preconditioned by the fields' Gram matrix.  What the preconditioner
    leaves out, the mean rows after the projection, grows against the
    divergence rows with the element size, so a mesh of larger elements
    takes more iterations.  psi and u are the projection of the final
    t.  Returns x, the P1 unknowns, the L+U entries of the two factors
    and the iterations.
    """
    n, ne = len(conn.tris), conn.n_edges
    basis = TreeBasis.of(conn)
    tree = basis.tree
    # both systems, on the P1 rows sqrt|K| grad phi, are factored before
    # the tree fluxes' rows are built, and each S is dropped once
    # factored: the second factorization is the solve's peak in memory
    systems = assemble_nodal(-rows[:, 2:, 3:], conn, (basis.free, interior))
    psi_sys = _Stiffness(*systems.pop(0), basis.free)
    u_sys = _Stiffness(*systems.pop(0), interior)

    flux = rows[:, :, :3]
    column = np.full(ne, -1, dtype=np.int64)
    column[tree.edge] = np.arange(n)
    R_tau = _row_matrix(flux, column[conn.elem_edges], n)
    R_tau_T = R_tau.T

    # each hole's field, projected off the curls as in the mixed solve
    fields = basis.holes
    g = fields.shape[1]
    if g:
        mean = np.einsum("nrq,nqg->nrg", flux[:, 2:], fields[conn.elem_edges])
        psi = np.zeros((conn.n_nodes, g))
        psi[psi_sys.nodes] = -psi_sys.project(_rot(mean.reshape(2 * n, g)))[0]
        fields = fields + basis.curls(psi)
    R_alpha = np.einsum("nrq,nqg->nrg", flux, fields[conn.elem_edges])
    gram = np.einsum("nrg,nrh->gh", R_alpha, R_alpha)

    def project(t):
        # (I - Pi) R_t t, and the psi and u that project R_t t
        Y = (R_tau @ t[:n]).reshape(n, 4) + R_alpha @ t[n:]
        mean = Y[:, 2:].ravel()
        w_psi, grad_psi = psi_sys.project(_rot(mean))
        w_u, grad_u = u_sys.project(mean)
        Y[:, 2:] -= (grad_u - _rot(grad_psi)).reshape(n, 2)
        return Y, w_psi, w_u

    def schur(d):
        # R_t^T (I - Pi) R_t d
        Y = project(d)[0]
        return np.concatenate((R_tau_T @ Y.ravel(), np.einsum("nrg,nr->g", R_alpha, Y)))

    weight = 4.0 * conn.areas**2 / (4.0 * conn.areas + conn.second_moments())

    def precondition(r):
        # B^-1 W B^-T r: B^T v = r, then B t = W v
        v = basis.potential(r[:n] / tree.outward)
        t = basis.fluxes(-(weight * v))
        return np.concatenate((t, np.linalg.solve(gram, r[n:]) if g else []))

    b = np.concatenate((rhs[:ne][tree.edge], fields.T @ rhs[:ne]))
    t, iterations = _pcg(schur, precondition, b, _CG_TOL, "the tree fluxes")
    w_psi, w_u = project(t)[1:]

    p = fields @ t[n:]
    p[tree.edge] += t[:n]
    psi = np.zeros(conn.n_nodes)
    psi[psi_sys.nodes] = -w_psi
    p += basis.curls(psi)
    u = np.empty(u_sys.unknowns)
    u[u_sys.perm] = w_u
    x = np.concatenate((p, u))
    unknowns = psi_sys.unknowns + u_sys.unknowns
    return x, unknowns, psi_sys.factor.nnz + u_sys.factor.nnz, iterations


def solve_ls(T: Triangulation, f) -> LsSolution:
    """Minimize the least-squares functional; gradient residual <= 1e-10.

    The minimizer comes from the dual tree's basis (see
    ``_solve_tree_basis``).  The residual is that of the optimality
    system in the unknowns' own basis, R^T R x - R^T b relative to
    R^T b, with R^T R x summed from the elements' rows.  ``f`` is the
    field or its store, which the rows and the functional both read.
    The hat gradients and the basis means are derived once, for the
    rows and the solution's elementwise fields, which the functional
    and the estimate read.
    """
    conn = Connectivity.of(T)
    data = ElementOscillation.of(f)
    grads, means = conn.p1_grads(), conn.rt_means()
    rows, dofs, rhs, _, interior = assemble_ls(T, data, grads, means)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        x = np.zeros(len(rhs))
        res = 0.0
        unknowns = lu_nnz = iterations = 0
    else:
        x, unknowns, lu_nnz, iterations = _solve_tree_basis(rows, rhs, conn, interior)
        res = float(np.linalg.norm(_gradient(rows, dofs, x) - rhs)) / bnorm
    if not res <= _RESIDUAL_TOL:
        raise SolverError(f"least-squares residual {res:.3e} above {_RESIDUAL_TOL:g}")
    p = x[: conn.n_edges]
    u = np.zeros(conn.n_nodes)
    u[interior] = x[conn.n_edges :]
    fields = _local_fields(conn, p, u, grads, means)
    total = ls_functional(conn, data, p, u, fields)
    return LsSolution(T, p, u, res, total, unknowns, lu_nnz, iterations, fields)


def _local_fields(conn: Connectivity, p, u, grads=None, means=None):
    """The pair (a, pbar) of the flux p on each element (see ``rt_affine``) and grad u.

    ``grads`` and ``means`` are ``conn.p1_grads()`` and
    ``conn.rt_means()``, passed by a caller that reads them again.
    """
    a, pbar = rt_affine(conn, conn.local_flux_dofs(np.asarray(p)), means)
    u = np.asarray(u, dtype=float)
    if len(u) != conn.n_nodes:
        raise ValueError("u must carry one value per mesh node")
    if grads is None:
        grads = conn.p1_grads()
    return a, pbar, np.einsum("ni,nik->nk", u[conn.elem_nodes], grads)


def ls_functional(conn: Connectivity, f, p, u, fields=None) -> float:
    """Least-squares functional value LS(f; p, u) on the mesh of ``conn``.

    The divergence part on K, the 7-point rule's Q((f + div q)^2) with
    div q = 2 a, is |K| (f_K + 2 a)^2 + mu^2(K) in closed form, f_K the
    mean of f and mu(K) its oscillation: the rule's weights sum to one,
    so Q(f - f_K) = 0 and Q((f - f_K)^2) = mu^2(K).  Both come from f's
    data (``ElementOscillation``; ``f`` is the field or its store).  The
    flux part is the closed-form norm of the pair (a, qbar - grad v),
    with (a, qbar) that of q (see ``rt_affine``).  The per-element
    values are summed with fsum.  ``fields`` is (a, qbar, grad v) as
    ``_local_fields`` derives them, passed by a caller that reads them
    again.
    """
    if fields is None:
        fields = _local_fields(conn, p, u)
    a, pbar, gradu = fields
    data = ElementOscillation.of(f)
    load, mu = data.loads(conn), data.node_values(conn.forest, conn.leaf_ids)
    part_div = conn.areas * (load / conn.areas + 2.0 * a) ** 2 + mu * mu
    part_flux = rt_norm2(conn, a, pbar - gradu)
    return math.fsum((part_div + part_flux).tolist())


def eta_ls(T: Triangulation, sol: LsSolution) -> IndicatorField:
    """Squared indicators of the least-squares solution.

    eta^2(K) = ||p - mean(p)||_{L2(K)}^2
             + |K|^{1/2} sum_{E in E(K)} ||[p] . t_E||_{L2(E)}^2
             + |K|^{1/2} sum_{E in E(K), E interior} |E| [grad u . n_E]^2

    where the first term is a^2 J_K, p being the pair (a, pbar) on K.
    The pair and grad u are those the solve derived (``sol.fields``),
    or derived here once the solution no longer holds them.
    """
    conn = sol.conn
    a, pbar, gradu = sol.fields or _local_fields(conn, sol.p, sol.u)
    t_mean = a * a * conn.second_moments()

    t_tang = tangential_jump_norms(conn, a, pbar)[conn.elem_edges].sum(axis=1)

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
        return solve_ls(T, self.oscillation)

    def eta(self, T: Triangulation, sol: LsSolution) -> IndicatorField:
        eta2 = eta_ls(T, sol)
        # the estimate is the last reader of the solution's elementwise fields
        sol.fields = None
        return eta2

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
            "cg_iterations": sol.cg_iterations,
        }
