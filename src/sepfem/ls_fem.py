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
computed from the rows without forming R^T R.  The natural distance
between nested solutions is the difference of the minima, which is
nonnegative because the spaces are nested and is computed from the
functional values directly.
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
from .quadrature import integrate_many
from .sparse_direct import _RESIDUAL_TOL, SolverError, _row_matrix, assemble_nodal, solve_spd

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

    @property
    def conn(self) -> Connectivity:
        """The mesh's Connectivity, kept with its other tables (see ``Connectivity.of``)."""
        return Connectivity.of(self.mesh)


def assemble_ls(T: Triangulation, f):
    """The rows of the least-squares functional and the right-hand side.

    Unknowns are all edge fluxes followed by the interior nodal values.
    The functional is a sum of squares over the elements, so the
    optimality matrix is the Gram matrix R^T R of four rows per element
    on its three fluxes and three nodes.  With q = a (x - x_K) + qbar on
    K (see ``rt_affine``) and J_K the second moment, the squares are
    |K| (div q)^2 = |K| (2 a)^2, a^2 J_K and the two components of
    |K| |qbar - grad v|^2, as x - x_K has mean zero on K.  The only
    load is -(f, div r), R^T b for b = -sqrt|K| f_K on each divergence
    row.  Returns the (n, 4, 6) rows, the (n, 6) unknowns they sit on
    (-1 on a boundary node), the right-hand side, the connectivity and
    the mask of interior nodes.
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
    rows[:, 2:, 3:] = -p1_rows(conn, conn.p1_grads())

    load = integrate_many(f, conn.pts)  # int_K f
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
    """One P1 stiffness system R^T R on the ``keep`` nodes, factored at its first solve.

    ``S``, ``perm`` and R are as ``assemble_nodal`` gives them, so the
    unknowns are numbered in the factor's order, and the factor's own
    order is the identity (see ``solve_spd``): unknown i is unknown
    ``perm[i]`` of the subset in node order, on node ``nodes[i]``.
    """

    def __init__(self, S, perm, R, keep):
        self.S, self.perm, self.R, self.RT = S, perm, R, R.T
        self.nodes = np.flatnonzero(keep)[perm]
        self.unknowns = S.shape[0]
        self.factor = None

    def project(self, Y):
        """w = (R^T R)^-1 R^T Y and R w, the projection of the rows Y on R's range."""
        rhs = self.RT @ Y
        if self.factor is None:
            w, self.factor = solve_spd(self.S, rhs, np.arange(self.unknowns))
            self.S = None
        else:
            w = self.factor.solve(rhs)
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
    Preconditioned conjugate gradients solve it from t = 0.  On tau the
    divergence row and the row of a = div q / 2 of element K sum to
    (4 |K| + J_K) a^2 = (B tau)_K^2 / W_K: B the tree's matrix scaled
    by the outward lengths and W_K = 4 |K|^2 / (4 |K| + J_K), so two
    unit triangular solves invert that part; alpha is preconditioned by the
    fields' Gram matrix.  What the preconditioner leaves out, the mean
    rows after the projection, grows against the divergence rows with
    the element size, so a mesh of larger elements takes more
    iterations.  psi and u follow the iterates with the same steps.
    Returns x, the P1 unknowns, the L+U entries of the two factors and
    the iterations.  In exact arithmetic the gradients end within the
    order n + g of the system; more iterations raise ``SolverError``.
    """
    n, ne = len(conn.tris), conn.n_edges
    basis = TreeBasis.of(conn)
    tree = basis.tree
    grad = -rows[:, 2:, 3:]  # the P1 rows sqrt|K| grad phi
    subsets = (basis.free, interior)
    psi_sys, u_sys = (
        _Stiffness(*s, keep) for s, keep in zip(assemble_nodal(grad, conn, subsets), subsets)
    )

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

    def schur(d):
        # R_t^T (I - Pi) R_t d, with the psi and u that project R_t d
        Y = (R_tau @ d[:n]).reshape(n, 4) + R_alpha @ d[n:]
        mean = Y[:, 2:].ravel()
        w_psi, grad_psi = psi_sys.project(_rot(mean))
        w_u, grad_u = u_sys.project(mean)
        Y[:, 2:] -= (grad_u - _rot(grad_psi)).reshape(n, 2)
        q = np.concatenate((R_tau_T @ Y.ravel(), np.einsum("nrg,nr->g", R_alpha, Y)))
        return q, w_psi, w_u

    weight = 4.0 * conn.areas**2 / (4.0 * conn.areas + conn.second_moments())

    def precondition(r):
        # B^-1 W B^-T r: B^T v = r, then B t = W v
        tree_rows = np.zeros(ne)
        tree_rows[tree.edge] = -r[:n]
        v = basis.potential(tree_rows)
        t = basis.fluxes(-(weight * v)[:, np.newaxis])[:, 0]
        return np.concatenate((t, np.linalg.solve(gram, r[n:]) if g else []))

    b = np.concatenate((rhs[:ne][tree.edge], fields.T @ rhs[:ne]))
    t = np.zeros(n + g)
    w_psi, w_u = np.zeros(psi_sys.unknowns), np.zeros(u_sys.unknowns)
    r = b.copy()
    z = precondition(r)
    d, rz = z, float(r @ z)
    stop = _CG_TOL * float(np.linalg.norm(b))
    for iterations in range(1, n + g + 1):
        q, step_psi, step_u = schur(d)
        alpha = rz / (d @ q)
        t += alpha * d
        w_psi += alpha * step_psi
        w_u += alpha * step_u
        r -= alpha * q
        # a NaN residual stops too, and fails the gate
        if not np.linalg.norm(r) > stop:
            break
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    else:
        raise SolverError(
            f"conjugate gradients on the tree fluxes did not reach {_CG_TOL:g} "
            f"in {n + g} iterations, the order of their system"
        )

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
    R^T b, with R^T R x summed from the elements' rows.
    """
    rows, dofs, rhs, conn, interior = assemble_ls(T, f)
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
    total = ls_functional(conn, f, p, u)
    return LsSolution(T, p, u, res, total, unknowns, lu_nnz, iterations)


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
            "cg_iterations": sol.cg_iterations,
        }
