"""Mixed RT0 x P0 discretization of the Poisson model problem.

The dual form seeks the flux p in the lowest-order Raviart-Thomas space
and a piecewise-constant u with

    (p, q) + (u, div q) = 0          for all RT0 fluxes q,
    (div p, v) = -(f, v)             for all piecewise constants v,

so div p equals minus the elementwise mean of f exactly.  The data
enter only through those means, so the solver factors the SPD
Crouzeix-Raviart system with the same load and recovers p and u from it
exactly by Marini's local formulas; the residual is still measured on
the saddle-point system, summed element by element from the local RT0
mass and the edge lengths, so its matrices are never assembled.  The
error estimator combines an area-weighted flux volume term with
tangential inter-element jumps; the distance between nested solutions
is the H(div) norm of the flux difference, computable exactly because
nested RT0 spaces are inclusion-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import Connectivity, prolong_rt0, tangential_jump_norms
from .marking import ElementOscillation, IndicatorField
from .mesh import Triangulation
from .quadrature import integrate_many, triangle_rule
from .sparse_direct import _RESIDUAL_TOL, SolverError, _scatter, solve_spd

__all__ = [
    "SolverError",
    "MixedSolution",
    "solve_mixed",
    "eta_mixed",
    "delta_mixed",
    "MixedPoisson",
]

@dataclass
class MixedSolution:
    conn: Connectivity
    p: np.ndarray          # constant normal trace per edge, against the global normal
    u: np.ndarray          # piecewise-constant multiplier per element
    residual: float
    f_means: np.ndarray    # quadratured elementwise means of the data
    unknowns: int = 0      # size of the factored CR system, 0 if none was
    lu_nnz: int = 0        # and the L+U entries of its factor

    @property
    def div_p(self) -> np.ndarray:
        return np.einsum("ni,ni->n", self.conn.rt_div(), self.conn.local_flux_dofs(self.p))


def _solve_marini(conn: Connectivity, load, f_means):
    """Flux and potential of the mixed system from one Crouzeix-Raviart solve.

    For a piecewise-constant load f_K (Marini, SIAM J. Numer. Anal. 22,
    1985) the RT0 x P0 solution is a local postprocess of the
    nonconforming P1 solution u_CR of (grad u, grad v) = (f_K, v):

        p   = grad u_CR - (f_K / 2)(x - x_K)            on each element,
        u_K = mean of u_CR on K + f_K (|E_1|^2 + |E_2|^2 + |E_3|^2) / 144.

    The flux coefficient of an edge is the normal trace of p at its
    midpoint, taken from the lowest-numbered element holding it.  The CR
    unknowns are the midpoint values on interior edges; a mesh without
    interior edges needs no solve.  Returns p, u, the number of CR
    unknowns factored and the L+U entries of the factor.
    """
    interior = ~conn.boundary_edge
    nint = int(interior.sum())
    u_cr = np.zeros(conn.n_edges)
    lu_nnz = 0
    if nint:
        index = np.full(conn.n_edges, -1, dtype=np.int64)
        index[interior] = np.arange(nint)
        dof = index[conn.elem_edges]  # (n, 3), -1 on boundary edges
        grads = conn.p1_grads()
        # the CR basis of the edge opposite vertex i is 1 - 2 lambda_i
        kloc = 4.0 * conn.areas[:, np.newaxis, np.newaxis] * np.einsum(
            "nik,njk->nij", grads, grads
        )
        S = _scatter(kloc, dof, nint)
        owned = dof.ravel() >= 0
        b = np.bincount(
            dof.ravel()[owned], weights=np.repeat(load / 3.0, 3)[owned], minlength=nint
        )
        u_cr[interior], lu_nnz = solve_spd(S, b, conn.midpoints[interior])

    u_loc = u_cr[conn.elem_edges]
    grad = -2.0 * np.einsum("ni,nik->nk", u_loc, conn.p1_grads())
    k0 = conn.edge_elem
    centroid = conn.pts.mean(axis=1)
    flux = grad[k0] - 0.5 * f_means[k0, np.newaxis] * (conn.midpoints - centroid[k0])
    p = np.einsum("ek,ek->e", flux, conn.normals)
    u = u_loc.mean(axis=1) + f_means * (conn.elem_edge_lengths**2).sum(axis=1) / 144.0
    return p, u, nint, lu_nnz


def _saddle_residual(conn: Connectivity, p, u, load) -> np.ndarray:
    """Residual of (p, u) in the saddle-point system, flux rows first.

    The flux rows are A p + B^T u, with A the RT0 mass matrix and
    B[k, e] = +-|E_e| the divergence coupling; the element rows are
    B p + load.  Each is summed from the elements' local dofs.
    """
    d = conn.local_flux_dofs(p)
    lengths = conn.elem_edge_lengths
    local = np.einsum("nij,nj->ni", conn.rt_local_mass(), d) + lengths * u[:, np.newaxis]
    return np.concatenate((conn.signed_edge_sum(local), (lengths * d).sum(axis=1) + load))


def solve_mixed(T: Triangulation, f, rule=None) -> MixedSolution:
    """Solve the mixed system; the relative residual must meet 1e-10.

    The solution is recovered from one SPD Crouzeix-Raviart solve (see
    ``_solve_marini``), and the residual is measured on the full
    saddle-point system in (p, u) (see ``_saddle_residual``).  The load
    is the quadrature of f per element.
    """
    rule = rule if rule is not None else triangle_rule(5)
    conn = Connectivity(T)
    load = integrate_many(f, conn.pts, rule)
    f_means = load / conn.areas
    bnorm = float(np.linalg.norm(load))
    if bnorm == 0.0:
        p, u, res = np.zeros(conn.n_edges), np.zeros(len(load)), 0.0
        unknowns = lu_nnz = 0
    else:
        p, u, unknowns, lu_nnz = _solve_marini(conn, load, f_means)
        res = float(np.linalg.norm(_saddle_residual(conn, p, u, load))) / bnorm
        if res > _RESIDUAL_TOL:
            raise SolverError(
                f"mixed solve residual {res:.3e} above {_RESIDUAL_TOL:g}"
            )
    return MixedSolution(conn, p, u, res, f_means, unknowns, lu_nnz)


def eta_mixed(T: Triangulation, sol: MixedSolution) -> IndicatorField:
    """Squared error indicators of the mixed solution.

    eta^2(K) = |K| ||p||_{L2(K)}^2
             + |K|^{1/2} sum_{E in E(K)} ||[p] . t_E||_{L2(E)}^2

    with one-sided traces on boundary edges.  Every term is a polynomial
    integral and is evaluated exactly.
    """
    conn = sol.conn
    d = conn.local_flux_dofs(sol.p)
    vol = conn.areas * np.einsum("ni,nij,nj->n", d, conn.rt_local_mass(), d)
    jumps = tangential_jump_norms(conn, d)
    per_elem = jumps[conn.elem_edges].sum(axis=1)
    values = vol + np.sqrt(conn.areas) * per_elem
    return IndicatorField(T.leaf_ids, values)


def delta_mixed(Tc: Triangulation, Tf: Triangulation, sol_c: MixedSolution, sol_f: MixedSolution) -> float:
    """Squared H(div) distance ||p_f - p_c||^2 between nested solutions.

    The coarse flux is prolonged exactly into the fine RT0 space, so the
    norm is evaluated in one space; the prolongation rejects non-nested
    meshes.
    """
    cf = prolong_rt0(sol_c.conn, sol_c.p, sol_f.conn)
    d = sol_f.p - cf
    conn = sol_f.conn
    dl = conn.local_flux_dofs(d)
    l2 = float(np.einsum("ni,nij,nj->", dl, conn.rt_local_mass(), dl))
    divd = np.einsum("ni,ni->n", conn.rt_div(), dl)
    hdiv = float(np.sum(conn.areas * divd * divd))
    return l2 + hdiv


class MixedPoisson:
    """Problem instance bundling solver, estimator, data terms and distance."""

    kind = "mixed"

    def __init__(self, data_field, quad_degree: int = 5):
        self.field = data_field
        self.rule = triangle_rule(quad_degree)
        self.oscillation = ElementOscillation(data_field, self.rule)

    def solve(self, T: Triangulation) -> MixedSolution:
        return solve_mixed(T, self.field, self.rule)

    def eta(self, T: Triangulation, sol: MixedSolution) -> IndicatorField:
        return eta_mixed(T, sol)

    def mu(self, T: Triangulation) -> IndicatorField:
        return self.oscillation.mesh_values2(T)

    def delta(self, Tc, Tf, sol_c, sol_f) -> float:
        return delta_mixed(Tc, Tf, sol_c, sol_f)

    def extras(self, T: Triangulation, sol: MixedSolution) -> dict:
        # the discrete constraint: elementwise div p + mean(f) = 0
        worst = float(np.max(np.abs(sol.div_p + sol.f_means)))
        scale = float(np.max(np.abs(sol.f_means))) or 1.0
        return {
            "constraint_residual": worst / scale,
            "solver_residual": sol.residual,
            "unknowns": sol.unknowns,
            "lu_nnz": sol.lu_nnz,
        }
