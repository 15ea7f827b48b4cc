"""Mixed RT0 x P0 discretization of the Poisson model problem.

The dual form seeks the flux p in the lowest-order Raviart-Thomas space
and a piecewise-constant u with

    (p, q) + (u, div q) = 0          for all RT0 fluxes q,
    (div p, v) = -(f, v)             for all piecewise constants v,

so div p equals minus the elementwise mean of f exactly.  The solver
works in the basis of a spanning tree of the dual graph, rooted outside
the domain: one tree flux per element carries the load, so the
constraint holds element by element by construction, and the curls of
a P1 stream function (plus one field per hole) carry the rest.  Its one
system is the P1 stiffness matrix, and the tree steps are numpy
passes over the tree's depths, subtree sums for the flux and
root-to-leaf sums for the potential (``_DualTree``, ``_solve_flux``);
the least-squares solve works in the same basis (``TreeBasis``).  A
problem keeps the last stiffness factor it made.  The meshes of one
run are nested, so their P1 spaces are too, and a large level within
twice the kept level's size is solved by conjugate gradients with a
two-grid preconditioner whose coarse solve is that factor
(``_KeptFactor``, ``_two_grid_cg``); every other level is ordered and
factored, and its factor is kept instead.
The residual is measured on the saddle-point system, summed element by
element in closed form from each element's affine flux, so its
matrices are never assembled, and the elementwise divergence gap is
gated too.  The error estimator
combines an area-weighted flux volume term with tangential
inter-element jumps.  Each solve keeps its flux's elementwise affine
pair, and the distance between nested solutions, the H(div) norm of the
flux difference, is closed form from the two solves' pairs, matched
element to ancestor through ``coarse_rows``: nested RT0 spaces are
inclusion-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .edges import Connectivity, rt_affine, rt_at_points, rt_norm2, tangential_jump_norms
from .marking import ElementOscillation, IndicatorField
from .mesh import Triangulation
from .quadrature import _centroids
from .sparse_direct import (
    _RESIDUAL_TOL,
    SolverError,
    _ordered_gram,
    _pcg,
    assemble_nodal,
    solve_spd,
)

# the worst elementwise gap of div p = -f_K, relative to the divergence's terms
_DIV_GAP_TOL = 1e-12
# A level whose stream function has at least _REUSE_MIN free unknowns,
# and at most _REUSE_GROWTH times those of the last factor its problem
# made, is solved by conjugate gradients on that factor (see
# ``_KeptFactor``) instead of being ordered and factored.  On the
# mixed-adaptive benchmark run (41 levels to 30 000 elements) 8 levels
# take the gradients, with 13-15 iterations each.  With no minimum, 30
# of the 41 levels took them and the time gained on the large levels
# was lost on the small ones; with 4x growth, up to 20 iterations were
# needed and the gain was lost too.
_REUSE_MIN = 3000
_REUSE_GROWTH = 2
# the damping of the Jacobi sweeps around the coarse correction
_JACOBI_DAMPING = 0.6
# the conjugate gradients stop at this residual, relative to the
# right-hand side's
_CG_TOL = 1e-13

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
    mesh: Triangulation
    p: np.ndarray          # constant normal trace per edge, against the global normal
    u: np.ndarray          # piecewise-constant multiplier per element
    pair: tuple            # the flux's elementwise pair (a, pbar) (see ``rt_affine``)
    residual: float
    div_gap: float         # worst elementwise gap of div p = -f_K (see ``_div_gap``)
    unknowns: int = 0      # size of the P1 system, 0 if none was solved
    lu_nnz: int = 0        # the L+U entries of the factor it was solved on
    pcg_iterations: int = 0  # conjugate-gradient iterations, 0 if it was factored

    @property
    def conn(self) -> Connectivity:
        """The mesh's Connectivity, kept with its other tables (see ``Connectivity.of``)."""
        return Connectivity.of(self.mesh)


@dataclass
class _DualTree:
    """Breadth-first spanning tree of the dual graph, rooted outside the domain.

    The dual graph joins the two elements of each interior edge, and joins
    an element to one node outside the domain through each of its
    boundary edges.  Each element owns the edge to its parent, so the
    tree edges are one per element.  The tree is kept as a sweep plan:
    ``order`` lists the elements slot by slot, by depth as the search
    from the outside node reaches them, and ``up`` gives each slot its
    parent's slot, -1 below the outside node.  Depth d fills the slots
    ``bounds[2 d]`` to ``bounds[2 d + 2]``: first the children that are
    not their parent's last, then, from ``bounds[2 d + 1]``, the last
    ones.  An element has at most two children, one per edge besides
    its tree edge, so the parents of either half of a depth are
    distinct, and a sweep adds a depth to the one above in two
    scatter-adds (``_tree_fluxes``) or takes the one above in one
    gather (``_tree_potential``).
    """

    order: np.ndarray      # (n,) the element in each slot
    edge: np.ndarray       # (n,) each element's tree edge
    outward: np.ndarray    # (n,) its outward flux per unit coefficient, +-|E|
    up: np.ndarray         # (n,) each slot's parent slot, -1 below the outside node
    bounds: np.ndarray     # (2 depths + 1,) the first slot of each depth and of its last children


def _dual_tree(conn: Connectivity) -> _DualTree:
    """The breadth-first tree of the dual graph of ``conn`` (see ``_DualTree``)."""
    n = len(conn.tris)
    other = conn.other_elem()
    graph = sp.csr_matrix(
        (np.ones(conn.n_edges), (conn.edge_elem, other)), shape=(n + 1, n + 1)
    )
    order, parent = breadth_first_order(graph, n, directed=False, return_predecessors=True)
    order, parent = order[1:], parent[:n]
    # the tree edge is the first local edge across which the parent lies
    first, second = conn.edge_elem[conn.elem_edges], other[conn.elem_edges]
    across = np.where(first == np.arange(n)[:, np.newaxis], second, first)
    local = np.argmax(across == parent[:, np.newaxis], axis=1)
    rows = np.arange(n)
    edge = conn.elem_edges[rows, local]
    outward = conn.elem_signs[rows, local] * conn.elem_edge_lengths[rows, local]

    # each element's parent by its place in the search (-1 outside),
    # nondecreasing as the search takes the parents in turn, so depth
    # d + 1 ends where the parents pass the end of depth d
    pos = np.full(n + 1, -1, dtype=np.int64)
    pos[order] = rows
    up = pos[parent[order]]
    ends = [0]
    while ends[-1] < n:
        ends.append(int(np.searchsorted(up, ends[-1])))
    depth = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
    # a parent's children are adjacent, so the last is the one before a new parent
    last = np.append(up[1:] != up[:-1], True)
    key = 2 * depth + last
    sweep = np.argsort(key, kind="stable")
    # each element's slot, with -1 outside as its last entry
    slot = np.full(n + 1, -1, dtype=np.int64)
    slot[sweep] = rows
    up = slot[up[sweep]]
    bounds = np.searchsorted(key[sweep], np.arange(2 * len(ends) - 1))
    return _DualTree(order[sweep], edge, outward, up, bounds)


def _tree_fluxes(tree: _DualTree, loads: np.ndarray) -> np.ndarray:
    """Coefficients on the tree edges of the fluxes whose divergences sum to -loads.

    Off the tree the fluxes are zero.  Each element's outward flux q_k
    through its tree edge, less its children's through theirs, is
    -loads_k, so q is minus the load of the element's subtree, summed
    from the deepest depth up, the first children before the last (see
    ``_DualTree``).  ``loads`` is (n,) or (n, m), one column per field.
    """
    x = -loads[tree.order]
    up, bounds = tree.up, tree.bounds.tolist()
    for d in range(len(bounds) // 2 - 1, 0, -1):
        a, m, b = bounds[2 * d : 2 * d + 3]
        x[up[a:m]] += x[a:m]
        x[up[m:b]] += x[m:b]
    q = np.empty_like(x)
    q[tree.order] = x
    return q / (tree.outward if q.ndim == 1 else tree.outward[:, np.newaxis])


def _tree_potential(tree: _DualTree, drops: np.ndarray) -> np.ndarray:
    """The per-element u with u_k - u_parent = drops_k, and u = 0 outside the domain.

    Summed from the outside node down, one depth at a time (see
    ``_DualTree``).  The saddle rows A p + B^T u of the tree edges are
    zero for the drops -(A p)_e / (+-|E|) of each element's tree edge e.
    """
    x = drops[tree.order]
    up, bounds = tree.up, tree.bounds.tolist()
    for d in range(1, len(bounds) // 2):
        a, b = bounds[2 * d], bounds[2 * d + 2]
        x[a:b] += x[up[a:b]]
    u = np.empty_like(x)
    u[tree.order] = x
    return u


def _mass_inner(conn: Connectivity, v, w) -> float:
    """(v, w) of two RT0 fields, from their pairs (a, pbar) (see ``rt_affine``)."""
    av, pv = v
    aw, pw = w
    return float(
        np.sum(conn.areas * np.einsum("nk,nk->n", pv, pw) + av * aw * conn.second_moments())
    )


def _free_nodes_and_holes(conn: Connectivity, tree: _DualTree, ends: np.ndarray):
    """The P1 nodes left free, and one cotree edge per hole of the mesh.

    The curls of P1 lose the constants of each connected component, so
    the lowest node of each, a vertex of the root mesh that the forest
    derives once (``BisectionForest.lowest_vertices``), is pinned.  A
    mesh with g holes, where g = edges - elements - nodes + components,
    has g divergence-free fields that are no curl: the cotree edges off
    a spanning forest of the primal graph, closed through the tree, are
    one per hole.  Any forest serves, so its weights are the edge
    numbers.  ``ends`` holds the two nodes of each edge.
    """
    n_nodes = conn.n_nodes
    lowest = conn.forest.lowest_vertices()
    free = np.ones(n_nodes, dtype=bool)
    free[np.searchsorted(conn.node_vertices, lowest)] = False
    if conn.n_edges - len(conn.tris) - n_nodes + len(lowest) == 0:
        return free, np.zeros(0, dtype=np.int64)
    cotree = np.ones(conn.n_edges, dtype=bool)
    cotree[tree.edge] = False
    cotree = np.flatnonzero(cotree)
    forest = minimum_spanning_tree(
        sp.csr_matrix((cotree + 1.0, (ends[cotree, 0], ends[cotree, 1])), shape=(n_nodes, n_nodes))
    )
    return free, np.setdiff1d(cotree, forest.data.astype(np.int64) - 1)


def p1_rows(conn: Connectivity, grads) -> np.ndarray:
    """(n, 2, 3) rows sqrt|K| grad phi of the P1 stiffness on each element, one per component.

    The stiffness is their Gram matrix; ``grads`` is ``conn.p1_grads()``.
    """
    return np.sqrt(conn.areas)[:, np.newaxis, np.newaxis] * grads.transpose(0, 2, 1)


@dataclass
class TreeBasis:
    """RT0 in the dual tree's basis, as both discretizations solve in it.

    The basis is the tree fluxes, one per element on its tree edge
    (``tree``), the curls of the hats of the ``free`` P1 nodes, and one
    field per hole: a cotree edge's unit flux closed through the tree,
    so divergence-free (``holes``, (n_edges, g) RT0 coefficients).
    ``ends`` holds the two nodes of each edge and ``lengths`` its length.
    """

    tree: _DualTree
    ends: np.ndarray
    lengths: np.ndarray
    free: np.ndarray
    holes: np.ndarray

    @classmethod
    def of(cls, conn: Connectivity) -> "TreeBasis":
        """The basis on the mesh of ``conn`` (see ``_dual_tree``, ``_free_nodes_and_holes``)."""
        tree = _dual_tree(conn)
        ends = conn.edge_nodes()
        free, cotree = _free_nodes_and_holes(conn, tree, ends)
        holes = np.zeros((conn.n_edges, len(cotree)))
        holes[cotree, np.arange(len(cotree))] = 1.0
        if len(cotree):
            holes[tree.edge] = _tree_fluxes(
                tree, np.column_stack([_div_sums(conn, z) for z in holes.T])
            )
        return cls(tree, ends, conn.lengths, free, holes)

    def fluxes(self, loads: np.ndarray) -> np.ndarray:
        """The tree fluxes whose divergences sum to -loads (see ``_tree_fluxes``)."""
        return _tree_fluxes(self.tree, loads)

    def potential(self, drops: np.ndarray) -> np.ndarray:
        """The per-element u that drops by ``drops`` across the tree edges (``_tree_potential``)."""
        return _tree_potential(self.tree, drops)

    def curls(self, psi: np.ndarray) -> np.ndarray:
        """RT0 coefficients of curl psi, for nodal psi of shape (n_nodes,) or (n_nodes, m).

        On the edge (a, b) the coefficient is (psi_b - psi_a) / |E|.
        """
        lengths = self.lengths if psi.ndim == 1 else self.lengths[:, np.newaxis]
        return (psi[self.ends[:, 1]] - psi[self.ends[:, 0]]) / lengths


class _KeptFactor:
    """The last stream-function factor a problem made, the coarse solve of later levels.

    Nested meshes have nested P1 spaces, so a level that refines the
    kept one is solved by ``_two_grid_cg`` with the kept factor as its
    exact coarse solve (Xu, SIAM Rev. 34, 1992).  A problem keeps at
    most one factor: a level that factors drops the kept one first, then
    keeps its own, and a case-B level of the separate-marking loop drops
    it before its approximation mesh is built (``MixedPoisson.release``).
    ``mesh`` is the level the factor was made on, and
    ``unknown`` numbers that level's free nodes by forest vertex, in node
    order as the factor's ``solve`` takes them, with -1 on every other
    vertex.
    """

    def __init__(self):
        self.drop()

    def drop(self):
        self.factor = self.mesh = self.unknown = None

    def keep(self, T: Triangulation, conn: Connectivity, free, factor):
        self.unknown = np.full(T.forest.n_vertices, -1, dtype=np.int64)
        self.unknown[conn.node_vertices[free]] = np.arange(len(factor.perm))
        self.factor, self.mesh = factor, T

    def interpolation(self, T: Triangulation, conn: Connectivity, free):
        """The P1 interpolation P from the kept level's free nodes to the ``free`` nodes of T.

        Column j of P is the kept level's hat of unknown j on T's free
        nodes: each node takes the barycentric coordinates of its point
        in the ancestor (``coarse_rows``) of one element that holds it.
        Returns None when the kept factor does not serve T: none is
        kept, T lies in another forest or does not refine the kept
        level, or T's free unknowns number fewer than ``_REUSE_MIN`` or
        more than ``_REUSE_GROWTH`` times the factor's.
        """
        if self.factor is None or T.forest is not self.mesh.forest:
            return None
        n_free, n_coarse = int(free.sum()), len(self.factor.perm)
        if not _REUSE_MIN <= n_free <= _REUSE_GROWTH * n_coarse:
            return None
        rows = T.coarse_rows(self.mesh)
        if np.any(rows < 0):
            return None
        holder = np.empty(conn.n_nodes, dtype=np.int64)
        holder[conn.elem_nodes] = np.arange(len(conn.tris))[:, np.newaxis]
        corners = T.forest.tris(self.mesh.leaf_ids[rows[holder[free]]])
        coords = T.forest.coords()
        c = coords[corners]
        x = coords[conn.node_vertices[free]]

        def cross(u, v):
            return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

        # exact at the kept level's vertices: (1, 0, 0), (0, 1, 0), (0, 0, 1)
        e1, e2, dx = c[:, 1] - c[:, 0], c[:, 2] - c[:, 0], x - c[:, 0]
        det = cross(e1, e2)
        l1, l2 = cross(dx, e2) / det, cross(e1, dx) / det
        weights = np.column_stack((1.0 - l1 - l2, l1, l2))
        cols = self.unknown[corners]
        # the roundoff left on a zero coordinate is dropped with it
        on = (cols >= 0) & (np.abs(weights) > 1e-12)
        indptr = np.zeros(n_free + 1, dtype=np.int64)
        np.cumsum(on.sum(axis=1), out=indptr[1:])
        return sp.csr_matrix((weights[on], cols[on], indptr), shape=(n_free, n_coarse))


def _two_grid_cg(S, rhs, P, coarse):
    """Solve S x = rhs by conjugate gradients with a symmetric two-grid preconditioner.

    The preconditioner is one damped Jacobi sweep (``_JACOBI_DAMPING``)
    from zero, the coarse correction P K^-1 P^T of the residual, with K
    the coarse system that the SPD factor ``coarse`` solves, and one more
    sweep.  Each column of ``rhs`` is solved by ``_pcg`` to ``_CG_TOL`` of
    its own residual.  Returns x and the iterations summed over the
    columns.
    """
    scale = _JACOBI_DAMPING / S.diagonal()

    def precondition(r):
        z = scale * r
        z += P @ coarse.solve(P.T @ (r - S @ z))
        return z + scale * (r - S @ z)

    x = np.empty(rhs.shape)
    total = 0
    for j, b in enumerate(rhs.T):
        x[:, j], iterations = _pcg(S.dot, precondition, b, _CG_TOL, "the stream function")
        total += iterations
    return x, total


def _stream_functions(T: Triangulation, fields: np.ndarray, free: np.ndarray, means, kept):
    """The psi with (curl psi, curl phi) = -(v, curl phi) for each column v of ``fields``.

    ``fields`` is (n_edges, m) RT0 coefficients on T; the P1 test
    functions phi are the hats of the ``free`` nodes, and psi is 0 on
    the others.  The matrix is the P1 stiffness, the Gram matrix of the
    rows sqrt|K| grad phi on each element.  Where the factor ``kept``
    holds serves T (see ``_KeptFactor.interpolation``), the system is
    formed in node order and solved by ``_two_grid_cg`` on it; otherwise
    ``kept`` drops its factor, the system is ordered and factored once
    for all m columns, and ``kept`` keeps the new factor.  ``kept`` is
    None for a solve that neither reads nor keeps one.  On K,
    (v, curl phi) = |K| pbar . curl phi, as x - x_K has mean zero there,
    with curl phi = (d phi / dy, -d phi / dx); ``means`` is
    ``conn.rt_means()``.  Returns the (n_nodes, m) psi, the number of
    unknowns, the L+U entries of the factor solved on and the conjugate
    gradients' iterations (0 where the level factors).
    """
    conn = Connectivity.of(T)
    n_free = int(free.sum())
    dofs = np.where(free, np.cumsum(free) - 1, -1)[conn.elem_nodes]
    held = dofs >= 0
    grads = conn.p1_grads()
    P = None if kept is None else kept.interpolation(T, conn, free)
    if P is None:
        if kept is not None:
            kept.drop()
        # R is not kept: the factorization runs without it
        S, perm = assemble_nodal(p1_rows(conn, grads), conn, (free,))[0][:2]
    else:
        S = _ordered_gram(p1_rows(conn, grads), dofs, np.arange(n_free))[0]
    rhs = np.empty((n_free, fields.shape[1]))
    for j, v in enumerate(fields.T):
        pbar = rt_affine(conn, conn.local_flux_dofs(v), means)[1]
        local = conn.areas[:, np.newaxis] * (
            pbar[:, np.newaxis, 0] * grads[:, :, 1] - pbar[:, np.newaxis, 1] * grads[:, :, 0]
        )
        rhs[:, j] = -np.bincount(dofs[held], weights=local[held], minlength=n_free)
    psi = np.zeros((conn.n_nodes, fields.shape[1]))
    if P is not None:
        psi[free], iterations = _two_grid_cg(S, rhs, P, kept.factor)
        return psi, n_free, kept.factor.nnz, iterations
    psi[free], factor = solve_spd(S, rhs, perm)
    if kept is not None:
        kept.keep(T, conn, free, factor)
    return psi, n_free, factor.nnz, 0


def _solve_flux(T: Triangulation, load, means, kept):
    """Flux of the mixed system in the dual tree's basis.

    RT0 is the tree fluxes, one per element, plus the divergence-free
    fields: the curls of P1 and one field per hole (Alonso
    Rodriguez-Camano-Ghiloni-Valli, IMA J. Numer. Anal. 37, 2017;
    Scheichl, SIAM J. Sci. Comput. 23, 2002).

    1. The particular flux p_f lives on the tree edges, with
       div p_f = -f_K on every element (``_tree_fluxes``).
    2. p = p_f + curl psi + sum_j alpha_j z_j is p_f less its mass
       projection on the divergence-free fields.  (curl psi, curl phi)
       = -(p_f, curl phi) is the P1 stiffness system.  Each hole's
       field z_j, a cotree edge closed through the tree (``TreeBasis``),
       is projected off the curls as one more column on the same
       factor; a g x g system in the mass then gives alpha.

    ``means`` is ``conn.rt_means()``, and ``kept`` the problem's kept
    factor (see ``_stream_functions``).  Returns p, the tree, the number
    of P1 unknowns, the L+U entries of the factor solved on and the
    conjugate gradients' iterations.
    """
    conn = Connectivity.of(T)
    basis = TreeBasis.of(conn)
    # the columns: p_f, then each hole's field
    fields = np.column_stack((np.zeros(conn.n_edges), basis.holes))
    fields[basis.tree.edge, 0] = basis.fluxes(load)

    psi, n_free, lu_nnz, iterations = _stream_functions(T, fields, basis.free, means, kept)
    fields += basis.curls(psi)
    p, z = fields[:, 0], fields[:, 1:].T
    if len(z):
        pp, *pz = [rt_affine(conn, conn.local_flux_dofs(v), means) for v in fields.T]
        gram = [[_mass_inner(conn, zi, zj) for zj in pz] for zi in pz]
        p = p + np.linalg.solve(gram, [-_mass_inner(conn, zi, pp) for zi in pz]) @ z
    return p, basis.tree, n_free, lu_nnz, iterations


def _div_sums(conn: Connectivity, p) -> np.ndarray:
    """Per element, sum_i d_i |E_i| = int_K div p: the rows B p."""
    return (conn.elem_edge_lengths * conn.local_flux_dofs(p)).sum(axis=1)


def _div_gap(conn: Connectivity, p, load) -> float:
    """Worst elementwise gap of the constraint, |B p + load| / sum_i |d_i| |E_i|.

    The denominator is the sum of the magnitudes of the divergence's
    terms, the scale at which it is computed; an element with no flux
    and no load has gap 0, one with load and no flux an infinite gap.
    """
    terms = conn.elem_edge_lengths * conn.local_flux_dofs(p)
    gap = np.abs(terms.sum(axis=1) + load)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(gap > 0.0, gap / np.abs(terms).sum(axis=1), 0.0)
    return float(rel.max(initial=0.0))


def _mass_rows(conn: Connectivity, pair, means) -> np.ndarray:
    """Per edge, the row (A p)_e of the RT0 mass matrix A.

    Each is summed from the elements' local dofs; with ``pair`` the
    (a, pbar) of p on K (see ``rt_affine``), ``means`` the basis means
    ``conn.rt_means()`` and 2 s_i |K| = |E_i|,
    int_K phi_i . p = s_i a J_K + |K| mean(phi_i) . pbar.
    """
    a, pbar = pair
    local = conn.elem_edge_lengths * (0.5 * a * conn.second_moments() / conn.areas)[
        :, np.newaxis
    ] + np.einsum("n,nik,nk->ni", conn.areas, means, pbar)
    return conn.signed_edge_sum(local)


def _saddle_residual(conn: Connectivity, p, mass, u, load) -> np.ndarray:
    """Residual of (p, u) in the saddle-point system, flux rows first.

    The flux rows are A p + B^T u, with ``mass`` the rows A p of the RT0
    mass matrix (see ``_mass_rows``) and B[k, e] = +-|E_e| the
    divergence coupling; the element rows are B p + load.
    """
    flux = mass + conn.signed_edge_sum(conn.elem_edge_lengths * u[:, np.newaxis])
    return np.concatenate((flux, _div_sums(conn, p) + load))


def solve_mixed(T: Triangulation, f, kept: _KeptFactor | None = None) -> MixedSolution:
    """Solve the mixed system; it must meet two gates.

    The flux is computed in the dual tree's basis (see ``_solve_flux``),
    and u zeroes the tree edges' rows of the saddle system (see
    ``_tree_potential``); the other rows vanish with the flux's
    projection.  The relative residual on the full saddle-point system
    in (p, u) (see ``_saddle_residual``) must meet 1e-10, and the worst
    elementwise gap of div p = -f_K, relative to the divergence's terms
    (see ``_div_gap``), 1e-12; either failure raises ``SolverError``.
    The load is the quadrature of f per element, read from f's data
    (``ElementOscillation.loads``): ``f`` is the field, or the store its
    problem keeps, which evaluates each forest node once.  The basis
    means and the flux's pair (see ``rt_affine``) are derived once; the
    solution keeps the pair for ``eta_mixed`` and ``delta_mixed``.
    ``kept`` is the factor a problem keeps from level to level (see
    ``_stream_functions``); without it, the level factors its own.
    """
    conn = Connectivity.of(T)
    load = ElementOscillation.of(f).loads(conn)
    bnorm = float(np.linalg.norm(load))
    if bnorm == 0.0:
        p, u, res, gap = np.zeros(conn.n_edges), np.zeros(len(load)), 0.0, 0.0
        pair = (np.zeros(len(load)), np.zeros((len(load), 2)))
        unknowns = lu_nnz = iterations = 0
    else:
        means = conn.rt_means()
        p, tree, unknowns, lu_nnz, iterations = _solve_flux(T, load, means, kept)
        pair = rt_affine(conn, conn.local_flux_dofs(p), means)
        mass = _mass_rows(conn, pair, means)
        u = _tree_potential(tree, -mass[tree.edge] / tree.outward)
        res = float(np.linalg.norm(_saddle_residual(conn, p, mass, u, load))) / bnorm
        if not res <= _RESIDUAL_TOL:
            raise SolverError(
                f"mixed solve residual {res:.3e} above {_RESIDUAL_TOL:g}"
            )
        gap = _div_gap(conn, p, load)
        if not gap <= _DIV_GAP_TOL:
            raise SolverError(
                f"mixed divergence gap {gap:.3e} above {_DIV_GAP_TOL:g}"
            )
    return MixedSolution(T, p, u, pair, res, gap, unknowns, lu_nnz, iterations)


def eta_mixed(T: Triangulation, sol: MixedSolution) -> IndicatorField:
    """Squared error indicators of the mixed solution.

    eta^2(K) = |K| ||p||_{L2(K)}^2
             + |K|^{1/2} sum_{E in E(K)} ||[p] . t_E||_{L2(E)}^2

    with one-sided traces on boundary edges.  Every term is a polynomial
    integral and is evaluated exactly, the volume term by ``rt_norm2``
    from the pair the solve keeps.
    """
    conn = sol.conn
    a, pbar = sol.pair
    vol = conn.areas * rt_norm2(conn, a, pbar)
    jumps = tangential_jump_norms(conn, a, pbar)
    per_elem = jumps[conn.elem_edges].sum(axis=1)
    values = vol + np.sqrt(conn.areas) * per_elem
    return IndicatorField(T.leaf_ids, values)


def delta_mixed(Tc: Triangulation, Tf: Triangulation, sol_c: MixedSolution, sol_f: MixedSolution) -> float:
    """Squared H(div) distance ||p_f - p_c||^2 between nested solutions.

    Nested RT0 spaces are inclusion-ordered: on each fine element the
    coarse flux is the pair (a_c, p_c(x_K)) of its ancestor's field at
    the fine centroid x_K, the ancestor found by ``coarse_rows``.  So the
    difference's pair (a, pbar) comes from the two solves' pairs, and its
    norm is closed form, with divergence 2 a.  The ancestors' corners
    come from the forest, so no table of the coarse mesh is read.  Raises
    ValueError when a fine element has no ancestor-or-self among the
    coarse ones.
    """
    rows = Tf.coarse_rows(Tc)
    if np.any(rows < 0):
        raise ValueError("fine mesh does not refine the coarse one")
    conn = sol_f.conn
    centroids = _centroids(conn.pts)[:, np.newaxis]
    a_c, p_c = sol_c.pair[0][rows], sol_c.pair[1][rows]
    coarse = Tc.forest.node_coords(Tc.leaf_ids[rows])
    a = sol_f.pair[0] - a_c
    pbar = sol_f.pair[1] - rt_at_points(coarse, a_c, p_c, centroids)[:, 0]
    l2 = float(np.sum(rt_norm2(conn, a, pbar)))
    hdiv = float(np.sum(conn.areas * (2.0 * a) ** 2))
    return l2 + hdiv


class MixedPoisson:
    """Problem instance bundling solver, estimator, data terms and distance.

    It keeps the last stream-function factor its solves made, which later
    levels of the same forest solve on (see ``_KeptFactor``), until
    ``release`` drops it.
    """

    kind = "mixed"

    def __init__(self, data_field):
        self.field = data_field
        self.oscillation = ElementOscillation(data_field)
        self._kept = _KeptFactor()

    def solve(self, T: Triangulation) -> MixedSolution:
        return solve_mixed(T, self.oscillation, self._kept)

    def release(self):
        # case B calls it: an overlay has more than doubled the free
        # unknowns on every level measured, past what the factor serves
        self._kept.drop()

    def eta(self, T: Triangulation, sol: MixedSolution) -> IndicatorField:
        return eta_mixed(T, sol)

    def mu(self, T: Triangulation) -> IndicatorField:
        return self.oscillation.mesh_values2(T)

    def delta(self, Tc, Tf, sol_c, sol_f) -> float:
        return delta_mixed(Tc, Tf, sol_c, sol_f)

    def extras(self, T: Triangulation, sol: MixedSolution) -> dict:
        return {
            "constraint_residual": sol.div_gap,
            "solver_residual": sol.residual,
            "unknowns": sol.unknowns,
            "lu_nnz": sol.lu_nnz,
            "pcg_iterations": sol.pcg_iterations,
        }
